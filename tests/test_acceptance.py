"""Acceptance suite: ten criteria, one test and one printed verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line per
criterion; the ``-v`` node report carries the same information.  Matrices
are compared exactly, never within a tolerance.  Criteria with a runtime
budget enforce it with a wall-clock assert.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rankmech import (
    DominanceQuery,
    Profile,
    build_assignment,
    check_dominance,
    decompose,
    detect_modified_pattern,
    deterministic_rank_value,
    is_wasteful,
    modified_mechanism,
    order_from_names,
    rank_value,
    refusal_transform,
    uniform_mechanism,
    wastefulness_witness,
)
from rankmech.examples import (
    example1_market,
    example2_market,
    example3_market,
    example4_market,
    make_denial_mechanism,
)
from rankmech.sweeps import (
    sweep_demotion_strict_gain,
    sweep_demotion_waste,
    sweep_demotion_weak_dominance,
    sweep_ete,
    sweep_no_strict_dominance,
)

from oracles import fraction_sweep_ete, refuse_row

F = Fraction


@contextmanager
def criterion(number, summary, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {summary}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {limit_seconds}s"
        )
    print(f"PASS criterion {number}: {summary} ({elapsed:.2f}s)")


def matrix(market, literal):
    return build_assignment(market, [[F(v) for v in row] for row in literal])


def test_criterion_01_narrow_market_reproduction():
    """Six uniform outcomes plus the refusal outcome on the two-type market."""
    with criterion(1, "two-type market reproduction", limit_seconds=1.0):
        market = example2_market()
        truth = order_from_names(market, "o1>null>o2")
        demoted = order_from_names(market, "o1>o2>null")
        rival = order_from_names(market, "o2>o1>null")
        expected = [
            ((truth, demoted, rival),
             [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]),
            ((demoted, demoted, rival),
             [["1/2", "0", "1/2"], ["1/2", "0", "1/2"], ["0", "1", "0"]]),
            ((truth, truth, truth),
             [["1/3", "0", "2/3"], ["1/3", "0", "2/3"], ["1/3", "0", "2/3"]]),
            ((demoted, truth, truth),
             [["1/3", "2/3", "0"], ["1/3", "0", "2/3"], ["1/3", "0", "2/3"]]),
            ((truth, demoted, demoted),
             [["0", "0", "1"], ["1/2", "1/2", "0"], ["1/2", "1/2", "0"]]),
            ((demoted, demoted, demoted),
             [["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]]),
        ]
        for orders, literal in expected:
            assert uniform_mechanism(market, Profile(orders)) == matrix(market, literal)
        truths = Profile((truth, demoted, demoted))
        refused = refusal_transform(
            market, uniform_mechanism(market, Profile((demoted, demoted, demoted))), truths
        )
        assert refused == matrix(
            market,
            [["1/3", "0", "2/3"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]],
        )
        witness = wastefulness_witness(market, refused, truths)
        assert witness == (1, 1, 2)
        # Replay the witness: o2 really has slack and a2 really ranks it higher.
        assert refused.column_sum(1) < market.capacities[1]
        assert truths[1].rank(1) < truths[1].rank(2)
        assert refused.entry(1, 2) > 0


def test_criterion_02_demotion_strictly_dominates():
    """Wide-market reproduction plus the two dominance verdicts."""
    with criterion(2, "demotion dominance on the four-type market", limit_seconds=120.0):
        market = example3_market()
        truth = order_from_names(market, "o1>null>o2>o3")
        swap = order_from_names(market, "o1>o3>o2>null")
        fan = order_from_names(market, "o3>o1>o2>null")
        keep = order_from_names(market, "o1>o2>o3>null")
        assert uniform_mechanism(market, Profile((truth, swap, fan))) == matrix(
            market,
            [["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        )
        refused = refusal_transform(
            market,
            uniform_mechanism(market, Profile((swap, swap, fan))),
            Profile((truth, swap, fan)),
        )
        assert refused == matrix(
            market,
            [["1/2", "0", "0", "1/2"], ["1/2", "1/2", "0", "0"], ["0", "0", "1", "0"]],
        )
        verdict = check_dominance(
            DominanceQuery(market, 0, truth, swap, mechanism="uniform", refusal=True)
        )
        assert verdict.strictly_dominates
        # The full extension is outcome-identical to the truth: across all
        # 576 opponent profiles the refusal-filtered rows coincide.
        count = 0
        for p2, p3 in itertools.product(market.all_orders(), repeat=2):
            row_keep = refuse_row(
                market, uniform_mechanism(market, Profile((keep, p2, p3))).row(0), truth
            )
            row_truth = refuse_row(
                market, uniform_mechanism(market, Profile((truth, p2, p3))).row(0), truth
            )
            assert row_keep == row_truth
            count += 1
        assert count == 576


def test_criterion_03_crowd_out_pattern_and_ete_flag():
    """Modified-mechanism rows, pattern detection and the biased fixture."""
    with criterion(3, "crowd-out pattern on the three-type market", limit_seconds=5.0):
        market = example1_market(second_capacity=1)
        patient = order_from_names(market, "o1>o2>null>o3")
        eager = order_from_names(market, "o1>o2>o3>null")
        assert modified_mechanism(market, Profile((eager, eager, eager))).row(0) == (
            F(1, 3), F(1, 3), F(1, 3), F(0),
        )
        assert modified_mechanism(market, Profile((patient, eager, eager))).row(0) == (
            F(1, 3), F(1, 3), F(0), F(1, 3),
        )
        wide = example1_market(second_capacity=2)
        assert detect_modified_pattern(wide, Profile((eager, patient, patient))) is None
        denial = make_denial_mechanism(wide, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
        biased = denial(wide, Profile((eager, patient, patient)))
        assert biased.entry(0, 0) == 0
        assert sum(biased.row(0), start=F(0)) == 1
        assert wide.essentially_equal(eager, patient)
        assert biased.row(0) != biased.row(1)
        from rankmech import check_ete

        assert not check_ete(denial, wide, Profile((eager, patient, patient)))


def test_criterion_04_two_agent_market_values():
    """All printed probabilities for both mechanisms at both profiles."""
    with criterion(4, "two-agent market values", limit_seconds=1.0):
        market = example4_market()
        broad = order_from_names(market, "o1>o2>null")
        narrow = order_from_names(market, "o1>null>o2")
        assert modified_mechanism(market, Profile((broad, broad))).row(0) == (
            F(1, 2), F(1, 2), F(0),
        )
        assert uniform_mechanism(market, Profile((broad, broad))).row(0) == (
            F(1, 2), F(1, 2), F(0),
        )
        assert modified_mechanism(market, Profile((narrow, broad))).row(0) == (
            F(1), F(0), F(0),
        )
        assert uniform_mechanism(market, Profile((narrow, broad))).row(0) == (
            F(1, 2), F(0), F(1, 2),
        )


def test_criterion_05_every_demotion_weakly_dominates():
    """All 6 truths, all their demotions, every agent, refusal on: 0 violations."""
    with criterion(5, "demotions weakly dominate", limit_seconds=30.0):
        outcome = sweep_demotion_weak_dominance(example2_market())
        assert outcome.checked == 24
        assert outcome.violations == 0, outcome.first_violation


def test_criterion_06_scarce_pairs_and_stranded_capacity():
    """Promoting demotions strictly dominate; unanimous demotion wastes seats."""
    with criterion(6, "scarce-pair strict gains and demotion waste"):
        market = example2_market()
        gain = sweep_demotion_strict_gain(market)
        assert gain.checked == 6
        assert gain.violations == 0, gain.first_violation
        waste = sweep_demotion_waste(market)
        assert waste.checked == 6
        assert waste.violations == 0, waste.first_violation


def test_criterion_07_no_strict_dominance_without_refusal():
    """Uniform mechanism, refusal off: nothing strictly dominates, and the
    essentially-equal dichotomy holds for every candidate."""
    with criterion(7, "no strict dominance without refusal"):
        outcome = sweep_no_strict_dominance(
            example2_market(), "uniform", refusal=False, dichotomy=True
        )
        assert outcome.checked == 90
        assert outcome.violations == 0, outcome.first_violation


def test_criterion_08_no_strict_dominance_under_modified():
    """Modified mechanism, refusal on: nothing strictly dominates."""
    with criterion(8, "no strict dominance under the modified mechanism",
                   limit_seconds=120.0):
        outcome = sweep_no_strict_dominance(
            example2_market(), "modified", refusal=True
        )
        assert outcome.checked == 90
        assert outcome.violations == 0, outcome.first_violation


def test_criterion_09_equal_treatment_everywhere():
    """Both mechanisms treat essentially equal reveals identically: the full
    216-profile space of the two-type market, a 27-profile subset of the
    three-type market, and 500 seeded random profiles of it."""
    with criterion(9, "equal treatment of equals"):
        narrow = example2_market()
        for name in ("uniform", "modified"):
            outcome = sweep_ete(narrow, name)
            assert outcome.checked == 216
            assert outcome.violations == 0, outcome.first_violation

        market = example1_market(second_capacity=1)
        patient = order_from_names(market, "o1>o2>null>o3")
        eager = order_from_names(market, "o1>o2>o3>null")
        idle = market.null_first_order()
        subset = [
            Profile(combo)
            for combo in itertools.product((patient, eager, idle), repeat=3)
        ]
        assert len(subset) == 27
        rng = random.Random(7919)
        orders = market.all_orders()
        sampled = [
            Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
            for _ in range(500)
        ]
        for name in ("uniform", "modified"):
            outcome = sweep_ete(market, name, profiles=subset + sampled)
            assert outcome.checked == 527
            assert outcome.violations == 0, outcome.first_violation
            assert outcome == fraction_sweep_ete(market, name, profiles=subset + sampled)


def test_criterion_10_decomposition_oracle():
    """1,000 seeded mechanism outputs: exact recombination, every part at the
    mixture's rank value, and no mass below the threshold rank on any
    non-wasteful output."""
    with criterion(10, "decomposition oracle"):
        markets = [
            example1_market(second_capacity=1),
            example1_market(second_capacity=2),
            example2_market(),
            example3_market(),
            example4_market(),
        ]
        mechanisms = [uniform_mechanism, modified_mechanism]
        rng = random.Random(104729)
        for _ in range(1000):
            market = markets[rng.randrange(len(markets))]
            mech = mechanisms[rng.randrange(2)]
            orders = market.all_orders()
            profile = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
            x = mech(market, profile)
            d = decompose(market, x)
            assert d.recombine(market) == x
            total = rank_value(x, profile)
            for weight, det in d.parts:
                assert weight > 0
                assert det.respects_capacities(market)
                assert deterministic_rank_value(det, profile) == total
            assert sum(w for w, _ in d.parts) == 1
            if not is_wasteful(market, x, profile):
                for a in range(market.n_agents):
                    threshold = market.capacity_threshold_rank(profile[a])
                    for o in range(market.n_types):
                        if profile[a].rank(o) > threshold:
                            assert x.entry(a, o) == 0
