"""Tests for the exhaustive property sweeps.

The property sweeps are exercised for real in the acceptance suite;
here the focus is the machinery itself: counts, violation reporting,
agreement of the multiset walks with the product oracles, the theorems on a
four-agent market, and the one configuration that is known to have
violations (strict demotion gains are a feature, so scanning for
no-strict-dominance under refusal must find them).
"""

import copy
import dataclasses
import functools
import gc
import itertools
import math
import pickle
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from rankmech import (
    Budget,
    BudgetError,
    DomainError,
    Market,
    Profile,
    classpairs,
    mechanisms,
    order_from_names,
    order_to_names,
    strategy,
    sweeps,
)
from rankmech.strategy import ods_set
from rankmech.sweeps import (
    SWEEPS,
    SweepOutcome,
    sweep_demotion_strict_gain,
    sweep_demotion_waste,
    sweep_demotion_weak_dominance,
    sweep_ete,
    sweep_no_strict_dominance,
)
from rankmech.examples import (
    example1_market,
    example2_market,
    example3_market,
    example4_market,
    make_denial_mechanism,
)
from rankmech.mechanisms import DEFAULT_BUDGET, _integer_rows
from rankmech.specfile import parse_market_spec

import oracles
from oracles import all_agents_pattern, all_profiles, fraction_sweep_ete, product_check_dominance


def test_all_profiles_counts():
    assert len(all_profiles(example2_market())) == 6 ** 3
    assert len(all_profiles(example4_market())) == 6 ** 2


def test_sweep_ete_counts_and_passes():
    market = example4_market()
    outcome = sweep_ete(market, "uniform")
    assert outcome.checked == 36
    assert outcome.violations == 0
    assert outcome.first_violation is None
    assert outcome.passed


def test_sweep_ete_accepts_explicit_profiles():
    market = example2_market()
    keen = order_from_names(market, "o1>o2>null")
    profiles = [Profile((keen, keen, keen))]
    outcome = sweep_ete(market, "modified", profiles=profiles)
    assert outcome.checked == 1
    assert outcome.passed


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
@pytest.mark.parametrize("make_market", [example2_market, example4_market, example1_market])
def test_ete_matches_the_fraction_oracle(make_market, mechanism):
    """The integer rows compared by cross-multiplying give the outcome the
    public ``Fraction`` mechanism and ``check_ete`` give on every multiset."""
    market = make_market()
    assert sweep_ete(market, mechanism) == fraction_sweep_ete(market, mechanism)


def test_sweep_demotions_on_two_agent_market():
    outcome = sweep_demotion_weak_dominance(example4_market())
    assert outcome.checked == 2 * 8
    assert outcome.passed


def test_sweep_unit_counts_on_bundled_market():
    """Three agents and six orders: 8 demotion pairs per agent, and the two
    truths with an outside option in the middle carry one scarce pair each."""
    market = example2_market()
    assert sweep_demotion_weak_dominance(market).checked == 24
    assert sweep_demotion_strict_gain(market).checked == 6
    assert sweep_demotion_waste(market).checked == 6


def test_sweep_finds_real_violations():
    """Strict demotion gains exist by design, so a no-strict-dominance scan
    under the uniform mechanism with refusal must fail and name a witness."""
    market = example2_market()
    outcome = sweep_no_strict_dominance(market, "uniform", refusal=True)
    assert outcome.checked == 3 * 6 * 5
    assert outcome.violations > 0
    assert not outcome.passed
    assert "strictly dominates" in outcome.first_violation
    assert "a1" in outcome.first_violation


def test_sweep_outcome_names():
    market = example4_market()
    assert sweep_no_strict_dominance(market, "uniform", False, dichotomy=True).name == "prop2"
    assert sweep_no_strict_dominance(market, "modified", True).name == "prop5"
    assert sweep_ete(market, "uniform").name == "ete-uniform"


# Four agents share three unit seats.
FOUR_AGENTS = Market(
    agent_names=("a1", "a2", "a3", "a4"),
    type_names=("o1", "o2", "o3", "null"),
    capacities=(1, 1, 1, 4),
    null_type=3,
)


def test_promoted_types_are_counted_once():
    """Four agents and three unit-capacity types: a truth with one acceptable
    type promotes either of two types, one with two acceptable types promotes
    the last, so each agent has 6 * 2 + 6 * 1 = 18 units, whichever
    acceptable type makes the pair scarce."""
    outcome = sweep_demotion_waste(FOUR_AGENTS)
    assert outcome.checked == 4 * 18
    assert outcome.passed


def test_prop3_names_its_first_violation(monkeypatch):
    """Where no waste is found, every promotion unit violates, and ``prop3``
    names the first: agent 0's truth and the type its demotion promotes."""
    monkeypatch.setattr(sweeps, "_first_waste", lambda *args: None)
    outcome = sweep_demotion_waste(FOUR_AGENTS)
    assert (outcome.checked, outcome.violations) == (4 * 18, 4 * 18)
    assert outcome.first_violation == "agent=a1 truth=(o1>o2>null>o3) promoted=o3"


@pytest.mark.parametrize("token, verdict, problem", [
    ("prop2", (False, False), "essentially equal but rows differ somewhere"),
    ("prop2", (True, False), "expected a failure witness"),
    ("prop5", (True, True), "strictly dominates"),
], ids=["prop2-essentially-equal", "prop2-expected-a-failure", "prop5-strict"])
def test_dominance_sweeps_name_the_problem_of_their_first_violation(
    monkeypatch, token, verdict, problem
):
    """``prop2`` and ``prop5`` pass on example 3, whose classes 0 and 1 are
    essentially equal.  Given one class pair's verdict in place of the
    decided one, each names that pair and what is wrong with it, and counts
    its order pairs as the violations."""
    market = dataclasses.replace(example3_market())
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    key = source.key
    equal = problem.startswith("essentially")
    t, c = next((t, c) for t, c in itertools.product(range(len(key)), repeat=2)
                if t != c and (key[t] == key[c]) == equal)
    decided = sweeps.decide
    monkeypatch.setattr(sweeps, "decide", lambda *args: {**decided(*args), (t, c): verdict})
    outcome = SWEEPS[token](market, DEFAULT_BUDGET)
    truth, candidate = (order_to_names(market, source.classes[r]) for r in (t, c))
    assert outcome.first_violation == f"agent=a1 truth=({truth}) candidate=({candidate}): {problem}"
    assert outcome.violations == market.n_agents * source.size[t] * source.size[c]


WASTE_MARKETS = {
    "ex1": example1_market(),
    "ex1-double": example1_market(second_capacity=2),
    "ex2": example2_market(),
    "ex3": example3_market(),
    "ex4": example4_market(),
    "four": FOUR_AGENTS,
}


@pytest.mark.parametrize("name", sorted(WASTE_MARKETS))
def test_demotion_waste_verdict_does_not_depend_on_the_agent(name):
    """Everyone else reveals the same demotion, so seating the truth at any
    agent only permutes the matrix: on every promotion unit the waste
    verdict with the truth at agent a is agent 0's.  ``sweep_demotion_waste``
    checks agent 0's units only and relies on this."""
    market = WASTE_MARKETS[name]
    units = [
        (truth, o_prime)
        for truth in market.all_orders()
        for o_prime in {o for _, o in strategy.strict_gain_pairs(market, truth)}
    ]
    assert market.n_agents * len(units) == sweep_demotion_waste(market).checked
    for truth, o_prime in units:
        verdicts = {
            oracles.demotion_wastes(market, agent, truth, o_prime)
            for agent in range(market.n_agents)
        }
        assert len(verdicts) == 1, (truth, o_prime)


@pytest.mark.parametrize("name", sorted(WASTE_MARKETS))
def test_demotion_waste_matches_the_all_agents_loop(name):
    """Agent 0's units counted once per agent equal the loop over every
    agent's units, first violation included."""
    market = WASTE_MARKETS[name]
    assert sweep_demotion_waste(market) == oracles.all_agents_sweep_demotion_waste(market)


# Each token's sweep and its arguments past the market, as the README names them.
TOKEN_CALLS = {
    "ete-fU": ("sweep_ete", ("uniform",), {}),
    "ete-fM": ("sweep_ete", ("modified",), {}),
    "prop2": ("sweep_no_strict_dominance", ("uniform", False), {"dichotomy": True}),
    "prop5": ("sweep_no_strict_dominance", ("modified", True), {}),
    "thm1": ("sweep_demotion_weak_dominance", (), {}),
    "thm2": ("sweep_demotion_strict_gain", (), {}),
    "prop3": ("sweep_demotion_waste", (), {}),
}


@pytest.mark.parametrize("token", list(TOKEN_CALLS))
def test_each_token_runs_its_sweep_by_module_name(monkeypatch, token):
    """On every bundled market a ``SWEEPS`` entry gives what the direct call
    of its sweep gives, and it raises the budget error of a budget it is
    handed.  It looks the sweep up on the module when called, so a wrapper
    set there sees every call."""
    assert list(SWEEPS) == list(TOKEN_CALLS)
    name, args, kwargs = TOKEN_CALLS[token]
    direct = getattr(sweeps, name)
    seen = []

    def wrapped(market, *rest, **options):
        seen.append(market)
        return direct(market, *rest, **options)

    monkeypatch.setattr(sweeps, name, wrapped)
    markets = [example1_market(), example1_market(2), example2_market(),
               example3_market(), example4_market()]
    for market in markets:
        assert SWEEPS[token](market, DEFAULT_BUDGET) == direct(market, *args, **kwargs)
        with pytest.raises(BudgetError):
            SWEEPS[token](market, Budget(max_agents=market.n_agents - 1))
    assert seen == [market for market in markets for _ in range(2)]


def _claim(token):
    """The sweep ``rankmech sweep <token>`` runs, at the default budget."""
    return lambda market: SWEEPS[token](market, DEFAULT_BUDGET)


# Keyed by outcome name; the uniform scan with refusal has violations, so it
# also pins the order in which they are found.
DOMINANCE_SWEEPS = {
    "prop2": _claim("prop2"),
    "prop5": _claim("prop5"),
    "no-strict-dominance-uniform": lambda market: sweep_no_strict_dominance(
        market, "uniform", True),
    "thm1": _claim("thm1"),
    "thm2": _claim("thm2"),
}


def _unit_detail(prop, market, query, verdict):
    """What the sweep named ``prop`` reports for one unit, from its verdict."""
    label = (
        f"agent={market.agent_names[query.agent]} "
        f"truth=({order_to_names(market, query.truth)})"
    )
    candidate = order_to_names(market, query.candidate)
    if prop == "thm1":
        return None if verdict.weakly_dominates else f"{label} demotion=({candidate})"
    if prop == "thm2":
        promoted = query.candidate.ranking[query.truth.rank(market.null_type) - 1]
        if verdict.strictly_dominates:
            return None
        return f"{label} promoted={market.type_names[promoted]}"
    label = f"{label} candidate=({candidate})"
    if verdict.strictly_dominates:
        return f"{label}: strictly dominates"
    if prop == "prop2":
        if market.essentially_equal(query.truth, query.candidate):
            if not verdict.weakly_dominates or verdict.strict_witness is not None:
                return f"{label}: essentially equal but rows differ somewhere"
        elif verdict.failure_witness is None:
            return f"{label}: expected a failure witness"
    return None


def _units(prop, market):
    """Agent 0's (truth, candidate) units of the dominance sweep ``prop``, in
    the order the order-pair oracles count them."""
    orders = market.all_orders()
    if prop == "thm1":
        return [(truth, demoted) for truth in orders for demoted in ods_set(market, truth)]
    if prop == "thm2":
        return [
            (truth, strategy.ods_promoting(market, truth, o_prime))
            for truth in orders
            for o_prime in sorted({o for _, o in strategy.strict_gain_pairs(market, truth)})
        ]
    return [(truth, candidate) for truth in orders for candidate in orders if candidate != truth]


def _class_pair(source, pair):
    """The (truth class, candidate class) of a (truth, candidate) pair of orders."""
    truth, candidate = pair
    return source.class_of[truth.ranking], source.class_of[candidate.ranking]


def _lifted(source, combo):
    """A multiset of opponent classes as its representatives, or None."""
    return None if combo is None else tuple(source.classes[c] for c in combo)


@pytest.mark.parametrize("prop", sorted(DOMINANCE_SWEEPS))
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_shared_table_matches_standalone_queries(monkeypatch, make_market, prop):
    """A sweep decides all its class pairs in one call of ``decide``
    and checks agent 0's units only, each counted once per agent.  The class
    pairs it hands the walk are those of its units, plus ties inside one
    class.  For every agent and every unit, the booleans the sweep reads for
    the unit's class pair equal those of the same query run alone through
    the product oracle, agent 0's first violation is the one the sweep
    reports, and the outcome built from the oracle's verdicts over all
    agents equals the sweep's."""
    market = make_market()
    calls = []
    decided = sweeps.decide

    def recording(source, mechanism, refusal, pairs):
        pairs = list(pairs)
        verdicts = decided(source, mechanism, refusal, pairs)
        calls.append((source, mechanism, refusal, pairs, dict(verdicts)))
        return verdicts

    monkeypatch.setattr(sweeps, "decide", recording)
    outcome = DOMINANCE_SWEEPS[prop](market)
    [(source, mechanism, refusal, pairs, verdicts)] = calls
    units = _units(prop, market)
    assert market.n_agents * len(units) == outcome.checked
    read = {_class_pair(source, unit) for unit in units}
    assert {(t, c) for t, c in pairs if t != c} <= read <= set(pairs)

    details = []
    table = {}
    for agent in range(market.n_agents):
        for unit in units:
            weak, strictly = verdicts[_class_pair(source, unit)]
            query = strategy.DominanceQuery(market, agent, *unit, mechanism, refusal)
            alone = product_check_dominance(query, DEFAULT_BUDGET, table=table)
            assert alone.weakly_dominates == weak
            assert alone.strictly_dominates == strictly
            if prop == "prop2":
                assert (alone.failure_witness is None) == weak
                if alone.weakly_dominates:
                    assert (alone.strict_witness is None) == (not strictly)
            details.append(_unit_detail(prop, market, query, alone))
    first = next((detail for detail in details[: len(units)] if detail is not None), None)
    assert outcome.first_violation == first
    failures = [d for d in details if d is not None]
    assert outcome == SweepOutcome(
        prop, len(details), len(failures), failures[0] if failures else None
    )


@pytest.mark.parametrize("prop", sorted(DOMINANCE_SWEEPS))
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_full_walk_witnesses_match_product_oracle_on_sweep_pairs(monkeypatch, make_market, prop):
    """The full walk, which ``check_dominance`` and ``rankmech dominance``
    run, finds the product oracle's witnesses on every unit of a dominance
    sweep.  The sweep's undecided class pairs whose rows cannot differ are
    set aside; the others are split between those its truth-clone
    certificates fail and those its walk takes: every certified pair has a
    failure witness in the walk over all of them, and the sweep's walk
    finds both witnesses of that walk on every pair it takes.  A unit whose
    class pair is walked by neither is a set-aside pair, with no witness."""
    market = make_market()
    certified, walks = [], []
    certify, walk = classpairs._clone_failures, classpairs._walk_pairs

    def certifying(source, mechanism, refusal, pairs):
        pairs = set(pairs)
        failing = certify(source, mechanism, refusal, pairs)
        certified.append((pairs, failing))
        return failing

    def recording(source, mechanism, refusal, pairs):
        pairs = list(pairs)
        found = walk(source, mechanism, refusal, pairs)
        walks.append((source, mechanism, refusal, pairs, found))
        return found

    monkeypatch.setattr(classpairs, "_clone_failures", certifying)
    monkeypatch.setattr(classpairs, "_walk_pairs", recording)
    DOMINANCE_SWEEPS[prop](market)
    units = _units(prop, market)
    if not units:  # two agents promote nothing, so thm2 has no pair to walk
        assert certified == walks == []
        return
    [(undecided, failing)] = certified
    [(source, mechanism, refusal, pairs, walked)] = walks
    assert failing.isdisjoint(pairs) and failing | set(pairs) == undecided
    full = walk(source, mechanism, refusal, undecided)
    assert full.keys() == undecided and walked.keys() == set(pairs)
    assert all(full[pair][0] is not None for pair in failing)
    for pair in pairs:
        assert walked[pair] == full[pair]
    witnessed = classpairs.first_witnesses(market, mechanism, refusal, units, DEFAULT_BUDGET)
    assert witnessed.keys() == set(units)
    others = range(1, market.n_agents)
    table = {}
    for unit in units:
        query = strategy.DominanceQuery(market, 0, *unit, mechanism, refusal)
        oracle = product_check_dominance(query, DEFAULT_BUDGET, table=table)
        failure, strict = witnessed[unit]
        assert oracle.failure_witness == (None if failure is None else tuple(zip(others, failure)))
        assert oracle.strict_witness == (None if strict is None else tuple(zip(others, strict)))
        key = _class_pair(source, unit)
        if key in full:
            assert [_lifted(source, combo) for combo in full[key]] == [failure, strict]
        else:
            assert classpairs._tied(source, refusal, [key]) == {key}
            assert (failure, strict) == (None, None)


def denial_rows(denial):
    """The market's class tables, reading rows from the denial fixture instead.

    The fixture is anonymous, so an agent's row is the row of an agent
    seated first against the other reveals, as the class tables read the
    mechanisms' rows; the profile is that of the class representatives.
    Patched in for ``class_rows``, the tables check the budget and are
    built afresh on every call, keep the market they run the fixture on,
    and are never kept on the market."""

    class DenialRows(classpairs._ClassRows):
        def __init__(self, market, budget):
            mechanisms.check_budget(market, budget)
            super().__init__(market)
            self.market = market

        def ends_with(self, rest, extras):
            return dict.fromkeys(extras)

        def row(self, ends, opponents, reveal, parse):
            profile = Profile(tuple(self.classes[c] for c in (reveal, *opponents)))
            row = denial(self.market, profile).row(0)
            total = math.lcm(*(entry.denominator for entry in row))
            return [int(entry * total) for entry in row], total

    return DenialRows


def test_ete_multisets_match_the_product_walk(monkeypatch):
    """With the biased denial fixture as the mechanism the sweep has
    violations, so the multiset weights and the first violation are checked
    against a walk over every profile, and against the ``Fraction`` oracle
    running the fixture itself.  Two agents share three unit seats,
    so the fixture's two reveals are essentially equal and the one profile
    multiset holding both counts twice."""
    market = Market(
        agent_names=("a1", "a2"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, 1, 1, 2),
        null_type=3,
    )
    denial = make_denial_mechanism(market, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    monkeypatch.setattr(sweeps, "class_rows", denial_rows(denial))
    outcome = sweep_ete(market, "uniform")
    assert outcome == sweep_ete(market, "uniform", all_profiles(market))
    assert outcome == SweepOutcome(
        "ete-uniform", 24 ** 2, 2, "a1=(o1>o2>o3>null) a2=(o1>o2>null>o3)"
    )
    assert outcome == oracles.per_multiset_sweep_ete(market, "uniform")
    monkeypatch.setattr(oracles, "get_mechanism", lambda name: denial)
    assert outcome == fraction_sweep_ete(market, "uniform")


def test_ete_reads_each_row_against_that_agents_opponents(monkeypatch):
    """Three agents under the denial fixture: the lone eager reveal among two
    patient ones is denied o1, and each of its three arrangements violates.
    Rows read against the wrong opponents would flag other profiles too."""
    market = example1_market(second_capacity=2)
    denial = make_denial_mechanism(market, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    monkeypatch.setattr(sweeps, "class_rows", denial_rows(denial))
    outcome = sweep_ete(market, "uniform")
    assert outcome == SweepOutcome(
        "ete-uniform", 24 ** 3, 3, "a1=(o1>o2>o3>null) a2=(o1>o2>null>o3) a3=(o1>o2>null>o3)"
    )
    assert outcome == oracles.per_multiset_sweep_ete(market, "uniform")
    monkeypatch.setattr(oracles, "get_mechanism", lambda name: denial)
    assert outcome == fraction_sweep_ete(market, "uniform")


def test_given_profile_ete_labels_only_its_first_violation(monkeypatch):
    """Under the denial fixture each arrangement of one eager reveal among
    two patient ones violates: given them after a passing profile, the sweep
    weighs all three but builds the label of the first alone."""
    market = example1_market(second_capacity=2)
    denial = make_denial_mechanism(market, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    monkeypatch.setattr(sweeps, "class_rows", denial_rows(denial))
    labelled = []
    label = sweeps._profile_label

    def counting(market, profile):
        labelled.append(profile)
        return label(market, profile)

    monkeypatch.setattr(sweeps, "_profile_label", counting)
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    profiles = [Profile((patient,) * 3)]
    profiles += [Profile((patient,) * 3).replace(agent, eager) for agent in range(3)]
    outcome = sweep_ete(market, "uniform", profiles)
    assert outcome == SweepOutcome(
        "ete-uniform", 4, 3, "a1=(o1>o2>o3>null) a2=(o1>o2>null>o3) a3=(o1>o2>null>o3)"
    )
    assert labelled == [profiles[1]]


def test_demotion_sweep_details_are_pinned(monkeypatch):
    """Under the denial fixture the lone reveal of o1>o2>null among two of
    o1>null>o2 is kept off o1.  For the truth o1>null>o2 that demotion, the
    one promoting o2, is then not weakly preferred, so both ``thm1`` and
    ``thm2`` report violations, and their detail strings are pinned, as the
    order-pair oracles give them."""
    market = Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "null"),
        capacities=(1, 1, 3),
        null_type=2,
    )
    denial = make_denial_mechanism(market, "o1>o2>null", "o1>null>o2", "o1")
    monkeypatch.setattr(sweeps, "class_rows", denial_rows(denial))
    monkeypatch.setattr(classpairs, "class_rows", denial_rows(denial))
    thm1 = sweep_demotion_weak_dominance(market)
    thm2 = sweep_demotion_strict_gain(market)
    assert thm1 == SweepOutcome("thm1", 24, 3, "agent=a1 truth=(o1>null>o2) demotion=(o1>o2>null)")
    assert thm2 == SweepOutcome("thm2", 6, 3, "agent=a1 truth=(o1>null>o2) promoted=o2")
    assert oracles.order_pair_sweep_demotion_weak_dominance(market) == thm1
    assert oracles.order_pair_sweep_demotion_strict_gain(market) == thm2


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
def test_ete_matches_the_fraction_oracle_on_random_markets(mechanism):
    """Three agents and three types with seeded capacities, every multiset."""
    rng = random.Random(1009)
    for _ in range(20):
        market = Market(
            agent_names=("a1", "a2", "a3"),
            type_names=("o1", "o2", "null"),
            capacities=(rng.randint(1, 2), rng.randint(1, 2), rng.randint(3, 5)),
            null_type=2,
        )
        assert sweep_ete(market, mechanism) == fraction_sweep_ete(market, mechanism)


def _market(n, caps):
    """``n`` agents, scarce types of capacities ``caps`` and a null type of ``n`` seats."""
    types = tuple(f"o{j + 1}" for j in range(len(caps))) + ("null",)
    return Market(tuple(f"a{j + 1}" for j in range(n)), types, (*caps, n), len(caps))


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
def test_ete_matches_the_per_multiset_oracle(mechanism):
    """The count in closed form and the walk over only the multisets that
    can violate give the outcome of weighing and checking every multiset of
    truncation classes, on seeded three-agent markets with three and four
    types and on 4 x (3,3,3,4) and 5 x (4,4,4,5), where classes share keys."""
    rng = random.Random(1013)
    seeded = [_market(3, tuple(rng.randint(1, 2) for _ in range(t))) for t in (2, 2, 3, 3, 3)]
    shared = 0
    for market in [*seeded, _market(4, (3, 3, 3)), _market(5, (4, 4, 4))]:
        source = classpairs.class_rows(market, DEFAULT_BUDGET)
        shared += len(set(source.key)) < len(source.classes)
        assert sweep_ete(market, mechanism) == oracles.per_multiset_sweep_ete(market, mechanism)
    assert shared >= 4


def test_ete_visits_exactly_the_multisets_that_can_violate(monkeypatch):
    """On markets where no two truncation classes are essentially equal no
    ``ends`` is built and no row is read.  Where some are, the multisets
    compared are exactly those holding two distinct classes of essentially
    equal orders, found by comparing every pair of representatives, and
    each is compared once per such pair of classes it holds, on three
    markets and on every ``KEY_MARKETS`` entry whose classes share keys."""
    seen = []
    _spy(monkeypatch, "ends_with", seen)
    _spy(monkeypatch, "row", seen)
    for market in (example2_market(), FOUR_AGENTS, _market(4, (1, 1, 1, 1))):
        assert sweep_ete(market, "uniform").passed
        assert seen == []
    monkeypatch.undo()
    compared = []
    real = sweeps._unequal

    def unequal(source, rest, x, y, ends):
        compared.append((tuple(sorted((*rest, x, y))), (x, y)))
        return real(source, rest, x, y, ends)

    monkeypatch.setattr(sweeps, "_unequal", unequal)
    markets = [example1_market(2), _market(4, (3, 3, 3))]
    for market in [*markets, *(dataclasses.replace(KEY_MARKETS[name]) for name in SHARED_KEYS)]:
        compared.clear()
        classes = classpairs.class_rows(market, DEFAULT_BUDGET).classes
        equal = {
            (a, b)
            for a, b in itertools.combinations(range(len(classes)), 2)
            if market.essentially_equal(classes[a], classes[b])
        }
        candidates = {}
        n = market.n_agents
        for profile in itertools.combinations_with_replacement(range(len(classes)), n):
            held = [pair for pair in itertools.combinations(sorted(set(profile)), 2)
                    if pair in equal]
            if held:
                candidates[profile] = held
        assert candidates
        sweep_ete(market, "uniform")
        assert {profile for profile, _ in compared} == candidates.keys()
        assert sorted(compared) == [
            (profile, pair) for profile, held in candidates.items() for pair in held
        ]


def test_ete_budget_applies_to_unpatterned_profiles_only():
    """A patterned profile under the modified mechanism never reaches the
    budget; every other profile is checked against it, even one with no
    pair of reveals to compare, and a malformed profile fails before the
    budget is looked at."""
    market = example1_market()
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    tight = Budget(max_agents=2)
    patterned = [Profile((eager, patient, patient))]
    with pytest.raises(BudgetError):
        sweep_ete(market, "uniform", patterned, tight)
    assert sweep_ete(market, "modified", patterned, tight) == SweepOutcome(
        "ete-modified", 1, 0, None
    )
    for mechanism in ("uniform", "modified"):
        with pytest.raises(BudgetError):
            sweep_ete(market, mechanism, [Profile((eager, eager, eager))], tight)
        with pytest.raises(DomainError, match="profile has 2 orders"):
            sweep_ete(market, mechanism, [Profile((eager, patient))], tight)


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
def test_ete_budget_applies_with_nothing_to_compare(mechanism):
    """A one-agent market has no pair of reveals, yet more types than the
    type limit allows still fail.  ``Market`` refuses a single agent, so this
    one is built without its checks."""
    market = object.__new__(Market)
    for field, value in {
        "agent_names": ("a1",),
        "type_names": (*(f"o{i}" for i in range(1, 7)), "null"),
        "capacities": (1,) * 7,
        "null_type": 6,
    }.items():
        object.__setattr__(market, field, value)
    with pytest.raises(BudgetError):
        sweep_ete(market, mechanism, budget=Budget(max_agents=50))


FOUR_AGENT_SWEEPS = {
    **DOMINANCE_SWEEPS,
    "prop3": _claim("prop3"),
    "ete-uniform": _claim("ete-fU"),
    "ete-modified": _claim("ete-fM"),
}


@pytest.mark.parametrize("prop, checked, violations, first", [
    ("thm1", 240, 0, None),
    ("thm2", 72, 0, None),
    ("prop5", 2208, 0, None),
    ("prop2", 2208, 0, None),
    ("no-strict-dominance-uniform", 2208, 120,
     "agent=a1 truth=(o1>o2>null>o3) candidate=(o1>o2>o3>null): strictly dominates"),
    ("ete-uniform", 24 ** 4, 0, None),
    ("ete-modified", 24 ** 4, 0, None),
])
def test_dominance_sweeps_with_four_agents(prop, checked, violations, first):
    """Theorems 1 and 2, Propositions 2 and 5 and equal treatment beyond
    three agents, and the strict demotion gains that refusal creates there.
    Proposition 3 on the same market is ``test_promoted_types_are_counted_once``."""
    outcome = FOUR_AGENT_SWEEPS[prop](FOUR_AGENTS)
    assert outcome == SweepOutcome(prop, checked, violations, first)


# Four agents; the first type has two seats.
DOUBLE_SEAT = Market(
    agent_names=("a1", "a2", "a3", "a4"),
    type_names=("o1", "o2", "o3", "null"),
    capacities=(2, 1, 1, 4),
    null_type=3,
)


@pytest.mark.parametrize("prop, checked, violations, first", [
    ("thm1", 240, 0, None),
    ("thm2", 48, 0, None),
    ("prop3", 48, 0, None),
    ("prop5", 2208, 0, None),
    ("prop2", 2208, 0, None),
    ("no-strict-dominance-uniform", 2208, 96,
     "agent=a1 truth=(o1>null>o2>o3) candidate=(o1>o2>o3>null): strictly dominates"),
    ("ete-uniform", 24 ** 4, 0, None),
    ("ete-modified", 24 ** 4, 0, None),
])
def test_sweeps_with_four_agents_and_a_double_seat(prop, checked, violations, first):
    """Every sweep on a four-agent market whose first type has two seats."""
    outcome = FOUR_AGENT_SWEEPS[prop](DOUBLE_SEAT)
    assert outcome == SweepOutcome(prop, checked, violations, first)


# "pair" has one opponent, so the walk folds it straight from the start
# layer; the "tight" markets' scarce capacities set every value bit of
# their packed fields, like those of the tight-field test below, which are
# too large to walk.
WALK_MARKETS = {
    "ex1": example1_market(),
    "ex2": example2_market(),
    "ex3": example3_market(),
    "ex4": example4_market(),
    "four": FOUR_AGENTS,
    "double": DOUBLE_SEAT,
    "pair": _market(2, (1, 1, 1)),
    "tight31": _market(4, (3, 1)),
    "tight331": _market(4, (3, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_walk_shares_prefix_layers_and_folds_rows_per_room_mask(name):
    """``walk(n - 1)`` yields exactly the multisets of truncation classes,
    in ``combinations_with_replacement`` order, each with one entry per room
    mask.  Every multiset of full orders maps to the sorted multiset of its
    classes; on each one and each reveal, the row read from the walk's
    ``ends`` for the reveal's class, and the row read from ``ends`` on the
    classes of the full multiset given in any order, equal the rows read
    from every state of a fresh forward pass over the full multiset."""
    market = WALK_MARKETS[name]
    orders = market.all_orders()
    k = market.n_agents - 1
    rep = oracles.truncation_representatives(market)
    class_of = {r: c for c, r in enumerate(sorted(set(rep)))}
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    assert [source.class_of[order.ranking] for order in orders] == [class_of[r] for r in rep]
    oracle = oracles.PerStateLayers(market, orders)
    walked = list(source.walk(k))
    assert [combo for combo, _ in walked] == list(
        itertools.combinations_with_replacement(range(len(class_of)), k)
    )
    walked = dict(walked)
    rng = random.Random(name)
    for combo in itertools.combinations_with_replacement(range(len(orders)), k):
        opponents = tuple(sorted(class_of[rep[i]] for i in combo))
        ends = walked[opponents]
        assert len({mask for _, _, mask in ends}) == len(ends)
        shuffled = [class_of[rep[i]] for i in combo]
        rng.shuffle(shuffled)
        *rest, last = shuffled
        direct = source.ends_with(rest, (last,))[last]
        per_state = oracle.ends(combo)
        for reveal in range(len(orders)):
            expected = oracle.row(per_state, reveal)
            assert source.row(ends, opponents, class_of[rep[reveal]], False) == expected
            assert source.row(direct, shuffled, class_of[rep[reveal]], False) == expected
    states = math.prod(q + 1 for o, q in enumerate(market.capacities) if o != market.null_type)
    assert len(source.layers.masks) <= states


@pytest.mark.parametrize("n, caps", [(8, (7, 3, 1)), (16, (15, 8, 1))])
def test_ends_on_tight_fields_match_the_per_state_rows(n, caps):
    """On markets whose scarce capacities set every value bit of their
    packed fields, the row read from ``ends`` on 80 seeded multisets of
    opponent orders, given as classes in any order, equals the row read
    from every state of a fresh forward pass, for every reveal."""
    types = tuple(f"o{j}" for j in range(len(caps))) + ("null",)
    market = Market(tuple(f"a{j}" for j in range(n)), types, (*caps, n), len(caps))
    orders = market.all_orders()
    source = classpairs._ClassRows(market)
    oracle = oracles.PerStateLayers(market, orders)
    rng = random.Random(n)
    for _ in range(80):
        combo = [rng.randrange(len(orders)) for _ in range(n - 1)]
        opponents = [source.class_of[orders[i].ranking] for i in combo]
        *rest, last = opponents
        ends = source.ends_with(rest, (last,))[last]
        per_state = oracle.ends(combo)
        for reveal, order in enumerate(orders):
            expected = oracle.row(per_state, reveal)
            assert source.row(ends, opponents, source.class_of[order.ranking], False) == expected


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_class_rows_match_the_mechanism_rows(name, mechanism):
    """On every multiset of opponent classes and every reveal class, the
    row source gives agent 0's integer row of the mechanism run on the
    representatives: under the modified mechanism the override row wherever
    the crowd-out pattern matches, which it does somewhere on every market
    here, and the counted row everywhere else."""
    market = WALK_MARKETS[name]
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    patterned = 0
    for opponents, ends in source.walk(market.n_agents - 1):
        for reveal in range(len(source.classes)):
            profile = Profile(tuple(source.classes[c] for c in (reveal, *opponents)))
            expected = _integer_rows(market, profile, mechanism, DEFAULT_BUDGET)[0]
            assert source.row(ends, opponents, reveal, mechanism == "modified") == expected
            patterned += all_agents_pattern(market, profile) is not None
    assert patterned > 0


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_unparsed_reveals_are_those_with_no_lone_deepest_outside_option(name):
    """A reveal is ruled out against a multiset exactly when the profile
    they make has no agent ranking its outside option 3rd or deeper and
    strictly deeper than every other agent, which no parse gets past."""
    market = WALK_MARKETS[name]
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    null_rank = source.tables.null_rank
    ruled_out = patterned = 0
    for opponents, _ in source.walk(market.n_agents - 1):
        low, high = source.tables.unparsed(opponents)
        for reveal in range(len(source.classes)):
            deep = [null_rank[c] for c in (reveal, *opponents)]
            lone = max(deep) >= 3 and deep.count(max(deep)) == 1
            skipped = low <= null_rank[reveal] <= high
            assert skipped == (not lone)
            pattern = source.tables.parse((reveal, *opponents))
            assert not (skipped and pattern is not None)
            ruled_out += skipped
            patterned += pattern is not None
    assert ruled_out > 0 and patterned > 0


MARKET_3X5 = parse_market_spec((Path(__file__).parent / "data" / "market_3x5.txt").read_text())[0]


def test_the_3x5_no_strict_dominance_sweep_with_refusal_is_pinned():
    """The one sweep on the committed 3 x 5 market that has violations; its
    13,584 pairs of distinct classes make 4,160 distinct comparisons."""
    assert sweep_no_strict_dominance(MARKET_3X5, "uniform", True) == SweepOutcome(
        "no-strict-dominance-uniform", 42840, 1296,
        "agent=a1 truth=(o1>null>o2>o3>o4) candidate=(o1>o2>o3>o4>null): strictly dominates",
    )


SHARING_MARKETS = {
    "3x5": MARKET_3X5,
    "four": FOUR_AGENTS,
    "five": Market(
        agent_names=("a1", "a2", "a3", "a4", "a5"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, 1, 1, 5),
        null_type=3,
    ),
}


class _Listed(Exception):
    """Raised by the recording walk once a sweep has handed over its class pairs."""


def _sweep_pairs(monkeypatch, prop, market):
    """The mechanism, refusal and class pairs the dominance sweep ``prop``
    hands ``decide``, where the sweep stops, and the sweep's units."""
    listed = []

    def record(source, mechanism, refusal, pairs):
        listed.append((mechanism, refusal, list(pairs)))
        raise _Listed

    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "decide", record)
        with pytest.raises(_Listed):
            DOMINANCE_SWEEPS[prop](market)
    [(mechanism, refusal, class_pairs)] = listed
    return mechanism, refusal, class_pairs, _units(prop, market)


def _comparisons(market, refusal, pairs):
    """The pairs of distinct truncation classes, grouped by the comparison
    they make: truth class, candidate class and the truth's compared prefix,
    which stops above the outside option under refusal and before the last
    rank otherwise."""
    rep = dict(zip(market.all_orders(), oracles.truncation_representatives(market)))
    groups = {}
    for truth, candidate in pairs:
        if rep[truth] != rep[candidate]:
            stop = truth.rank(market.null_type) - 1 if refusal else market.n_types - 1
            key = rep[truth], rep[candidate], truth.ranking[:stop]
            groups.setdefault(key, []).append((truth, candidate))
    return groups


@pytest.mark.parametrize("prop", sorted(DOMINANCE_SWEEPS))
@pytest.mark.parametrize("name", sorted(SHARING_MARKETS))
def test_pairs_sharing_a_comparison_get_their_own_witnesses(monkeypatch, name, prop):
    """Units making the same comparison share one class pair, and so one
    entry of the class-pair walk.  Every market here has such units in
    every sweep.  From two seeded groups of them, the first and last unit
    each get the witnesses of a walk over that pair alone: as class pairs
    amid every class pair the sweep hands its walk, and as order pairs amid
    the units of the two groups (the whole list walks for seconds there on
    the 3 x 5 market)."""
    market = SHARING_MARKETS[name]
    mechanism, refusal, class_pairs, pairs = _sweep_pairs(monkeypatch, prop, market)
    shared = [group for group in _comparisons(market, refusal, pairs).values() if len(group) > 1]
    assert shared
    groups = random.Random(f"{name} {prop}").sample(shared, min(2, len(shared)))
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    distinct = [(t, c) for t, c in class_pairs if t != c]
    amid = classpairs._walk_pairs(source, mechanism, refusal, distinct)
    walked = [pair for group in groups for pair in group]
    full = classpairs.first_witnesses(market, mechanism, refusal, walked, DEFAULT_BUDGET)
    for pair in (pair for group in groups for pair in (group[0], group[-1])):
        key = _class_pair(source, pair)
        alone = classpairs._walk_pairs(source, mechanism, refusal, [key])
        assert amid[key] == alone[key]
        alone = classpairs.first_witnesses(market, mechanism, refusal, [pair], DEFAULT_BUDGET)
        assert full[pair] == alone[pair]


def test_pairs_sharing_a_comparison_match_the_product_oracle(monkeypatch):
    """On four agents, two ``prop5`` units with one candidate and truths of
    one class make the same comparison; the full walk over the sweep's
    units gives each of them the product oracle's witnesses."""
    market = FOUR_AGENTS
    mechanism, refusal, _, pairs = _sweep_pairs(monkeypatch, "prop5", market)
    first, second = next(
        (a, b)
        for group in _comparisons(market, refusal, pairs).values()
        for a, b in itertools.combinations(group, 2)
        if a[1] == b[1]
    )
    found = classpairs.first_witnesses(market, mechanism, refusal, pairs, DEFAULT_BUDGET)
    others = range(1, market.n_agents)
    table = {}
    for truth, candidate in (first, second):
        query = strategy.DominanceQuery(market, 0, truth, candidate, mechanism, refusal)
        oracle = product_check_dominance(query, table=table)
        failure, strict = found[truth, candidate]
        assert oracle.failure_witness == (None if failure is None else tuple(zip(others, failure)))
        assert oracle.strict_witness == (None if strict is None else tuple(zip(others, strict)))


# Every sweep variant: ete under both mechanisms, no strict dominance under
# both mechanisms with refusal on and off (prop2 and prop5 among them), prop3,
# thm1 and thm2.
ALL_SWEEPS = {
    **FOUR_AGENT_SWEEPS,
    "no-strict-dominance-modified": lambda market: sweep_no_strict_dominance(
        market, "modified", False),
}
MODIFIED_SWEEPS = ["ete-modified", "prop5", "no-strict-dominance-modified"]


@pytest.mark.parametrize("name", ["3x5", "four"])
def test_sweeps_sharing_class_tables_match_sweeps_on_fresh_markets(name):
    """All nine sweeps run on one market object, uniform ones first and then
    modified ones first, give what each gives on a fresh equal market, so no
    mechanism leaves state in the tables it shares, and no verdict one sweep
    keeps there changes another's outcome.  On the four-agent market they
    also run in reverse and in two seeded shuffles."""
    market = SHARING_MARKETS[name]
    fresh = {prop: sweep(dataclasses.replace(market)) for prop, sweep in ALL_SWEEPS.items()}
    uniform = [prop for prop in ALL_SWEEPS if prop not in MODIFIED_SWEEPS]
    assert len(fresh) == 9 and len(uniform) == 6
    orders = [uniform + MODIFIED_SWEEPS, MODIFIED_SWEEPS + uniform]
    if name == "four":
        orders.append(list(reversed(ALL_SWEEPS)))
        for seed in (1, 2):
            shuffled = list(ALL_SWEEPS)
            random.Random(seed).shuffle(shuffled)
            orders.append(shuffled)
    for order in orders:
        shared = dataclasses.replace(market)
        assert {prop: ALL_SWEEPS[prop](shared) for prop in order} == fresh


# Every variant of the three class-pair dominance sweeps, keyed by its
# arguments, with its order-pair oracle.
DOMINANCE_VARIANTS = {
    "thm1": (sweep_demotion_weak_dominance, oracles.order_pair_sweep_demotion_weak_dominance),
    "thm2": (sweep_demotion_strict_gain, oracles.order_pair_sweep_demotion_strict_gain),
    **{
        f"{mechanism} refusal={refusal} dichotomy={dichotomy}": tuple(
            functools.partial(
                sweep, mechanism_name=mechanism, refusal=refusal, dichotomy=dichotomy
            )
            for sweep in (sweep_no_strict_dominance, oracles.order_pair_sweep_no_strict_dominance)
        )
        for mechanism, refusal, dichotomy in [
            ("uniform", False, True),
            ("uniform", False, False),
            ("uniform", True, False),
            ("modified", False, False),
            ("modified", True, False),
        ]
    },
}


@pytest.mark.parametrize("variant", sorted(DOMINANCE_VARIANTS))
def test_class_pair_sweeps_match_the_order_pair_oracles(variant):
    """On every walk market, counting class pairs gives the outcome of
    counting every (truth, candidate) pair of full orders one by one, each
    read from the full witness walk: checked, violations and the first
    violation."""
    sweep, oracle = DOMINANCE_VARIANTS[variant]
    for market in WALK_MARKETS.values():
        assert sweep(dataclasses.replace(market)) == oracle(dataclasses.replace(market))


DENIAL_MARKETS = {
    "thm": (
        Market(("a1", "a2", "a3"), ("o1", "o2", "null"), (1, 1, 3), 2),
        ("o1>o2>null", "o1>null>o2", "o1"),
    ),
    "ete": (example1_market(second_capacity=2), ("o1>o2>o3>null", "o1>o2>null>o3", "o1")),
}


@pytest.mark.parametrize("fixture", [make_denial_mechanism, oracles.listing_denial_mechanism])
@pytest.mark.parametrize("name", sorted(DENIAL_MARKETS))
def test_class_pair_sweeps_match_the_order_pair_oracles_under_the_denial_fixtures(
    monkeypatch, name, fixture
):
    """With either denial fixture as every row, the class-pair sweeps still
    give the order-pair oracles' outcomes, and some of them have
    violations: ``thm1`` and ``thm2`` on the three-type market."""
    market, args = DENIAL_MARKETS[name]
    rows = denial_rows(fixture(market, *args))
    monkeypatch.setattr(sweeps, "class_rows", rows)
    monkeypatch.setattr(classpairs, "class_rows", rows)
    outcomes = {}
    for variant, (sweep, oracle) in DOMINANCE_VARIANTS.items():
        outcomes[variant] = sweep(market)
        assert outcomes[variant] == oracle(market)
    assert any(not outcome.passed for outcome in outcomes.values())
    if name == "thm":
        assert not outcomes["thm1"].passed and not outcomes["thm2"].passed


def _demotion_waste_and_its_oracle(monkeypatch, market):
    """``prop3`` on ``market``, checked against the ``Fraction`` oracle: the
    same outcome, and every unit's waste scan run on the oracle's refused
    matrix, scaled to integers, with the oracle's truths and witness.  The
    outcome alone would miss a scan of the unrefused matrix, which is
    wasteful too: agent 0 holds the promoted type, unacceptable to it,
    while the outside option has room.  So every witness must show the
    capacity the refusal strands: an agent other than 0 that prefers a
    scarce type with room to what it holds."""
    scans = []
    scan = sweeps._first_waste

    def recording(market, denominator, counts, orders):
        witness = scan(market, denominator, counts, orders)
        matrix = [[Fraction(c, denominator) for c in row] for row in counts]
        scans.append((matrix, list(orders), witness))
        return witness

    monkeypatch.setattr(sweeps, "_first_waste", recording)
    outcome = sweep_demotion_waste(dataclasses.replace(market))
    units = oracles.fraction_demotion_waste_units(dataclasses.replace(market))
    assert scans == [
        ([list(row) for row in refused.rows], list(truths.orders), witness)
        for _, _, refused, truths, witness in units
    ]
    assert outcome == oracles.fraction_sweep_demotion_waste(dataclasses.replace(market))
    for _, _, witness in scans:
        assert witness is not None
        agent, preferred, _ = witness
        assert agent != 0 and preferred != market.null_type, witness
    return outcome


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_demotion_waste_matches_the_fraction_oracle(monkeypatch, name):
    """Rows read from the class tables, refused and scanned in integers,
    give what the ``Fraction`` pipeline gives unit by unit."""
    _demotion_waste_and_its_oracle(monkeypatch, WALK_MARKETS[name])


def test_demotion_waste_matches_the_fraction_oracle_on_seeded_markets(monkeypatch):
    """Seeded markets of 2 to 5 agents and 2 or 3 scarce types, drawn until
    25 of them have promotion units."""
    rng = random.Random(1021)
    drawn = with_units = 0
    while with_units < 25:
        n = rng.randint(2, 5)
        market = _market(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 3))))
        with_units += _demotion_waste_and_its_oracle(monkeypatch, market).checked > 0
        drawn += 1
    assert drawn < 100


@pytest.mark.parametrize("fixture", [make_denial_mechanism, oracles.listing_denial_mechanism])
@pytest.mark.parametrize("name", sorted(DENIAL_MARKETS))
def test_demotion_waste_matches_the_fraction_oracle_under_the_denial_fixtures(
    monkeypatch, name, fixture
):
    """With either denial fixture as every row, and as the oracle's
    mechanism, ``prop3`` still gives the oracle's outcome."""
    market, args = DENIAL_MARKETS[name]
    denial = fixture(market, *args)
    monkeypatch.setattr(sweeps, "class_rows", denial_rows(denial))
    monkeypatch.setattr(oracles, "get_mechanism", lambda name: denial)
    assert _demotion_waste_and_its_oracle(monkeypatch, market).checked > 0


class ScrambledRows(classpairs._ClassRows):
    """Class tables whose row of each reveal class against each opponent
    multiset is drawn from a hash of the two, so that the demotion sweeps and
    ``prop2`` fail on many units.  Like ``denial_rows``, they check the
    budget, are built afresh on every call and are never kept on the
    market."""

    def __init__(self, market, budget):
        mechanisms.check_budget(market, budget)
        super().__init__(market)

    def row(self, ends, opponents, reveal, parse):
        drawn = hash((reveal, *sorted(opponents)))
        row = [drawn >> 2 * o & 3 for o in range(self.n_types)]
        row[0] += 1
        return row, sum(row)


@pytest.mark.parametrize("name", ["ex2", "ex4", "four", "tight31"])
def test_class_pair_sweeps_match_the_order_pair_oracles_on_scrambled_rows(monkeypatch, name):
    """With rows that make many units fail, every class-pair sweep still
    gives its order-pair oracle's checked count, violations and first
    violation.  ``thm1`` and ``thm2`` (where the market has units) fail on
    more than one unit, so their first violation is picked out."""
    market = WALK_MARKETS[name]
    monkeypatch.setattr(sweeps, "class_rows", ScrambledRows)
    monkeypatch.setattr(classpairs, "class_rows", ScrambledRows)
    for variant, (sweep, oracle) in DOMINANCE_VARIANTS.items():
        outcome = sweep(market)
        assert outcome == oracle(market), variant
        if variant in ("thm1", "thm2") and outcome.checked:
            assert outcome.violations > market.n_agents, variant


VERDICT_KEYS = [("uniform", False), ("uniform", True), ("modified", False), ("modified", True)]


def _seeded_markets(count):
    """``count`` seeded markets of 2 to 4 agents and 2 or 3 scarce types."""
    rng = random.Random(1041)
    markets = []
    for _ in range(count):
        n = rng.randint(2, 4)
        markets.append(_market(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 3)))))
    return markets


# Each market with the class tables its verdicts are decided on: the real
# ones, each denial fixture's and scrambled rows.
CERTIFIED_MARKETS = {
    **{name: (market, classpairs._ClassRows) for name, market in WALK_MARKETS.items()},
    **{
        f"seeded{i}": (market, classpairs._ClassRows)
        for i, market in enumerate(_seeded_markets(12))
    },
    **{
        f"{name}-{fixture.__name__}": (
            market,
            lambda market, fixture=fixture, args=args: denial_rows(fixture(market, *args))(
                market, DEFAULT_BUDGET),
        )
        for name, (market, args) in DENIAL_MARKETS.items()
        for fixture in (make_denial_mechanism, oracles.listing_denial_mechanism)
    },
    **{
        f"{name}-scrambled": (
            WALK_MARKETS[name], lambda market: ScrambledRows(market, DEFAULT_BUDGET)
        )
        for name in ("ex2", "ex4", "four", "tight31")
    },
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_MARKETS))
def test_truth_clone_certificates_leave_the_verdict_tables_unchanged(monkeypatch, name):
    """Every key's verdict table over every class pair is the same whether
    the pairs that fail on their truths' clones skip the walk or not, on
    the walk markets, on seeded markets, under both denial fixtures and on
    scrambled rows.  Each table is decided on fresh class tables."""
    market, make = CERTIFIED_MARKETS[name]
    tables = []
    for certify in (classpairs._clone_failures, lambda *args: set()):
        monkeypatch.setattr(classpairs, "_clone_failures", certify)
        source = make(market)
        pairs = list(itertools.product(range(len(source.classes)), repeat=2))
        tables.append({key: dict(classpairs.decide(source, *key, pairs)) for key in VERDICT_KEYS})
    assert tables[0] == tables[1]


def test_a_walk_that_raises_keeps_none_of_its_verdicts(monkeypatch):
    """A row that raises while a sweep compares its undecided pairs, on
    their truths' clones or in the middle of the walk, leaves the market's
    verdict table for that key as it was before, whether it was new or held
    an earlier sweep's verdicts, and later sweeps on the market give what
    they give on a fresh one."""
    key = ("uniform", True)
    real, walk = classpairs._ClassRows.row, classpairs._walk_pairs
    for stage in ("certificates", "walk"):
        shared, new = dataclasses.replace(FOUR_AGENTS), dataclasses.replace(FOUR_AGENTS)
        thm1 = sweep_demotion_weak_dominance(shared)
        reads, walking = [], []

        def entering(*args, **kwargs):
            walking.append(True)
            return walk(*args, **kwargs)

        def failing(self, *args):
            if bool(walking) == (stage == "walk"):
                reads.append(args)
                if len(reads) == 20:
                    raise RuntimeError("a row failed")
            return real(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(classpairs, "_walk_pairs", entering)
            patch.setattr(classpairs._ClassRows, "row", failing)
            for market, table in [(shared, dict(shared._class_rows.verdicts[key])), (new, {})]:
                reads.clear()
                walking.clear()
                with pytest.raises(RuntimeError, match="a row failed"):
                    sweep_no_strict_dominance(market, *key)
                assert len(reads) == 20 and bool(walking) == (stage == "walk")
                assert market._class_rows.verdicts[key] == table
        assert sweep_demotion_weak_dominance(shared) == thm1
        expected = sweep_no_strict_dominance(dataclasses.replace(FOUR_AGENTS), *key)
        for market in (shared, new):
            assert sweep_no_strict_dominance(market, *key) == expected


def test_thm2_after_thm1_reads_thm1s_verdicts(monkeypatch):
    """``thm2``'s class pairs are among ``thm1``'s, under the same key
    (uniform, refusal on): run after ``thm1`` on one market it walks
    nothing, and alone it runs its own walk, with the same outcome."""
    walks = []
    walk = classpairs._walk_pairs

    def recording(source, mechanism, refusal, pairs):
        walks.append((mechanism, refusal))
        return walk(source, mechanism, refusal, pairs)

    monkeypatch.setattr(classpairs, "_walk_pairs", recording)
    for market in (example2_market(), FOUR_AGENTS, DOUBLE_SEAT):
        shared = dataclasses.replace(market)
        walks.clear()
        sweep_demotion_weak_dominance(shared)
        after = sweep_demotion_strict_gain(shared)
        assert walks == [("uniform", True)]
        walks.clear()
        assert sweep_demotion_strict_gain(dataclasses.replace(market)) == after
        assert walks == [("uniform", True)]
        assert after.checked > 0


def test_thm2_and_prop3_share_one_list_of_promotion_units(monkeypatch):
    """``thm2`` and ``prop3`` read one list of promotion units, kept on the
    market's class tables: run one after the other on one market, they ask
    for the scarce pairs of each order once."""
    asked = []
    pairs = sweeps.strict_gain_pairs

    def counting(market, truth):
        asked.append(truth)
        return pairs(market, truth)

    monkeypatch.setattr(sweeps, "strict_gain_pairs", counting)
    for market in (example2_market(), FOUR_AGENTS, DOUBLE_SEAT):
        shared = dataclasses.replace(market)
        asked.clear()
        thm2 = sweep_demotion_strict_gain(shared)
        prop3 = sweep_demotion_waste(shared)
        assert tuple(asked) == shared.all_orders()
        assert thm2.checked == prop3.checked > 0


def _spy(monkeypatch, method, seen):
    """Patch ``classpairs._ClassRows.<method>`` to record the tables it is called on."""
    real = getattr(classpairs._ClassRows, method)

    def spied(self, *args):
        seen.append(self)
        return real(self, *args)

    monkeypatch.setattr(classpairs._ClassRows, method, spied)


def test_the_walk_reads_rows_only_for_open_pairs_that_compare(monkeypatch):
    """Under refusal a truth class ranking its outside option first
    compares over an empty prefix.  Given only such pairs, ``decide`` ties
    every one and ``first_witnesses`` gives none a witness, without
    visiting a multiset or reading a row.  On the 3 x 5 market
    ``first_witnesses`` over the representatives of all of ``prop5``'s
    pairs of distinct classes walks exactly the pairs with a nonempty
    prefix whose keys differ; every row the walk reads is of a class in
    such a pair still open at that multiset, and the walk ends at the
    multiset where the last such pair closes."""
    market = dataclasses.replace(MARKET_3X5)
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    null_rank, reps = source.tables.null_rank, source.classes
    classes = range(len(reps))
    empty = [(t, c) for t in classes for c in classes if null_rank[t] == 1 and c != t]
    assert empty
    seen = []
    _spy(monkeypatch, "walk", seen)
    _spy(monkeypatch, "row", seen)
    for mechanism in ("uniform", "modified"):
        assert classpairs.decide(source, mechanism, True, empty) == dict.fromkeys(
            empty, (True, False))
        order_pairs = [(reps[t], reps[c]) for t, c in empty]
        found = classpairs.first_witnesses(market, mechanism, True, order_pairs, DEFAULT_BUDGET)
        assert found == dict.fromkeys(order_pairs, (None, None))
    assert seen == []
    monkeypatch.undo()

    visited, read, walks = [], [], []
    walk, row, walk_pairs = (
        classpairs._ClassRows.walk, classpairs._ClassRows.row, classpairs._walk_pairs)

    def visiting(self, k):
        for combo, ends in walk(self, k):
            visited.append(combo)
            yield combo, ends

    def reading(self, ends, opponents, reveal, parse):
        read.append((tuple(opponents), reveal))
        return row(self, ends, opponents, reveal, parse)

    def recording(*args):
        walks.append((list(args[-1]), walk_pairs(*args)))
        return walks[-1][1]

    monkeypatch.setattr(classpairs._ClassRows, "walk", visiting)
    monkeypatch.setattr(classpairs._ClassRows, "row", reading)
    monkeypatch.setattr(classpairs, "_walk_pairs", recording)
    pairs = [(t, c) for t in classes for c in classes if t != c]
    classpairs.first_witnesses(
        market, "modified", True, [(reps[t], reps[c]) for t, c in pairs], DEFAULT_BUDGET)
    [(walked, found)] = walks
    nonempty = [(t, c) for t, c in pairs if null_rank[t] > 1]
    compared = [(t, c) for t, c in nonempty if source.key[t] != source.key[c]]
    assert 0 < len(compared) < len(nonempty) < len(pairs) and sorted(walked) == compared

    # a pair closes where the later of its witnesses is found, after reading its rows there
    multisets = list(itertools.combinations_with_replacement(classes, market.n_agents - 1))
    position = {combo: i for i, combo in enumerate(multisets)}
    closes = {
        pair: len(multisets) if None in found[pair] else max(map(position.get, found[pair]))
        for pair in compared
    }
    last_open = [
        max((closes[pair] for pair in compared if r in pair), default=-1) for r in classes
    ]
    assert read
    for combo, reveal in read:
        assert position[combo] <= last_open[reveal], (combo, reveal)
    assert visited == multisets[: max(closes.values()) + 1]


MARKET_4X5 = parse_market_spec((Path(__file__).parent / "data" / "market_4x5.txt").read_text())[0]


def test_the_deciding_walk_compares_exactly_the_pairs_that_weakly_dominate(monkeypatch):
    """On the 4 x 5 market every pair of distinct classes that fails
    anywhere fails on its truth's clones, so a sweep's walk compares
    exactly its pairs that weakly dominate and whose rows can differ: none
    for ``prop2`` and ``prop5``, 132 for no strict dominance under the
    uniform mechanism with refusal, and 72 for ``thm1``.  No two classes
    share a key there, so the pairs of distinct classes set aside are those
    with an empty comparison, none of which reaches the walk: 64 for
    ``prop5`` and the uniform sweep with refusal, 24 for ``thm1``.
    ``thm1`` runs on a fresh market and stops once it has handed its walk
    the pairs; whether they weakly dominate is read from the uniform
    sweep's verdicts, which share its key."""
    listed = []
    walk = classpairs._walk_pairs

    def recording(source, mechanism, refusal, pairs):
        listed.append((source, list(pairs)))
        return walk(source, mechanism, refusal, pairs)

    monkeypatch.setattr(classpairs, "_walk_pairs", recording)
    market = dataclasses.replace(MARKET_4X5)
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    assert len(set(source.key)) == len(source.classes)

    def split(key, pairs):
        """The pairs of distinct classes that can differ and those set aside."""
        distinct = {(t, c) for t, c in pairs if t != c}
        tied = classpairs._tied(source, key[1], distinct)
        return distinct - tied, tied

    for key, dichotomy, weakly, set_aside in [
        (("uniform", False), True, 0, 0),
        (("modified", True), False, 0, 64),
        (("uniform", True), False, 132, 64),
    ]:
        listed.clear()
        sweep_no_strict_dominance(market, *key, dichotomy=dichotomy)
        [(walked_on, pairs)] = listed
        verdicts = source.verdicts[key]
        differ, tied = split(key, verdicts)
        weak = {pair for pair in differ if verdicts[pair][0]}
        assert walked_on is source and set(pairs) == weak and len(pairs) == len(weak) == weakly
        assert len(tied) == set_aside and all(verdicts[pair] == (True, False) for pair in tied)

    def listing(source, mechanism, refusal, pairs):
        listed.append((source, list(pairs)))
        raise _Listed

    monkeypatch.setattr(classpairs, "_walk_pairs", listing)
    listed.clear()
    _, _, class_pairs, _ = _sweep_pairs(monkeypatch, "thm1", dataclasses.replace(MARKET_4X5))
    with pytest.raises(_Listed):
        sweep_demotion_weak_dominance(dataclasses.replace(MARKET_4X5))
    [(_, pairs)] = listed
    differ, tied = split(("uniform", True), class_pairs)
    weak = {pair for pair in differ if verdicts[pair][0]}
    assert set(pairs) == weak and len(pairs) == len(weak) == 72 and len(tied) == 24


# The walk markets ("pair" is 2 x (1,1,1,2)) and three more whose classes
# share keys, with the ordered pairs of distinct classes sharing a key that
# each holds (none if unlisted).
KEY_MARKETS = {
    **WALK_MARKETS,
    "3x(1,1,1,1,3)": _market(3, (1, 1, 1, 1)),
    "3x(2,1,1,3)": _market(3, (2, 1, 1)),
    "4x(2,1,1,1,4)": _market(4, (2, 1, 1, 1)),
}
SHARED_KEYS = {
    "3x(1,1,1,1,3)": 48, "3x(2,1,1,3)": 8, "4x(2,1,1,1,4)": 36, "pair": 12, "ex3": 8,
    "tight331": 12,
}
# The rows of those classes that the crowd-out parse overrides, counted over
# every multiset of opponent classes.
PARSED_KEY_ROWS = {
    "3x(1,1,1,1,3)": 192, "3x(2,1,1,3)": 12, "4x(2,1,1,1,4)": 192, "pair": 12, "ex3": 12,
    "tight331": 20,
}


class OpponentRows(ScrambledRows):
    """Scrambled rows drawn from the opponent multiset alone, so that two
    agents of one profile get equal rows exactly when they face equal
    opponents, as two agents revealing one class do."""

    def row(self, ends, opponents, reveal, parse):
        return super().row(ends, opponents, 0, parse)


# (market, mechanism, class tables) of the equal-treatment oracle test; the
# opponent-only rows leave out 4 x (2,1,1,1,4), whose oracle takes about 5 s
SCRAMBLED_ETE = sorted({
    *((name, mechanism, "scrambled") for name in ("ex2", "ex4", "four", "tight31")
      for mechanism in ("uniform", "modified")),
    *((name, "uniform", "scrambled") for name in KEY_MARKETS),
    *((name, "uniform", "opponents") for name in SHARED_KEYS.keys() - {"4x(2,1,1,1,4)"}),
})


@pytest.mark.parametrize("name, mechanism, rows", SCRAMBLED_ETE)
def test_ete_matches_the_per_multiset_oracle_on_scrambled_rows(monkeypatch, name, mechanism, rows):
    """With rows drawn from a hash of the reveal and the opponents, every
    market whose classes share a key has many violating multisets, and the
    sweep still gives the per-multiset oracle's checked count, closed-form
    weights and first violation; where no key is shared nothing violates.
    With rows drawn from the opponents alone, a row read against any
    opponents but the other reveals of its profile would hide violations."""
    market = dataclasses.replace(KEY_MARKETS[name])
    tables = {"scrambled": ScrambledRows, "opponents": OpponentRows}[rows]
    monkeypatch.setattr(sweeps, "class_rows", tables)
    outcome = sweep_ete(market, mechanism)
    assert outcome == oracles.per_multiset_sweep_ete(market, mechanism)
    assert outcome.passed is (name not in SHARED_KEYS)


def _sharing_a_key(name):
    """The class tables of ``KEY_MARKETS[name]``, its ordered pairs of
    distinct classes sharing a key, and the classes in those pairs."""
    source = classpairs.class_rows(dataclasses.replace(KEY_MARKETS[name]), DEFAULT_BUDGET)
    key = source.key
    sharing = [(t, c) for t, c in itertools.permutations(range(len(key)), 2) if key[t] == key[c]]
    assert len(sharing) == SHARED_KEYS.get(name, 0)
    return source, sharing, sorted({t for pair in sharing for t in pair})


@pytest.mark.parametrize("name", sorted(KEY_MARKETS))
def test_classes_sharing_a_key_get_equal_unparsed_rows_at_every_multiset(name):
    """What the key clause of ``classpairs._tied`` relies on under the
    uniform mechanism, and under the modified one wherever the crowd-out
    parse does not fire: the row read without the parse takes, in each room
    mask, the reveal's first type with room, which lies inside its key,
    since the key's types seat all n agents and the opponents hold n - 1
    seats.  So any two classes sharing a key get equal rows at every
    multiset of opponent classes."""
    source, sharing, readers = _sharing_a_key(name)
    for combo, ends in source.walk(KEY_MARKETS[name].n_agents - 1) if sharing else ():
        rows = {r: source.row(ends, combo, r, False) for r in readers}
        for t, c in sharing:
            assert rows[t] == rows[c], (combo, t, c)


@pytest.mark.parametrize("name", sorted(KEY_MARKETS))
def test_classes_sharing_a_key_get_equal_rows_with_the_parse_at_every_multiset(name):
    """What the key clause of ``classpairs._tied`` relies on under the
    modified mechanism: read as the walk reads them, with the crowd-out
    parse tried wherever ``tables.unparsed`` does not rule it out, any two
    classes sharing a key get equal rows at every multiset of opponent
    classes, since the parse fires for one exactly when it fires for the
    other, with the same override row.  On every market holding such
    classes the parse fires for them, so this half is read."""
    source, sharing, readers = _sharing_a_key(name)
    null_rank = source.tables.null_rank
    parsed = 0
    for combo, ends in source.walk(KEY_MARKETS[name].n_agents - 1) if sharing else ():
        low, high = source.tables.unparsed(combo)
        tried = {r for r in readers if not low <= null_rank[r] <= high}
        parsed += sum(source.tables.parse((r, *combo)) is not None for r in tried)
        rows = {r: source.row(ends, combo, r, r in tried) for r in readers}
        for t, c in sharing:
            assert rows[t] == rows[c], (combo, t, c)
    assert parsed == PARSED_KEY_ROWS.get(name, 0)


@pytest.mark.parametrize("key", VERDICT_KEYS, ids=lambda key: "-".join(map(str, key)))
@pytest.mark.parametrize("name", sorted(KEY_MARKETS.keys() - {"4x(2,1,1,1,4)"}))
def test_set_aside_pairs_get_what_a_walk_over_every_pair_gives(name, key):
    """``decide``'s verdict table and ``first_witnesses`` over every pair of
    classes equal a ``_walk_pairs`` over every pair of distinct classes, on
    the walk markets and the markets whose classes share keys, so setting
    aside the pairs whose rows cannot differ changes no verdict and no
    witness.  (4 x (2,1,1,1,4) is left out: the full walk there takes about
    40 s per key, since its set-aside pairs never close.)"""
    market = dataclasses.replace(KEY_MARKETS[name])
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    reps = source.classes
    every = list(itertools.product(range(len(reps)), repeat=2))
    full = classpairs._walk_pairs(source, *key, [(t, c) for t, c in every if t != c])
    full.update({(c, c): [None, None] for c in range(len(reps))})
    verdicts = classpairs.decide(source, *key, every)
    assert verdicts == {
        pair: (failure is None, failure is None and strict is not None)
        for pair, (failure, strict) in full.items()
    }

    def orders(combo):
        return None if combo is None else tuple(reps[c] for c in combo)

    found = classpairs.first_witnesses(
        market, *key, [(reps[t], reps[c]) for t, c in every], DEFAULT_BUDGET)
    assert found == {(reps[t], reps[c]): tuple(map(orders, full[t, c])) for t, c in every}


# Rows the walk reads for each dominance token, the sweeps run in ``SWEEPS``
# order on one market; the other tokens walk nothing.  The two-agent market's
# walked pairs fail, and its rows are read until both witnesses are found.
# The pairs of classes sharing a key are not walked: walking them read 3900,
# 1632 and 6528 rows for ``prop2``, 4060, 1632 and 6528 for ``prop5`` and
# 4160, 2040 and 12240 for ``thm1`` on the first three markets.
WALK_ROWS = {
    (2, (1, 1, 1, 1)): {"prop2": 0, "prop5": 2560, "thm1": 1820},
    (3, (2, 2, 1)): {"prop2": 0, "prop5": 0, "thm1": 1224},
    (4, (1, 2, 3)): {"prop2": 0, "prop5": 0, "thm1": 8976},
    (3, (1, 1)): {"prop2": 0, "prop5": 0, "thm1": 60},
}


@pytest.mark.parametrize(
    "shape", sorted(WALK_ROWS), ids=lambda shape: f"{shape[0]}x{shape[1]}".replace(" ", "")
)
def test_the_sweeps_walk_reads_the_pinned_rows(monkeypatch, shape):
    """A work pin: the rows ``_walk_pairs`` reads while every ``SWEEPS``
    token runs in order on one market; rows read outside the walk, by the
    truth-clone certificates, are not counted."""
    rows, walking = [], []
    walk, row = classpairs._walk_pairs, classpairs._ClassRows.row

    def counting(self, *args):
        rows[-1] += bool(walking)
        return row(self, *args)

    def entering(*args):
        walking.append(True)
        try:
            return walk(*args)
        finally:
            walking.pop()

    monkeypatch.setattr(classpairs, "_walk_pairs", entering)
    monkeypatch.setattr(classpairs._ClassRows, "row", counting)
    market = _market(*shape)
    read = {}
    for token, sweep in SWEEPS.items():
        rows.append(0)
        sweep(market, DEFAULT_BUDGET)
        read[token] = rows[-1]
    assert read == {token: WALK_ROWS[shape].get(token, 0) for token in SWEEPS}


def test_sweeps_share_the_class_tables_kept_on_the_market(monkeypatch):
    """Every sweep on one market reads the one class table object the
    market keeps, built once; keeping it changes neither ``==``, ``hash``
    nor ``repr``, and a copied or unpickled market equals the original."""
    built = []
    _spy(monkeypatch, "__init__", built)
    seen = []
    _spy(monkeypatch, "walk", seen)
    _spy(monkeypatch, "ends_with", seen)
    market = dataclasses.replace(FOUR_AGENTS)
    before = (hash(market), repr(market))
    outcomes = [sweep(market) for sweep in ALL_SWEEPS.values()]
    assert built == [market._class_rows]
    assert seen and all(table is market._class_rows for table in seen)
    assert (hash(market), repr(market)) == before
    assert market == FOUR_AGENTS and hash(market) == hash(FOUR_AGENTS)
    for copied in (copy.deepcopy(market), pickle.loads(pickle.dumps(market))):
        assert copied == market and hash(copied) == hash(market)
        assert repr(copied) == repr(market)
        assert [sweep(copied) for sweep in ALL_SWEEPS.values()] == outcomes


def test_a_swept_market_is_freed_by_reference_counting():
    """The class tables hold no reference back to their market, so with the
    cycle collector off a swept market dies with its last reference."""
    market = dataclasses.replace(FOUR_AGENTS)
    for sweep in ALL_SWEEPS.values():
        sweep(market)
    assert market._class_rows is not None
    alive = weakref.ref(market)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del market
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_an_over_budget_market_builds_no_class_tables(monkeypatch):
    """Every sweep and ``check_dominance`` fail the budget before the
    market's orders are listed or its class tables built, and so does the
    equal-treatment sweep on a given profile.  A given profile that parses
    as the crowd-out pattern passes under the modified mechanism without
    them."""
    market = dataclasses.replace(FOUR_AGENTS)
    tight = Budget(max_agents=3)
    truth, candidate = market.all_orders()[:2]
    patterned = Profile(tuple(order_from_names(market, order) for order in (
        "o1>o2>o3>null", "o1>null>o2>o3", "null>o1>o2>o3", "null>o1>o2>o3")))
    assert all_agents_pattern(market, patterned) is not None
    listed = []
    all_orders = Market.all_orders
    monkeypatch.setattr(Market, "all_orders", lambda self: listed.append(self) or all_orders(self))
    assert sweep_ete(market, "modified", [patterned], tight).passed
    assert not listed and market._class_rows is None
    calls = [
        lambda: sweep_ete(market, "uniform", [patterned], tight),
        lambda: sweep_ete(market, "modified", [patterned, Profile((truth,) * 4)], tight),
        lambda: strategy.check_dominance(
            strategy.DominanceQuery(market, 0, truth, candidate), tight),
        lambda: sweep_no_strict_dominance(market, "uniform", True, tight),
        lambda: sweep_no_strict_dominance(market, "modified", False, tight),
        *(functools.partial(sweep, market, tight) for sweep in SWEEPS.values()),
    ]
    for call in calls:
        with pytest.raises(BudgetError):
            call()
        assert not listed and market._class_rows is None
    SWEEPS["thm1"](market, DEFAULT_BUDGET)
    assert listed == [market]


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_class_keys_decide_essential_equality(name):
    """Two orders' classes have equal keys exactly when the orders are
    essentially equal, for every ordered pair of orders."""
    market = WALK_MARKETS[name]
    source = classpairs.class_rows(market, DEFAULT_BUDGET)
    orders = market.all_orders()
    for first, second in itertools.product(orders, repeat=2):
        classes = source.class_of[first.ranking], source.class_of[second.ranking]
        same_key = source.key[classes[0]] == source.key[classes[1]]
        assert same_key == market.essentially_equal(first, second)


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_a_patterned_profile_has_no_essentially_equal_reveals_of_two_classes(name):
    """On every multiset of class representatives that parses as the
    crowd-out pattern, with every agent tried as the special agent, two
    reveals of distinct truncation classes are never essentially equal, so
    the equal-treatment sweep compares no row there.  Every market here has
    patterned multisets."""
    market = WALK_MARKETS[name]
    representatives = sorted(set(oracles.truncation_representatives(market)))
    orders = market.all_orders()
    patterned = 0
    for combo in itertools.combinations_with_replacement(representatives, market.n_agents):
        profile = Profile(tuple(orders[i] for i in combo))
        if all_agents_pattern(market, profile) is None:
            continue
        patterned += 1
        for a, b in itertools.combinations(range(market.n_agents), 2):
            if combo[a] != combo[b]:
                assert not market.essentially_equal(profile[a], profile[b])
    assert patterned > 0


def test_ete_reads_no_row_of_a_patterned_profile(monkeypatch):
    """Under the modified mechanism a given patterned profile builds no
    layer and reads no row, while the same reveals on a market where they
    do not parse, and where the eager and patient reveals are essentially
    equal, read both."""
    seen = []
    _spy(monkeypatch, "ends_with", seen)
    _spy(monkeypatch, "row", seen)
    for market, reads in ((example1_market(), False), (example1_market(2), True)):
        eager = order_from_names(market, "o1>o2>o3>null")
        patient = order_from_names(market, "o1>o2>null>o3")
        profile = Profile((eager, patient, patient))
        assert (all_agents_pattern(market, profile) is not None) is not reads
        assert market.essentially_equal(eager, patient) is reads
        seen.clear()
        assert sweep_ete(market, "modified", [profile]).passed
        assert bool(seen) is reads


ETE_MARKETS = {**WALK_MARKETS, **SHARING_MARKETS}


@pytest.mark.parametrize("name", sorted(ETE_MARKETS))
def test_whole_market_ete_does_not_depend_on_the_mechanism(monkeypatch, name):
    """Over the whole market, equal treatment under the modified mechanism
    gives the uniform outcome under its own name, and never parses a
    profile for the crowd-out pattern: a patterned profile compares no row."""
    market = ETE_MARKETS[name]
    uniform = sweep_ete(dataclasses.replace(market), "uniform")

    def parse(self, profile):
        raise AssertionError("parsed a profile for the crowd-out pattern")

    monkeypatch.setattr(mechanisms.PatternTables, "parse", parse)
    modified = sweep_ete(dataclasses.replace(market), "modified")
    assert modified == dataclasses.replace(uniform, name="ete-modified")


def test_the_class_pair_engine_is_defined_only_in_classpairs():
    """The class tables, the clone certificates and the walk are defined in
    ``classpairs`` alone, so no spy can patch a dead alias and pass without
    checking anything: no former name is still an attribute of
    ``mechanisms`` or ``strategy``, the class tables no longer fold layers
    themselves, and every module that binds an engine function binds the
    one ``classpairs`` defines."""
    former = ("_ClassRows", "_class_rows", "_decided", "_clone_failures", "_walk_pairs",
              "_first_witnesses")
    assert [name for name in former if hasattr(mechanisms, name) or hasattr(strategy, name)] == []
    assert not hasattr(classpairs._ClassRows, "_fold")
    assert not hasattr(classpairs._ClassRows, "_masks_after")
    engine = [classpairs.class_rows, classpairs.decide, classpairs.first_witnesses]
    for module in (mechanisms, strategy, sweeps):
        for function in engine:
            assert getattr(module, function.__name__, function) is function
