"""Tests for the exhaustive property sweeps.

The property sweeps are exercised for real in the acceptance suite;
here the focus is the machinery itself: counts, violation reporting,
agreement of the multiset walks with the product oracles, the theorems on a
four-agent market, and the one configuration that is known to have
violations (strict demotion gains are a feature, so scanning for
no-strict-dominance under refusal must find them).
"""

import dataclasses
import itertools
import math
import random

import pytest

from rankmech import (
    Budget,
    BudgetError,
    DomainError,
    Market,
    Profile,
    order_from_names,
    order_to_names,
    strategy,
    sweeps,
)
from rankmech.sweeps import (
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
from rankmech.mechanisms import _may_match, _truncation_classes

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


# Keyed by outcome name; the uniform scan with refusal has violations, so it
# also pins the order in which they are found.
DOMINANCE_SWEEPS = {
    "prop2": lambda market: sweep_no_strict_dominance(market, "uniform", False, dichotomy=True),
    "prop5": lambda market: sweep_no_strict_dominance(market, "modified", True),
    "no-strict-dominance-uniform": lambda market: sweep_no_strict_dominance(
        market, "uniform", True),
    "thm1": sweep_demotion_weak_dominance,
    "thm2": sweep_demotion_strict_gain,
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


@pytest.mark.parametrize("prop", sorted(DOMINANCE_SWEEPS))
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_shared_table_matches_standalone_queries(monkeypatch, make_market, prop):
    """A sweep decides all its pairs from one shared walk over opponent
    multisets and reads the verdicts of agent 0's units only.  For every
    agent and every unit, each verdict field the sweep reads equals that of
    the same query run alone through the product oracle, and the outcome
    built from the oracle's verdicts over all agents equals the sweep's."""
    market = make_market()
    queries = []
    walks = []
    shared_verdicts = sweeps._verdicts

    def recording(market, mechanism, refusal, budget, pairs):
        verdict = shared_verdicts(market, mechanism, refusal, budget, pairs)
        walks.append(mechanism)

        def record(agent, truth, candidate):
            result = verdict(agent, truth, candidate)
            query = strategy.DominanceQuery(market, agent, truth, candidate, mechanism, refusal)
            queries.append((query, budget, result))
            return result

        return record

    monkeypatch.setattr(sweeps, "_verdicts", recording)
    outcome = DOMINANCE_SWEEPS[prop](market)
    assert market.n_agents * len(queries) == outcome.checked
    assert len(walks) == 1
    assert all(query.agent == 0 for query, _, _ in queries)

    details = []
    table = {}
    for agent in range(market.n_agents):
        for query, budget, shared in queries:
            query = dataclasses.replace(query, agent=agent)
            alone = product_check_dominance(query, budget, table=table)
            assert alone.weakly_dominates == shared.weakly_dominates
            assert alone.strictly_dominates == shared.strictly_dominates
            if prop == "prop2":
                assert (alone.failure_witness is None) == (shared.failure_witness is None)
                if alone.weakly_dominates:
                    assert (alone.strict_witness is None) == (shared.strict_witness is None)
            details.append(_unit_detail(prop, market, query, alone))
    failures = [d for d in details if d is not None]
    assert outcome == SweepOutcome(
        prop, len(details), len(failures), failures[0] if failures else None
    )


@pytest.mark.parametrize("prop", sorted(DOMINANCE_SWEEPS))
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_full_walk_witnesses_match_product_oracle_on_sweep_pairs(monkeypatch, make_market, prop):
    """The full walk, which ``check_dominance`` and ``rankmech dominance``
    run, finds the product oracle's witnesses on every pair a dominance sweep
    hands its walk.  The deciding walk the sweep ran finds the same failure
    witness on every pair, and the same strict witness wherever the pair
    weakly dominates."""
    market = make_market()
    walks = []

    def recording(market, mechanism, refusal, pairs, budget, **kwargs):
        pairs = list(pairs)
        found = strategy._first_witnesses(market, mechanism, refusal, pairs, budget, **kwargs)
        walks.append((mechanism, refusal, pairs, budget, kwargs, found))
        return found

    monkeypatch.setattr(sweeps, "_first_witnesses", recording)
    DOMINANCE_SWEEPS[prop](market)
    [(mechanism, refusal, pairs, budget, kwargs, decided)] = walks
    assert kwargs == {"decide": True}
    full = strategy._first_witnesses(market, mechanism, refusal, pairs, budget, decide=False)
    assert full.keys() == decided.keys() == set(pairs)
    others = range(1, market.n_agents)
    table = {}
    for truth, candidate in pairs:
        query = strategy.DominanceQuery(market, 0, truth, candidate, mechanism, refusal)
        oracle = product_check_dominance(query, budget, table=table)
        failure, strict = full[truth, candidate]
        assert oracle.failure_witness == (None if failure is None else tuple(zip(others, failure)))
        assert oracle.strict_witness == (None if strict is None else tuple(zip(others, strict)))
        decided_failure, decided_strict = decided[truth, candidate]
        assert decided_failure == failure
        if failure is None:
            assert decided_strict == strict


def denial_layers(denial):
    """The sweep's row seam, reading rows from the denial fixture instead.

    The fixture is anonymous, so an agent's row is the row of an agent
    seated first against the other reveals, as the sweep reads the
    mechanisms' rows."""

    class DenialLayers:
        def __init__(self, market, orders):
            self.market = market
            self.orders = orders

        def ends(self, opponents):
            return opponents

        def row(self, opponents, reveal):
            profile = Profile((self.orders[reveal], *(self.orders[i] for i in opponents)))
            row = denial(self.market, profile).row(0)
            total = math.lcm(*(entry.denominator for entry in row))
            return [int(entry * total) for entry in row], total

    return DenialLayers


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
    monkeypatch.setattr(sweeps, "_OpponentLayers", denial_layers(denial))
    outcome = sweep_ete(market, "uniform")
    assert outcome == sweep_ete(market, "uniform", all_profiles(market))
    assert outcome == SweepOutcome(
        "ete-uniform", 24 ** 2, 2, "a1=(o1>o2>o3>null) a2=(o1>o2>null>o3)"
    )
    monkeypatch.setattr(oracles, "get_mechanism", lambda name: denial)
    assert outcome == fraction_sweep_ete(market, "uniform")


def test_ete_reads_each_row_against_that_agents_opponents(monkeypatch):
    """Three agents under the denial fixture: the lone eager reveal among two
    patient ones is denied o1, and each of its three arrangements violates.
    Rows read against the wrong opponents would flag other profiles too."""
    market = example1_market(second_capacity=2)
    denial = make_denial_mechanism(market, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    monkeypatch.setattr(sweeps, "_OpponentLayers", denial_layers(denial))
    outcome = sweep_ete(market, "uniform")
    assert outcome == SweepOutcome(
        "ete-uniform", 24 ** 3, 3, "a1=(o1>o2>o3>null) a2=(o1>o2>null>o3) a3=(o1>o2>null>o3)"
    )
    monkeypatch.setattr(oracles, "get_mechanism", lambda name: denial)
    assert outcome == fraction_sweep_ete(market, "uniform")


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


def test_ete_budget_applies_to_unpatterned_profiles_only():
    """A patterned profile under the modified mechanism takes its override
    rows and never reaches the budget; every other profile is checked against
    it, even one with no pair of reveals to compare, and a malformed profile
    fails before the budget is looked at."""
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
    budget allows still fail.  ``Market`` refuses a single agent, so this one
    is built without its checks."""
    market = object.__new__(Market)
    for field, value in {
        "agent_names": ("a1",),
        "type_names": ("o1", "o2", "null"),
        "capacities": (1, 1, 1),
        "null_type": 2,
    }.items():
        object.__setattr__(market, field, value)
    with pytest.raises(BudgetError):
        sweep_ete(market, mechanism, budget=Budget(max_types=2))


FOUR_AGENT_SWEEPS = {
    **DOMINANCE_SWEEPS,
    "prop3": sweep_demotion_waste,
    "ete-uniform": lambda market: sweep_ete(market, "uniform"),
    "ete-modified": lambda market: sweep_ete(market, "modified"),
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


WALK_MARKETS = {
    "ex1": example1_market(),
    "ex2": example2_market(),
    "ex3": example3_market(),
    "ex4": example4_market(),
    "four": FOUR_AGENTS,
    "double": DOUBLE_SEAT,
}


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_walk_shares_prefix_layers_and_folds_rows_per_room_mask(name):
    """``walk(n - 1, representatives)`` yields exactly the multisets of
    truncation class representatives, in ``combinations_with_replacement``
    order, each with one entry per room mask.  Every multiset of full orders
    maps to the sorted multiset of its representatives; on each one and each
    reveal, the row read from the walk's ``ends`` for the reveal's
    representative, and the row read from ``ends`` on the full multiset given
    in any order, equal the rows read from every state of a fresh forward
    pass over the full multiset."""
    market = WALK_MARKETS[name]
    orders = market.all_orders()
    k = market.n_agents - 1
    _, representatives = _truncation_classes(market)
    rep = oracles.truncation_representatives(market)
    layers = strategy._OpponentLayers(market, orders)
    oracle = oracles.PerStateLayers(market, orders)
    walked = list(layers.walk(k, representatives))
    assert [combo for combo, _ in walked] == list(
        itertools.combinations_with_replacement(sorted(set(rep)), k)
    )
    walked = dict(walked)
    rng = random.Random(name)
    for combo in itertools.combinations_with_replacement(range(len(orders)), k):
        ends = walked[tuple(sorted(rep[i] for i in combo))]
        assert len({mask for _, _, mask in ends}) == len(ends)
        shuffled = list(combo)
        rng.shuffle(shuffled)
        direct = layers.ends(shuffled)
        per_state = oracle.ends(combo)
        for reveal in range(len(orders)):
            expected = oracle.row(per_state, reveal)
            assert layers.row(ends, rep[reveal]) == expected
            assert layers.row(direct, reveal) == expected
    states = math.prod(q + 1 for o, q in enumerate(market.capacities) if o != market.null_type)
    assert len(layers.masks) <= states


@pytest.mark.parametrize("name", sorted(WALK_MARKETS))
def test_crowd_out_filter_agrees_with_the_parse(name):
    """The dominance walk parses a (multiset, reveal) for the crowd-out
    pattern only where the outside-option ranks allow it; everywhere else
    the unfiltered parse finds no pattern either."""
    market = WALK_MARKETS[name]
    orders = market.all_orders()
    null_rank = [order.rank(market.null_type) for order in orders]
    seen = {"skipped": 0, "parsed": 0, "matched": 0}
    for combo in itertools.combinations_with_replacement(range(len(orders)), market.n_agents - 1):
        deep = [null_rank[i] for i in combo]
        deepest = max(deep)
        lone = deep.count(deepest) == 1
        for reveal in range(len(orders)):
            pattern = all_agents_pattern(market, Profile((orders[reveal], *(orders[i] for i in combo))))
            if not _may_match(null_rank[reveal], deepest, lone):
                seen["skipped"] += 1
                assert pattern is None
            else:
                seen["parsed"] += 1
                seen["matched"] += pattern is not None
    assert seen["skipped"] > 0
    assert seen["parsed"] > seen["matched"] > 0
