"""Tests for the exhaustive property sweeps.

The property sweeps are exercised for real in the acceptance suite;
here the focus is the machinery itself: counts, violation reporting,
agreement of the shared evaluation table with standalone dominance queries,
and the one configuration that is known to have violations (strict demotion
gains are a feature, so scanning for no-strict-dominance under refusal must
find them).
"""

import pytest

from rankmech import Market, Profile, order_from_names, order_to_names, strategy, sweeps
from rankmech.sweeps import (
    SweepOutcome,
    all_profiles,
    sweep_demotion_strict_gain,
    sweep_demotion_waste,
    sweep_demotion_weak_dominance,
    sweep_ete,
    sweep_no_strict_dominance,
)
from rankmech.examples import example2_market, example4_market


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


def test_promoted_types_are_counted_once():
    """Four agents and three unit-capacity types: a truth with one acceptable
    type promotes either of two types, one with two acceptable types promotes
    the last, so each agent has 6 * 2 + 6 * 1 = 18 units, whichever
    acceptable type makes the pair scarce."""
    market = Market(
        agent_names=("a1", "a2", "a3", "a4"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, 1, 1, 4),
        null_type=3,
    )
    outcome = sweep_demotion_waste(market)
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
    """Every verdict a sweep reaches through its shared evaluation table equals
    the verdict of the same query run alone, and the outcome built from the
    standalone verdicts equals the sweep's."""
    market = make_market()
    queries = []

    def recording(query, budget, *, table):
        verdict = strategy.check_dominance(query, budget, table=table)
        queries.append((query, budget, table, verdict))
        return verdict

    monkeypatch.setattr(sweeps, "check_dominance", recording)
    outcome = DOMINANCE_SWEEPS[prop](market)
    assert len(queries) == outcome.checked
    assert len({id(table) for _, _, table, _ in queries}) <= 1

    details = []
    for query, budget, _, shared in queries:
        alone = strategy.check_dominance(query, budget)
        assert alone.failure_witness == shared.failure_witness
        assert alone.strict_witness == shared.strict_witness
        assert alone.weakly_dominates == shared.weakly_dominates
        assert alone.strictly_dominates == shared.strictly_dominates
        details.append(_unit_detail(prop, market, query, alone))
    failures = [d for d in details if d is not None]
    assert outcome == SweepOutcome(
        prop, len(details), len(failures), failures[0] if failures else None
    )
