"""The bundled worked-example checks must all hold."""

import ast
import dataclasses

import pytest

from rankmech import (
    Budget,
    BudgetError,
    DomainError,
    Market,
    PreferenceOrder,
    Profile,
    examples,
    order_from_names,
    uniform_mechanism,
)
from rankmech.examples import (
    example1_market,
    example2_market,
    example3_market,
    make_denial_mechanism,
    run_example_checks,
)

from oracles import all_profiles, listing_denial_mechanism, refuse_row


def test_every_example_check_passes():
    rows = run_example_checks()
    assert len(rows) >= 30
    failures = [(label, detail) for label, ok, detail in rows if not ok]
    assert failures == []


def test_check_labels_are_unique():
    rows = run_example_checks()
    labels = [label for label, _, _ in rows]
    assert len(labels) == len(set(labels))


def test_ex3_full_extension_mismatch_names_opponents_where_rows_differ(monkeypatch):
    """Fed the promoting demotion in place of the full extension, the ex3
    identity check fails and names opponents at which the refused rows of
    the truth and that demotion differ."""
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    keep = order_from_names(market, "o1>o2>o3>null")
    swap = order_from_names(market, "o1>o3>o2>null")
    real = examples.check_dominance

    def swapped(query, *args):
        if query.candidate == keep:
            query = dataclasses.replace(query, candidate=swap)
        return real(query, *args)

    monkeypatch.setattr(examples, "check_dominance", swapped)
    [(ok, detail)] = [
        (ok, detail) for label, ok, detail in run_example_checks()
        if label.startswith("ex3 full extension matches")
    ]
    assert not ok
    prefix = "differs at opponents "
    assert detail.startswith(prefix)
    opponents = [PreferenceOrder(r) for r in ast.literal_eval(detail[len(prefix):])]
    rows = [
        refuse_row(market, uniform_mechanism(market, Profile((own, *opponents))).row(0), truth)
        for own in (truth, swap)
    ]
    assert rows[0] != rows[1]


def _market(n, capacities):
    """``n`` agents; the last capacity is the null type's."""
    return Market(
        agent_names=tuple(f"a{i + 1}" for i in range(n)),
        type_names=(*(f"o{i + 1}" for i in range(len(capacities) - 1)), "null"),
        capacities=capacities,
        null_type=len(capacities) - 1,
    )


# Every market and (trigger, filler, denied) the tests feed the denial
# fixture, with how many profiles leave no rank-minimizing assignment that
# keeps the trigger agent off the denied type.
DENIAL_CASES = {
    "3x(1,2,1,3)": (example1_market(2), "o1>o2>o3>null", "o1>o2>null>o3", "o1", 0),
    "2x(1,1,1,2)": (_market(2, (1, 1, 1, 2)), "o1>o2>o3>null", "o1>o2>null>o3", "o1", 0),
    "3x(1,1,3)": (_market(3, (1, 1, 3)), "o1>o2>null", "o1>null>o2", "o1", 0),
    "example2": (example2_market(), "o1>o2>null", "null>o1>o2", "o1", 3),
}


@pytest.mark.parametrize("name", sorted(DENIAL_CASES))
def test_counting_denial_fixture_matches_the_listing_oracle(name):
    """On every profile the counting fixture gives the ``Fraction`` rows of
    the listing oracle, and raises ``DomainError`` exactly where the oracle
    is left with no assignment to average and divides by zero."""
    market, trigger, filler, denied, expected_raised = DENIAL_CASES[name]
    counted = make_denial_mechanism(market, trigger, filler, denied)
    listed = listing_denial_mechanism(market, trigger, filler, denied)
    raised = denied_rows = 0
    for profile in all_profiles(market):
        try:
            expected = listed(market, profile)
        except ZeroDivisionError:
            with pytest.raises(DomainError):
                counted(market, profile)
            raised += 1
            continue
        got = counted(market, profile)
        assert got.rows == expected.rows
        denied_rows += got.rows != uniform_mechanism(market, profile).rows
    assert raised == expected_raised
    assert denied_rows == (0 if expected_raised else market.n_agents)


def test_denial_fixture_raises_where_every_minimizer_seats_the_trigger_on_the_denied_type():
    """Two agents who take the outside option first leave o1 to the trigger
    agent in the only rank-minimizing assignment, so none keeps it off o1:
    the fixture raises ``DomainError``, where listing divides by zero."""
    market = example2_market()
    trigger, filler = "o1>o2>null", "null>o1>o2"
    profile = Profile(tuple(order_from_names(market, order) for order in (trigger, filler, filler)))
    with pytest.raises(DomainError, match="keeps the o1>o2>null agent off o1"):
        make_denial_mechanism(market, trigger, filler, "o1")(market, profile)
    with pytest.raises(ZeroDivisionError):
        listing_denial_mechanism(market, trigger, filler, "o1")(market, profile)


def test_denial_fixture_cannot_deny_the_null_type():
    market = example2_market()
    with pytest.raises(DomainError, match="null type"):
        make_denial_mechanism(market, "o1>o2>null", "null>o1>o2", "null")


@pytest.mark.parametrize("trigger, denied", [
    ("o1>o2>null", "o2"),
    ("o2>null>o1", "o1"),
    ("null>o1>o2", "o1"),
])
def test_denial_fixture_denies_only_the_triggers_first_best(trigger, denied):
    """The counting fixture reveals the trigger's order with the denied
    type moved just below its outside option, which leaves the
    rank-minimizing set unchanged only for its first best.  Any other type,
    acceptable or not, is a ``DomainError`` when the fixture is made."""
    market = example2_market()
    with pytest.raises(DomainError, match=f"only its first best, not {denied}$"):
        make_denial_mechanism(market, trigger, "o1>null>o2", denied)


@pytest.mark.parametrize("fixture", [make_denial_mechanism, listing_denial_mechanism])
def test_denial_fixtures_honour_the_budget_they_are_given(fixture):
    """Nine agents exceed the default budget of eight.  Given a budget that
    admits them, either fixture runs: off its trigger it gives the uniform
    mechanism's rows under that budget, and on it, where the trigger agent
    on o1 ties with another agent on o1, it keeps the trigger agent off o1.
    Under the default budget it raises ``BudgetError``."""
    market = _market(9, (1, 1, 9))
    trigger, filler = "o1>o2>null", "o1>null>o2"
    denial = fixture(market, trigger, filler, "o1")
    wide = Budget(max_agents=9)
    fair = Profile((order_from_names(market, filler),) * 9)
    assert denial(market, fair, wide).rows == uniform_mechanism(market, fair, wide).rows
    triggered = fair.replace(0, order_from_names(market, trigger))
    kept_off = denial(market, triggered, wide)
    assert kept_off.row(0)[market.type_index("o1")] == 0
    assert kept_off.rows != uniform_mechanism(market, triggered, wide).rows
    with pytest.raises(BudgetError):
        denial(market, fair)
