"""Tests for markets, preference orders and profiles."""

import copy
import itertools
import pickle

import pytest

from rankmech import (
    DomainError,
    Market,
    PreferenceOrder,
    Profile,
    check_profile,
    order_from_names,
    order_to_names,
)
from rankmech.examples import example1_market, example2_market, example3_market


def test_order_rank_and_top():
    order = PreferenceOrder((2, 0, 1))
    assert order.rank(2) == 1
    assert order.rank(0) == 2
    assert order.rank(1) == 3
    assert order.top(2) == (2, 0)
    assert len(order) == 3


def test_order_rejects_non_permutations():
    with pytest.raises(DomainError):
        PreferenceOrder((0, 0, 1))
    with pytest.raises(DomainError):
        PreferenceOrder((0, 1, 3))
    for ranking in ((0, 1.0, 2), (0, "a", 2), (0, None, 2)):
        with pytest.raises(DomainError) as info:
            PreferenceOrder(ranking)
        assert str(info.value) == f"ranking must be a permutation of 0..2, got {ranking!r}"


def test_order_accepts_exactly_the_permutations_of_its_length():
    """Over every tuple of length 0-4 drawn from -1..4 and both bools, an
    order is built exactly when the tuple sorts to ``0..len - 1`` (a bool
    counting as the int it equals), with each type's rank read off its
    position; every other tuple is a DomainError naming it."""
    values = (*range(-1, 5), True, False)
    accepted = 0
    for length in range(5):
        for ranking in itertools.product(values, repeat=length):
            if sorted(ranking) == list(range(length)):
                order = PreferenceOrder(ranking)
                assert order.ranks == tuple(ranking.index(o) + 1 for o in range(length))
                accepted += 1
            else:
                with pytest.raises(DomainError) as info:
                    PreferenceOrder(ranking)
                assert str(info.value) == (
                    f"ranking must be a permutation of 0..{length - 1}, got {ranking!r}"
                )
    # Each permutation, with False or 0 for 0 and True or 1 for 1.
    assert accepted == 1 + 2 + 2 * 4 + 6 * 4 + 24 * 4


def test_order_rank_of_unranked_type():
    with pytest.raises(DomainError):
        PreferenceOrder((0, 1, 2)).rank(5)


def test_order_rank_table_leaves_identity_unchanged():
    """The stored rank table ``ranks`` is a tuple indexed by type and takes
    no part in equality, hashing or repr, and every index outside the
    ranking is still a DomainError.  A bool indexes like the int it
    equals."""
    order = PreferenceOrder((2, 0, 1))
    assert order.ranks == (2, 3, 1)
    assert type(order.ranks) is tuple
    assert order == PreferenceOrder((2, 0, 1))
    assert order != PreferenceOrder((0, 1, 2))
    assert hash(order) == hash(((2, 0, 1),))
    assert len({order, PreferenceOrder((2, 0, 1))}) == 1
    assert repr(order) == "PreferenceOrder(ranking=(2, 0, 1))"
    assert [order.rank(o) for o in range(3)] == [2, 3, 1]
    assert order.rank(True) == 3
    for unranked in (-1, 3, "o1", None, [0]):
        with pytest.raises(DomainError):
            order.rank(unranked)
    with pytest.raises(TypeError):
        PreferenceOrder((2, 0, 1), ranks=(2, 3, 1))


def test_order_rank_of_a_float_is_a_domain_error():
    """A float is not a type index, even an integral one that hashes like
    the int it equals."""
    with pytest.raises(DomainError):
        PreferenceOrder((2, 0, 1)).rank(1.0)


@pytest.mark.parametrize("n_types", [3, 4, 5, 6])
def test_every_order_ranks_each_type_at_its_position(n_types):
    """``ranks[o]`` is one more than ``o``'s position in the ranking, for
    every order of 3 to 6 types."""
    for ranking in itertools.permutations(range(n_types)):
        order = PreferenceOrder(ranking)
        assert order.ranks == tuple(ranking.index(o) + 1 for o in range(n_types))
        assert [order.rank(o) for o in range(n_types)] == list(order.ranks)


def test_market_validation():
    # One agent is too few.
    with pytest.raises(DomainError):
        Market(("a1",), ("o1", "o2", "null"), (1, 1, 3), 2)
    # Two types are too few.
    with pytest.raises(DomainError):
        Market(("a1", "a2"), ("o1", "null"), (1, 2), 1)
    # Duplicate names.
    with pytest.raises(DomainError):
        Market(("a1", "a1"), ("o1", "o2", "null"), (1, 1, 2), 2)
    with pytest.raises(DomainError):
        Market(("a1", "a2"), ("o1", "o1", "null"), (1, 1, 2), 2)
    # Capacity-per-type mismatch.
    with pytest.raises(DomainError):
        Market(("a1", "a2"), ("o1", "o2", "null"), (1, 1), 2)
    # The outside option must cover every agent.
    with pytest.raises(DomainError):
        Market(("a1", "a2", "a3"), ("o1", "o2", "null"), (1, 1, 2), 2)
    # Non-null types must be scarce: capacity strictly below the agent count.
    with pytest.raises(DomainError):
        Market(("a1", "a2", "a3"), ("o1", "o2", "null"), (3, 1, 3), 2)
    with pytest.raises(DomainError):
        Market(("a1", "a2", "a3"), ("o1", "o2", "null"), (0, 1, 3), 2)
    # Null index must point at a declared type.
    with pytest.raises(DomainError):
        Market(("a1", "a2"), ("o1", "o2", "null"), (1, 1, 2), 7)


@pytest.mark.parametrize("capacities, null_type, message", [
    ((1.5, 1, 2), 2, "capacity of o must be an int, got 1.5"),
    (("1", 1, 2), 2, "capacity of o must be an int, got '1'"),
    ((1, 1, 2.0), 2, "capacity of null must be an int, got 2.0"),
    ((1, 1, 2), 2.0, "null_type must be an int, got 2.0"),
    ((1, 1, 2), "2", "null_type must be an int, got '2'"),
], ids=["float-capacity", "str-capacity", "float-null-capacity", "float-null", "str-null"])
def test_market_rejects_a_capacity_or_null_index_that_is_not_an_int(
    capacities, null_type, message
):
    """A capacity or an outside-option index that is not an int is a
    ``DomainError`` naming the value, before any range check compares it,
    not an error deep in the mechanisms.  A bool counts as the int it
    equals, as in ``PreferenceOrder``."""
    names, types = ("a", "b"), ("o", "p", "null")
    with pytest.raises(DomainError) as info:
        Market(names, types, capacities, null_type)
    assert str(info.value) == message
    types = ("o", "null", "p")
    assert Market(names, types, (True, 2, True), True) == Market(names, types, (1, 2, 1), 1)


def test_capacity_threshold_rank():
    """Capacities (1, 1, 3) with three agents.

    A threshold of k means the k best types can absorb all three agents.
    With the outside option second the running totals are 1, 4; with it
    last they are 1, 2, 5.
    """
    market = example2_market()
    assert market.capacity_threshold_rank(order_from_names(market, "o1>null>o2")) == 2
    assert market.capacity_threshold_rank(order_from_names(market, "o1>o2>null")) == 3
    assert market.capacity_threshold_rank(order_from_names(market, "null>o1>o2")) == 1


def test_capacity_threshold_rank_with_slack_types():
    """Example 3 capacities (1, 2, 1, 3): o1 and o2 together cover 3 agents."""
    market = example3_market()
    assert market.capacity_threshold_rank(order_from_names(market, "o1>o2>o3>null")) == 2
    assert market.capacity_threshold_rank(order_from_names(market, "o1>o3>o2>null")) == 3
    assert market.capacity_threshold_rank(order_from_names(market, "o1>null>o2>o3")) == 2


def test_essentially_equal_is_prefix_agreement():
    market = example3_market()
    keep = order_from_names(market, "o1>o2>o3>null")
    middle = order_from_names(market, "o1>o2>null>o3")
    swap = order_from_names(market, "o1>o3>o2>null")
    # keep's threshold is 2 and both orders start (o1, o2).
    assert market.essentially_equal(keep, middle)
    assert market.essentially_equal(middle, keep)
    # swap disagrees at rank 2 already.
    assert not market.essentially_equal(keep, swap)
    assert not market.essentially_equal(swap, keep)
    assert market.essentially_equal(keep, keep)


def test_essentially_equal_null_first_orders():
    """Null-first orders have threshold 1, so they are all essentially equal."""
    market = example3_market()
    first = order_from_names(market, "null>o1>o2>o3")
    second = order_from_names(market, "null>o3>o2>o1")
    assert market.essentially_equal(first, second)


def test_all_orders_enumeration():
    market = example2_market()
    orders = market.all_orders()
    assert len(orders) == 6
    rankings = [o.ranking for o in orders]
    assert rankings == sorted(rankings)
    assert len(set(rankings)) == 6


def test_all_orders_leaves_identity_unchanged():
    """Every ``all_orders`` call lists the same orders; listing them changes
    neither ``==``, ``hash`` nor ``repr``, and a copied or unpickled market
    equals the original."""
    market = example2_market()
    fresh = example2_market()
    before = (hash(market), repr(market))
    orders = market.all_orders()
    assert market.all_orders() == orders
    assert (hash(market), repr(market)) == before
    assert market == fresh and hash(market) == hash(fresh)
    assert "PreferenceOrder" not in repr(market)
    for copied in (copy.deepcopy(market), pickle.loads(pickle.dumps(market))):
        assert copied == market and hash(copied) == hash(market)
        assert repr(copied) == repr(market)
        assert copied.all_orders() == orders
    unpickled = pickle.loads(pickle.dumps(fresh))
    assert unpickled == fresh and unpickled.all_orders() == orders


def test_null_first_order():
    market = example3_market()
    assert market.null_first_order().ranking == (3, 0, 1, 2)


def test_name_lookups():
    market = example2_market()
    assert market.agent_index("a2") == 1
    assert market.type_index("null") == 2
    with pytest.raises(DomainError):
        market.agent_index("nobody")
    with pytest.raises(DomainError):
        market.type_index("missing")


def test_order_name_round_trip():
    market = example1_market()
    text = "o2>o1>null>o3"
    order = order_from_names(market, text)
    assert order.ranking == (1, 0, 3, 2)
    assert order_to_names(market, order) == text
    with pytest.raises(DomainError):
        order_from_names(market, "o1>o2")
    with pytest.raises(DomainError):
        order_from_names(market, "o1>o2>o3>what")


def test_profile_replace_and_checks():
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")
    profile = Profile((truth, truth, truth))
    swapped = profile.replace(1, keen)
    assert swapped[1] == keen
    assert swapped[0] == truth
    assert profile[1] == truth
    assert len(swapped) == 3
    with pytest.raises(DomainError):
        profile.replace(9, keen)
    check_profile(market, profile)
    with pytest.raises(DomainError):
        check_profile(market, Profile((truth, truth)))
    short = PreferenceOrder((0, 1))
    with pytest.raises(DomainError):
        check_profile(market, Profile((truth, truth, short)))


def test_check_profile_checks_lengths_without_calling_check_order(monkeypatch):
    """``check_profile`` compares each order's length with the market's type
    count itself, and calls ``Market.check_order`` only for an order of the
    wrong length, to raise its message."""
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    calls = []
    real = Market.check_order

    def counting(self, order):
        calls.append(order)
        return real(self, order)

    monkeypatch.setattr(Market, "check_order", counting)
    check_profile(market, Profile((truth, truth, truth)))
    assert calls == []
    for short in (PreferenceOrder((0, 1)), PreferenceOrder((0, 1, 2, 3))):
        with pytest.raises(DomainError) as info:
            check_profile(market, Profile((truth, short, truth)))
        assert str(info.value) == f"order ranks {len(short)} types but the market has 3"
    assert len(calls) == 2
