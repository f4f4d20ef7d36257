"""Relabelling scarce types of equal capacity commutes with everything.

Swapping two non-null types that share a capacity maps a market to itself.
Both mechanisms, refusal, the outside-option demotions, the truncation
classes and every class-pair verdict must follow the swap.  The swaps of
types adjacent among those of one capacity generate every such relabelling,
and the property composes, so the test checks only those generators.
"""

import itertools
import random

import pytest

from rankmech import DEFAULT_BUDGET, Market, PreferenceOrder, Profile
from rankmech.classpairs import class_rows, decide
from rankmech.mechanisms import modified_mechanism, uniform_mechanism
from rankmech.strategy import ods_set, refusal_transform

# name: (agents, scarce capacities, seeded profiles or None for every profile)
MARKETS = {
    "3x(1,1,3)": (3, (1, 1), None),
    "2x(1,1,1,2)": (2, (1, 1, 1), None),
    "3x(1,1,2,3)": (3, (1, 1, 2), 300),
    "4x(2,2,1,4)": (4, (2, 2, 1), 300),
    "3x(1,1,1,1,3)": (3, (1, 1, 1, 1), 300),
}


def _market(n, caps):
    """``n`` agents, scarce types of capacities ``caps`` and a null type of ``n`` seats."""
    types = tuple(f"o{j + 1}" for j in range(len(caps))) + ("null",)
    return Market(tuple(f"a{j + 1}" for j in range(n)), types, (*caps, n), len(caps))


def _generators(market):
    """Each swap of two non-null types of one capacity, adjacent in index
    order among the types of that capacity, as a map from type to type."""
    by_capacity = {}
    for o, q in enumerate(market.capacities):
        if o != market.null_type:
            by_capacity.setdefault(q, []).append(o)
    swaps = []
    for types in by_capacity.values():
        for a, b in zip(types, types[1:]):
            pi = list(range(market.n_types))
            pi[a], pi[b] = b, a
            swaps.append(tuple(pi))
    return swaps


def _image(pi, order):
    return PreferenceOrder(tuple(pi[o] for o in order.ranking))


def _moved(pi, rows):
    """``rows`` with each type's column moved to its image; a swap is its own
    inverse, so the column of type o is read from type ``pi[o]``."""
    return tuple(tuple(row[pi[o]] for o in range(len(row))) for row in rows)


@pytest.mark.parametrize("name", MARKETS)
def test_swapping_types_of_equal_capacity_commutes_with_everything(name):
    """Under each generating swap: both mechanisms' rows on the swapped
    profile, and their refused rows under swapped truths, are the rows on the
    profile with columns swapped; each order's demotions are swapped in
    order; the classes map one to one, keeping sizes and swapping keys; and
    all four verdict tables are unchanged under that class map."""
    n, caps, seeded = MARKETS[name]
    market = _market(n, caps)
    generators = _generators(market)
    assert generators
    orders = market.all_orders()
    if seeded is None:
        reveals = itertools.product(orders, repeat=n)
    else:
        rng = random.Random(4404)
        reveals = (rng.choices(orders, k=n) for _ in range(seeded))
    for reveal in reveals:
        profile = Profile(tuple(reveal))
        truths = Profile(profile.orders[1:] + profile.orders[:1])
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile)
            refused = refusal_transform(market, x, truths)
            for pi in generators:
                image = Profile(tuple(_image(pi, order) for order in profile.orders))
                image_truths = Profile(tuple(_image(pi, order) for order in truths.orders))
                y = mechanism(market, image)
                assert y.rows == _moved(pi, x.rows)
                assert refusal_transform(market, y, image_truths).rows == _moved(pi, refused.rows)

    source = class_rows(market, DEFAULT_BUDGET)
    classes = range(len(source.classes))
    pairs = list(itertools.product(classes, repeat=2))
    tables = [decide(source, mechanism, refusal, pairs)
              for mechanism in ("uniform", "modified") for refusal in (False, True)]
    for pi in generators:
        sigma = [source.class_of[_image(pi, rep).ranking] for rep in source.classes]
        assert sorted(sigma) == list(classes)
        for order in orders:
            assert source.class_of[_image(pi, order).ranking] == sigma[source.class_of[order.ranking]]
            assert ods_set(market, _image(pi, order)) == tuple(
                _image(pi, demotion) for demotion in ods_set(market, order)
            )
        for c in classes:
            assert source.size[sigma[c]] == source.size[c]
            assert source.key[sigma[c]] == tuple(pi[o] for o in source.key[c])
        for table in tables:
            assert {(sigma[t], sigma[c]): verdict for (t, c), verdict in table.items()} == table
