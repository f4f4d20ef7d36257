"""Tests for assignment matrices, rank values, waste, dominance rows and
the deterministic decomposition."""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from rankmech import (
    Assignment,
    DeterministicAssignment,
    DomainError,
    Market,
    PreferenceOrder,
    Profile,
    build_assignment,
    csv_rows,
    decompose,
    deterministic_rank_value,
    is_wasteful,
    modified_mechanism,
    order_from_names,
    rank_value,
    refusal_transform,
    render_matrix,
    uniform_mechanism,
    wastefulness_witness,
)
from rankmech import assignment, mechanisms
from rankmech.assignment import _complete_matching
from rankmech.examples import (
    example1_market,
    example2_market,
    example3_market,
    example4_market,
)
from oracles import (
    all_profiles,
    fraction_build_assignment,
    fraction_decompose,
    fraction_wastefulness_witness,
    recursive_positive_perfect_matching,
    row_strictly_prefers,
    row_weakly_prefers,
    strictly_prefers,
    to_assignment,
    weakly_prefers,
)

F = Fraction


def test_build_assignment_validation():
    market = example2_market()
    good = [[F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)]]
    x = build_assignment(market, good)
    assert x.entry(0, 0) == F(1, 2)
    assert x.column_sum(2) == 1
    # Wrong number of rows.
    with pytest.raises(DomainError):
        build_assignment(market, good[:2])
    # Wrong row width.
    with pytest.raises(DomainError):
        build_assignment(market, [[1, 0], [0, 1], [0, 1]])
    # Row does not sum to one.
    with pytest.raises(DomainError):
        build_assignment(market, [[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    # Negative entry.
    with pytest.raises(DomainError):
        build_assignment(market, [[-1, 1, 1], [0, 0, 1], [0, 0, 1]])
    # Column over capacity: o1 holds one seat but gets 3/2.
    with pytest.raises(DomainError):
        build_assignment(
            market,
            [[F(1, 2), 0, F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), 0, F(1, 2)]],
        )


def test_rank_value_hand_computed():
    """a1 holds the outside option it ranks second, a2 and a3 their firsts."""
    market = example2_market()
    profile = Profile((
        order_from_names(market, "o1>null>o2"),
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o2>o1>null"),
    ))
    x = build_assignment(market, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert rank_value(x, profile) == 4
    det = DeterministicAssignment((2, 0, 1))
    assert deterministic_rank_value(det, profile) == 4
    assert rank_value(to_assignment(det, market), profile) == 4


def test_rank_value_shape_checks():
    market = example2_market()
    x = build_assignment(market, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    short = Profile((order_from_names(market, "o1>o2>null"),))
    with pytest.raises(DomainError, match="number of agents"):
        rank_value(x, short)
    # Orders over four types against rows over three.
    wide = Profile((PreferenceOrder((0, 1, 2, 3)),) * 3)
    with pytest.raises(DomainError, match="number of types"):
        rank_value(x, wide)


def test_wastefulness_witness_golden():
    """The refusal outcome from the second bundled market.

    o2's column sums to 2/3 against capacity 1, so it has slack; a2 ranks o2
    above the outside option it still holds with probability 1/3.  The scan
    order makes (a2, o2, null) the first witness.
    """
    market = example2_market()
    truths = Profile((
        order_from_names(market, "o1>null>o2"),
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o1>o2>null"),
    ))
    refused = build_assignment(
        market,
        [[F(1, 3), 0, F(2, 3)], [F(1, 3), F(1, 3), F(1, 3)], [F(1, 3), F(1, 3), F(1, 3)]],
    )
    assert wastefulness_witness(market, refused, truths) == (1, 1, 2)
    assert is_wasteful(market, refused, truths)


def test_non_wasteful_assignment_has_no_witness():
    market = example2_market()
    profile = Profile((
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o1>o2>null"),
    ))
    x = build_assignment(
        market,
        [[F(1, 3), F(1, 3), F(1, 3)], [F(1, 3), F(1, 3), F(1, 3)], [F(1, 3), F(1, 3), F(1, 3)]],
    )
    assert wastefulness_witness(market, x, profile) is None
    assert not is_wasteful(market, x, profile)


def test_row_preference_is_cumulative():
    """Under o1 > o2 > null, shifting mass upward wins, crossing shifts tie nobody."""
    market = example2_market()
    order = order_from_names(market, "o1>o2>null")
    better = (F(1, 2), F(1, 2), F(0))
    worse = (F(1, 2), F(0), F(1, 2))
    assert row_weakly_prefers(order, better, worse)
    assert row_strictly_prefers(order, better, worse)
    assert not row_weakly_prefers(order, worse, better)
    assert not row_strictly_prefers(order, worse, better)
    # Equal rows: weak both ways, strict neither way.
    assert row_weakly_prefers(order, better, better)
    assert not row_strictly_prefers(order, better, better)
    # Incomparable rows: more first best but also more bottom.
    left = (F(1, 2), F(0), F(1, 2))
    right = (F(0), F(1), F(0))
    assert not row_weakly_prefers(order, left, right)
    assert not row_weakly_prefers(order, right, left)
    with pytest.raises(DomainError):
        row_weakly_prefers(order, (F(1),), (F(1),))


def test_assignment_level_preference_wrappers():
    market = example2_market()
    order = order_from_names(market, "o1>o2>null")
    x = build_assignment(market, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    y = build_assignment(market, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert weakly_prefers(order, x, y, 0)
    assert strictly_prefers(order, x, y, 0)
    assert not weakly_prefers(order, y, x, 0)
    assert weakly_prefers(order, x, y, 2)
    assert not strictly_prefers(order, x, y, 2)


def test_decompose_two_way_split():
    """a2 and a3 split o1 and o2 evenly; the two seatings each get weight 1/2."""
    market = example2_market()
    x = build_assignment(
        market, [[0, 0, 1], [F(1, 2), F(1, 2), 0], [F(1, 2), F(1, 2), 0]]
    )
    d = decompose(market, x)
    assert d.recombine(market) == x
    assert [(w, det.choices) for w, det in d.parts] == [
        (F(1, 2), (2, 0, 1)),
        (F(1, 2), (2, 1, 0)),
    ]


def test_decompose_deterministic_input():
    market = example4_market()
    x = build_assignment(market, [[1, 0, 0], [0, 1, 0]])
    d = decompose(market, x)
    assert len(d.parts) == 1
    assert d.parts[0] == (F(1), DeterministicAssignment((0, 1)))


def test_decompose_shared_column_needs_joint_extraction():
    """Two agents sit half on a unit-capacity type and half on a two-seat type.

    Greedily pulling out the seating that puts both on the two-seat type o2
    would strand the remaining o1 mass (two agents, one seat).  The
    matching-based extraction only ever produces the two valid seatings.
    """
    market = Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "null"),
        capacities=(1, 2, 3),
        null_type=2,
    )
    x = build_assignment(
        market, [[F(1, 2), F(1, 2), 0], [F(1, 2), F(1, 2), 0], [0, 0, 1]]
    )
    d = decompose(market, x)
    assert d.recombine(market) == x
    assert [(w, det.choices) for w, det in d.parts] == [
        (F(1, 2), (0, 1, 2)),
        (F(1, 2), (1, 0, 2)),
    ]


def _matrix_sizes(monkeypatch):
    """A list that gets the side of the square matrix at every matching
    ``decompose`` runs."""
    sizes = []

    def spy(positive, *rest):
        sizes.append(len(positive))
        return _complete_matching(positive, *rest)

    monkeypatch.setattr(assignment, "_complete_matching", spy)
    return sizes


def test_decompose_gives_an_unheld_type_no_copies(monkeypatch):
    """Nobody holds null, so its column sums to zero and it gets no copies:
    three copies for three agents, no dummy rows, no null in any seating."""
    sizes = _matrix_sizes(monkeypatch)
    market = Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, 2, 2, 3),
        null_type=3,
    )
    half = F(1, 2)
    x = build_assignment(
        market, [[half, half, 0, 0], [half, 0, half, 0], [0, half, half, 0]]
    )
    d = decompose(market, x)
    assert d.recombine(market) == x
    assert d == fraction_decompose(market, x)
    assert set(sizes) == {3}
    assert all(3 not in det.choices for _, det in d.parts)


def test_decompose_validates_input():
    """A malformed matrix is refused when it is made; a matrix made for
    another market is validated again against the one ``decompose`` gets."""
    market = example2_market()
    with pytest.raises(DomainError, match="expected 3 rows, got 1"):
        Assignment(market, 2, ((1, 1, 0),))
    wide = example3_market()
    x = build_assignment(wide, [[0, F(1, 2), 0, F(1, 2)]] * 3)
    with pytest.raises(DomainError, match="row a1 has 4 entries, expected 3"):
        decompose(market, x)


def _crowded_input():
    """Every agent holds o1 with 1/2 against its one seat, and every truth
    refuses o1, so the refused matrix alone would pass validation.  The
    matrix is made for a copy of the market with two seats of o1."""
    market = example2_market()
    counts = ((1, 0, 1),) * 3
    with pytest.raises(DomainError, match="column o1 sums to 3/2, exceeding capacity 1"):
        Assignment(market, 2, counts)
    roomy = dataclasses.replace(market, capacities=(2, *market.capacities[1:]))
    truths = Profile((order_from_names(market, "o2>null>o1"),) * 3)
    return market, Assignment(roomy, 2, counts), truths


def test_refusal_transform_validates_input():
    market, crowded, truths = _crowded_input()
    with pytest.raises(DomainError, match="column o1 sums to 3/2, exceeding capacity 1"):
        refusal_transform(market, crowded, truths)


def test_wastefulness_witness_validates_input():
    market, crowded, truths = _crowded_input()
    with pytest.raises(DomainError, match="column o1 sums to 3/2, exceeding capacity 1"):
        wastefulness_witness(market, crowded, truths)
    with pytest.raises(DomainError, match="row a1 has 2 entries, expected 3"):
        build_assignment(market, ((F(1), F(0)),) * 3)
    with pytest.raises(DomainError, match="row a1 has 4 entries, expected 3"):
        wastefulness_witness(market, build_assignment(example3_market(), [[0, 0, 0, 1]] * 3), truths)


def test_constructor_checks_the_denominator():
    """A denominator that is not a positive int is a DomainError; a bool
    denominator is the int it equals, and is stored as that int."""
    market = example2_market()
    for denominator in (0, -2, 2.0, F(2), False):
        with pytest.raises(DomainError, match="denominator must be a positive int"):
            Assignment(market, denominator, ((0, 0, 0),) * 3)
    x = Assignment(example4_market(), True, ((1, 0, 0), (0, 1, 0)))
    assert type(x.denominator) is int and x.denominator == 1
    assert repr(x) == "Assignment(denominator=1, counts=((1, 0, 0), (0, 1, 0)))"
    assert x == Assignment(example4_market(), 1, ((1, 0, 0), (0, 1, 0)))


def test_constructor_names_a_count_that_is_not_an_int():
    """A count that is not an int, or a row that is not a sequence, is a
    DomainError naming the first one, whether or not an integer check
    would pass it.  A bool is the int it equals, and is stored as that int."""
    market = example2_market()
    valid = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for bad, text in (
        (1.0, "count 1.0 for (a2, o2) is not an int"),
        (F(1), "count Fraction(1, 1) for (a2, o2) is not an int"),
        ("1", "count '1' for (a2, o2) is not an int"),
        (F(3, 2), "count Fraction(3, 2) for (a2, o2) is not an int"),
    ):
        counts = (valid[0], (0, bad, 0), valid[2])
        with pytest.raises(DomainError) as exc:
            Assignment(market, 1, counts)
        assert str(exc.value) == text
    for row in (5, None, (c for c in valid[1])):
        with pytest.raises(DomainError, match="row a2 is not a sequence of counts, got "):
            Assignment(market, 1, (valid[0], row, valid[2]))
    with pytest.raises(DomainError, match=r"count 0\.5 for \(a1, o1\) is not an int"):
        Assignment(market, 1, ((0.5, 0.5, 0), (0, 1, 0), (0, 0, 1)))
    for denominator, counts in (
        (1, ((True, False, False), (False, True, False), (0, 0, True))),
        (2, ((2, False, False), (0, 2, False), (0, 0, 2))),
    ):
        x = Assignment(market, denominator, counts)
        assert x == Assignment(market, 1, valid)
        assert x.counts == valid and all(type(c) is int for row in x.counts for c in row)


def test_assign_path_checks_only_a_matrix_made_for_another_market(monkeypatch):
    """Mechanism, waste scan, refusal, waste scan and ``decompose`` check no
    matrix: the mechanism's output and the refused one are made unchecked,
    and ``build_assignment`` is never called.  A matrix passed with an equal
    market is not checked either, and one passed with another market is
    checked once."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Assignment, "__post_init__", counted("checked", Assignment.__post_init__))
    monkeypatch.setattr(assignment, "build_assignment", counted("build", build_assignment))
    market = example3_market()
    revealed = Profile(tuple(
        order_from_names(market, spec)
        for spec in ("o1>o2>o3>null", "o1>null>o2>o3", "o2>o1>o3>null")
    ))
    truths = revealed.replace(0, order_from_names(market, "o1>null>o2>o3"))
    x = uniform_mechanism(market, revealed)
    wastefulness_witness(market, x, revealed)
    refused = refusal_transform(market, x, truths)
    wastefulness_witness(market, refused, truths)
    d = decompose(market, refused)
    assert refused != x
    assert calls == []
    assert decompose(dataclasses.replace(market), refused) == d
    assert calls == []
    assert decompose(dataclasses.replace(market, capacities=(1, 2, 1, 4)), refused) == d
    assert calls == ["checked"]


def _assert_checked_alike(market, x):
    """``x`` is what the checking constructor makes of its own counts: the
    same denominator, the same counts as tuples of plain ints, ``==`` and
    the hash."""
    checked = Assignment(market, x.denominator, x.counts)
    assert type(x.denominator) is int and x.denominator == checked.denominator
    assert type(x.counts) is tuple and all(type(row) is tuple for row in x.counts)
    assert all(type(c) is int for row in x.counts for c in row)
    assert x.counts == checked.counts
    assert x == checked and hash(x) == hash(checked)


@pytest.mark.parametrize(
    "market", [example2_market(), example3_market(), example4_market()], ids=["ex2", "ex3", "ex4"]
)
def test_unchecked_matrices_match_the_checking_constructor_on_every_small_profile(market):
    """Both mechanisms, crowd-out patterns included, on every profile, each
    output also refused against a seeded truth: every matrix the library
    makes unchecked is one the checking constructor accepts and stores
    alike."""
    rng = random.Random(5657)
    patterned = 0
    for profile in all_profiles(market):
        truths = _random_profile(rng, market)
        patterned += mechanisms.detect_modified_pattern(market, profile) is not None
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile)
            _assert_checked_alike(market, x)
            _assert_checked_alike(market, refusal_transform(market, x, truths))
    assert patterned > 0


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_unchecked_matrices_match_the_checking_constructor_on_seeded_markets(tie_heavy):
    """The seeded 6-8 agent markets of the decompose oracle: both
    mechanisms' matrices, unrefused and refused against seeded truths."""
    rng = random.Random(3301 + tie_heavy)
    for _ in range(100):
        market, profile = _seeded_profile(rng, tie_heavy)
        truths = _random_profile(rng, market)
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile, mechanisms.Budget(max_agents=market.n_agents))
            _assert_checked_alike(market, x)
            _assert_checked_alike(market, refusal_transform(market, x, truths))


def _copies(rng, market, x):
    """``x`` made again through ``build_assignment``, and over a seeded
    multiple of its denominator."""
    k = rng.choice((2, 3, 6))
    scaled = [[k * c for c in row] for row in x.counts]
    return build_assignment(market, x.rows), Assignment(market, k * x.denominator, scaled)


def test_equality_and_hash_agree_with_the_fraction_rows():
    """``x == y``, and then ``hash(x) == hash(y)``, exactly when
    ``x.rows == y.rows``.  On every profile of example 2 with seeded truths,
    and on seeded 6-8 agent markets: a mechanism output and its refused
    matrix, whose gcd can grow, each equal their copies made through
    ``build_assignment`` and over a multiple of their denominator.  Seeded
    pairs of those matrices compare as their rows do."""
    rng = random.Random(4607)
    market = example2_market()
    orders = market.all_orders()
    inputs = []
    for profile in all_profiles(market):
        truths = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
        x = uniform_mechanism(market, profile)
        inputs += [(market, x), (market, refusal_transform(market, x, truths))]
    inputs += [_seeded_assign_input(rng, tie_heavy) for tie_heavy in (True, False) * 10]
    for market, x in inputs:
        assert x.denominator == math.lcm(*(v.denominator for row in x.rows for v in row))
        for y in _copies(rng, market, x):
            assert y.rows == x.rows and y == x and hash(y) == hash(x)
    matrices = [x for _, x in inputs]
    for x, y in (rng.sample(matrices, 2) for _ in range(2000)):
        assert (x == y) == (x.rows == y.rows)
        if x == y:
            assert hash(x) == hash(y)
    assert 1 < len(set(matrices)) == len({x.rows for x in matrices})


def test_integer_form_is_tied_to_its_market():
    """A matrix validated against one market is validated again against another."""
    market = example3_market()
    x = build_assignment(market, [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    narrow = dataclasses.replace(market, capacities=(1, 1, 1, 3))
    with pytest.raises(DomainError, match="column o2 sums to 2, exceeding capacity 1"):
        decompose(narrow, x)
    assert decompose(example3_market(), x) == decompose(market, x)


def _all_deterministics(market):
    dets = []
    for choices in itertools.product(range(market.n_types), repeat=market.n_agents):
        det = DeterministicAssignment(choices)
        if det.respects_capacities(market):
            dets.append(det)
    return dets


def test_decompose_random_mixtures_round_trip():
    """Seeded sweep: mix random seatings with random rational weights,
    decompose, and demand exact recombination with capacity-respecting parts,
    the same parts as the ``Fraction`` oracle's."""
    markets = [example1_market(), example2_market(), example3_market(), example4_market()]
    pools = [_all_deterministics(m) for m in markets]
    rng = random.Random(4127)
    for _ in range(150):
        pick = rng.randrange(len(markets))
        market, pool = markets[pick], pools[pick]
        chosen = rng.sample(pool, rng.randint(1, 4))
        raw = [rng.randint(1, 9) for _ in chosen]
        total = sum(raw)
        rows = [[F(0)] * market.n_types for _ in range(market.n_agents)]
        for det, w in zip(chosen, raw):
            for a, o in enumerate(det.choices):
                rows[a][o] += F(w, total)
        x = build_assignment(market, rows)
        d = decompose(market, x)
        assert d == fraction_decompose(market, x)
        assert d.recombine(market) == x
        assert sum(w for w, _ in d.parts) == 1
        for w, det in d.parts:
            assert w > 0
            assert det.respects_capacities(market)
        parts_order = [det.choices for _, det in d.parts]
        assert parts_order == sorted(parts_order)


def _assert_matches_oracle(market, x):
    assert decompose(market, x) == fraction_decompose(market, x)


def _random_profile(rng, market):
    orders = market.all_orders()
    return Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))


@pytest.mark.parametrize("market", [example2_market(), example4_market()], ids=["ex2", "ex4"])
def test_decompose_matches_fraction_oracle_on_every_small_profile(market):
    """Both mechanisms on every profile, each also refused against a seeded truth."""
    rng = random.Random(907)
    for profile in all_profiles(market):
        truths = _random_profile(rng, market)
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile)
            _assert_matches_oracle(market, x)
            _assert_matches_oracle(market, refusal_transform(market, x, truths))


def _seeded_profile(rng, tie_heavy):
    """A market with 6-8 agents and null capacity n or 2n, and a seeded
    profile (:func:`_market_and_profile`)."""
    n = rng.randint(6, 8)
    scarce = rng.choice([(2, 2), (2, 1, 1), (1, 1, 1), (3, 1)])
    return _market_and_profile(rng, n, scarce, rng.choice((n, 2 * n)), tie_heavy)


def _seeded_assign_input(rng, tie_heavy):
    """A :func:`_seeded_profile` market and its refused outcome
    (:func:`_refused_outcome`)."""
    return _refused_outcome(rng, *_seeded_profile(rng, tie_heavy))


def _refused_input(rng, n, scarce, null_capacity, tie_heavy):
    """A :func:`_market_and_profile` market and its refused outcome."""
    return _refused_outcome(rng, *_market_and_profile(rng, n, scarce, null_capacity, tie_heavy))


def _market_and_profile(rng, n, scarce, null_capacity, tie_heavy):
    """A market with ``n`` agents, the ``scarce`` capacities and
    ``null_capacity`` null seats, and a seeded profile.

    Tie-heavy: every agent but one shares an order ranking the scarce types
    above null, and that one swaps the top two.  Spread: independent orders.
    """
    k = len(scarce)
    market = Market(
        agent_names=tuple(f"a{j + 1}" for j in range(n)),
        type_names=tuple(f"o{t + 1}" for t in range(k)) + ("null",),
        capacities=(*scarce, null_capacity),
        null_type=k,
    )
    if tie_heavy:
        shared = (*rng.sample(range(k), k), k)
        odd = (shared[1], shared[0], *shared[2:])
        position = rng.randrange(n)
        reveals = [odd if a == position else shared for a in range(n)]
        return market, Profile(tuple(PreferenceOrder(order) for order in reveals))
    return market, _random_profile(rng, market)


def _refused_outcome(rng, market, profile):
    """``market`` and its uniform matrix on ``profile`` refused against
    seeded truths."""
    x = uniform_mechanism(market, profile, mechanisms.Budget(max_agents=market.n_agents))
    return market, refusal_transform(market, x, _random_profile(rng, market))


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_decompose_matches_fraction_oracle_on_seeded_markets(tie_heavy):
    """About half these markets have null capacity 2n; either way each type
    splits into as many copies as the ceiling of its column sum."""
    rng = random.Random(3301 + tie_heavy)
    for _ in range(100):
        market, x = _seeded_assign_input(rng, tie_heavy)
        d = decompose(market, x)
        assert d == fraction_decompose(market, x)
        assert d.recombine(market) == x


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_decompose_copies_are_at_most_agents_plus_types_minus_one(tie_heavy, monkeypatch):
    """The ceilings of m column sums that add up to n add up to at most
    n + m - 1, and that is the side of the square matrix the matching sees."""
    sizes = _matrix_sizes(monkeypatch)
    rng = random.Random(3301 + tie_heavy)
    for _ in range(100):
        market, x = _seeded_assign_input(rng, tie_heavy)
        sizes.clear()
        decompose(market, x)
        copies = sum(math.ceil(x.column_sum(o)) for o in range(market.n_types))
        assert copies <= market.n_agents + market.n_types - 1
        assert sizes and set(sizes) == {copies}


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_decompose_steps_are_few_and_each_gives_a_new_part(tie_heavy, monkeypatch):
    """A measured guard on these seeded markets, not a theorem: extraction
    takes at most nnz(x) - n + 1 steps, nnz(x) counting the positive entries
    of the refused matrix, and no seating comes out twice, so every step is
    a part.  Spreading each agent's mass evenly over a type's copies broke
    the bound on all 200 markets; filling the copies consecutively keeps
    both."""
    sizes = _matrix_sizes(monkeypatch)
    rng = random.Random(3301 + tie_heavy)
    for _ in range(100):
        market, x = _seeded_assign_input(rng, tie_heavy)
        sizes.clear()
        d = decompose(market, x)
        nnz = sum(v > 0 for row in x.rows for v in row)
        assert len(sizes) <= nnz - market.n_agents + 1
        assert len(sizes) == len(d.parts)


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_decompose_parts_do_not_depend_on_the_denominator(tie_heavy):
    """The same markets as the oracle test: ``decompose`` on the refused
    matrix, in lowest terms, equals ``decompose`` on the same matrix over a
    seeded multiple of its denominator."""
    rng = random.Random(3301 + tie_heavy)
    for _ in range(100):
        market, x = _seeded_assign_input(rng, tie_heavy)
        expected = decompose(market, x)
        k = rng.randint(2, 12)
        scaled = (k * x.denominator, tuple(tuple(k * c for c in row) for row in x.counts))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "_scaled", lambda market, x: scaled)
            assert decompose(market, x) == expected


def test_decompose_cost_is_bounded_in_the_capacities():
    """Null capacity 10**6 gives the null type two copies, the ceiling of
    its column sum, not a million."""
    market = Market(
        agent_names=tuple(f"a{j + 1}" for j in range(8)),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(2, 2, 2, 10**6),
        null_type=3,
    )
    x = uniform_mechanism(market, Profile((PreferenceOrder((0, 1, 2, 3)),) * 8))
    start = time.perf_counter()
    d = decompose(market, x)
    assert time.perf_counter() - start < 1.0
    assert d.recombine(market) == x
    assert d == fraction_decompose(market, x)
    assert len(d.parts) > 1
    for w, det in d.parts:
        assert w > 0
        assert det.respects_capacities(market)


def test_decompose_matches_the_oracle_where_it_takes_many_steps(monkeypatch):
    """``decompose`` equals the ``Fraction`` oracle on the refused uniform
    matrix of every profile of ``example2_market()``, each agent refusing
    what the next agent's order ranks below the outside option; on four
    seeded tie-heavy refused matrices at each of n = 10, 12 and 16, which
    take 6 to 14 extraction steps each; and on one n = 16 matrix whose
    null type has 10**6 seats, whose parts are those of the same matrix
    with 16 null seats."""
    sizes = _matrix_sizes(monkeypatch)
    market = example2_market()
    for profile in all_profiles(market):
        truths = Profile(profile.orders[1:] + profile.orders[:1])
        x = uniform_mechanism(market, profile)
        _assert_matches_oracle(market, refusal_transform(market, x, truths))
    rng = random.Random(1016)
    steps = []
    for n, scarce in ((10, (3, 3, 2)), (12, (3, 3, 2, 2)), (16, (4, 4, 3, 3))):
        for _ in range(4):
            market, x = _refused_input(rng, n, scarce, n, True)
            sizes.clear()
            _assert_matches_oracle(market, x)
            steps.append(len(sizes))
    assert min(steps) >= 6
    big, x = _refused_input(random.Random(106), 16, (4, 4, 3, 3), 10**6, True)
    small, y = _refused_input(random.Random(106), 16, (4, 4, 3, 3), 16, True)
    _assert_matches_oracle(big, x)
    assert decompose(big, x).parts == decompose(small, y).parts


def _build_outcome(build, market, rows):
    """What ``build`` returns, or the text of the DomainError it raises."""
    try:
        return build(market, rows)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _spelled(rng, rows):
    """``rows`` with each entry written as a Fraction, its string, or an int
    when whole, chosen at random."""
    out = []
    for row in rows:
        spelled = []
        for v in row:
            kind = rng.randrange(3)
            if kind == 0 and v.denominator == 1:
                spelled.append(int(v))
            elif kind == 1:
                spelled.append(str(v))
            else:
                spelled.append(v)
        out.append(spelled)
    return out


def _malformed(rng, market, rows):
    """One copy of the valid ``rows`` per malformed kind, with the text its
    DomainError must contain."""
    n, m = market.n_agents, market.n_types
    k = rng.randint(2, 7)
    a = rng.randrange(n)
    o, other = rng.sample(range(m), 2)
    cases = []

    def copy():
        return [list(row) for row in rows]

    cases.append((copy()[:-1], f"expected {n} rows, got {n - 1}"))
    cases.append((copy() + [list(rows[0])], f"expected {n} rows, got {n + 1}"))
    short = copy()
    short[a] = short[a][:-1]
    cases.append((short, f"has {m - 1} entries, expected {m}"))
    negative = copy()
    shift = negative[a][o] + F(1, k)
    negative[a][o] -= shift
    negative[a][other] += shift
    cases.append((negative, "is outside [0, 1]"))
    above = copy()
    above[a][o] = 1 + F(1, k)
    cases.append((above, "is outside [0, 1]"))
    off = copy()
    below = rng.choice([t for t in range(m) if off[a][t] < 1])
    off[a][below] += (1 - off[a][below]) / k
    cases.append((off, "does not sum to 1"))
    scarce = rng.choice([t for t in range(m) if t != market.null_type])
    floor = F(market.capacities[scarce], n)
    share = floor + (1 - floor) * F(rng.randint(1, k), k)
    crowded = [[F(0)] * m for _ in range(n)]
    for row in crowded:
        row[scarce] = share
        row[market.null_type] = 1 - share
    cases.append((crowded, "exceeding capacity"))
    # The least overshoot: q agents sit on the type and one more holds 1/k.
    edge = [[F(0)] * m for _ in range(n)]
    q = market.capacities[scarce]
    for b, row in enumerate(edge):
        row[scarce] = F(1) if b < q else F(1, k) if b == q else F(0)
        row[market.null_type] = 1 - row[scarce]
    cases.append((edge, f"sums to {q * k + 1}/{k}, exceeding capacity {q}"))
    return cases


@pytest.mark.parametrize("tie_heavy", [True, False], ids=["tie-heavy", "spread"])
def test_build_assignment_matches_fraction_oracle(tie_heavy):
    """Integer checks against ``Fraction`` sums: equal rows on seeded valid
    matrices, and the same DomainError text on every malformed kind, with
    entries written as ints, strings and Fractions."""
    rng = random.Random(6211 + tie_heavy)
    for _ in range(50):
        market, x = _seeded_assign_input(rng, tie_heavy)
        spelled = _spelled(rng, x.rows)
        built = build_assignment(market, spelled)
        assert built.rows == fraction_build_assignment(market, spelled) == x.rows
        assert built == x
        assert all(type(v) is Fraction for row in built.rows for v in row)
        for rows, fragment in _malformed(rng, market, x.rows):
            spelled = _spelled(rng, rows)
            outcome = _build_outcome(build_assignment, market, spelled)
            assert isinstance(outcome, str) and fragment in outcome
            assert outcome == _build_outcome(fraction_build_assignment, market, spelled)


@pytest.mark.parametrize("market", [example2_market(), example4_market()], ids=["ex2", "ex4"])
def test_waste_scan_matches_fraction_oracle_on_every_small_profile(market):
    """Both mechanisms on every profile, judged against the reveals and,
    refused, against a seeded truth profile."""
    rng = random.Random(1733)
    found = set()
    for profile in all_profiles(market):
        truths = _random_profile(rng, market)
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile)
            refused = refusal_transform(market, x, truths)
            for matrix, judged in ((x, profile), (refused, truths)):
                witness = wastefulness_witness(market, matrix, judged)
                assert witness == fraction_wastefulness_witness(market, matrix, judged)
                found.add(witness is None)
    assert found == {True, False}


def _seeded_waste_markets(rng):
    """60 seeded markets of 4-6 types, the null type at a seeded index, and
    6-10 agents, each with a revealed profile (every other one has most
    agents sharing one order) and seeded truths."""
    for i in range(60):
        n = rng.randint(6, 10)
        m = rng.randint(4, 6)
        null = rng.randrange(m)
        market = Market(
            agent_names=tuple(f"a{j + 1}" for j in range(n)),
            type_names=tuple(f"o{o + 1}" for o in range(m)),
            capacities=tuple(
                rng.choice((n, 2 * n)) if o == null else rng.randint(1, 3) for o in range(m)
            ),
            null_type=null,
        )
        orders = market.all_orders()
        shared = rng.choice(orders)
        profile = Profile(tuple(
            shared if i % 2 and rng.random() < 0.7 else rng.choice(orders) for _ in range(n)
        ))
        yield market, profile, _random_profile(rng, market)


def test_waste_scan_matches_fraction_oracle_on_seeded_wide_markets():
    """Both mechanisms on seeded 4-6 type, 6-10 agent markets, judged against
    the reveals and, refused, against seeded truths.  Both outcomes occur,
    and some witness's preferred type comes after a slack type of lower
    index that its agent does not rank above everything it holds."""
    rng = random.Random(4711)
    budget = mechanisms.Budget(max_agents=10)
    found = set()
    skips = 0
    for market, profile, truths in _seeded_waste_markets(rng):
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile, budget)
            refused = refusal_transform(market, x, truths)
            for matrix, judged in ((x, profile), (refused, truths)):
                witness = wastefulness_witness(market, matrix, judged)
                assert witness == fraction_wastefulness_witness(market, matrix, judged)
                found.add(witness is None)
                if witness is not None:
                    skips += any(
                        matrix.column_sum(o) < market.capacities[o] for o in range(witness[1])
                    )
    assert found == {True, False}
    assert skips > 0


def _cold_matching(positive):
    """``_complete_matching`` from an empty matching with every row a root."""
    n = len(positive)
    col_of_row = [-1] * n
    _complete_matching(positive, col_of_row, [-1] * n, (1 << n) - 1, range(n))
    return col_of_row


def test_stack_matching_matches_recursive_oracle():
    """Supports that are unions of 1-4 random permutations, so a perfect
    matching always exists."""
    rng = random.Random(5519)
    for _ in range(2000):
        n = rng.randint(1, 12)
        support = [set() for _ in range(n)]
        for _ in range(rng.randint(1, 4)):
            for r, c in enumerate(rng.sample(range(n), n)):
                support[r].add(c)
        matrix = [[F(int(c in cols)) for c in range(n)] for cols in support]
        positive = [sum(1 << c for c in cols) for cols in support]
        assert _cold_matching(positive) == recursive_positive_perfect_matching(matrix)


def test_warm_stack_matching_matches_recursive_oracle():
    """Completing a partial matching, as each extraction step of ``decompose``
    does.  The support is a union of 2-5 random permutations; the first is
    the perfect matching taken, a random subset of its rows is unmatched, and
    as in ``decompose`` their old entries leave the support where no other
    permutation holds them, so the rest still admit a perfect matching."""
    rng = random.Random(7741)
    for _ in range(2000):
        n = rng.randint(1, 12)
        taken, *others = [rng.sample(range(n), n) for _ in range(rng.randint(2, 5))]
        support = [{taken[r]} | {p[r] for p in others} for r in range(n)]
        unmatched = sorted(rng.sample(range(n), rng.randint(1, n)))
        for r in unmatched:
            if rng.random() < 0.5 and all(p[r] != taken[r] for p in others):
                support[r].discard(taken[r])
        col_of_row = list(taken)
        row_of_col = [0] * n
        for r, c in enumerate(taken):
            row_of_col[c] = r
        free = 0
        for r in unmatched:
            free |= 1 << taken[r]
            row_of_col[taken[r]] = -1
            col_of_row[r] = -1
        matrix = [[F(int(c in cols)) for c in range(n)] for cols in support]
        positive = [sum(1 << c for c in cols) for cols in support]
        stack = (list(col_of_row), list(row_of_col))
        _complete_matching(positive, *stack, free, unmatched)
        recursive = (list(col_of_row), list(row_of_col))
        recursive_positive_perfect_matching(matrix, *recursive, unmatched)
        assert stack == recursive
        assert sorted(stack[0]) == list(range(n))
        assert all(positive[r] >> c & 1 for r, c in enumerate(stack[0]))


def test_stack_matching_has_no_recursion_limit():
    """A staircase: row 0 holds column 0 and row r columns r-1 and r, so the
    search for row r runs r rows deep, past the default recursion limit."""
    n = 1500
    positive = [0b1] + [0b11 << (r - 1) for r in range(1, n)]
    assert _cold_matching(positive) == list(range(n))


def test_warm_stack_matching_has_no_recursion_limit():
    """A staircase re-augmentation: row r < n-1 holds columns r and r+1 and
    is matched to r+1, and the last row, unmatched, holds only column n-1,
    so its path runs through every row down to the free column 0."""
    n = 1500
    positive = [0b11 << r for r in range(n - 1)] + [1 << (n - 1)]
    col_of_row = [r + 1 for r in range(n - 1)] + [-1]
    row_of_col = [-1] + list(range(n - 1))
    _complete_matching(positive, col_of_row, row_of_col, 0b1, [n - 1])
    assert col_of_row == list(range(n))
    assert row_of_col == list(range(n))


def test_render_matrix_layout():
    market = example2_market()
    x = build_assignment(
        market, [[0, 0, 1], [F(1, 2), F(1, 2), 0], [F(1, 2), F(1, 2), 0]]
    )
    lines = render_matrix(market, x).splitlines()
    assert lines[0].split() == ["o1", "o2", "null"]
    assert lines[1].split() == ["a1", "0", "0", "1"]
    assert lines[2].split() == ["a2", "1/2", "1/2", "0"]
    assert lines[3].split() == ["a3", "1/2", "1/2", "0"]
    # Columns are right-aligned under their headers.
    assert lines[0].endswith("null")
    assert lines[1].endswith("1")


def test_csv_rows_cover_every_cell():
    market = example4_market()
    x = build_assignment(market, [[F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]])
    rows = csv_rows(market, x)
    assert len(rows) == 6
    assert rows[0] == ("a1", "o1", "1/2")
    assert rows[1] == ("a1", "o2", "0")
    assert rows[5] == ("a2", "null", "0")
