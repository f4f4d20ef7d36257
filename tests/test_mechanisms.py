"""Tests for rank-minimizing enumeration and the two mechanisms.

The pruned search is checked against a naive oracle that walks the full
type^agents product, so any pruning bug that drops a tied optimum shows up
as a set mismatch.  The uniform mechanism's counting pass is in turn checked
against the equal-weight average of the enumerated set.  Both mechanisms are
checked to be anonymous, which the dominance checker relies on.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rankmech import (
    Budget,
    BudgetError,
    DeterministicAssignment,
    DomainError,
    Market,
    PreferenceOrder,
    Profile,
    check_ete,
    detect_modified_pattern,
    deterministic_rank_value,
    enumerate_rank_minimizers,
    get_mechanism,
    modified_mechanism,
    order_from_names,
    rank_value,
    uniform_mechanism,
)
from rankmech.examples import (
    example1_market,
    example2_market,
    example3_market,
    example4_market,
    make_denial_mechanism,
)
from rankmech import mechanisms
from rankmech.classpairs import _ClassRows
from rankmech.mechanisms import (
    DEFAULT_BUDGET,
    PatternTables,
    _count_rows,
    _integer_rows,
)
from oracles import (
    all_agents_pattern,
    all_profiles,
    check_weak_ete,
    optimal_path_states,
    override_rows,
    per_agent_count_rows,
    truncation_representatives,
    uncut_count_rows,
    uncut_integer_rows,
)

F = Fraction


def naive_rank_minimizers(market, profile):
    """Reference oracle: full enumeration without pruning or ordering tricks."""
    best = None
    members = []
    for choices in itertools.product(range(market.n_types), repeat=market.n_agents):
        det = DeterministicAssignment(choices)
        if not det.respects_capacities(market):
            continue
        rv = deterministic_rank_value(det, profile)
        if best is None or rv < best:
            best = rv
            members = [choices]
        elif rv == best:
            members.append(choices)
    return best, sorted(members)


def test_enumeration_matches_naive_oracle_everywhere_small():
    """All 216 profiles of the two-type market and all 36 of the two-agent one."""
    for market in (example2_market(), example4_market()):
        for profile in all_profiles(market):
            best, members = naive_rank_minimizers(market, profile)
            rmset = enumerate_rank_minimizers(market, profile)
            assert rmset.optimum == best
            assert [det.choices for det in rmset.members] == members


def test_enumeration_matches_naive_oracle_sampled_wide():
    """Seeded samples of the four-type markets, too many to sweep in full."""
    rng = random.Random(90217)
    for market in (example1_market(), example1_market(2), example3_market()):
        orders = market.all_orders()
        for _ in range(120):
            profile = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
            best, members = naive_rank_minimizers(market, profile)
            rmset = enumerate_rank_minimizers(market, profile)
            assert rmset.optimum == best
            assert [det.choices for det in rmset.members] == members


def test_enumeration_members_are_sorted_and_valid():
    market = example3_market()
    profile = Profile((
        order_from_names(market, "o1>o3>o2>null"),
        order_from_names(market, "o1>o3>o2>null"),
        order_from_names(market, "o3>o1>o2>null"),
    ))
    rmset = enumerate_rank_minimizers(market, profile)
    choices = [det.choices for det in rmset.members]
    assert choices == sorted(choices)
    assert len(set(choices)) == len(choices)
    for det in rmset.members:
        assert det.respects_capacities(market)
        assert deterministic_rank_value(det, profile) == rmset.optimum


def test_budget_guard():
    names = tuple(f"a{i}" for i in range(9))
    market = Market(names, ("o1", "o2", "null"), (1, 1, 9), 2)
    profile = Profile((order_from_names(market, "o1>o2>null"),) * 9)
    with pytest.raises(BudgetError):
        enumerate_rank_minimizers(market, profile)
    rmset = enumerate_rank_minimizers(market, profile, Budget(max_agents=9))
    assert rmset.optimum == 1 + 2 + 3 * 7
    # Seven types exceed the fixed type limit, whatever the agent limit.
    scarce = tuple(f"o{i}" for i in range(1, 7))
    wide = Market(names[:2], (*scarce, "null"), (1,) * 6 + (2,), 6)
    wide_profile = Profile((order_from_names(wide, ">".join((*scarce, "null"))),) * 2)
    with pytest.raises(BudgetError, match="no flag raises the type limit"):
        enumerate_rank_minimizers(wide, wide_profile, Budget(max_agents=50))


def enumeration_average(market, profile, budget=Budget()):
    """Oracle rows: the equal-weight average of the listed rank-minimizing set."""
    members = enumerate_rank_minimizers(market, profile, budget).members
    share = F(1, len(members))
    rows = [[F(0)] * market.n_types for _ in range(market.n_agents)]
    for det in members:
        for a, o in enumerate(det.choices):
            rows[a][o] += share
    return [tuple(row) for row in rows]


def assert_rows_match_enumeration(market, profile, budget=Budget()):
    x = uniform_mechanism(market, profile, budget)
    assert list(x.rows) == enumeration_average(market, profile, budget), profile


def test_uniform_rows_match_enumeration_on_every_small_profile():
    """All 216 profiles of the two-type market and all 36 of the two-agent one."""
    for market in (example2_market(), example4_market()):
        for profile in all_profiles(market):
            assert_rows_match_enumeration(market, profile)


def test_uniform_rows_match_enumeration_sampled_wide():
    """150 seeded profiles each of the two four-type markets."""
    rng = random.Random(4410)
    for market in (example1_market(), example3_market()):
        orders = market.all_orders()
        for _ in range(150):
            profile = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
            assert_rows_match_enumeration(market, profile)


def every_small_profile():
    """Every (market, profile) of the two-type market and the two-agent one."""
    for market in (example2_market(), example4_market()):
        for profile in all_profiles(market):
            yield market, profile


def random_markets():
    """200 seeded (market, profile) pairs; every other one has most agents
    sharing one order."""
    rng = random.Random(2718)
    for i in range(200):
        n = rng.randint(2, 7)
        m = rng.randint(3, 5)
        null = rng.randrange(m)
        caps = tuple(
            rng.randint(n, n + 2) if o == null else rng.randint(1, n - 1)
            for o in range(m)
        )
        market = Market(
            tuple(f"a{j}" for j in range(n)), tuple(f"t{o}" for o in range(m)), caps, null
        )
        orders = market.all_orders()
        shared = rng.choice(orders)
        tie_heavy = i % 2 == 1
        profile = Profile(tuple(
            shared if tie_heavy and rng.random() < 0.8 else rng.choice(orders)
            for _ in range(n)
        ))
        yield market, profile


RANDOM_BUDGET = Budget(max_agents=12)


def test_uniform_rows_match_enumeration_on_random_markets():
    """200 seeded markets; every other one has most agents sharing one order."""
    for market, profile in random_markets():
        assert_rows_match_enumeration(market, profile, RANDOM_BUDGET)


def test_no_rank_minimizer_seats_an_agent_below_its_outside_option():
    """The counting pass drops every move below an agent's outside option.

    That is sound because the outside option always has room: an
    assignment seating an agent below it would lose rank by moving that
    agent there instead.  Checked on every profile of the two small markets
    and on the 200 seeded random markets, member by member.
    """
    cases = [*every_small_profile(), *random_markets()]
    for market, profile in cases:
        members = enumerate_rank_minimizers(market, profile, RANDOM_BUDGET).members
        for det in members:
            for order, o in zip(profile.orders, det.choices):
                assert order.rank(o) <= order.rank(market.null_type), (profile, det)


def test_integer_rows_match_the_uncut_pass():
    """The cut counting pass gives the same integer rows and totals as the
    pass over every move, on every profile of the two small markets and on
    150 seeded profiles each of the two four-type markets."""
    cases = list(every_small_profile())
    rng = random.Random(4411)
    for market in (example1_market(), example3_market()):
        orders = market.all_orders()
        cases += [
            (market, Profile(tuple(rng.choice(orders) for _ in range(market.n_agents))))
            for _ in range(150)
        ]
    for market, profile in cases:
        expected = uncut_integer_rows(market, profile)
        assert _integer_rows(market, profile, "uniform", DEFAULT_BUDGET) == expected, profile


def tie_heavy_ranks():
    """(market, rank tables) with every agent but one on one order, the odd
    agent swapping the top two, at n = 8, 12 and 16 and at every position."""
    for n, caps in ((8, (2, 2, 2)), (12, (3, 3, 2, 2)), (16, (4, 4, 3, 3))):
        types = tuple(f"o{j}" for j in range(len(caps))) + ("null",)
        market = Market(tuple(f"a{j}" for j in range(n)), types, (*caps, n), len(caps))
        shared = order_from_names(market, ">".join(types))
        odd = PreferenceOrder((1, 0, *shared.ranking[2:]))
        for position in range(n):
            orders = [odd if a == position else shared for a in range(n)]
            yield market, [order.ranks for order in orders]


def denied_ranks(market, profile, agents, o):
    """``profile``'s rank tables with type ``o`` ranked ``n_types + 1`` by
    each of ``agents``, as the denial fixture ranks its denied type."""
    ranks = [list(order.ranks) for order in profile.orders]
    for a in agents:
        ranks[a][o] = market.n_types + 1
    return ranks


def grouped_pass_cases():
    for market, profile in [*every_small_profile(), *random_markets()]:
        yield market, [order.ranks for order in profile.orders]
    # Stepping back from an optimal state here, a split of the two agents
    # ranking t1 first would hand back a seat of t1 that was never taken:
    # the packed state would carry into t2's digit and land on a state
    # whose prefix rank looks tight.
    carry = Market(("a1", "a2", "a3", "a4"), ("t0", "t1", "t2"), (4, 1, 3), 0)
    rankings = ((2, 1, 0), (1, 0, 2), (1, 2, 0), (1, 0, 2))
    yield carry, [PreferenceOrder(ranking).ranks for ranking in rankings]
    yield from tie_heavy_ranks()
    rng = random.Random(5151)
    for i, (market, profile) in enumerate(random_markets()):
        scarce = [o for o in range(market.n_types) if o != market.null_type]
        denied = rng.sample(range(market.n_agents), 1 + i % 2)
        yield market, denied_ranks(market, profile, denied, rng.choice(scarce))
    for market, ranks in tie_heavy_ranks():
        denied = [a for a in range(market.n_agents) if ranks[a] == ranks[-1]]
        for agents in (denied[:1], denied[:2]):
            yield market, [
                [market.n_types + 1 if a in agents and o == 0 else r for o, r in enumerate(rank)]
                for a, rank in enumerate(ranks)
            ]


def test_grouped_count_pass_matches_the_per_agent_pass():
    """One step per group of equal cut moves gives the same integer rows
    and totals as one step per agent: on every profile of the two small
    markets, on the 200 seeded random markets, on one market where a step
    back could carry between digits of the packed state, on tie-heavy
    markets up to n = 16 with the odd agent at every position, and on rank
    tables where one or two agents rank a scarce type ``n_types + 1``,
    below their outside option, as the denial fixture does."""
    cases = 0
    for market, ranks in grouped_pass_cases():
        got = _count_rows(market, ranks)
        assert got == per_agent_count_rows(market, ranks), (market, ranks)
        assert all(type(c) is int for row, total in got for c in (*row, total))
        cases += 1
    assert cases == 252 + 200 + 1 + 36 + 200 + 72


def full_split_table(market, cut, k):
    """Every split of ``k`` seats over the ``cut`` moves as (need, rank,
    ways), with no bound: a_o <= min(q_o, k) seats on each scarce move and
    the rest on the outside option."""
    scarce = [(need, market.capacities[o], rank) for o, need, field, rank in cut if field]
    null_rank = next(rank for _, _, field, rank in cut if not field)
    table = set()
    for seats in itertools.product(*(range(min(q, k) + 1) for _, q, _ in scarce)):
        left = k - sum(seats)
        if left < 0:
            continue
        need = sum(a * step for a, (step, _, _) in zip(seats, scarce))
        rank = sum(a * r for a, (_, _, r) in zip(seats, scarce)) + left * null_rank
        ways = math.factorial(k) // math.prod(map(math.factorial, (*seats, left)))
        table.add((need, rank, ways))
    return table


def _spy_steps(monkeypatch):
    """Count the forward steps of the counting pass, pass each step's bound
    through and check what the bound keeps.  Every kept state's prefix
    rank is within its step's limit.  Every split table, as it is built,
    is no longer than its bound, read from the counted market's
    capacities, is a subset of the unbounded table
    (:func:`full_split_table`), and holds only splits within its limit.
    Returns the step list, a list of each step's (limit, kept layer) and
    a ``count(market, ranks)`` that runs :func:`_count_rows` under the
    spies."""
    steps = []
    layers = []
    counted = []
    forward_step = mechanisms._forward_step
    group_step = mechanisms._Splits.step
    build = mechanisms._Splits.__init__

    def kept(layer, limit):
        assert all(cost <= limit for cost, _ in layer.values())
        layers.append((limit, layer))
        return layer

    def spy_forward(layer, moves, limit):
        steps.append(1)
        return kept(forward_step(layer, moves, limit), limit)

    def spy_group(self, layer, limit):
        steps.append(self.k)
        return kept(group_step(self, layer, limit), limit)

    def spy_build(self, cut, k, start, guards, limit):
        build(self, cut, k, start, guards, limit)
        market = counted[-1]
        scarce = [market.capacities[o] for o, *_ in cut if o != market.null_type]
        bound = math.prod(min(q, k) + 1 for q in scarce)
        assert len(self.entries) <= bound <= math.prod(q + 1 for q in scarce)
        assert set(self.entries) <= full_split_table(market, cut, k)
        assert all(rank <= limit for _, rank, _ in self.entries)

    def count(market, ranks):
        counted.append(market)
        return _count_rows(market, ranks)

    monkeypatch.setattr(mechanisms, "_forward_step", spy_forward)
    monkeypatch.setattr(mechanisms._Splits, "step", spy_group)
    monkeypatch.setattr(mechanisms._Splits, "__init__", spy_build)
    return steps, layers, count


def test_count_pass_takes_one_step_per_distinct_cut(monkeypatch):
    """One forward step per distinct cut-move tuple, a group step for each
    shared one: one step for 16 identical orders, n steps when every cut
    differs, and as many as there are distinct cuts (the types and ranks
    down to the outside option) on every case of the grouped-pass test.
    No split table is longer than the product of min(q_o, k) + 1 over its
    scarce moves, which is at most the number of states, and every table
    holds only splits of the unbounded table within its limit."""
    steps, _, count = _spy_steps(monkeypatch)
    market = Market(
        tuple(f"a{j}" for j in range(16)), ("o1", "o2", "o3", "o4", "null"), (4, 4, 3, 3, 16), 4
    )
    order = order_from_names(market, "o1>o2>o3>o4>null")
    count(market, [order.ranks] * 16)
    assert steps == [16]

    distinct = [
        "null>o1>o2>o3>o4", "o1>null>o2>o3>o4", "o2>null>o1>o3>o4", "o1>o2>null>o3>o4",
        "o2>o1>null>o3>o4", "o3>o4>null>o1>o2",
    ]
    six = Market(tuple(f"a{j}" for j in range(6)), market.type_names, (1, 1, 1, 1, 6), 4)
    steps.clear()
    count(six, [order_from_names(six, text).ranks for text in distinct])
    assert steps == [1] * 6

    for market, ranks in grouped_pass_cases():
        cuts = {
            tuple((o, r) for o, r in enumerate(rank) if r <= rank[market.null_type])
            for rank in ranks
        }
        steps.clear()
        count(market, ranks)
        assert len(steps) == len(cuts)
        assert sum(steps) == market.n_agents


def test_count_pass_groups_equal_rank_tables_whatever_objects_hold_them(monkeypatch):
    """The cut moves are made once per rank table object, and equal tables
    held as distinct objects group exactly as one shared table does: on
    tie-heavy markets up to n = 16 and on the 200 seeded random markets, the
    rank tables of one shared order per ranking, of equal orders built
    separately for every agent, and of lists, as the denial fixture passes
    them, give the same rows, the same as the per-agent pass, and the same
    group steps."""
    steps, _, count = _spy_steps(monkeypatch)
    made = []
    cut_moves = mechanisms._cut_moves

    def spy_cut(moves, rank, null):
        made.append(rank)
        return cut_moves(moves, rank, null)

    monkeypatch.setattr(mechanisms, "_cut_moves", spy_cut)
    cases = [*tie_heavy_ranks(), *(
        (market, [order.ranks for order in profile.orders])
        for market, profile in random_markets()
    )]
    grouped = 0
    for market, shared in cases:
        built = [PreferenceOrder(tuple(sorted(range(len(rank)), key=rank.__getitem__))).ranks
                 for rank in shared]
        lists = [list(rank) for rank in shared]
        assert built == shared and len({id(rank) for rank in built}) == len(built)
        outcomes = []
        for ranks in (shared, built, lists):
            steps.clear()
            made.clear()
            outcomes.append((count(market, ranks), steps[:]))
            assert len(made) == len({id(rank) for rank in ranks})
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == per_agent_count_rows(market, shared)
        grouped += len(outcomes[0][1]) < market.n_agents
    assert grouped > len(cases) // 2


def tight_width_cases():
    """(market, profile, filled) at n = 8 and 16, on scarce capacities that
    set every value bit of their fields (1, 3, 7 and 15) next to capacities
    that just pass a power of two (2, 4 and 8; no scarce capacity reaches
    n = 16).  Per market: every agent on one order, the outside option
    last and the scarce types by rising or by falling capacity, so that
    one group's splits fill the first type, ``filled``; and two seeded
    profiles with every order distinct (``filled`` None)."""
    rng = random.Random(8161)
    for n, caps in (
        (8, (1, 3, 7)), (8, (1, 2, 3, 4)), (8, (7, 4, 1)),
        (16, (1, 3, 7, 15)), (16, (3, 4, 7, 8)), (16, (15, 8, 1)),
    ):
        types = tuple(f"o{j}" for j in range(len(caps))) + ("null",)
        market = Market(tuple(f"a{j}" for j in range(n)), types, (*caps, n), len(caps))
        rising = sorted(range(len(caps)), key=caps.__getitem__)
        for ranking in (rising, rising[::-1]):
            order = PreferenceOrder((*ranking, market.null_type))
            yield market, Profile((order,) * n), ranking[0]
        for _ in range(2):
            yield market, Profile(tuple(rng.sample(market.all_orders(), n))), None


def test_tight_fields_never_carry():
    """Where a field's value bits are all set, a step back that adds a seat
    to it reaches its guard bit, never the next field: the grouped pass
    gives the per-agent pass's and the uncut pass's integer rows on every
    case of :func:`tight_width_cases`, and where all agents share one
    order their rows seat the first type's full capacity."""
    cases = 0
    for market, profile, filled in tight_width_cases():
        ranks = [order.ranks for order in profile.orders]
        got = _count_rows(market, ranks)
        assert got == per_agent_count_rows(market, ranks) == uncut_integer_rows(market, profile)
        if filled is not None:
            total = got[0][1]
            assert sum(row[filled] for row, _ in got) == market.capacities[filled] * total
        cases += 1
    assert cases == 24


def large_bound_cases():
    """Seeded (market, rank tables) at n = 24 with capacities (6, 6, 6) and
    at n = 32 with (8, 8, 8): one with most agents on one order, one with
    every agent's order drawn independently."""
    rng = random.Random(3224)
    for n, caps in ((24, (6, 6, 6)), (32, (8, 8, 8))):
        types = tuple(f"o{j}" for j in range(len(caps))) + ("null",)
        market = Market(tuple(f"a{j}" for j in range(n)), types, (*caps, n), len(caps))
        orders = market.all_orders()
        shared = rng.choice(orders)
        for tie_heavy in (True, False):
            yield market, [
                (shared if tie_heavy and rng.random() < 0.8 else rng.choice(orders)).ranks
                for _ in range(n)
            ]


def test_the_bound_keeps_every_state_on_an_optimal_path(monkeypatch):
    """The counting pass's branch and bound drops nothing an optimal
    assignment passes through.  On every case of the grouped-pass test
    (denial-style rank tables among them), every case of
    :func:`tight_width_cases` and the seeded n = 24 and n = 32 markets of
    :func:`large_bound_cases`: the last step's limit, the greedy seating's
    rank, is at least the optimum, and after each group every state of an
    unpruned per-agent pass over the agents in group order that lies on an
    optimal path is kept, with the same least prefix rank and prefix count.
    The rows equal the uncut pass's on the grouped-pass cases and both the
    per-agent and the uncut pass's on the large ones; the grouped-pass and
    tight-width tests compare the rest."""
    _, layers, count = _spy_steps(monkeypatch)
    tight = [
        (market, [order.ranks for order in profile.orders])
        for market, profile, _ in tight_width_cases()
    ]
    cases = 0
    for checks, market, ranks in [
        *(((uncut_count_rows,), *case) for case in grouped_pass_cases()),
        *(((), *case) for case in tight),
        *(((per_agent_count_rows, uncut_count_rows), *case) for case in large_bound_cases()),
    ]:
        layers.clear()
        got = count(market, ranks)
        for oracle in checks:
            assert got == oracle(market, ranks), (market, ranks, oracle)
        groups = {}
        for a, rank in enumerate(ranks):
            cut = tuple((o, r) for o, r in enumerate(rank) if r <= rank[market.null_type])
            groups.setdefault(cut, []).append(a)
        in_order = [a for members in groups.values() for a in members]
        optimal = optimal_path_states(market, [ranks[a] for a in in_order])
        optimum = min(cost for cost, _ in optimal[-1].values())
        assert layers[-1][0] >= optimum
        _, _, moves = mechanisms._moves(market)
        boundary = 0
        for members, (_, layer) in zip(groups.values(), layers, strict=True):
            boundary += len(members)
            kept = {
                tuple((state & field) // need for _, need, field in moves if field): held
                for state, held in layer.items()
            }
            for capacities, held in optimal[boundary].items():
                assert kept.get(capacities) == held, (market, ranks, boundary, capacities)
        cases += 1
    assert cases == 761 + 24 + 4


@pytest.mark.parametrize("n, caps", [(12, (3, 3, 2, 2)), (16, (4, 4, 3, 3))])
def test_uniform_identical_orders_share_every_type_evenly(n, caps):
    """Identical orders at n = 12 and 16: each agent gets q/n of every type.

    The rank-minimizing set fills every scarce seat and holds n!/(q1!...qk!r!)
    assignments, far too many to list.
    """
    market = Market(
        tuple(f"a{j}" for j in range(n)), ("o1", "o2", "o3", "o4", "null"), (*caps, n), 4
    )
    order = order_from_names(market, "o1>o2>o3>o4>null")
    x = uniform_mechanism(market, Profile((order,) * n), Budget(max_agents=n))
    expected = tuple(F(q, n) for q in caps) + (F(n - sum(caps), n),)
    for a in range(n):
        assert x.row(a) == expected


@pytest.mark.parametrize("mechanism", [uniform_mechanism, modified_mechanism])
def test_mechanisms_keep_their_errors(mechanism):
    names = tuple(f"a{i}" for i in range(9))
    market = Market(names, ("o1", "o2", "null"), (1, 1, 9), 2)
    order = order_from_names(market, "o1>o2>null")
    with pytest.raises(BudgetError):
        mechanism(market, Profile((order,) * 9))
    # The profile is checked before the budget.
    with pytest.raises(DomainError):
        mechanism(market, Profile((order,) * 8))
    with pytest.raises(DomainError):
        mechanism(market, Profile((order,) * 8 + (PreferenceOrder((1, 0)),)))


def test_patterned_profiles_skip_the_budget():
    """The modified mechanism checks the budget only where it needs the
    uniform rows: a patterned profile gets its override rows past it."""
    market = example1_market()
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    tight = Budget(max_agents=2)
    x = modified_mechanism(market, Profile((eager, patient, patient)), tight)
    half = F(1, 2)
    assert x.rows == ((0, 1, 0, 0), (half, 0, 0, half), (half, 0, 0, half))
    with pytest.raises(BudgetError):
        uniform_mechanism(market, Profile((eager, patient, patient)), tight)
    with pytest.raises(BudgetError):
        modified_mechanism(market, Profile((patient, patient, patient)), tight)
    with pytest.raises(DomainError):
        modified_mechanism(market, Profile((eager, patient)), tight)


def test_uniform_mechanism_is_the_equal_weight_average():
    market = example2_market()
    profile = Profile((
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o1>o2>null"),
        order_from_names(market, "o1>null>o2"),
    ))
    rmset = enumerate_rank_minimizers(market, profile)
    x = uniform_mechanism(market, profile)
    share = F(1, len(rmset.members))
    for a in range(market.n_agents):
        for o in range(market.n_types):
            expected = sum(
                (share for det in rmset.members if det.choices[a] == o), start=F(0)
            )
            assert x.entry(a, o) == expected
    assert rank_value(x, profile) == rmset.optimum


def test_uniform_output_is_rank_minimizing_on_random_profiles():
    rng = random.Random(3314)
    for market in (example2_market(), example3_market()):
        orders = market.all_orders()
        for _ in range(60):
            profile = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
            x = uniform_mechanism(market, profile)
            assert rank_value(x, profile) == enumerate_rank_minimizers(market, profile).optimum


def test_pattern_detection_golden():
    """Narrow market, one demanding agent against two who settle early.

    a1 ranks the outside option fourth; a2 and a3 rank it third, share a1's
    first two ranks and hit their capacity threshold exactly there (seats
    1 + 1 + 3 cover three agents only at rank 3).
    """
    market = example1_market()
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    pattern = detect_modified_pattern(market, Profile((eager, patient, patient)))
    assert pattern is not None
    assert pattern.special_agent == 0
    assert pattern.focal_type == 0
    assert pattern.prefix_length == 3
    assert pattern.competitors == (1, 2)
    assert pattern.bystanders == ()


def test_pattern_with_bystanders_and_short_prefix():
    """Competitors only need the shared prefix up to their own threshold.

    With threshold 2 the competitor agrees with the special agent on rank 1
    alone; an agent ranking the outside option first is a bystander.
    """
    market = Market(
        agent_names=("a1", "a2", "a3", "a4"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(2, 1, 1, 4),
        null_type=3,
    )
    special = order_from_names(market, "o1>o2>null>o3")
    settler = order_from_names(market, "o1>null>o2>o3")
    idle = order_from_names(market, "null>o3>o2>o1")
    pattern = detect_modified_pattern(market, Profile((special, settler, settler, idle)))
    assert pattern is not None
    assert pattern.special_agent == 0
    assert pattern.focal_type == 0
    assert pattern.prefix_length == 2
    assert pattern.competitors == (1, 2)
    assert pattern.bystanders == (3,)
    x = modified_mechanism(market, Profile((special, settler, settler, idle)))
    assert x.row(0) == (F(0), F(1), F(0), F(0))
    assert x.row(1) == (F(1), F(0), F(0), F(0))
    assert x.row(2) == (F(1), F(0), F(0), F(0))
    assert x.row(3) == (F(0), F(0), F(0), F(1))


def test_pattern_requires_enough_competitors():
    """One settler cannot absorb a two-seat focal type; the parse fails."""
    market = Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(2, 1, 1, 3),
        null_type=3,
    )
    special = order_from_names(market, "o1>o2>null>o3")
    settler = order_from_names(market, "o1>null>o2>o3")
    idle = order_from_names(market, "null>o1>o2>o3")
    assert detect_modified_pattern(market, Profile((special, settler, idle))) is None


def test_pattern_shares_excess_competitors_evenly():
    """Three settlers for one seat: each gets a third of the focal type."""
    market = Market(
        agent_names=("a1", "a2", "a3", "a4"),
        type_names=("o1", "o2", "null"),
        capacities=(1, 1, 4),
        null_type=2,
    )
    special = order_from_names(market, "o1>o2>null")
    settler = order_from_names(market, "o1>null>o2")
    profile = Profile((special, settler, settler, settler))
    pattern = detect_modified_pattern(market, profile)
    assert pattern is not None
    assert pattern.competitors == (1, 2, 3)
    x = modified_mechanism(market, profile)
    assert x.row(0) == (F(0), F(1), F(0))
    for a in (1, 2, 3):
        assert x.row(a) == (F(1, 3), F(0), F(2, 3))


def test_pattern_rejects_mixed_threshold_levels():
    """Settlers at different outside-option ranks void the parse."""
    market = example1_market()
    special = order_from_names(market, "o1>o2>o3>null")
    low = order_from_names(market, "o1>null>o2>o3")
    mid = order_from_names(market, "o1>o2>null>o3")
    profile = Profile((special, low, mid))
    assert detect_modified_pattern(market, profile) is None
    assert modified_mechanism(market, profile) == uniform_mechanism(market, profile)


def test_pattern_rejects_prefix_disagreement():
    """A settler whose acceptable block differs from the special agent's."""
    market = example1_market()
    special = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    other = order_from_names(market, "o2>o1>null>o3")
    assert detect_modified_pattern(market, Profile((special, patient, other))) is None


def test_pattern_rejects_special_with_early_outside_option():
    market = example4_market()
    narrow = order_from_names(market, "o1>null>o2")
    assert detect_modified_pattern(market, Profile((narrow, narrow))) is None


def test_pattern_never_fires_without_threshold_at_level():
    """Widening o2 pushes the settlers' threshold to 2, below their level 3."""
    market = example1_market(second_capacity=2)
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    assert detect_modified_pattern(market, Profile((eager, patient, patient))) is None


def test_detection_never_raises_on_full_small_sweeps():
    """Every profile of the bundled markets parses to one pattern or none,
    and trying only the agent with the strictly deepest outside option finds
    the parse that trying every agent finds."""
    for market in (example1_market(), example2_market(), example3_market(), example4_market()):
        for profile in all_profiles(market):
            assert detect_modified_pattern(market, profile) == all_agents_pattern(market, profile)


def test_modified_mechanism_equals_uniform_off_pattern():
    market = example2_market()
    rng = random.Random(577)
    orders = market.all_orders()
    for _ in range(40):
        profile = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
        if detect_modified_pattern(market, profile) is None:
            assert modified_mechanism(market, profile) == uniform_mechanism(market, profile)


def test_get_mechanism_lookup():
    assert get_mechanism("uniform") is uniform_mechanism
    assert get_mechanism("modified") is modified_mechanism
    with pytest.raises(DomainError):
        get_mechanism("serial")


def test_ete_checkers_on_uniform_and_denial_fixture():
    market = example1_market(second_capacity=2)
    eager = order_from_names(market, "o1>o2>o3>null")
    patient = order_from_names(market, "o1>o2>null>o3")
    profile = Profile((eager, patient, patient))
    assert check_ete(uniform_mechanism, market, profile)
    assert check_weak_ete(uniform_mechanism, market, profile)
    denial = make_denial_mechanism(market, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    # eager and patient are essentially equal here (threshold 2, shared prefix),
    # so denying o1 to the eager reveal alone is an equal-treatment violation.
    assert not check_ete(denial, market, profile)
    # Weak equal treatment only compares identical reveals and still holds.
    assert check_weak_ete(denial, market, profile)


@pytest.mark.parametrize("mechanism", [uniform_mechanism, modified_mechanism])
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_mechanisms_are_anonymous(make_market, mechanism):
    """Permuting the agents of any profile permutes the output rows the same
    way.  The dominance engine relies on this to seat the queried agent last
    and to walk opponent multisets instead of opponent tuples."""
    market = make_market()
    n = market.n_agents
    for profile in all_profiles(market):
        rows = mechanism(market, profile).rows
        for perm in itertools.permutations(range(n)):
            permuted = Profile(tuple(profile[perm[a]] for a in range(n)))
            assert mechanism(market, permuted).rows == tuple(rows[perm[a]] for a in range(n))


# Four agents share three unit seats.
FOUR_AGENTS = Market(
    agent_names=("a1", "a2", "a3", "a4"),
    type_names=("o1", "o2", "o3", "null"),
    capacities=(1, 1, 1, 4),
    null_type=3,
)

# Each market with the reveal tuples its class tests cover, as order indices:
# every profile of the three-agent and two-agent markets, every sorted
# profile of the four-agent one.
CLASS_MARKETS = {
    "ex1": (example1_market(), itertools.product),
    "ex1-double": (example1_market(second_capacity=2), itertools.product),
    "ex2": (example2_market(), itertools.product),
    "ex3": (example3_market(), itertools.product),
    "ex4": (example4_market(), itertools.product),
    "four": (FOUR_AGENTS, itertools.combinations_with_replacement),
}


def _class_market(name):
    market, walk = CLASS_MARKETS[name]
    orders = market.all_orders()
    if walk is itertools.product:
        reveal_tuples = walk(range(len(orders)), repeat=market.n_agents)
    else:
        reveal_tuples = walk(range(len(orders)), market.n_agents)
    return market, orders, reveal_tuples


@pytest.mark.parametrize("mechanism", ["uniform", "modified"])
@pytest.mark.parametrize("name", sorted(CLASS_MARKETS))
def test_rows_depend_on_reveals_only_down_to_the_outside_option(name, mechanism):
    """Replacing every reveal of a profile by its truncation class
    representative, the least order by index that agrees with it down to and
    including the outside option, changes no row of either mechanism.  The
    null type always has room, so no rank-minimizing assignment seats an
    agent below it, and the crowd-out parse reads no rank below it either.
    The dominance walk and the equal-treatment sweep rely on this to walk
    classes instead of orders.  Rows are compared as the integer counts
    over a total that both public mechanisms wrap as ``Fraction``s."""
    market, orders, reveal_tuples = _class_market(name)
    rep = truncation_representatives(market)
    cache = {}

    def rows(reveals):
        if reveals not in cache:
            profile = Profile(tuple(orders[i] for i in reveals))
            cache[reveals] = _integer_rows(market, profile, mechanism, DEFAULT_BUDGET)
        return cache[reveals]

    moved = 0
    for reveals in reveal_tuples:
        lifted = tuple(rep[i] for i in reveals)
        moved += lifted != reveals
        for (counts, total), (rep_counts, rep_total) in zip(rows(reveals), rows(lifted)):
            assert [c * rep_total for c in counts] == [c * total for c in rep_counts]
    assert moved > 0


@pytest.mark.parametrize("name", sorted(CLASS_MARKETS))
def test_truncation_classes_are_numbered_by_representative(name):
    """Each order's class representative is the least order by index that
    agrees with it down to the outside option, and classes are numbered in
    ascending order of their representatives."""
    market, orders, _ = _class_market(name)
    source = _ClassRows(market)
    class_of = [source.class_of[order.ranking] for order in orders]
    representatives = [orders.index(order) for order in source.classes]
    assert [representatives[c] for c in class_of] == truncation_representatives(market)
    assert representatives == sorted(set(representatives))
    assert [class_of[i] for i in representatives] == list(range(len(representatives)))
    assert source.size == [class_of.count(c) for c in range(len(representatives))]


@pytest.mark.parametrize("name", sorted(CLASS_MARKETS))
def test_table_parse_matches_the_profile_parse(name):
    """On every sorted profile, the crowd-out parse read from the class
    tables equals ``all_agents_pattern`` on the profile itself, and on a
    patterned profile the tables' override rows are the modified
    mechanism's rows."""
    market, orders, _ = _class_market(name)
    source = _ClassRows(market)
    tables = PatternTables(market, source.classes)
    matched = 0
    for reveals in itertools.combinations_with_replacement(range(len(orders)), market.n_agents):
        profile = Profile(tuple(orders[i] for i in reveals))
        classes = [source.class_of[orders[i].ranking] for i in reveals]
        pattern = tables.parse(classes)
        assert pattern == all_agents_pattern(market, profile)
        if pattern is not None:
            matched += 1
            rows = _integer_rows(market, profile, "modified", DEFAULT_BUDGET)
            assert [
                tables.override_row(classes, pattern, a) for a in range(market.n_agents)
            ] == rows
    assert matched > 0


@pytest.mark.parametrize("name", sorted(CLASS_MARKETS))
def test_modified_mechanism_matches_the_written_out_parse(name):
    """Where the parse written out in ``tests/oracles.py``, which shares no
    code with the library's, finds a crowd-out pattern, the modified
    mechanism gives its override rows; everywhere else it equals the
    uniform mechanism.  Every sorted profile is tried, and every profile
    of ``ex1`` and ``ex2``."""
    market, orders, reveal_tuples = _class_market(name)
    if name not in ("ex1", "ex2"):
        reveal_tuples = itertools.combinations_with_replacement(range(len(orders)), market.n_agents)
    matched = 0
    for reveals in reveal_tuples:
        profile = Profile(tuple(orders[i] for i in reveals))
        pattern = all_agents_pattern(market, profile)
        rows = modified_mechanism(market, profile).rows
        if pattern is None:
            assert rows == uniform_mechanism(market, profile).rows, profile
        else:
            matched += 1
            assert rows == override_rows(market, profile, pattern), profile
    assert matched > 0
