"""Rank-minimizing deterministic enumeration and the two fair mechanisms.

The uniform mechanism averages every deterministic assignment of minimal
expected total rank with equal weight.  It counts, rather than lists, those
assignments: a forward (min rank, count) pass over remaining capacities,
then a backward pass along the moves that reach the optimum, give every
entry as an exact ratio of integers.  The outside option always has room,
so no such assignment seats an agent below it, and neither pass tries those
moves.  Agents whose moves down to it agree are interchangeable, so the
passes take one step per such group, weighted by the number of ways to seat
its members, and split its counts evenly among them.  The forward pass is
a branch and bound: a greedy seating's rank bounds the optimum from above,
each later group adds at least its size times its best rank, and a state or
a group's split past that bound, which no optimal assignment can use, is
never stored.  The modified
mechanism coincides with the uniform one except on profiles matching a
narrow crowd-out pattern, where it denies the patterned agent its first
best.  Both treat agents with essentially equal revealed orders identically
and compute their rows as integer counts over a total in one core,
``_integer_rows``, whose uniform rows come from the one counting pass,
``_count_rows``; the public functions validate them once and wrap them as
an ``Assignment``.  ``enumerate_rank_minimizers`` lists the set itself.
Nothing in the package calls it: it stays defined and exported because
the bench tracer binds it for its ``mechanisms.solve_*`` metrics and the
tests check the count against it.  This is the only module that reads the
counting pass's packed states; the class tables of
:mod:`~rankmech.classpairs` step their opponents through
:class:`OpponentPass` and parse with the one crowd-out parse,
:class:`PatternTables`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter
from typing import Callable, Sequence

from .assignment import Assignment, DeterministicAssignment
from .errors import BudgetError, DomainError
from .market import AgentIndex, Market, PreferenceOrder, Profile, TypeIndex, check_profile


# The most types a market may have.  The class tables list all m! orders,
# so this limit is fixed: no budget or flag raises it.
TYPE_LIMIT = 6


@dataclass(frozen=True)
class Budget:
    """The agent limit of the counting pass, enumeration and dominance walks,
    which ``--budget-agents`` raises.  The type limit, ``TYPE_LIMIT``, is fixed."""

    max_agents: int = 8


DEFAULT_BUDGET = Budget()

MechanismFn = Callable[[Market, Profile], Assignment]


@dataclass(frozen=True)
class RankMinimizingSet:
    """Every deterministic assignment reaching the minimal total rank."""

    optimum: Fraction
    members: tuple[DeterministicAssignment, ...]


def check_budget(market: Market, budget: Budget) -> None:
    """Raise ``BudgetError`` past the agent limit or ``TYPE_LIMIT``: the
    counting pass and enumeration here, and ``classpairs.class_rows``."""
    if market.n_agents > budget.max_agents or market.n_types > TYPE_LIMIT:
        raise BudgetError(
            f"market size {market.n_agents} agents x {market.n_types} types exceeds "
            f"the budget of {budget.max_agents} agents and {TYPE_LIMIT} types; "
            f"--budget-agents raises the agent limit, and no flag raises the type limit"
        )


def enumerate_rank_minimizers(
    market: Market, profile: Profile, budget: Budget = DEFAULT_BUDGET
) -> RankMinimizingSet:
    """Enumerate all deterministic assignments of minimal total rank.

    This is the listing path: the set can grow factorially with ties, so the
    uniform mechanism counts it instead, and the tests check that count
    against this list.  Depth-first search over agents in index order.  A branch is cut when its
    partial rank total plus an optimistic completion (each remaining agent on
    its best type with remaining capacity) already exceeds the incumbent
    optimum; the bound never overestimates, so no optimal leaf is lost and
    ties are kept.
    """
    check_profile(market, profile)
    check_budget(market, budget)
    n = market.n_agents
    m = market.n_types
    ranks = [order.ranks for order in profile.orders]
    remaining = list(market.capacities)
    choices = [0] * n
    best: list[int | None] = [None]
    members: list[tuple[TypeIndex, ...]] = []

    def lower_bound(depth: int) -> int:
        bound = 0
        for a in range(depth, n):
            bound += min(ranks[a][o] for o in range(m) if remaining[o] > 0)
        return bound

    def search(depth: int, partial: int) -> None:
        if best[0] is not None and partial + lower_bound(depth) > best[0]:
            return
        if depth == n:
            if best[0] is None or partial < best[0]:
                best[0] = partial
                members.clear()
            members.append(tuple(choices))
            return
        for o in range(m):
            if remaining[o] == 0:
                continue
            remaining[o] -= 1
            choices[depth] = o
            search(depth + 1, partial + ranks[depth][o])
            remaining[o] += 1

    search(0, 0)
    assert best[0] is not None
    return RankMinimizingSet(
        optimum=Fraction(best[0]),
        members=tuple(DeterministicAssignment(c) for c in sorted(members)),
    )


Cut = tuple[tuple[TypeIndex, int, int, int], ...]

# No prefix rank reaches this: the limit of a forward step with no bound.
_NO_LIMIT = 1 << 29


def _moves(market: Market) -> tuple[int, int, list[tuple[TypeIndex, int, int]]]:
    """The packed start state, its guard bits and the moves of the counting pass.

    A state holds the remaining capacity q of every non-null type in a bit
    field ``q.bit_length() + 1`` bits wide, whose top bit, its guard, is
    clear in every state.  Each move is (type, need, field), the packed
    seat it takes and its type's field mask, both 0 for the null type,
    which always has room.  At most q plus q seats fit below a guard's
    carry, so adding seats back to a state never reaches the next field.
    """
    moves = []
    start = guards = shift = 0
    for o, q in enumerate(market.capacities):
        if o == market.null_type:
            moves.append((o, 0, 0))
        else:
            width = q.bit_length() + 1
            moves.append((o, 1 << shift, (1 << shift + width) - (1 << shift)))
            start += q << shift
            guards += 1 << shift + width - 1
            shift += width
    return start, guards, moves


def _cut_moves(moves: list[tuple[int, int, int]], rank: Sequence[int], null: TypeIndex) -> Cut:
    """The ``moves`` of an agent with rank table ``rank`` as (type, need,
    field, rank), down to its outside option; none below it is ever optimal."""
    limit = rank[null]
    return tuple([(o, need, field, rank[o]) for o, need, field in moves if rank[o] <= limit])


def _forward_step(
    layer: dict[int, tuple[int, int]], moves: Cut, limit: int = _NO_LIMIT
) -> dict[int, tuple[int, int]]:
    """One agent's step of the forward half of the counting pass.

    ``layer`` maps each state the agents so far can leave to its least
    prefix rank and the number of prefixes reaching it with that rank; the
    result is the same map once one more agent, with the :func:`_cut_moves`
    ``moves``, has moved, keeping only the states whose prefix rank is at
    most ``limit`` (:func:`_count_rows`' bound; the dominance walk passes
    none).  The cut can raise a state's cost or drop it, but not on any
    state an optimal assignment passes through.
    """
    after_layer: dict[int, tuple[int, int]] = {}
    for state, (cost, count) in layer.items():
        for _, need, field, rank in moves:
            if field and not state & field:
                continue
            reach = cost + rank
            if reach > limit:
                continue
            after = state - need
            held = after_layer.get(after)
            if held is None or reach < held[0]:
                after_layer[after] = (reach, count)
            elif reach == held[0]:
                after_layer[after] = (reach, held[1] + count)
    return after_layer


class OpponentPass:
    """The forward half of the counting pass over an agent's opponents, each
    revealing one of the orders whose rank tables are ``ranks``, by index.

    The class tables of :mod:`~rankmech.classpairs` walk their multisets of
    opponent classes with it, and it keeps the packed states to itself.
    ``start`` is the layer before any opponent, :meth:`step` adds one
    opponent (:func:`_forward_step`), each moving only down to its outside
    option (:func:`_cut_moves`), and :meth:`fold` adds the last one and
    gives the multiset's ``ends``: its layer folded per room mask.  In each
    state the agent's best move, and so its rank, depend only on which
    types have room there, so within one room mask only the least prefix
    rank can be optimal.  The last opponent's moves go straight into the
    room masks, so the layer after it is never built; ``masks`` keeps, per
    state met before such a move, the room mask after each move, at most
    prod(q + 1) of them.
    """

    def __init__(self, market: Market, ranks: Sequence[Sequence[int]]):
        start, _, self.moves = _moves(market)
        self.start = {start: (0, 1)}
        self.cuts = [_cut_moves(self.moves, rank, market.null_type) for rank in ranks]
        self.masks: dict[int, list[int | None]] = {}

    def step(self, layer: dict[int, tuple[int, int]], c: int) -> dict[int, tuple[int, int]]:
        """``layer`` after one more opponent, revealing order ``c``."""
        return _forward_step(layer, self.cuts[c])

    def fold(self, layer: dict[int, tuple[int, int]], c: int) -> list[tuple[int, int, int]]:
        """The last opponent's step from ``layer``, revealing order ``c``,
        folded per room mask: one (least prefix rank, summed prefix count,
        room mask) per room mask of the states it can leave.

        Each (state, move) pair updates its after-state's room mask directly,
        and no layer of after-states is built.  The counts are those of a
        full forward step folded afterwards: a pair whose rank equals its
        mask's least rank also equals its after-state's least rank, which is
        no less than the mask's, so the pairs counted are exactly those that
        the after-states of least rank in the mask sum.
        """
        masks = self.masks
        cut = self.cuts[c]
        folded: dict[int, tuple[int, int]] = {}
        for state, (cost, count) in layer.items():
            after = masks.get(state)
            if after is None:
                after = masks[state] = self._masks_after(state)
            for o, _, _, rank in cut:
                mask = after[o]
                if mask is None:
                    continue
                reach = cost + rank
                held = folded.get(mask)
                if held is None or reach < held[0]:
                    folded[mask] = (reach, count)
                elif reach == held[0]:
                    folded[mask] = (reach, held[1] + count)
        return [(cost, count, mask) for mask, (cost, count) in folded.items()]

    def _masks_after(self, state: int) -> list[int | None]:
        """The room mask after each type's move from ``state``, by type; None
        where the type has no room."""
        moves = self.moves
        after = []
        for _, need, field in moves:
            if field and not state & field:
                after.append(None)
            else:
                left = state - need
                after.append(sum(1 << o for o, _, f in moves if not f or left & f))
        return after


def uniform_mechanism(
    market: Market, profile: Profile, budget: Budget = DEFAULT_BUDGET
) -> Assignment:
    """Equal-weight average of every rank-minimizing deterministic assignment.

    The rows come from the counting pass of :func:`_integer_rows`, without
    listing the rank-minimizing set.
    """
    check_profile(market, profile)
    return _to_assignment(market, _integer_rows(market, profile, "uniform", budget))


def _integer_rows(
    market: Market, profile: Profile, mechanism: str, budget: Budget
) -> list[tuple[list[int], int]]:
    """Every agent's row under ``mechanism`` as integer counts over a total.

    ``profile`` must already be known to be well formed.  Under
    ``"modified"`` a patterned profile gets the override rows, without a
    budget check; every other profile is checked against the budget and
    gets the uniform rows of :func:`_count_rows`.
    """
    if mechanism == "modified":
        tables = PatternTables(market, profile.orders)
        agents = range(market.n_agents)
        pattern = tables.parse(agents)
        if pattern is not None:
            return [tables.override_row(agents, pattern, a) for a in agents]
    check_budget(market, budget)
    return _count_rows(market, [order.ranks for order in profile.orders])


def _count_rows(market: Market, ranks: Sequence[Sequence[int]]) -> list[tuple[list[int], int]]:
    """Every agent's uniform row as integer counts over a total, from the
    agents' rank tables (:attr:`PreferenceOrder.ranks`).

    A counting forward-backward pass.  A state is the remaining capacity of
    every non-null type, packed into one int in a bit field per type
    (:func:`_moves`; the null type always has room, so it has no field),
    and each agent moves only down to its outside option
    (:func:`_cut_moves`).  Agents with equal cut moves are interchangeable
    and form a group, taken in the order of their first members.  The cut
    moves are made once per rank table object, since the parser hands every
    agent of one ranking the same order; equal tables held as distinct
    objects, lists included, still meet in one group through their equal
    cuts.  The pass takes one step per group: a lone agent's moves
    (:func:`_forward_step`), or a group's splits of its seats
    (:class:`_Splits`), each counted once per way to hand them to the
    members.  The forward pass gives each state its least prefix rank and
    how many prefixes reach it.  The backward pass starts from the final
    states at the optimum, one completion each, and steps back only along
    tight moves, where the prefix rank plus the move's rank is the next
    state's prefix rank; it counts the optimal completions of each state
    it reaches.  A lone agent's step back that overfills a field finds no
    prefix state.  A step's mass on ``o`` sums prefix count times completion
    count times ways times seats on ``o`` over its tight moves, over the
    number of optimal assignments.  Each member of a group of k gets a
    k-th of the group's mass, exactly: the ways of the splits with a_o
    seats on ``o``, times a_o, are k times the ways to seat the other
    k - 1 members once one sits on ``o``.

    The forward pass keeps only states that can still be on an optimal
    path, by branch and bound.  ``upper`` is the total rank of a greedy
    seating: group by group, each member takes its best cut move that
    still has room, and the null type always has room, so the seating is
    feasible and ``upper`` is at least the optimum.  Group i's ``least``
    is its size times its best cut rank, and no seating of the group
    ranks less.  ``spare`` is ``upper`` less every group's ``least``.
    After step i a state is kept only if its prefix rank is at most the
    ``least`` of groups 0..i plus ``spare``, that is ``upper`` less the
    later groups' ``least``; a group's split table holds only splits of
    rank at most its own ``least`` plus ``spare``, since every prefix
    before it ranks at least the earlier groups' ``least``.  This is exact:

    - A state on an optimal path has prefix rank the optimum less its
      optimal completion's rank, which is at least the later groups'
      ``least``: it is within its limit, and the split that reached it,
      whose rank is that prefix rank less one at least the earlier groups'
      ``least``, is within its table's.
    - A least-rank predecessor of such a state is on an optimal path too,
      so by induction every such state is kept with its exact (least rank,
      count), and the optimum is read exactly off the last layer.
    - Any other kept state holds the rank of some real prefix, at least
      its least one, so it fails the step back's tightness test from every
      state on an optimal path (passing it would put it on one): the
      backward pass reaches only states on optimal paths.
    """
    start, guards, moves = _moves(market)
    groups: dict[Cut, list[AgentIndex]] = {}
    shared: dict[int, list[AgentIndex]] = {}  # id of a rank table -> its group
    for a, rank in enumerate(ranks):
        members = shared.get(id(rank))
        if members is None:
            cut = _cut_moves(moves, rank, market.null_type)
            members = shared[id(rank)] = groups.setdefault(cut, [])
        members.append(a)
    state = start
    upper = 0
    least = []
    for cut in groups:
        # Best move first, each taking as many of the members left as it has room for.
        left = len(groups[cut])
        by_rank = sorted(cut, key=itemgetter(3))
        least.append(left * by_rank[0][3])
        for _, need, field, rank in by_rank:
            seats = min(left, (state & field) // need) if field else left
            state -= seats * need
            upper += seats * rank
            left -= seats
    spare = upper - sum(least)

    steps = []
    forward = [{start: (0, 1)}]
    limit = spare
    for (cut, members), low in zip(groups.items(), least):
        limit += low
        if len(members) == 1:
            splits = None
            forward.append(_forward_step(forward[-1], cut, limit))
        else:
            splits = _Splits(cut, len(members), start, guards, low + spare)
            forward.append(splits.step(forward[-1], limit))
        steps.append((cut, members, splits))
    optimum = min(cost for cost, _ in forward[-1].values())

    counts: list[list[int]] = [[] for _ in ranks]
    below = {state: 1 for state, (cost, _) in forward[-1].items() if cost == optimum}
    backward = reversed(list(zip(steps, forward, forward[1:])))
    for (cut, members, splits), prefixes, layer in backward:
        if splits is None:
            here: dict[int, int] = {}
            mass = [0] * market.n_types
            for after, ways in below.items():
                reach = layer[after][0]
                for o, need, _, rank in cut:
                    state = after + need
                    held = prefixes.get(state)
                    if held is not None and held[0] + rank == reach:
                        mass[o] += held[1] * ways
                        here[state] = here.get(state, 0) + ways
            counts[members[0]] = mass
        else:
            here, row = splits.back(below, prefixes, layer, market.n_types)
            for a in members:
                counts[a] = row[:]
        below = here
    return [(row, below[start]) for row in counts]


class _Splits:
    """One step of :func:`_count_rows` for ``k`` agents with the same ``cut`` moves.

    A split seats a_o of the k agents on each cut move's type: at most
    min(q_o, k) on a scarce type, q_o read from the ``start`` state, and
    the rest on the outside option, which every cut keeps and which always
    has room.  ``entries`` lists each split of rank at most ``limit`` (the
    bound of :func:`_count_rows`) once as (need, rank, ways): its a_o
    packed in the fields of :func:`_moves`, which is its state delta; its
    rank, sum a_o * rank_o; and its ways, k! / prod a_o!, the number of
    ways to hand those seats to the k agents.  The table is built one
    scarce move at a time, and a partial split is dropped as soon as its
    rank, less the most the moves still to come can lower it (each filled
    to min(q_o, k) seats), exceeds ``limit``.  There are at most
    prod (min(q_o, k) + 1) entries over the scarce moves, no more than
    there are states.  A split fits a state when it needs no more seats of
    a type than the state has left (forward) or has taken (back): with the
    ``guards`` set, subtracting the need from those counts clears no guard.
    ``full`` is ``start`` with its guards set; less a state, it is the
    state's packed seats taken under the same guards.
    """

    __slots__ = ("k", "null", "scarce", "guards", "full", "entries")

    def __init__(self, cut: Cut, k: int, start: int, guards: int, limit: int):
        self.k = k
        self.guards = guards
        self.full = start + guards
        self.scarce: list[tuple[TypeIndex, int, int]] = []
        tops = []
        for o, need, field, rank in cut:
            if field:
                shift = need.bit_length() - 1
                self.scarce.append((o, field, shift))
                tops.append((need, min((start & field) >> shift, k), rank))
            else:
                self.null, null_rank = o, rank
        # ``later`` is the most the scarce moves not yet taken can lower a
        # split's rank: each filled to its top, at its gain per seat over
        # the outside option.  Seating a on a move keeps the split only if
        # its rank less ``later`` stays within ``limit``, which takes at
        # least ceil((reach - later - limit) / gain) seats.
        later = sum(top * (null_rank - rank) for _, top, rank in tops)
        table = [(0, k * null_rank, 1, k)]
        for need, top, rank in tops:
            gain = null_rank - rank
            later -= top * gain
            table = [
                (packed + a * need, reach - a * gain, ways * comb(left, a), left - a)
                for packed, reach, ways, left in table
                for a in range(max(0, -((limit + later - reach) // gain)), min(top, left) + 1)
            ]
        self.entries = [entry[:3] for entry in table]

    def step(self, layer: dict[int, tuple[int, int]], limit: int) -> dict[int, tuple[int, int]]:
        """The group's forward step: :func:`_forward_step` with one move per
        fitting split, each prefix counted once per way."""
        after_layer: dict[int, tuple[int, int]] = {}
        guards = self.guards
        entries = self.entries
        for state, (cost, count) in layer.items():
            room = state | guards
            for need, rank, ways in entries:
                if (room - need) & guards != guards:
                    continue
                reach = cost + rank
                if reach > limit:
                    continue
                after = state - need
                held = after_layer.get(after)
                if held is None or reach < held[0]:
                    after_layer[after] = (reach, count * ways)
                elif reach == held[0]:
                    after_layer[after] = (reach, held[1] + count * ways)
        return after_layer

    def back(
        self,
        below: dict[int, int],
        prefixes: dict[int, tuple[int, int]],
        layer: dict[int, tuple[int, int]],
        n_types: int,
    ) -> tuple[dict[int, int], list[int]]:
        """The group's backward step, from the optimal completions ``below``
        of the states in ``layer`` to those of the states in ``prefixes``.

        Returns those and each member's row: the group's mass on each type,
        summed per split and then spread over its seats, over k.
        """
        here: dict[int, int] = {}
        mass_of: dict[int, int] = {}
        guards = self.guards
        full = self.full
        entries = self.entries
        for after, completions in below.items():
            reach = layer[after][0]
            taken = full - after
            for need, rank, ways in entries:
                if (taken - need) & guards != guards:
                    continue
                state = after + need
                held = prefixes.get(state)
                if held is not None and held[0] + rank == reach:
                    weight = ways * completions
                    mass_of[need] = mass_of.get(need, 0) + held[1] * weight
                    here[state] = here.get(state, 0) + weight
        mass = [0] * n_types
        for need, weight in mass_of.items():
            left = self.k
            for o, field, shift in self.scarce:
                a = (need & field) >> shift
                mass[o] += weight * a
                left -= a
            mass[self.null] += weight * left
        return here, [c // self.k for c in mass]


def _to_assignment(market: Market, rows: list[tuple[list[int], int]]) -> Assignment:
    """The public, validated form of :func:`_integer_rows`' rows, over the
    lcm of their totals; counted rows share one total and need no scaling."""
    denominator = lcm(*(total for _, total in rows))
    scaled = [
        counts if total == denominator else [c * (denominator // total) for c in counts]
        for counts, total in rows
    ]
    return Assignment(market, denominator, scaled)


@dataclass(frozen=True)
class ModifiedPattern:
    """Parse of the crowd-out profile the modified mechanism reacts to.

    ``special_agent`` ranks ``focal_type`` first and the outside option no
    better than third.  Every competitor ranks the outside option at
    ``prefix_length`` (at least second), agrees with the special agent on all
    earlier ranks, and hits its capacity threshold exactly there, meaning the
    types it finds acceptable cannot absorb every agent.  All remaining
    agents rank the outside option first.

    The competitor group holds every qualifying agent.  It must be at least
    as large as the focal type's capacity; the mechanism then shares the
    focal type evenly across the group, which keeps equal treatment of
    equals when more agents qualify than the capacity can seat.
    """

    special_agent: AgentIndex
    focal_type: TypeIndex
    prefix_length: int
    competitors: tuple[AgentIndex, ...]
    bystanders: tuple[AgentIndex, ...]


def detect_modified_pattern(market: Market, profile: Profile) -> ModifiedPattern | None:
    """Match ``profile`` against the crowd-out pattern, or return None.

    The parse classifies every agent as the special agent, a competitor or a
    bystander; any leftover agent voids it.  Competitors rank the outside
    option strictly earlier than the special agent and bystanders rank it
    first, so the special agent can only be the one agent whose
    outside-option rank is at least 3 and strictly exceeds every other
    agent's.  That agent is the only candidate tried, so no two parses can
    coexist.
    """
    check_profile(market, profile)
    return PatternTables(market, profile.orders).parse(range(market.n_agents))


class PatternTables:
    """The crowd-out parse, as table lookups over a list of orders.

    A profile is given as an index into ``classes`` for each agent's reveal.
    The class tables of :mod:`~rankmech.classpairs` pass their class
    representatives and class profiles; the parse reads no rank below the
    outside option, so it is the same for every lift of a class profile to
    full orders.  Both mechanisms, here, pass a profile's own orders and
    ``range(n)``.  The tables
    hold each class's outside-option rank and, once a class is first tried
    as the special agent, the :meth:`_role` of every class against it; no
    ``Profile`` is built.  They keep the market's sizes, not the market, so
    a market that keeps them does not refer to itself.
    """

    def __init__(self, market: Market, classes: Sequence[PreferenceOrder]):
        self.null_type = market.null_type
        self.capacities = market.capacities
        self.n_agents = market.n_agents
        self.classes = classes
        self.null_rank = [order.rank(market.null_type) for order in classes]
        self.role: list[list[int | None] | None] = [None] * len(classes)

    def _role(self, special: PreferenceOrder, other: PreferenceOrder) -> int | None:
        """What an agent revealing ``other`` is in a parse whose special agent reveals ``special``.

        0 for a bystander, which ranks the outside option first; its level L
        for a competitor, which ranks the outside option at L, earlier than
        the special agent does, agrees with it on every earlier rank and has
        its capacity threshold at L; None for anyone else, who voids the
        parse.  The outside option seats every agent, so the threshold is at
        L exactly when the types above it cannot.
        """
        level = other.rank(self.null_type)
        if level == 1:
            return 0
        if (
            level < special.rank(self.null_type)
            and other.top(level - 1) == special.top(level - 1)
            and sum(self.capacities[o] for o in other.top(level - 1)) < self.n_agents
        ):
            return level
        return None

    def _lone_deepest(self, profile: Sequence[int]) -> tuple[int | None, int]:
        """The deepest outside-option rank in the class profile ``profile``,
        and the one agent ranking its outside option there, or None unless
        that rank is 3 or deeper and no other agent shares it.

        Competitors rank the outside option strictly earlier than the
        special agent and bystanders rank it first, so that agent is the
        only one that can be the special agent.
        """
        deep = [self.null_rank[c] for c in profile]
        deepest = max(deep)
        if deepest < 3 or deep.count(deepest) > 1:
            return None, deepest
        return deep.index(deepest), deepest

    def unparsed(self, opponents: Sequence[int]) -> tuple[int, int]:
        """The outside-option ranks of the reveals that never parse against ``opponents``.

        With the opponents' deepest rank D, a reveal ranking its outside
        option at ``low`` to ``high`` inclusive leaves no special agent
        (:meth:`_lone_deepest`): from 1 to max(D, 2), or D alone when one
        opponent alone ranks its outside option at D, 3 or deeper.  Any
        other reveal may still parse.
        """
        special, deepest = self._lone_deepest(opponents)
        return (1 if special is None else deepest), max(deepest, 2)

    def parse(self, profile: Sequence[int]) -> ModifiedPattern | None:
        """The crowd-out parse of the class profile ``profile``, or None.

        Only the agent of :meth:`_lone_deepest` can be the special agent, so
        it is the only one tried.  The parse fails when there is none, when
        an agent voids it, when there is no competitor, when competitors
        disagree on their level, or when there are fewer of them than the
        focal type has seats.
        """
        special, _ = self._lone_deepest(profile)
        if special is None:
            return None
        special_class = profile[special]
        order = self.classes[special_class]
        role = self.role[special_class]
        if role is None:
            role = [self._role(order, other) for other in self.classes]
            self.role[special_class] = role
        competitors = []
        bystanders = []
        levels = set()
        for a, c in enumerate(profile):
            if a == special:
                continue
            level = role[c]
            if level is None:
                return None
            if level:
                competitors.append(a)
                levels.add(level)
            else:
                bystanders.append(a)
        focal = order.ranking[0]
        if len(levels) != 1 or len(competitors) < self.capacities[focal]:
            return None
        return ModifiedPattern(
            special_agent=special,
            focal_type=focal,
            prefix_length=levels.pop(),
            competitors=tuple(competitors),
            bystanders=tuple(bystanders),
        )

    def override_row(
        self, profile: Sequence[int], pattern: ModifiedPattern, agent: AgentIndex
    ) -> tuple[list[int], int]:
        """``agent``'s row on the patterned class profile ``profile``, as
        integer counts over a total."""
        row = [0] * len(self.capacities)
        if agent == pattern.special_agent:
            row[self.classes[profile[agent]].ranking[1]] = 1
            return row, 1
        if agent in pattern.competitors:
            seats = self.capacities[pattern.focal_type]
            row[pattern.focal_type] = seats
            row[self.null_type] = len(pattern.competitors) - seats
            return row, len(pattern.competitors)
        row[self.null_type] = 1
        return row, 1


def modified_mechanism(
    market: Market, profile: Profile, budget: Budget = DEFAULT_BUDGET
) -> Assignment:
    """Uniform mechanism with the crowd-out pattern overridden.

    On a patterned profile the special agent receives its revealed second
    best outright and none of the focal type; the focal type's capacity is
    shared evenly across the competitors (averaging over every way to seat
    capacity-many of them), and everyone else takes the outside option.
    """
    check_profile(market, profile)
    return _to_assignment(market, _integer_rows(market, profile, "modified", budget))


def get_mechanism(name: str) -> MechanismFn:
    if name == "uniform":
        return uniform_mechanism
    if name == "modified":
        return modified_mechanism
    raise DomainError(f"unknown mechanism {name!r}; expected 'uniform' or 'modified'")


def check_ete(mechanism: MechanismFn, market: Market, profile: Profile) -> bool:
    """Agents revealing essentially equal orders receive identical rows."""
    x = mechanism(market, profile)
    for a, b in itertools.combinations(range(market.n_agents), 2):
        if market.essentially_equal(profile[a], profile[b]) and x.counts[a] != x.counts[b]:
            return False
    return True
