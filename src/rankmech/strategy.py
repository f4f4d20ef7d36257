"""Refusal, outside-option demotion and exhaustive strategic dominance.

An agent who can refuse keeps any object ranked above its true outside
option and walks away from the rest.  Demotion strategies exploit that
escape hatch: they reveal the outside option last while keeping the
acceptable block intact.  The dominance checker compares a candidate reveal
against the truth across every combination of opponent reveals, so its
verdicts are exhaustive rather than sampled.  Both mechanisms are anonymous
and read no reveal below its outside option, so the walk reads an agent's
row, in integers, from the market's class tables in ``mechanisms``
(``_ClassRows``, built once per market by ``_class_rows``), given its
reveal's truncation class and the multiset of its opponents' classes.  The
dominance walk takes pairs of classes (truth class, candidate class), seats
the queried agent last and visits each multiset of opponent classes once,
in sorted order, and multisets sharing a sorted prefix share the layers of
that prefix.  Under refusal a truth ranking its outside option first
compares over an empty prefix, never failing and never strict, so its
pairs are left out of the walk and no row is read for them.  The first
failing opponent profile in product order is a sorted tuple of class
representatives, the least lift of its class multiset, so the witnesses
are those of the full product.  The sweeps read only whether each class
pair's witnesses exist, and keep those verdicts on the class tables, per
(mechanism, refusal), for every later sweep (:func:`_decided`).  Before
their walk they compare each pair on its truth class's clones, the first
group of the paper's separating profile (:func:`adversarial_profile`), and
walk only the pairs that do not fail there.  The equal-treatment sweep and
``prop3`` read their rows from the same source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .assignment import Assignment, _scaled
from .errors import BudgetError, DomainError
from .market import (
    AgentIndex,
    Market,
    PreferenceOrder,
    Profile,
    TypeIndex,
    check_profile,
)
from .mechanisms import Budget, DEFAULT_BUDGET, _ClassRows, _class_rows, get_mechanism

OpponentProfile = tuple[tuple[AgentIndex, PreferenceOrder], ...]


def refusal_transform(market: Market, x: Assignment, truths: Profile) -> Assignment:
    """Every agent refuses what its true order ranks below the outside option.

    Each refused type's count moves onto the outside option; acceptable
    entries are untouched.  The refusal moves counts within each row of
    ``x`` (validated again when ``x`` was made for another market), and the
    refused matrix is validated once over the same denominator.
    """
    check_profile(market, truths)
    denominator, counts = _scaled(market, x)
    rows = [_refused(market, row, truth) for row, truth in zip(counts, truths)]
    return Assignment(market, denominator, rows)


def _refused(market: Market, row: Sequence[int], truth: PreferenceOrder) -> list[int]:
    """The integer ``row`` with every count ``truth`` ranks below the outside
    option moved onto it.  ``truth`` is not checked again: ``refusal_transform``
    passes truths ``check_profile`` accepted, and ``prop3`` the orders of the
    market's class tables."""
    row = list(row)
    null = market.null_type
    for o in truth.ranking[truth.ranks[null]:]:
        row[null] += row[o]
        row[o] = 0
    return row


def _acceptable_block(
    market: Market, truth: PreferenceOrder
) -> tuple[tuple[TypeIndex, ...], tuple[TypeIndex, ...]]:
    """The types ``truth`` ranks above and below the outside option, in its order."""
    market.check_order(truth)
    k = truth.rank(market.null_type)
    return truth.ranking[: k - 1], truth.ranking[k:]


def ods_set(market: Market, truth: PreferenceOrder) -> tuple[PreferenceOrder, ...]:
    """Every demotion of the outside option to the bottom rank.

    Acceptable types keep their true ranks; the truly unacceptable types fill
    the freed middle ranks in every possible order.  When nothing is
    unacceptable the set collapses to the truth itself.  The first element
    always preserves the true relative order of the unacceptable types.
    """
    market.check_order(truth)
    null = market.null_type
    return tuple(map(PreferenceOrder, _demotions(truth.ranking, truth.rank(null), null)))


def _demotions(ranking: tuple[TypeIndex, ...], k: int, null: TypeIndex) -> list[tuple[int, ...]]:
    """The rankings of :func:`ods_set` for a truth ranking ``null`` at rank ``k``."""
    return [(*ranking[: k - 1], *middle, null) for middle in itertools.permutations(ranking[k:])]


def full_extension(market: Market, truth: PreferenceOrder) -> PreferenceOrder:
    """The demotion strategy that keeps every true relative comparison."""
    acceptable, unacceptable = _acceptable_block(market, truth)
    return PreferenceOrder((*acceptable, *unacceptable, market.null_type))


def ods_promoting(
    market: Market, truth: PreferenceOrder, target: TypeIndex
) -> PreferenceOrder:
    """The demotion strategy ranking ``target`` where the outside option was.

    ``target`` must be truly unacceptable; the remaining unacceptable types
    follow it in their true relative order.
    """
    acceptable, unacceptable = _acceptable_block(market, truth)
    if target not in unacceptable:
        raise DomainError(
            f"type index {target} is not truly unacceptable under {truth.ranking!r}"
        )
    k = len(acceptable) + 1
    return PreferenceOrder(_promoting(truth.ranking, k, target, market.null_type))


def _promoting(ranking: tuple[TypeIndex, ...], k: int, target: int, null: int) -> tuple[int, ...]:
    """The ranking of :func:`ods_promoting` for a truth ranking ``null`` at rank ``k``."""
    return (*ranking[: k - 1], target, *(o for o in ranking[k:] if o != target), null)


def strict_gain_pairs(
    market: Market, truth: PreferenceOrder
) -> tuple[tuple[TypeIndex, TypeIndex], ...]:
    """Pairs (acceptable, unacceptable) whose combined capacity is short.

    A pair qualifies when the capacities of every acceptable type plus the
    unacceptable one still cannot seat all agents.  Each such pair certifies
    that demoting the outside option below the unacceptable type is not just
    weakly but strictly better for the agent under the uniform mechanism
    with refusal.  Pairs come out sorted by type index.
    """
    acceptable, unacceptable = _acceptable_block(market, truth)
    acceptable_capacity = sum(market.capacities[o] for o in acceptable)
    pairs = []
    for o in sorted(acceptable):
        for o_prime in sorted(unacceptable):
            if acceptable_capacity + market.capacities[o_prime] < market.n_agents:
                pairs.append((o, o_prime))
    return tuple(pairs)


def adversarial_profile(
    market: Market,
    agent: AgentIndex,
    truth: PreferenceOrder,
    candidate: PreferenceOrder,
) -> OpponentProfile:
    """Opponent reveals under which the truth beats ``candidate``.

    Let k be the first rank where truth and candidate disagree; it must not
    exceed the candidate's capacity threshold (otherwise the two orders are
    essentially equal and no separating profile exists; that is a domain
    error).  The construction fields one group per leading rank of the
    truth: enough clones of the truth to exhaust its first best, then for
    each later rank j below k a block whose first k-1 ranks rotate the
    truth's prefix to start at j, and finally agents who take the outside
    option first.  Group sizes match the prefix capacities, which the
    threshold precondition guarantees fit among the opponents.

    The sweeps compare every class pair first on the truth class's clones
    alone, n - 1 of them (:func:`_clone_failures`), this profile's first
    group grown to every opponent; this function stays the construction's
    public, validated form and the tests' oracle for it.
    """
    market.check_order(truth)
    market.check_order(candidate)
    if not 0 <= agent < market.n_agents:
        raise DomainError(f"agent index {agent} out of range")
    k = _first_disagreement(truth, candidate)
    if k is None:
        raise DomainError("truth and candidate are identical; nothing to separate")
    if k > market.capacity_threshold_rank(candidate):
        raise DomainError(
            "truth and candidate are essentially equal; no separating profile exists"
        )
    others = [a for a in range(market.n_agents) if a != agent]
    orders: list[PreferenceOrder] = []
    if k >= 2:
        orders.extend([truth] * market.capacities[truth.ranking[0]])
        for j in range(2, k):
            orders.extend(
                [_rotated_prefix_order(truth, j, k)]
                * market.capacities[truth.ranking[j - 1]]
            )
    if len(orders) > len(others):
        raise BudgetError(
            f"the separating profile needs {len(orders)} opponents but only "
            f"{len(others)} exist"
        )
    orders.extend([market.null_first_order()] * (len(others) - len(orders)))
    return tuple(zip(others, orders))


def _first_disagreement(truth: PreferenceOrder, candidate: PreferenceOrder) -> int | None:
    for i, (a, b) in enumerate(zip(truth.ranking, candidate.ranking)):
        if a != b:
            return i + 1
    return None


def _rotated_prefix_order(truth: PreferenceOrder, j: int, k: int) -> PreferenceOrder:
    """Truth's first k-1 ranks rotated to start at rank j, then rank k, then the rest."""
    ranking = truth.ranking
    return PreferenceOrder((*ranking[j - 1 : k - 1], *ranking[: j - 1], *ranking[k - 1 :]))


@dataclass(frozen=True)
class DominanceQuery:
    """One candidate reveal measured against one truth for one agent."""

    market: Market
    agent: AgentIndex
    truth: PreferenceOrder
    candidate: PreferenceOrder
    mechanism: str = "uniform"
    refusal: bool = False


@dataclass(frozen=True)
class DominanceVerdict:
    """Exhaustive comparison outcome over all opponent reveals.

    ``failure_witness`` is the first opponent profile (in canonical
    enumeration order) where the candidate's outcome is not weakly preferred
    to the truth's; it is present exactly when weak dominance fails.
    ``strict_witness`` is the first profile with a strict preference for the
    candidate.  Strict dominance means weak dominance plus such a witness.
    """

    weakly_dominates: bool
    strictly_dominates: bool
    failure_witness: OpponentProfile | None
    strict_witness: OpponentProfile | None


def check_dominance(query: DominanceQuery, budget: Budget = DEFAULT_BUDGET) -> DominanceVerdict:
    """Compare candidate and truth rows across every opponent profile.

    Only the queried agent's row matters, so opponents' reveals are taken at
    face value; with refusal on, both rows are filtered through the agent's
    true order first.  Opponent profiles enumerate lexicographically, agents
    in index order and orders by type index, which pins the witnesses.  The
    walk visits each multiset of opponent reveals once, as its sorted tuple,
    and still finds the first witnesses of that order (see
    :func:`_first_witnesses`).
    """
    market = query.market
    market.check_order(query.truth)
    market.check_order(query.candidate)
    if not 0 <= query.agent < market.n_agents:
        raise DomainError(f"agent index {query.agent} out of range")
    pair = (query.truth, query.candidate)
    found = _first_witnesses(market, query.mechanism, query.refusal, [pair], budget)
    return _verdict(market, query.agent, *found[pair])


Witnesses = tuple[tuple[PreferenceOrder, ...] | None, tuple[PreferenceOrder, ...] | None]
Verdicts = dict[tuple[int, int], tuple[bool, bool]]


def _first_witnesses(
    market: Market,
    mechanism: str,
    refusal: bool,
    pairs: Iterable[tuple[PreferenceOrder, PreferenceOrder]],
    budget: Budget = DEFAULT_BUDGET,
) -> dict[tuple[PreferenceOrder, PreferenceOrder], Witnesses]:
    """First failing and first strict opponent multiset of every (truth, candidate).

    The queried agent's row does not depend on which agent it is, nor on the
    order of its opponents, nor on any reveal below its outside option
    (:class:`~rankmech.mechanisms._ClassRows`).  So pairs with one
    (truth class, candidate class) share one entry of the class-pair walk
    (:func:`_walk_pairs`), which runs until both witnesses of every entry
    are found.  A truth and candidate in one class get the same row
    everywhere, so such a pair is never compared and has no witness.
    Replacing each reveal of a failing opponent tuple by its class
    representative and sorting gives a failing tuple no later in product
    order, since a representative is the least order of its class: the
    first failing tuple of the product is a sorted tuple of representatives,
    and the walk meets it first.  The same holds for the first strict
    tuple.  The orders are not checked here; the entry points
    (:func:`check_dominance`, :func:`~rankmech.market.order_from_names`,
    :func:`ods_set`) check them.
    """
    get_mechanism(mechanism)
    source = _class_rows(market, budget)
    class_of, classes = source.class_of, source.classes
    keys = {pair: (class_of[pair[0].ranking], class_of[pair[1].ranking]) for pair in pairs}
    found = _walk_pairs(source, mechanism, refusal, {k for k in keys.values() if k[0] != k[1]})

    def orders(combo: tuple[int, ...] | None) -> tuple[PreferenceOrder, ...] | None:
        return None if combo is None else tuple(classes[c] for c in combo)

    return {pair: tuple(map(orders, found.get(key, (None, None)))) for pair, key in keys.items()}


def _decided(
    source: _ClassRows, mechanism: str, refusal: bool, pairs: Iterable[tuple[int, int]]
) -> Verdicts:
    """Whether each (truth class, candidate class) weakly and strictly dominates.

    The verdicts are kept on the class tables, one table per (mechanism,
    refusal), which the call returns; a pair inside one class ties
    everywhere, weakly but not strictly dominating.  Each pair not yet
    decided is first compared on its truth class's clones
    (:func:`_clone_failures`); a pair failing there fails, neither weakly
    nor strictly dominating, as the walk would find.  Only the other pairs
    are walked together (:func:`_walk_pairs`), and the table is written
    only once that walk has finished, so a comparison that raises, on the
    clones or in the walk, leaves none of the verdicts behind.
    """
    get_mechanism(mechanism)
    table = source.verdicts.setdefault(
        (mechanism, refusal), {(c, c): (True, False) for c in range(len(source.classes))}
    )
    undecided = {pair for pair in pairs if pair not in table}
    if undecided:
        failing = _clone_failures(source, mechanism, refusal, undecided)
        found = _walk_pairs(source, mechanism, refusal, undecided - failing)
        table.update(dict.fromkeys(failing, (False, False)))
        table.update(
            (pair, (failure is None, failure is None and strict is not None))
            for pair, (failure, strict) in found.items()
        )
    return table


def _clone_failures(
    source: _ClassRows, mechanism: str, refusal: bool, pairs: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """The pairs of distinct classes (truth class, candidate class) whose
    comparison fails on the truth class's clones, the multiset of n - 1
    opponents all revealing it (:meth:`~rankmech.mechanisms._ClassRows.clone`).

    The clones open the paper's separating profile
    (:func:`adversarial_profile`).  On every market of three or more agents
    measured, every pair that fails anywhere fails there, and a pair that
    fails there need not be walked; the pairs left, failing or not, are
    decided by the walk, so this stage changes no verdict, only the work.
    The rows are those the walk reads on that multiset, one ``ends`` and
    one truth row per truth class and one row per candidate, and they are
    compared by the walk's cumulative cross-multiplication along the
    truth's compared prefix (:func:`_walk_pairs`), so a failure found here
    is one the walk finds; only whether the pair fails is read.  The rows
    that no crowd-out parse can override are read through
    :meth:`~rankmech.mechanisms._ClassRows.clone_row`, which keeps them for
    every key.  A pair with an empty comparison never fails, so it is not
    compared.
    """
    parse = mechanism == "modified"
    null_rank = source.tables.null_rank
    by_truth: dict[int, list[int]] = {}
    for t, c in pairs:
        by_truth.setdefault(t, []).append(c)
    failing = set()
    for t, candidates in by_truth.items():
        prefix = source.classes[t].ranking[: null_rank[t] - 1 if refusal else null_rank[t]]
        if not prefix:  # an empty comparison never fails
            continue
        combo, ends, _ = source.clone(t)
        low, high = source.tables.unparsed(combo) if parse else (1, source.n_types)
        # n agents revealing t have no lone deepest outside option, so no parse
        truth_row, truth_total = source.clone_row(t, t)
        for c in candidates:
            if low <= null_rank[c] <= high:
                candidate_row, candidate_total = source.clone_row(t, c)
            else:
                candidate_row, candidate_total = source.row(ends, combo, c, True)
            cum_truth = cum_candidate = 0
            for o in prefix:
                cum_truth += truth_row[o]
                cum_candidate += candidate_row[o]
                if cum_candidate * truth_total < cum_truth * candidate_total:
                    failing.add((t, c))
                    break
    return failing


def _walk_pairs(
    source: _ClassRows,
    mechanism: str,
    refusal: bool,
    pairs: Iterable[tuple[int, int]],
) -> dict[tuple[int, int], list[tuple[int, ...] | None]]:
    """First failing and first strict opponent class multiset of every pair
    of distinct classes (truth class, candidate class).

    The queried agent is seated last and the opponents are walked as sorted
    tuples of truncation classes (:meth:`~rankmech.mechanisms._ClassRows.walk`).
    For each multiset the last agent's row under each needed class is read
    once, in integers, from the class tables, which also give the modified
    mechanism's override row where the profile parses as the crowd-out
    pattern; the parse is tried only for the reveals that the tables' parse
    (``tables.unparsed``) does not rule out for the multiset.  Rows
    are compared by cross-multiplying cumulative sums along the truth's
    ranking down to its outside option, which depends on the truth's class
    only, so the ranks compared are read from the class representative.
    Refusal moves everything from the truth's outside option down onto it,
    so every cumulative sum from there on equals the total: with refusal on
    the comparison stops just above the outside option.  Without refusal it
    stops at the outside option, inclusive: a row carries no mass below its
    reveal's outside option, so there the truth's sum is its total T_t,
    and from there on the gap is T_t times the candidate's sum less its
    total.  That is never positive and never falls, so if it is negative
    at the outside option the comparison has already failed there, and if
    it is zero it stays zero: no later rank changes either verdict.

    With refusal on, a truth class ranking its outside option first
    compares over an empty prefix, so its pairs neither fail nor are
    strict anywhere: they never enter the walk, their witnesses stay None,
    as a full walk would leave them, and their classes' rows are read only
    where an open pair needs them.  Every other pair is an open entry of
    the walk.  An entry closes once both of its witnesses are found, and
    the walk ends once no entry is open, so both witnesses of every pair
    are those of a walk over that pair alone, whatever pairs are walked
    with it.
    """
    parse = mechanism == "modified"
    m = source.n_types
    null_rank = source.tables.null_rank
    found = {pair: [None, None] for pair in pairs}
    open_pairs = []
    for (t, c), slot in found.items():
        prefix = source.classes[t].ranking[: null_rank[t] - 1 if refusal else null_rank[t]]
        if prefix:  # an empty comparison neither fails nor is strict anywhere
            open_pairs.append((t, c, prefix, slot))
    needed = {r for t, c, _, _ in open_pairs for r in (t, c)}
    for combo, ends in source.walk(source.tables.n_agents - 1) if open_pairs else ():
        # every outside-option rank lies in 1..m, so no reveal parses under uniform
        low, high = source.tables.unparsed(combo) if parse else (1, m)
        rows = {r: source.row(ends, combo, r, not low <= null_rank[r] <= high) for r in needed}
        closed = False
        for t, c, prefix, slot in open_pairs:
            truth_row, truth_total = rows[t]
            candidate_row, candidate_total = rows[c]
            weak = True
            strict = False
            cum_truth = cum_candidate = 0
            for o in prefix:
                cum_truth += truth_row[o]
                cum_candidate += candidate_row[o]
                gap = cum_candidate * truth_total - cum_truth * candidate_total
                if gap < 0:
                    weak = False
                    break
                if gap > 0:
                    strict = True
            if not weak:
                if slot[0] is None:
                    slot[0] = combo
                    closed = closed or slot[1] is not None
            elif strict and slot[1] is None:
                slot[1] = combo
                closed = closed or slot[0] is not None
        if closed:
            open_pairs = [entry for entry in open_pairs if None in entry[3]]
            if not open_pairs:
                break
            needed = {r for t, c, _, _ in open_pairs for r in (t, c)}
    return found


def _verdict(market: Market, agent: AgentIndex, failure, strict) -> DominanceVerdict:
    """The verdict for ``agent`` from the opponent multisets :func:`_first_witnesses` found."""
    others = [a for a in range(market.n_agents) if a != agent]
    weakly = failure is None
    return DominanceVerdict(
        weakly_dominates=weakly,
        strictly_dominates=weakly and strict is not None,
        failure_witness=None if failure is None else tuple(zip(others, failure)),
        strict_witness=None if strict is None else tuple(zip(others, strict)),
    )
