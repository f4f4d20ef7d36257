"""Refusal, outside-option demotion and exhaustive strategic dominance.

An agent who can refuse keeps any object ranked above its true outside
option and walks away from the rest.  Demotion strategies exploit that
escape hatch: they reveal the outside option last while keeping the
acceptable block intact.  The dominance checker compares a candidate reveal
against the truth across every combination of opponent reveals, so its
verdicts are exhaustive rather than sampled; it reads the first witnesses
of all its candidates from one walk of the class-pair engine
(:func:`~rankmech.classpairs.first_witnesses`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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
from .classpairs import first_witnesses
from .mechanisms import Budget, DEFAULT_BUDGET

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
    alone, n - 1 of them (``classpairs._clone_failures``), this profile's
    first group grown to every opponent; this function stays the
    construction's public, validated form and the tests' oracle for it.
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
    verdict is that of :func:`dominance_verdicts` for the one candidate.
    """
    return dominance_verdicts(query.market, query.agent, query.truth, [query.candidate],
                              query.mechanism, query.refusal, budget)[0]


def dominance_verdicts(
    market: Market, agent: AgentIndex, truth: PreferenceOrder,
    candidates: Sequence[PreferenceOrder], mechanism: str, refusal: bool, budget: Budget,
) -> list[DominanceVerdict]:
    """The verdict of each of ``candidates`` against ``truth`` for ``agent``,
    in order, all from one walk; :func:`check_dominance` and the CLI's
    ``dominance`` report call it.

    The orders and the agent are checked first.  The walk visits each
    multiset of opponent reveals once, as its sorted tuple, and still finds
    the first witnesses of the product order
    (:func:`~rankmech.classpairs.first_witnesses`).
    """
    market.check_order(truth)
    for candidate in candidates:
        market.check_order(candidate)
    if not 0 <= agent < market.n_agents:
        raise DomainError(f"agent index {agent} out of range")
    pairs = [(truth, candidate) for candidate in candidates]
    found = first_witnesses(market, mechanism, refusal, pairs, budget)
    return [_verdict(market, agent, *found[pair]) for pair in pairs]


def _verdict(market: Market, agent: AgentIndex, failure, strict) -> DominanceVerdict:
    """The verdict for ``agent`` from the opponent multisets
    :func:`~rankmech.classpairs.first_witnesses` found."""
    others = [a for a in range(market.n_agents) if a != agent]
    weakly = failure is None
    return DominanceVerdict(
        weakly_dominates=weakly,
        strictly_dominates=weakly and strict is not None,
        failure_witness=None if failure is None else tuple(zip(others, failure)),
        strict_witness=None if strict is None else tuple(zip(others, strict)),
    )
