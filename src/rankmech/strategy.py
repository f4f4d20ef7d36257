"""Refusal, outside-option demotion and brute-force strategic dominance.

An agent who can refuse keeps any object ranked above its true outside
option and walks away from the rest.  Demotion strategies exploit that
escape hatch: they reveal the outside option last while keeping the
acceptable block intact.  The dominance checker compares a candidate reveal
against the truth across every combination of opponent reveals, so its
verdicts are exhaustive rather than sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .assignment import (
    Assignment,
    ZERO,
    build_assignment,
    row_strictly_prefers,
    row_weakly_prefers,
)
from .errors import BudgetError, DomainError
from .market import (
    AgentIndex,
    Market,
    PreferenceOrder,
    Profile,
    TypeIndex,
    check_profile,
)
from .mechanisms import Budget, DEFAULT_BUDGET, get_mechanism

OpponentProfile = tuple[tuple[AgentIndex, PreferenceOrder], ...]


def refuse_row(
    market: Market, row: tuple[Fraction, ...], truth: PreferenceOrder
) -> tuple[Fraction, ...]:
    """One agent's row after refusing everything truly unacceptable.

    Probability on types ranked at or below the true outside option moves to
    the outside option; acceptable entries are untouched.
    """
    market.check_order(truth)
    null_rank = truth.rank(market.null_type)
    out = list(row)
    moved = ZERO
    for o in range(market.n_types):
        if o != market.null_type and truth.rank(o) >= null_rank:
            moved += out[o]
            out[o] = ZERO
    out[market.null_type] += moved
    return tuple(out)


def refusal_transform(market: Market, x: Assignment, truths: Profile) -> Assignment:
    """Apply :func:`refuse_row` to every agent under its true order."""
    check_profile(market, truths)
    if len(x.rows) != market.n_agents:
        raise DomainError("assignment and market disagree on the number of agents")
    rows = [refuse_row(market, x.row(a), truths[a]) for a in range(market.n_agents)]
    return build_assignment(market, rows)


def _acceptable_block(market: Market, truth: PreferenceOrder) -> tuple[list[TypeIndex], list[TypeIndex]]:
    market.check_order(truth)
    null_rank = truth.rank(market.null_type)
    acceptable = [o for o in truth.ranking if truth.rank(o) < null_rank]
    unacceptable = [o for o in truth.ranking if o != market.null_type and truth.rank(o) > null_rank]
    return acceptable, unacceptable


def ods_set(market: Market, truth: PreferenceOrder) -> tuple[PreferenceOrder, ...]:
    """Every demotion of the outside option to the bottom rank.

    Acceptable types keep their true ranks; the truly unacceptable types fill
    the freed middle ranks in every possible order.  When nothing is
    unacceptable the set collapses to the truth itself.  The first element
    always preserves the true relative order of the unacceptable types.
    """
    acceptable, unacceptable = _acceptable_block(market, truth)
    out = []
    for middle in itertools.permutations(unacceptable):
        out.append(PreferenceOrder((*acceptable, *middle, market.null_type)))
    return tuple(out)


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
    rest = [o for o in unacceptable if o != target]
    return PreferenceOrder((*acceptable, target, *rest, market.null_type))


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
                [_rotated_prefix_order(market, truth, j, k)]
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


def _rotated_prefix_order(
    market: Market, truth: PreferenceOrder, j: int, k: int
) -> PreferenceOrder:
    """Truth's first k-1 ranks rotated to start at rank j, then rank k, then the rest."""
    prefix = list(truth.ranking[: k - 1])
    rotated = prefix[j - 1 :] + prefix[: j - 1]
    tail = [o for o in truth.ranking[k - 1 :]]
    return PreferenceOrder((*rotated, *tail))


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


def check_dominance(
    query: DominanceQuery,
    budget: Budget = DEFAULT_BUDGET,
    *,
    table: dict[Profile, Assignment] | None = None,
) -> DominanceVerdict:
    """Compare candidate and truth rows across every opponent profile.

    Only the queried agent's row matters, so opponents' reveals are taken at
    face value; with refusal on, both rows are filtered through the agent's
    true order first.  Opponent profiles enumerate lexicographically, agents
    in index order and orders by type index, which pins the witnesses.

    ``table`` maps each profile already run through the query's mechanism to
    its outcome; profiles missing from it are evaluated and added.  Queries
    may share one table only when they share the market, the mechanism and
    the budget.  Left out, the table is fresh for this call.
    """
    market = query.market
    market.check_order(query.truth)
    market.check_order(query.candidate)
    if not 0 <= query.agent < market.n_agents:
        raise DomainError(f"agent index {query.agent} out of range")
    mech = get_mechanism(query.mechanism)
    if table is None:
        table = {}
    others = [a for a in range(market.n_agents) if a != query.agent]
    all_orders = market.all_orders()
    base = [market.null_first_order()] * market.n_agents
    first_failure: OpponentProfile | None = None
    first_strict: OpponentProfile | None = None
    for combo in itertools.product(all_orders, repeat=len(others)):
        orders = list(base)
        for a, order in zip(others, combo):
            orders[a] = order
        rows = []
        for reveal in (query.candidate, query.truth):
            orders[query.agent] = reveal
            profile = Profile(tuple(orders))
            if profile not in table:
                table[profile] = mech(market, profile, budget)
            row = table[profile].row(query.agent)
            rows.append(refuse_row(market, row, query.truth) if query.refusal else row)
        row_candidate, row_truth = rows
        if not row_weakly_prefers(query.truth, row_candidate, row_truth):
            if first_failure is None:
                first_failure = tuple(zip(others, combo))
        elif first_strict is None and row_strictly_prefers(
            query.truth, row_candidate, row_truth
        ):
            first_strict = tuple(zip(others, combo))
    weakly = first_failure is None
    return DominanceVerdict(
        weakly_dominates=weakly,
        strictly_dominates=weakly and first_strict is not None,
        failure_witness=first_failure,
        strict_witness=first_strict,
    )
