"""Slow reference implementations the fast paths are checked against."""

import itertools

from rankmech import (
    DEFAULT_BUDGET,
    DominanceVerdict,
    Profile,
    get_mechanism,
    refuse_row,
    row_strictly_prefers,
    row_weakly_prefers,
)


def product_check_dominance(query, budget=DEFAULT_BUDGET, *, table=None):
    """Dominance by walking every opponent tuple of the full product.

    Each tuple runs the whole mechanism on both reveals and compares the
    queried agent's ``Fraction`` rows, refused through the truth when
    refusal is on.  Tuples enumerate lexicographically, agents in index
    order and orders by type index, which pins the witnesses.  ``table``
    maps profiles already run through the query's mechanism to their
    outcomes; queries may share one only when they share the market, the
    mechanism and the budget.
    """
    market = query.market
    mech = get_mechanism(query.mechanism)
    if table is None:
        table = {}
    others = [a for a in range(market.n_agents) if a != query.agent]
    first_failure = None
    first_strict = None
    for combo in itertools.product(market.all_orders(), repeat=len(others)):
        orders = [None] * market.n_agents
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
