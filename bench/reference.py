"""Reference computations for the benchmark's output checks.

Nothing here imports rankmech.  Every check either recomputes the expected
value from the generated inputs by a method of its own, or tests a property
the program's output must have.  Markets are plain data: ``caps[o]`` is the
capacity of type ``o`` in declaration order, ``null`` the outside option's
index, and an order is a tuple of type indices, best first.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def rank_table(order: tuple[int, ...]) -> list[int]:
    """``table[o]`` is the 1-based rank of type ``o`` under ``order``."""
    table = [0] * len(order)
    for position, o in enumerate(order, start=1):
        table[o] = position
    return table


def uniform_rows(caps, orders):
    """Forward-backward (min rank, count) DP over agents and remaining capacities.

    Returns ``(optimum, count, rows)``: the minimal total rank, the number of
    deterministic assignments reaching it, and the uniform average of those
    assignments as exact rows.  A state is the tuple of remaining capacities,
    each capped at the number of agents.
    """
    n, m = len(orders), len(caps)
    ranks = [rank_table(order) for order in orders]
    start = tuple(min(q, n) for q in caps)

    def taken(state, o):
        return state[:o] + (state[o] - 1,) + state[o + 1:]

    forward = [{start: (0, 1)}]
    for a in range(n):
        layer: dict[tuple[int, ...], tuple[int, int]] = {}
        for state, (cost, count) in forward[a].items():
            for o in range(m):
                if state[o]:
                    nxt = taken(state, o)
                    total = cost + ranks[a][o]
                    best = layer.get(nxt)
                    if best is None or total < best[0]:
                        layer[nxt] = (total, count)
                    elif total == best[0]:
                        layer[nxt] = (total, best[1] + count)
        forward.append(layer)

    backward = [dict.fromkeys(forward[n], (0, 1))]
    for a in range(n - 1, -1, -1):
        later = backward[0]
        layer = {}
        for state in forward[a]:
            best = None
            for o in range(m):
                if state[o]:
                    cost, count = later[taken(state, o)]
                    total = cost + ranks[a][o]
                    if best is None or total < best[0]:
                        best = (total, count)
                    elif total == best[0]:
                        best = (total, best[1] + count)
            layer[state] = best
        backward.insert(0, layer)

    optimum, total = backward[0][start]
    rows = []
    for a in range(n):
        marginal = [0] * m
        for state, (cost, count) in forward[a].items():
            for o in range(m):
                if state[o]:
                    after, ways = backward[a + 1][taken(state, o)]
                    if cost + ranks[a][o] + after == optimum:
                        marginal[o] += count * ways
        rows.append([Fraction(c, total) for c in marginal])
    return optimum, total, rows


def brute_uniform_rows(caps, orders):
    """The same triple as :func:`uniform_rows`, by listing every assignment."""
    n, m = len(orders), len(caps)
    ranks = [rank_table(order) for order in orders]
    best = None
    members = []
    for choices in itertools.product(range(m), repeat=n):
        if any(choices.count(o) > caps[o] for o in range(m)):
            continue
        total = sum(ranks[a][o] for a, o in enumerate(choices))
        if best is None or total < best:
            best, members = total, []
        if total == best:
            members.append(choices)
    rows = [[Fraction(0)] * m for _ in range(n)]
    for choices in members:
        for a, o in enumerate(choices):
            rows[a][o] += Fraction(1, len(members))
    return best, len(members), rows


def random_market(rng: random.Random, n: int, m: int):
    """Capacities and reveals of a random valid market with ``n`` agents, ``m`` types."""
    null = rng.randrange(m)
    caps = [n + rng.randrange(2) if o == null else rng.randint(1, n - 1) for o in range(m)]
    orders = [tuple(rng.sample(range(m), m)) for _ in range(n)]
    return caps, null, orders


def self_test(rng: random.Random, markets: int = 60) -> None:
    """Check :func:`uniform_rows` against brute force on small random markets.

    Half the markets reveal one shared order for all but one agent, so ties
    are exercised as well as spread reveals.  Raises AssertionError on the
    first disagreement.
    """
    for k in range(markets):
        n, m = rng.randint(2, 5), rng.randint(3, 4)
        caps, _, orders = random_market(rng, n, m)
        if k % 2:
            orders = [orders[0]] * (n - 1) + [orders[-1]]
        expected = brute_uniform_rows(caps, orders)
        got = uniform_rows(caps, orders)
        if got != expected:
            raise AssertionError(
                f"reference DP disagrees with brute force on caps={caps} orders={orders}"
            )


def refuse(rows, truths, null):
    """Move each agent's mass on types ranked at or below its true null to null."""
    out = []
    for row, truth in zip(rows, truths):
        ranks = rank_table(truth)
        refused = list(row)
        for o in range(len(row)):
            if o != null and ranks[o] >= ranks[null]:
                refused[null] += refused[o]
                refused[o] = Fraction(0)
        out.append(refused)
    return out


def waste_witness(caps, rows, orders):
    """First (agent, preferred type, held type) proving waste, or None.

    Scans agents in index order, then preferred types in index order, then
    held types in index order; a preferred type qualifies while its column
    leaves slack capacity.
    """
    m = len(caps)
    slack = [caps[o] - sum(row[o] for row in rows) > 0 for o in range(m)]
    for a, (row, order) in enumerate(zip(rows, orders)):
        ranks = rank_table(order)
        for o in range(m):
            if not slack[o]:
                continue
            for held in range(m):
                if row[held] > 0 and ranks[o] < ranks[held]:
                    return (a, o, held)
    return None


def threshold_rank(caps, n, order):
    """Least k whose k best types under ``order`` can seat all ``n`` agents."""
    seats = 0
    for k, o in enumerate(order, start=1):
        seats += caps[o]
        if seats >= n:
            return k
    raise ValueError("capacities cannot seat every agent")


def essentially_equal_pairs(caps, orders):
    """Agent pairs whose reveals agree on every rank up to the threshold."""
    n = len(orders)
    pairs = []
    for a, b in itertools.combinations(range(n), 2):
        k = threshold_rank(caps, n, orders[a])
        if orders[a][:k] == orders[b][:k]:
            pairs.append((a, b))
    return pairs


def decomposition_problems(caps, parts, target):
    """Reasons the weighted parts fail to decompose ``target`` exactly."""
    n, m = len(target), len(caps)
    problems = []
    if not parts:
        return ["no parts"]
    if sum(weight for weight, _ in parts) != 1:
        problems.append("weights do not sum to 1")
    rows = [[Fraction(0)] * m for _ in range(n)]
    for weight, choices in parts:
        if not weight > 0:
            problems.append(f"non-positive weight {weight}")
        if len(choices) != n or any(not 0 <= o < m for o in choices):
            problems.append(f"part {choices} does not place every agent on a type")
            continue
        if any(choices.count(o) > caps[o] for o in range(m)):
            problems.append(f"part {choices} exceeds a capacity")
        for a, o in enumerate(choices):
            rows[a][o] += weight
    if not problems and rows != [list(row) for row in target]:
        problems.append("parts do not recombine to the refused matrix")
    return problems


def sweep_checked(caps, null, n):
    """The ``checked`` count each property sweep must report on this market.

    Equal treatment visits every profile, (m!)^n; the two no-strict-dominance
    sweeps visit every (agent, truth, other candidate), n * m! * (m! - 1); the
    demotion sweep visits every outside-option demotion, of which a truth with
    u types below null has u!.  ``thm2`` and ``prop3`` count distinct
    (agent, truth, promoted type) units: a truth with at least one acceptable
    type, and an unacceptable type whose capacity plus the acceptable
    capacity cannot seat every agent.
    """
    m = len(caps)
    n_orders = math.factorial(m)
    demotions = 0
    promotions = 0
    for order in itertools.permutations(range(m)):
        position = order.index(null)
        demotions += math.factorial(m - 1 - position)
        acceptable = sum(caps[o] for o in order[:position])
        if position:
            promotions += sum(
                1 for o in order[position + 1:] if acceptable + caps[o] < n
            )
    return {
        "ete-fU": n_orders ** n,
        "ete-fM": n_orders ** n,
        "prop2": n * n_orders * (n_orders - 1),
        "prop5": n * n_orders * (n_orders - 1),
        "thm1": n * demotions,
        "thm2": n * promotions,
        "prop3": n * promotions,
    }
