"""Seeded inputs, the timed operation and its output checks, per workload.

Inputs are made here without rankmech, as market-file text plus the same
market as plain data for the reference checks.  Every operation gets its
own agent names, so no two operations share a (market, profile) input and
none is served from a result another operation left in a cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import reference

# The agent budget raised to cover the tie-heavy markets, as --budget-agents does.
MAX_AGENTS = 10


@dataclass(frozen=True)
class MarketInput:
    """One generated market: its file text and the same market as plain data."""

    spec: str
    agents: tuple[str, ...]
    types: tuple[str, ...]
    caps: tuple[int, ...]
    null: int
    reveals: tuple[tuple[int, ...], ...]
    truths: tuple[tuple[int, ...], ...]


def _market(rng, tag, scarce_caps, null_cap, reveals, truths):
    """Lay out a market whose types are declared in a seeded order.

    ``reveals`` and ``truths`` give each agent's orders over abstract types:
    0..k-1 are the scarce types in the order of ``scarce_caps`` and k is the
    outside option.
    """
    k = len(scarce_caps)
    declared = list(range(k + 1))
    rng.shuffle(declared)
    index = {abstract: o for o, abstract in enumerate(declared)}
    names = tuple("null" if t == k else f"o{t + 1}" for t in declared)
    caps = tuple(null_cap if t == k else scarce_caps[t] for t in declared)
    agents = tuple(f"{tag}a{j + 1}" for j in range(len(reveals)))
    lines = [
        f"type {name} capacity {q}" + (" null" if name == "null" else "")
        for name, q in zip(names, caps)
    ]
    lines += [
        f"agent {agent} prefers " + " > ".join(names[index[t]] for t in order)
        for agent, order in zip(agents, reveals)
    ]
    return MarketInput(
        spec="\n".join(lines) + "\n",
        agents=agents,
        types=names,
        caps=caps,
        null=index[k],
        reveals=tuple(tuple(index[t] for t in order) for order in reveals),
        truths=tuple(tuple(index[t] for t in order) for order in truths),
    )


def _seeded_orders(rng, n, m):
    return [tuple(rng.sample(range(m), m)) for _ in range(n)]


def _rotations(n, m):
    return [tuple((j + t) % m for t in range(m)) for j in range(n)]


def tie_heavy_market(rng, tag, shape, warmup=False):
    """n - 1 agents share one order ranking every scarce type above null.

    The shared order ranks the scarce types as ``shape`` lists them, null
    last.  The remaining agent, at a seeded position, swaps the shared top
    two, so the rank-minimizing set's size depends on the shape alone.  The
    truths are seeded; a warm-up input tells the truth instead, so that its
    cost does not depend on the seed.
    """
    n, scarce_caps = shape
    m = len(scarce_caps) + 1
    shared = tuple(range(m))
    odd = (1, 0, *shared[2:])
    position = 0 if warmup else rng.randrange(n)
    reveals = [odd if a == position else shared for a in range(n)]
    truths = reveals if warmup else _seeded_orders(rng, n, m)
    return _market(rng, tag, scarce_caps, n, reveals, truths)


# Rank-minimizing set sizes a spread input is drawn to have.  A profile with
# one minimizer gives an integral matrix that decomposes in one step, several
# times faster than the rest; letting a third of the ops be such profiles put
# the median on the step between the two kinds of op.
SPREAD_MINIMIZERS = range(2, 7)


def spread_market(rng, tag, shape, warmup=False):
    """Every agent reveals its own seeded order; null capacity is 2n.

    Profiles are drawn until their rank-minimizing set size falls in
    SPREAD_MINIMIZERS.  A warm-up input has agent j reveal the j-th rotation
    of one order and tell the truth, so that its cost does not depend on the
    seed.
    """
    n, scarce_caps = shape
    m = len(scarce_caps) + 1
    if warmup:
        reveals = truths = _rotations(n, m)
    else:
        caps = (*scarce_caps, 2 * n)
        reveals = _seeded_orders(rng, n, m)
        while reference.uniform_rows(caps, reveals)[1] not in SPREAD_MINIMIZERS:
            reveals = _seeded_orders(rng, n, m)
        truths = _seeded_orders(rng, n, m)
    return _market(rng, tag, scarce_caps, 2 * n, reveals, truths)


def sweep_market(rng, tag, shape, warmup=False):
    """A market file with the shape's agents and types and seeded reveals.

    The sweeps quantify over every profile, so the reveals do not change
    the work.
    """
    n, scarce_caps = shape
    m = len(scarce_caps) + 1
    reveals = _rotations(n, m) if warmup else _seeded_orders(rng, n, m)
    return _market(rng, tag, scarce_caps, n, reveals, ())


@dataclass(frozen=True)
class AssignOutput:
    market: object
    uniform: object
    revealed_waste: object
    refused: object
    refused_waste: object
    decomposition: object


def assign_op(rm, inp: MarketInput) -> AssignOutput:
    """Parse, run the uniform mechanism, refuse against the truths, decompose."""
    market, revealed = rm.specfile.parse_market_spec(inp.spec)
    x = rm.mechanisms.uniform_mechanism(market, revealed, rm.budget)
    revealed_waste = rm.assignment.wastefulness_witness(market, x, revealed)
    truths = rm.market.Profile(tuple(rm.market.PreferenceOrder(t) for t in inp.truths))
    refused = rm.strategy.refusal_transform(market, x, truths)
    refused_waste = rm.assignment.wastefulness_witness(market, refused, truths)
    decomposition = rm.assignment.decompose(market, refused)
    return AssignOutput(market, x, revealed_waste, refused, refused_waste, decomposition)


def check_assign(inp: MarketInput, out: AssignOutput) -> list[str]:
    market = out.market
    if tuple(market.agent_names) != inp.agents or tuple(market.type_names) != inp.types:
        return ["the parsed market differs from the generated one"]
    problems = []
    _, _, rows = reference.uniform_rows(inp.caps, inp.reveals)
    if [list(row) for row in out.uniform.rows] != rows:
        problems.append("uniform rows differ from the reference DP")
    for a, b in reference.essentially_equal_pairs(inp.caps, inp.reveals):
        if out.uniform.rows[a] != out.uniform.rows[b]:
            problems.append(f"agents {a} and {b} reveal essentially equal orders but get different rows")
    if out.revealed_waste != reference.waste_witness(inp.caps, rows, inp.reveals):
        problems.append("wastefulness witness of the uniform matrix differs from the scan")
    refused_rows = reference.refuse(rows, inp.truths, inp.null)
    if [list(row) for row in out.refused.rows] != refused_rows:
        problems.append("refused matrix differs from its recomputation")
    if out.refused_waste != reference.waste_witness(inp.caps, refused_rows, inp.truths):
        problems.append("wastefulness witness of the refused matrix differs from the scan")
    parts = [(weight, tuple(det.choices)) for weight, det in out.decomposition.parts]
    problems += reference.decomposition_problems(inp.caps, parts, refused_rows)
    return problems


def sweep_op(rm, inp: MarketInput) -> dict:
    """Parse, then run all seven property sweeps in turn, without the thread pool."""
    market, _ = rm.specfile.parse_market_spec(inp.spec)
    sweeps = rm.sweeps
    return {
        "ete-fU": sweeps.sweep_ete(market, "uniform"),
        "ete-fM": sweeps.sweep_ete(market, "modified"),
        "prop2": sweeps.sweep_no_strict_dominance(market, "uniform", False, dichotomy=True),
        "prop3": sweeps.sweep_demotion_waste(market),
        "prop5": sweeps.sweep_no_strict_dominance(market, "modified", True),
        "thm1": sweeps.sweep_demotion_weak_dominance(market),
        "thm2": sweeps.sweep_demotion_strict_gain(market),
    }


def check_sweep(inp: MarketInput, outcomes: dict) -> list[str]:
    expected = reference.sweep_checked(inp.caps, inp.null, len(inp.agents))
    problems = []
    for prop, checked in expected.items():
        outcome = outcomes[prop]
        if outcome.violations or outcome.first_violation is not None:
            problems.append(f"{prop}: {outcome.violations} violations, first {outcome.first_violation}")
        if outcome.checked != checked:
            problems.append(f"{prop}: checked {outcome.checked}, expected {checked}")
    return problems


@dataclass(frozen=True)
class Workload:
    """A fixed round of input shapes, repeated to fill a run.

    One round makes one operation per shape, in order.  ``round_s`` is the
    nominal length of a round, which turns ``--seconds`` into a whole number
    of rounds; the run then does that fixed work whatever the clock says.
    """

    make: Callable[..., MarketInput]
    op: Callable
    check: Callable[[MarketInput, object], list[str]]
    shapes: tuple[tuple[int, tuple[int, ...]], ...]
    round_s: float
    warmup_shapes: tuple[tuple[int, tuple[int, ...]], ...]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def inputs(self, rng: random.Random, tag: str, shapes, warmup=False) -> list[MarketInput]:
        return [self.make(rng, f"{tag}{i}", shape, warmup) for i, shape in enumerate(shapes)]


WORKLOADS = {
    "assign-ties": Workload(
        make=tie_heavy_market,
        op=assign_op,
        check=check_assign,
        shapes=(
            (8, (2, 2, 2)),
            (9, (3, 3, 2)),
            (8, (1, 1, 1, 1, 1)),
            (9, (2, 2, 2, 1)),
            (10, (3, 3, 2)),
        ),
        round_s=1.0,
        warmup_shapes=((8, (2, 2, 2)),),
    ),
    "assign-spread": Workload(
        make=spread_market,
        op=assign_op,
        check=check_assign,
        shapes=(
            (8, (2, 2, 2)),
            (8, (3, 2, 1)),
            (8, (1, 1, 1, 1, 1)),
            (8, (3, 3)),
            (8, (2, 2, 1, 1)),
        ),
        round_s=0.24,
        warmup_shapes=((8, (2, 2, 2)), (8, (3, 3))),
    ),
    "sweep": Workload(
        make=sweep_market,
        op=sweep_op,
        check=check_sweep,
        shapes=((3, (1, 1)), (3, (1, 2)), (3, (2, 1)), (3, (2, 2))),
        round_s=6.25,
        warmup_shapes=((2, (1, 1)),),
    ),
}
