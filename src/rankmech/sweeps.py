"""Exhaustive property sweeps over small markets.

Sweeps are deterministic.  Both mechanisms are anonymous, so a unit's
answer does not depend on its agent: every sweep but equal treatment checks
agent 0's units only, each counted once per agent.  Every sweep over the
whole market works in truncation classes and reads its orders, its classes
and its rows from the market's class tables
(:func:`~rankmech.classpairs.class_rows`), which check the budget before
they list the orders.  A dominance sweep counts pairs of truncation classes
(truth class, candidate class), each standing for a known number of order
pairs, adds their weights in closed form and names its first violation
from class representatives; the class-pair engine decides its pairs
(:func:`~rankmech.classpairs.decide`).  Equal treatment counts every
profile in closed form and compares each pair of truncation classes
sharing a key against every multiset of the other n - 2 reveals, each
violating multiset weighted by the number of profiles lifting it;
``prop2`` tells essentially equal orders apart by the tables'
class keys.  Given profiles and ``prop3`` hand their units, each with a
weight and the detail of its violation or None, to one counter,
``_tally``.  ``prop3`` reads one row per unit, that of the demotion
against its clones, n - 1 copies of it, kept on the class tables, and
refuses and scans it for waste in integers.  ``SWEEPS`` maps each
``rankmech sweep`` token to its sweep and arguments; each entry looks its
sweep up by name when called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .assignment import _first_waste
from .market import (
    Market,
    PreferenceOrder,
    Profile,
    TypeIndex,
    check_profile,
    order_to_names,
)
from .classpairs import class_rows, decide
from .mechanisms import Budget, DEFAULT_BUDGET, detect_modified_pattern, get_mechanism
from .strategy import _demotions, _promoting, _refused, strict_gain_pairs


@dataclass(frozen=True)
class SweepOutcome:
    name: str
    checked: int
    violations: int
    first_violation: str | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _tally(name: str, items: Iterable[tuple[int, str | None]]) -> SweepOutcome:
    """Count ``(weight, detail)`` items in order; an item with a detail violates."""
    checked = 0
    violations = 0
    first: str | None = None
    for weight, detail in items:
        checked += weight
        if detail is not None:
            violations += weight
            if first is None:
                first = detail
    return SweepOutcome(name, checked, violations, first)


def _truth_label(market: Market, truth: PreferenceOrder) -> str:
    return f"agent={market.agent_names[0]} truth=({order_to_names(market, truth)})"


def _profile_label(market: Market, profile: Profile) -> str:
    return " ".join(
        f"{market.agent_names[a]}=({order_to_names(market, profile[a])})"
        for a in range(market.n_agents)
    )


def _promotion_units(
    market: Market, budget: Budget
) -> list[tuple[PreferenceOrder, TypeIndex, tuple[TypeIndex, ...]]]:
    """Every truth with each type a scarce pair promotes, ascending, and the
    ranking of its promoting demotion."""
    null = market.null_type
    return [
        (truth, o_prime, _promoting(truth.ranking, truth.rank(null), o_prime, null))
        for truth in class_rows(market, budget).orders
        for o_prime in sorted({o for _, o in strict_gain_pairs(market, truth)})
    ]


def _unequal(
    source,
    rest: tuple[int, ...],
    x: int,
    y: int,
    ends: dict[int, list[tuple[int, int, int]]],
) -> bool:
    """Whether, in the class profile ``rest`` plus ``x`` and ``y``, the
    agents revealing ``x`` and ``y`` get unequal rows, read from the class
    tables ``source``: each faces ``rest`` plus the other, and ``ends``
    maps each of the two to the ``ends`` of ``rest`` plus it."""
    counts_x, total_x = source.row(ends[y], (*rest, y), x, False)
    counts_y, total_y = source.row(ends[x], (*rest, x), y, False)
    return any(a * total_y != b * total_x for a, b in zip(counts_x, counts_y))


def sweep_ete(
    market: Market,
    mechanism_name: str,
    profiles: Iterable[Profile] | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """Equal treatment of essentially equal reveals, profile by profile.

    Left out, ``profiles`` is every profile of the market, and the budget
    is checked before the class tables list the orders.  Both mechanisms are
    anonymous and read no reveal below its outside option, so whether a
    profile violates depends only on its multiset of truncation classes,
    and a class multiset stands for n!/prod(k_c!) * prod(|C|^k_c) profiles,
    where k_c agents reveal class C.  Those weights sum to |orders|^n over
    all class multisets: that sum is the multinomial expansion of
    (sum_C |C|)^n, and the classes partition the orders.  So the count
    checked is |orders|^n, and only violating multisets are weighed.

    Two orders are essentially equal exactly when they share their top ranks
    up to the threshold, which is never below the outside option, so each
    class has one key, read from the market's class tables
    (:func:`~rankmech.classpairs.class_rows`).  Agents in one class get
    identical rows, so a multiset violates exactly when two distinct classes
    x and y of one key in it get unequal rows.  With the multiset written
    as ``rest`` plus x and y, the agent revealing x faces ``rest`` plus y,
    and the agent revealing y faces ``rest`` plus x (:func:`_unequal`).  So
    the pairs (x, y), x < y, of classes sharing a key are listed once; with
    none nothing is visited.  Otherwise every multiset ``rest`` of n - 2
    classes is visited once, in ``combinations_with_replacement`` order:
    the forward layer over it is stepped once and folded with each class
    of a pair (:meth:`~rankmech.classpairs._ClassRows.ends_with`), and
    every pair is compared against it.  A multiset holding such a pair is
    compared once per pair it holds, so the violating multisets are
    gathered in a set, as sorted tuples, each weighed once.  The first
    failing profile in product order is the least lift of the least
    failing class multiset, its sorted tuple of representatives (replacing
    each reveal by its representative and sorting gives a failing profile
    no later in that order).

    A profile that parses as the crowd-out pattern has no such pair: its
    competitors share one class and its bystanders another, and no two of
    the special agent, a competitor and a bystander share a key.  So every
    row compared is the uniform mechanism's under either mechanism, and no
    compared row is parsed.  Rows are compared by cross-multiplying, and
    no ``ends`` is kept from one ``rest`` or profile to the next.  Given
    ``profiles``, each is checked as given and counts once: a malformed
    profile fails, a profile that parses as the crowd-out pattern under the
    modified mechanism passes, and any other is checked against the budget
    before the class tables are built, then each pair of distinct classes
    of one key among its reveals is compared against the rest of them.
    """
    get_mechanism(mechanism_name)  # rejects an unknown name
    name = f"ete-{mechanism_name}"

    def given(profile: Profile) -> tuple[int, str | None]:
        check_profile(market, profile)
        if mechanism_name == "modified" and detect_modified_pattern(market, profile) is not None:
            return 1, None
        source = class_rows(market, budget)
        reveals = sorted(source.class_of[order.ranking] for order in profile.orders)
        for x, y in itertools.combinations(sorted(set(reveals)), 2):
            if source.key[x] == source.key[y]:
                rest = list(reveals)
                rest.remove(x)
                rest.remove(y)
                if _unequal(source, tuple(rest), x, y, source.ends_with(rest, (x, y))):
                    return 1, _profile_label(market, profile)
        return 1, None

    if profiles is not None:
        return _tally(name, map(given, profiles))
    source = class_rows(market, budget)
    classes, key, size = source.classes, source.key, source.size
    n = market.n_agents
    pairs = [(x, y) for x, y in itertools.combinations(range(len(classes)), 2) if key[x] == key[y]]
    extras = {c for pair in pairs for c in pair}
    violating = set()
    rests = itertools.combinations_with_replacement(range(len(classes)), n - 2) if pairs else ()
    for rest in rests:
        ends = source.ends_with(rest, extras)
        for x, y in pairs:
            if _unequal(source, rest, x, y, ends):
                violating.add(tuple(sorted((*rest, x, y))))

    def weight(profile: tuple[int, ...]) -> int:
        lifts = math.factorial(n)
        for c, group in itertools.groupby(profile):
            k = len(list(group))
            lifts = lifts // math.factorial(k) * size[c] ** k
        return lifts

    first = None
    if violating:
        first = _profile_label(market, Profile(tuple(classes[c] for c in min(violating))))
    return SweepOutcome(name, len(source.orders) ** n, sum(map(weight, violating)), first)


def sweep_demotion_weak_dominance(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """Under refusal, every demotion weakly dominates its truth (uniform).

    A truth's demotions depend only on its class, so each demotion of a
    class's representative stands for one unit per order of the class, and
    the first violation is the representative's in the first failing class.
    """
    source = class_rows(market, budget)
    classes, class_of, null_rank = source.classes, source.class_of, source.tables.null_rank
    units = [
        (t, demoted, class_of[demoted])
        for t, truth in enumerate(classes)
        for demoted in _demotions(truth.ranking, null_rank[t], market.null_type)
    ]
    verdicts = decide(source, "uniform", True, [(t, d) for t, _, d in units])
    failing = [(t, demoted) for t, demoted, d in units if not verdicts[t, d][0]]
    first = None
    if failing:
        t, demoted = failing[0]
        demotion = order_to_names(market, PreferenceOrder(demoted))
        first = f"{_truth_label(market, classes[t])} demotion=({demotion})"
    n, size = market.n_agents, source.size
    checked = n * sum(size[t] for t, _, _ in units)
    return SweepOutcome("thm1", checked, n * sum(size[t] for t, _ in failing), first)


def sweep_demotion_strict_gain(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """Scarce pairs make the promoting demotion strictly dominant (refusal on)."""
    source = class_rows(market, budget)
    class_of = source.class_of
    units = [
        (truth, o_prime, class_of[truth.ranking], class_of[demoted])
        for truth, o_prime, demoted in _promotion_units(market, budget)
    ]
    verdicts = decide(source, "uniform", True, [(t, d) for _, _, t, d in units])
    failing = [(truth, o) for truth, o, t, d in units if verdicts[t, d] != (True, True)]
    first = None
    if failing:
        truth, o_prime = failing[0]
        first = f"{_truth_label(market, truth)} promoted={market.type_names[o_prime]}"
    n = market.n_agents
    return SweepOutcome("thm2", n * len(units), n * len(failing), first)


def sweep_demotion_waste(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """When everyone else reveals the same demotion, refusal strands capacity.

    The others reveal one order, so seating the truth at another agent only
    permutes the matrix: agent 0's verdict is every agent's.  Every agent
    reveals the promoting demotion, so the uniform mechanism, anonymous,
    gives each the same row: that of the demotion's class against n - 1
    opponents of that class, read in integers from the market's class
    tables.  The demotion ranks the outside option last, so its class holds
    it alone.  Agent 0 refuses its row through its truth; the others' truths
    are their reveals, which refuse nothing, and the waste scan
    (:func:`~rankmech.assignment.wastefulness_witness`) runs on these
    integer rows.
    """
    source = class_rows(market, budget)
    n = market.n_agents

    def detail(truth, o_prime, demoted) -> str | None:
        c = source.class_of[demoted]
        row, total = source.clone_row(c, c)
        rows = (_refused(market, row, truth), *(row,) * (n - 1))
        orders = (truth, *(source.classes[c],) * (n - 1))
        if _first_waste(market, total, rows, orders) is not None:
            return None
        return f"{_truth_label(market, truth)} promoted={market.type_names[o_prime]}"

    return _tally("prop3", ((n, detail(*unit)) for unit in _promotion_units(market, budget)))


def sweep_no_strict_dominance(
    market: Market,
    mechanism_name: str,
    refusal: bool,
    budget: Budget = DEFAULT_BUDGET,
    dichotomy: bool = False,
) -> SweepOutcome:
    """No reveal strictly dominates the truth.

    With ``dichotomy`` on (the no-refusal uniform sweep), additionally demand
    that essentially equal candidates tie the truth's row at every opponent
    profile while every other candidate has a profile where it is not weakly
    preferred.  Every (truth class, candidate class) stands for the product
    of the class sizes in (truth, candidate) pairs of distinct orders, one
    fewer per truth within one class; the first violating pair is that of
    the least violating class pair's representatives.
    """
    source = class_rows(market, budget)  # the walk's tables; their keys decide essential equality
    classes, key, size = source.classes, source.key, source.size
    pairs = list(itertools.product(range(len(classes)), repeat=2))
    verdicts = decide(source, mechanism_name, refusal, pairs)
    # strict dominance, or, under the dichotomy, weak dominance exactly when
    # the keys differ; a pair inside one class weakly but not strictly dominates
    failing = [
        (t, c) for t, c in pairs
        if verdicts[t, c][1] or dichotomy and verdicts[t, c][0] != (key[t] == key[c])
    ]
    name = "prop2" if dichotomy else f"no-strict-dominance-{mechanism_name}"
    if mechanism_name == "modified" and refusal:
        name = "prop5"
    first = None
    if failing:
        t, c = failing[0]
        if verdicts[t, c][1]:
            problem = "strictly dominates"
        elif key[t] == key[c]:
            problem = "essentially equal but rows differ somewhere"
        else:
            problem = "expected a failure witness"
        first = (
            f"{_truth_label(market, classes[t])} "
            f"candidate=({order_to_names(market, classes[c])}): {problem}"
        )
    n, orders = market.n_agents, len(source.orders)
    violations = n * sum(size[t] * size[c] for t, c in failing)
    return SweepOutcome(name, n * orders * (orders - 1), violations, first)


SWEEPS: dict[str, Callable[[Market, Budget], SweepOutcome]] = {
    "ete-fU": lambda market, budget: sweep_ete(market, "uniform", budget=budget),
    "ete-fM": lambda market, budget: sweep_ete(market, "modified", budget=budget),
    "prop2": lambda market, budget: sweep_no_strict_dominance(
        market, "uniform", False, budget, dichotomy=True),
    "prop5": lambda market, budget: sweep_no_strict_dominance(market, "modified", True, budget),
    "thm1": lambda market, budget: sweep_demotion_weak_dominance(market, budget),
    "thm2": lambda market, budget: sweep_demotion_strict_gain(market, budget),
    "prop3": lambda market, budget: sweep_demotion_waste(market, budget),
}
"""Every claim ``rankmech sweep`` checks, by token."""
