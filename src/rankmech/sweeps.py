"""Exhaustive property sweeps over small markets.

Every sweep but whole-market equal treatment hands its units, each with
a weight and the detail of its violation or None, to one counter,
``_tally``, which adds up the weights and keeps the first detail for
reporting.  Sweeps are deterministic.  Both mechanisms are anonymous, so
a unit's answer does not depend on its agent: every sweep but equal
treatment checks agent 0's units only, each counted once per agent.  A
dominance sweep hands every distinct (truth, candidate) pair to one walk
over opponent multisets, which decides each pair rather than witnessing
it; the sweep reads only whether a pair fails and whether it is strictly
preferred somewhere.  Equal treatment counts every profile in closed
form and visits only the multisets of truncation classes that can
violate, each violating one weighted by the number of profiles lifting
it, with the same argument for its first violation; it weights each
given profile 1.  The dominance walk and equal treatment read every row
from one source, the market's class tables (``strategy._class_rows``),
built once per market and shared by every sweep on it; ``prop2`` tells
essentially equal orders apart by the tables' class keys.  Every sweep
over the whole market reads the market's orders from those tables, which
check the budget before they list the orders.  ``SWEEPS`` maps each
``rankmech sweep`` token to its sweep and arguments; each entry looks
its sweep up by name when called.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .assignment import is_wasteful
from .market import (
    AgentIndex,
    Market,
    PreferenceOrder,
    Profile,
    TypeIndex,
    check_profile,
    order_to_names,
)
from .mechanisms import (
    Budget,
    DEFAULT_BUDGET,
    detect_modified_pattern,
    get_mechanism,
    uniform_mechanism,
)
from .strategy import (
    _ClassRows,
    _class_rows,
    _first_witnesses,
    ods_promoting,
    ods_set,
    refusal_transform,
    strict_gain_pairs,
)


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
) -> list[tuple[PreferenceOrder, TypeIndex, PreferenceOrder]]:
    """Every truth with each type a scarce pair promotes, ascending, and its promoting demotion."""
    return [
        (truth, o_prime, ods_promoting(market, truth, o_prime))
        for truth in _class_rows(market, budget).orders
        for o_prime in sorted({o for _, o in strict_gain_pairs(market, truth)})
    ]


def _violates(
    source: _ClassRows,
    profile: tuple[int, ...],
    ends: dict[tuple[int, ...], list[tuple[int, int, int]]],
) -> bool:
    """Whether the class profile ``profile`` treats essentially equal reveals
    unequally; ``ends`` keeps each opponent multiset's ``ends`` across calls."""
    # each key's distinct classes, each with the first agent revealing it
    groups: dict[tuple[TypeIndex, ...], dict[int, AgentIndex]] = {}
    for agent, c in enumerate(profile):
        groups.setdefault(source.key[c], {}).setdefault(c, agent)
    for group in groups.values():
        if len(group) < 2:
            continue
        rows = []
        for agent in group.values():
            opponents = tuple(sorted(profile[:agent] + profile[agent + 1 :]))
            layer = ends.get(opponents)
            if layer is None:
                layer = ends[opponents] = source.ends(opponents)
            rows.append(source.row(layer, opponents, profile[agent], False))
        counts_a, total_a = rows[0]
        for counts_b, total_b in rows[1:]:
            if any(x * total_b != y * total_a for x, y in zip(counts_a, counts_b)):
                return True
    return False


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
    (:func:`~rankmech.strategy._class_rows`).  Agents in one class get
    identical rows, so only distinct classes sharing a key are compared: a
    multiset can violate only when it holds two distinct classes of one
    key.  With no key shared by two classes nothing is visited.  Otherwise
    the multisets are visited in ``combinations_with_replacement`` order,
    and each one holding no such pair is skipped before any row is read.
    The first failing profile in product order is the least lift of the
    first failing class multiset, its sorted tuple of representatives
    (replacing each reveal by its representative and sorting gives a
    failing profile no later in that order).

    A profile that parses as the crowd-out pattern has no such pair: its
    competitors share one class and its bystanders another, and no two of
    the special agent, a competitor and a bystander share a key.  So every
    row compared is the uniform mechanism's under either mechanism, and no
    compared row is parsed.  An agent's row is read from the class tables
    against the multiset of the other reveals, as in the dominance walk,
    and each opponent multiset's ``ends`` are built once per call.  Rows are
    compared by cross-multiplying.  Given ``profiles``, each is checked as
    given and counts once: a malformed profile fails, a profile that parses
    as the crowd-out pattern under the modified mechanism passes, and any
    other is checked against the budget before the class tables are built,
    then on the classes of its reveals.
    """
    get_mechanism(mechanism_name)  # rejects an unknown name
    name = f"ete-{mechanism_name}"
    ends: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}

    def given(profile: Profile) -> tuple[int, str | None]:
        check_profile(market, profile)
        if mechanism_name == "modified" and detect_modified_pattern(market, profile) is not None:
            return 1, None
        source = _class_rows(market, budget)
        reveals = tuple(source.class_of[order] for order in profile.orders)
        return 1, _profile_label(market, profile) if _violates(source, reveals, ends) else None

    if profiles is not None:
        return _tally(name, map(given, profiles))
    source = _class_rows(market, budget)
    classes, key = source.classes, source.key
    n = market.n_agents

    def shares_a_key(profile: tuple[int, ...]) -> bool:
        distinct = set(profile)
        return len({key[c] for c in distinct}) < len(distinct)

    multisets = itertools.combinations_with_replacement(range(len(classes)), n)
    candidates = filter(shares_a_key, multisets) if len(set(key)) < len(classes) else ()
    violating = [profile for profile in candidates if _violates(source, profile, ends)]
    size = collections.Counter(source.class_of.values())

    def weight(profile: tuple[int, ...]) -> int:
        lifts = math.factorial(n)
        for c, group in itertools.groupby(profile):
            k = len(list(group))
            lifts = lifts // math.factorial(k) * size[c] ** k
        return lifts

    first = None
    if violating:
        first = _profile_label(market, Profile(tuple(classes[c] for c in violating[0])))
    return SweepOutcome(name, len(source.orders) ** n, sum(map(weight, violating)), first)


def sweep_demotion_weak_dominance(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """Under refusal, every demotion weakly dominates its truth (uniform)."""
    orders = _class_rows(market, budget).orders
    pairs = [(truth, demoted) for truth in orders for demoted in ods_set(market, truth)]
    found = _first_witnesses(market, "uniform", True, pairs, budget, decide=True)

    def detail(truth, demoted) -> str | None:
        failure, _ = found[truth, demoted]
        if failure is None:
            return None
        return f"{_truth_label(market, truth)} demotion=({order_to_names(market, demoted)})"

    return _tally("thm1", ((market.n_agents, detail(*pair)) for pair in pairs))


def sweep_demotion_strict_gain(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """Scarce pairs make the promoting demotion strictly dominant (refusal on)."""
    units = _promotion_units(market, budget)
    pairs = [(truth, demoted) for truth, _, demoted in units]
    found = _first_witnesses(market, "uniform", True, pairs, budget, decide=True)

    def detail(truth, o_prime, demoted) -> str | None:
        failure, strict = found[truth, demoted]
        if failure is None and strict is not None:
            return None
        return f"{_truth_label(market, truth)} promoted={market.type_names[o_prime]}"

    return _tally("thm2", ((market.n_agents, detail(*unit)) for unit in units))


def sweep_demotion_waste(
    market: Market,
    budget: Budget = DEFAULT_BUDGET,
) -> SweepOutcome:
    """When everyone else reveals the same demotion, refusal strands capacity.

    The others reveal one order, so seating the truth at another agent only
    permutes the matrix: agent 0's verdict is every agent's.
    """
    n = market.n_agents

    def detail(truth, o_prime, demoted) -> str | None:
        revealed = Profile((demoted,) * n)
        truths = revealed.replace(0, truth)
        outcome = refusal_transform(
            market, uniform_mechanism(market, revealed, budget), truths
        )
        if is_wasteful(market, outcome, truths):
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
    preferred.
    """
    source = _class_rows(market, budget)  # the walk's tables; their keys decide essential equality
    orders, key, class_of = source.orders, source.key, source.class_of
    pairs = [(truth, candidate) for truth in orders for candidate in orders if candidate != truth]
    found = _first_witnesses(market, mechanism_name, refusal, pairs, budget, decide=True)

    def detail(truth, candidate) -> str | None:
        failure, strict = found[truth, candidate]
        if failure is None and strict is not None:
            problem = "strictly dominates"
        elif not dichotomy:
            return None
        elif key[class_of[truth]] == key[class_of[candidate]]:
            if failure is None and strict is None:
                return None
            problem = "essentially equal but rows differ somewhere"
        elif failure is None:
            problem = "expected a failure witness"
        else:
            return None
        return (
            f"{_truth_label(market, truth)} "
            f"candidate=({order_to_names(market, candidate)}): {problem}"
        )

    name = "prop2" if dichotomy else f"no-strict-dominance-{mechanism_name}"
    if mechanism_name == "modified" and refusal:
        name = "prop5"
    return _tally(name, ((market.n_agents, detail(*pair)) for pair in pairs))


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
