"""Bundled demonstration markets with exact expected outputs.

Four small markets exercise every corner of the library: refusal making
demotion profitable, a demotion that is strictly better, the crowd-out
pattern the modified mechanism reacts to, and the incentive the modified
mechanism itself creates.  ``run_example_checks`` replays all of them and
compares bit-exactly; the CLI's ``reproduce-examples`` command is a thin
wrapper around it.
"""

from __future__ import annotations

from fractions import Fraction

from .assignment import Assignment, build_assignment, rank_value, wastefulness_witness
from .errors import DomainError
from .market import Market, PreferenceOrder, Profile, order_from_names
from .mechanisms import (
    Budget,
    DEFAULT_BUDGET,
    MechanismFn,
    check_ete,
    detect_modified_pattern,
    modified_mechanism,
    uniform_mechanism,
)
from .strategy import (
    DominanceQuery,
    check_dominance,
    full_extension,
    ods_promoting,
    ods_set,
    refusal_transform,
    strict_gain_pairs,
)


def example1_market(second_capacity: int = 1) -> Market:
    """Three agents, three scarce types; the second type's capacity varies."""
    return Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, second_capacity, 1, 3),
        null_type=3,
    )


def example2_market() -> Market:
    """Three agents, two unit-capacity types."""
    return Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "null"),
        capacities=(1, 1, 3),
        null_type=2,
    )


def example3_market() -> Market:
    """Three agents; the middle type has two seats."""
    return Market(
        agent_names=("a1", "a2", "a3"),
        type_names=("o1", "o2", "o3", "null"),
        capacities=(1, 2, 1, 3),
        null_type=3,
    )


def example4_market() -> Market:
    """Two agents, two unit-capacity types."""
    return Market(
        agent_names=("a1", "a2"),
        type_names=("o1", "o2", "null"),
        capacities=(1, 1, 2),
        null_type=2,
    )


EXAMPLE2_SPEC = """\
type o1 capacity 1
type o2 capacity 1
type null capacity 3 null
agent a1 prefers o1 > null > o2
agent a2 prefers o1 > o2 > null
agent a3 prefers o2 > o1 > null
"""


def make_denial_mechanism(
    market: Market, trigger: str, filler: str, denied: str
) -> MechanismFn:
    """Fixture mechanism: deny the lone ``trigger`` revealer its first best.

    On profiles where exactly one agent reveals ``trigger`` and everyone else
    reveals ``filler``, average only the rank-minimizing assignments that
    keep the trigger agent off ``denied``.  Elsewhere fall back to the
    uniform mechanism.  Deliberately biased; used to demonstrate what the
    equal-treatment checker flags.

    The assignments are counted by the uniform mechanism, with the trigger
    agent revealing its order with ``denied``, its first best, moved just
    below its outside option, where no rank-minimizing assignment seats it.
    Every type the agent can then be seated on moves up exactly one rank,
    so every such assignment's total falls by one and the rank-minimizing
    set among them does not change.  Where keeping the agent off ``denied``
    raises the optimum, no rank-minimizing assignment does so, and the
    fixture raises ``DomainError``.  A ``denied`` other than the trigger's
    first best raises ``DomainError`` too, as a null ``denied`` does, since
    the null type always has room.
    """
    trigger_order = order_from_names(market, trigger)
    filler_order = order_from_names(market, filler)
    denied_type = market.type_index(denied)
    if denied_type == market.null_type:
        raise DomainError("the denial fixture cannot deny the null type")
    ranking, null_rank = trigger_order.ranking, trigger_order.rank(market.null_type)
    if denied_type != ranking[0]:
        raise DomainError(f"the denial fixture denies {trigger} only its first best, not {denied}")
    kept_off_order = PreferenceOrder((*ranking[1:null_rank], denied_type, *ranking[null_rank:]))

    def mechanism(mkt: Market, profile: Profile, budget: Budget = DEFAULT_BUDGET) -> Assignment:
        triggered = [a for a in range(mkt.n_agents) if profile[a] == trigger_order]
        rest_fill = all(
            profile[a] == filler_order for a in range(mkt.n_agents) if profile[a] != trigger_order
        )
        fair = uniform_mechanism(mkt, profile, budget)
        if len(triggered) != 1 or not rest_fill:
            return fair
        kept_off = uniform_mechanism(mkt, profile.replace(triggered[0], kept_off_order), budget)
        if rank_value(kept_off, profile) > rank_value(fair, profile):
            raise DomainError(
                f"no rank-minimizing assignment keeps the {trigger} agent off {denied}"
            )
        return kept_off

    return mechanism


CheckResult = tuple[str, bool, str]


def run_example_checks() -> list[CheckResult]:
    """Replay every bundled example; each result is (label, passed, detail)."""
    results: list[CheckResult] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        results.append((label, ok, detail))

    def check_equal(label: str, got, expected) -> None:
        ok = got == expected
        check(label, ok, "" if ok else f"expected {expected!r}, got {got!r}")

    _example2_checks(check, check_equal)
    _example3_checks(check, check_equal)
    _example1_checks(check, check_equal)
    _example4_checks(check, check_equal)
    return results


def _example2_checks(check, check_equal) -> None:
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")       # demotion of the truth
    rival = order_from_names(market, "o2>o1>null")

    def profile(first, second, third) -> Profile:
        return Profile((first, second, third))

    cases = [
        ("ex2 uniform (truth, keen, rival)", profile(truth, keen, rival),
         [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]),
        ("ex2 uniform (demoted, keen, rival)", profile(keen, keen, rival),
         [["1/2", "0", "1/2"], ["1/2", "0", "1/2"], ["0", "1", "0"]]),
        ("ex2 uniform (truth, truth, truth)", profile(truth, truth, truth),
         [["1/3", "0", "2/3"], ["1/3", "0", "2/3"], ["1/3", "0", "2/3"]]),
        ("ex2 uniform (demoted, truth, truth)", profile(keen, truth, truth),
         [["1/3", "2/3", "0"], ["1/3", "0", "2/3"], ["1/3", "0", "2/3"]]),
        ("ex2 uniform (truth, keen, keen)", profile(truth, keen, keen),
         [["0", "0", "1"], ["1/2", "1/2", "0"], ["1/2", "1/2", "0"]]),
        ("ex2 uniform (demoted, keen, keen)", profile(keen, keen, keen),
         [["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]]),
    ]
    for label, p, literal in cases:
        check_equal(label, uniform_mechanism(market, p), build_assignment(market, literal))

    truths = Profile((truth, keen, keen))
    refused = refusal_transform(
        market, uniform_mechanism(market, Profile((keen, keen, keen))), truths
    )
    check_equal(
        "ex2 refusal of (demoted, keen, keen) outcome",
        refused,
        build_assignment(
            market,
            [["1/3", "0", "2/3"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]],
        ),
    )
    check_equal(
        "ex2 refusal outcome is wasteful with witness",
        wastefulness_witness(market, refused, truths),
        (1, 1, 2),
    )
    check_equal("ex2 demotions of the truth", ods_set(market, truth), (keen,))

    check_equal(
        "ex2 modified (demoted, truth, truth)",
        modified_mechanism(market, Profile((keen, truth, truth))),
        build_assignment(
            market, [["0", "1", "0"], ["1/2", "0", "1/2"], ["1/2", "0", "1/2"]]
        ),
    )
    check_equal(
        "ex2 refusal of modified (demoted, truth, truth)",
        refusal_transform(
            market,
            modified_mechanism(market, Profile((keen, truth, truth))),
            Profile((truth, truth, truth)),
        ),
        build_assignment(
            market, [["0", "0", "1"], ["1/2", "0", "1/2"], ["1/2", "0", "1/2"]]
        ),
    )
    check_equal(
        "ex2 modified equals uniform off the pattern",
        modified_mechanism(market, Profile((truth, truth, truth))),
        uniform_mechanism(market, Profile((truth, truth, truth))),
    )


def _example3_checks(check, check_equal) -> None:
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    keep = order_from_names(market, "o1>o2>o3>null")    # full extension
    swap = order_from_names(market, "o1>o3>o2>null")    # promotes o3
    fan = order_from_names(market, "o3>o1>o2>null")

    check_equal(
        "ex3 uniform (truth, swap, fan)",
        uniform_mechanism(market, Profile((truth, swap, fan))),
        build_assignment(
            market,
            [["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        ),
    )
    check_equal(
        "ex3 refusal of (swap, swap, fan) outcome",
        refusal_transform(
            market,
            uniform_mechanism(market, Profile((swap, swap, fan))),
            Profile((truth, swap, fan)),
        ),
        build_assignment(
            market,
            [["1/2", "0", "0", "1/2"], ["1/2", "1/2", "0", "0"], ["0", "0", "1", "0"]],
        ),
    )
    check_equal("ex3 demotions of the truth", set(ods_set(market, truth)), {keep, swap})
    check_equal("ex3 full extension", full_extension(market, truth), keep)
    check_equal(
        "ex3 promoting the scarce unacceptable type",
        ods_promoting(market, truth, market.type_index("o3")),
        swap,
    )
    check_equal(
        "ex3 scarce pairs",
        strict_gain_pairs(market, truth),
        ((market.type_index("o1"), market.type_index("o3")),),
    )

    verdict = check_dominance(
        DominanceQuery(market, 0, truth, swap, mechanism="uniform", refusal=True)
    )
    check(
        "ex3 promoting demotion strictly dominates the truth",
        verdict.weakly_dominates and verdict.strictly_dominates,
        f"verdict: weak={verdict.weakly_dominates} strict={verdict.strictly_dominates}",
    )

    # Refused rows carry no mass below the outside option, so they agree on
    # every opponent profile exactly when no cumulative gap above it opens.
    verdict = check_dominance(
        DominanceQuery(market, 0, truth, keep, mechanism="uniform", refusal=True)
    )
    witness = verdict.failure_witness or verdict.strict_witness
    detail = ""
    if witness is not None:
        detail = f"differs at opponents {tuple(order.ranking for _, order in witness)}"
    check(
        "ex3 full extension matches the truth row on all 576 opponent profiles",
        witness is None,
        detail,
    )


def _example1_checks(check, check_equal) -> None:
    market = example1_market(second_capacity=1)
    patient = order_from_names(market, "o1>o2>null>o3")
    eager = order_from_names(market, "o1>o2>o3>null")

    check_equal(
        "ex1 modified (eager, eager, eager) first row",
        modified_mechanism(market, Profile((eager, eager, eager))).row(0),
        tuple(Fraction(v) for v in ("1/3", "1/3", "1/3", "0")),
    )
    check_equal(
        "ex1 modified (patient, eager, eager) first row",
        modified_mechanism(market, Profile((patient, eager, eager))).row(0),
        tuple(Fraction(v) for v in ("1/3", "1/3", "0", "1/3")),
    )
    pattern = detect_modified_pattern(market, Profile((eager, patient, patient)))
    check(
        "ex1 crowd-out pattern detected on (eager, patient, patient)",
        pattern is not None
        and pattern.special_agent == 0
        and pattern.focal_type == market.type_index("o1")
        and pattern.prefix_length == 3
        and pattern.competitors == (1, 2),
        f"pattern: {pattern}",
    )
    crowded = modified_mechanism(market, Profile((eager, patient, patient)))
    check_equal(
        "ex1 modified (eager, patient, patient) first row",
        crowded.row(0),
        tuple(Fraction(v) for v in ("0", "1", "0", "0")),
    )
    check_equal(
        "ex1 modified treats both patient agents alike",
        crowded.row(1),
        crowded.row(2),
    )

    wide = example1_market(second_capacity=2)
    check_equal(
        "ex1 wide variant has no crowd-out pattern",
        detect_modified_pattern(wide, Profile((eager, patient, patient))),
        None,
    )
    denial = make_denial_mechanism(wide, "o1>o2>o3>null", "o1>o2>null>o3", "o1")
    check(
        "ex1 wide variant: denial fixture fails equal treatment",
        not check_ete(denial, wide, Profile((eager, patient, patient))),
        "",
    )
    check(
        "ex1 wide variant: uniform passes equal treatment",
        check_ete(uniform_mechanism, wide, Profile((eager, patient, patient))),
        "",
    )


def _example4_checks(check, check_equal) -> None:
    market = example4_market()
    broad = order_from_names(market, "o1>o2>null")
    narrow = order_from_names(market, "o1>null>o2")

    both = Profile((broad, broad))
    check_equal(
        "ex4 modified (broad, broad) first row",
        modified_mechanism(market, both).row(0),
        tuple(Fraction(v) for v in ("1/2", "1/2", "0")),
    )
    check_equal(
        "ex4 uniform (broad, broad) first row",
        uniform_mechanism(market, both).row(0),
        tuple(Fraction(v) for v in ("1/2", "1/2", "0")),
    )
    shaded = Profile((narrow, broad))
    check_equal(
        "ex4 modified (narrow, broad) hands the narrow agent its first best",
        modified_mechanism(market, shaded).row(0),
        tuple(Fraction(v) for v in ("1", "0", "0")),
    )
    check_equal(
        "ex4 uniform (narrow, broad) first row",
        uniform_mechanism(market, shaded).row(0),
        tuple(Fraction(v) for v in ("1/2", "0", "1/2")),
    )
