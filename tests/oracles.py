"""Slow reference implementations the fast paths are checked against."""

import collections
import itertools
import math
from fractions import Fraction

from rankmech import (
    DEFAULT_BUDGET,
    Assignment,
    Decomposition,
    DeterministicAssignment,
    DomainError,
    DominanceVerdict,
    Market,
    MarketSpecError,
    ModifiedPattern,
    PreferenceOrder,
    Profile,
    build_assignment,
    check_ete,
    enumerate_rank_minimizers,
    get_mechanism,
    is_wasteful,
    ods_promoting,
    ods_set,
    order_from_names,
    order_to_names,
    refusal_transform,
    strict_gain_pairs,
    uniform_mechanism,
    wastefulness_witness,
)
from rankmech.market import AgentIndex, TypeIndex, check_profile
from rankmech.specfile import _parse_type_line
from rankmech import classpairs, sweeps
from rankmech.sweeps import SweepOutcome

ZERO = Fraction(0)
ONE = Fraction(1)


def rank_table(order: PreferenceOrder) -> list[int]:
    """``table[o]`` is the 1-based rank of type ``o`` under ``order``, read
    from ``order.ranking`` alone, so the counting-pass oracles do not share
    the library's ``PreferenceOrder.ranks``."""
    return [order.ranking.index(o) + 1 for o in range(len(order))]


class PatternAmbiguityError(DomainError):
    """Two conflicting special-case parses matched the same revealed profile.

    Only :func:`all_agents_pattern` raises it: the library tries only the
    one agent whose outside-option rank strictly exceeds every other
    agent's, so at most one parse exists there.
    """


def all_profiles(market: Market) -> list[Profile]:
    orders = market.all_orders()
    return [
        Profile(combo)
        for combo in itertools.product(orders, repeat=market.n_agents)
    ]


def to_assignment(det: DeterministicAssignment, market: Market) -> Assignment:
    """The deterministic assignment ``det`` as a validated 0/1 random assignment."""
    rows = []
    for choice in det.choices:
        row = [ZERO] * market.n_types
        row[choice] = ONE
        rows.append(tuple(row))
    return build_assignment(market, rows)


def row_weakly_prefers(
    order: PreferenceOrder, row: tuple[Fraction, ...], other: tuple[Fraction, ...]
) -> bool:
    """First-order stochastic dominance of ``row`` over ``other`` under ``order``.

    Returns False when the rows are incomparable; this is a partial order,
    not a total one.
    """
    if len(row) != len(order) or len(other) != len(order):
        raise DomainError("rows and order disagree on the number of types")
    cum_row = ZERO
    cum_other = ZERO
    for o in order.ranking:
        cum_row += row[o]
        cum_other += other[o]
        if cum_row < cum_other:
            return False
    return True


def row_strictly_prefers(
    order: PreferenceOrder, row: tuple[Fraction, ...], other: tuple[Fraction, ...]
) -> bool:
    """Weak preference plus a strict cumulative gap above some rank.

    The final cumulative sums always tie at 1, so the strict gap must appear
    at a rank below the bottom one.
    """
    if not row_weakly_prefers(order, row, other):
        return False
    cum_row = ZERO
    cum_other = ZERO
    for o in order.ranking[:-1]:
        cum_row += row[o]
        cum_other += other[o]
        if cum_row > cum_other:
            return True
    return False


def weakly_prefers(order: PreferenceOrder, x: Assignment, other: Assignment, agent: AgentIndex) -> bool:
    return row_weakly_prefers(order, x.row(agent), other.row(agent))


def strictly_prefers(order: PreferenceOrder, x: Assignment, other: Assignment, agent: AgentIndex) -> bool:
    return row_strictly_prefers(order, x.row(agent), other.row(agent))


def refuse_row(
    market: Market, row: tuple[Fraction, ...], truth: PreferenceOrder
) -> tuple[Fraction, ...]:
    """One agent's ``Fraction`` row after refusing everything truly unacceptable.

    Probability on types ranked below the true outside option moves to the
    outside option; acceptable entries are untouched.  The oracle of
    ``refusal_transform``, which moves integer counts instead.
    """
    market.check_order(truth)
    null_rank = truth.rank(market.null_type)
    out = list(row)
    for o in range(market.n_types):
        if truth.rank(o) > null_rank:
            out[market.null_type] += out[o]
            out[o] = ZERO
    return tuple(out)


def listing_denial_mechanism(market: Market, trigger: str, filler: str, denied: str):
    """The denial fixture by listing: ``make_denial_mechanism``'s slow oracle.

    On profiles where exactly one agent reveals ``trigger`` and everyone
    else reveals ``filler``, average, in ``Fraction``s, the listed
    rank-minimizing assignments that keep the trigger agent off ``denied``;
    elsewhere fall back to the uniform mechanism.  When every listed
    assignment seats the trigger agent on ``denied``, none is left to
    average and the share divides by zero.
    """
    trigger_order = order_from_names(market, trigger)
    filler_order = order_from_names(market, filler)
    denied_type = market.type_index(denied)

    def mechanism(mkt: Market, profile: Profile, budget=DEFAULT_BUDGET) -> Assignment:
        triggered = [a for a in range(mkt.n_agents) if profile[a] == trigger_order]
        rest_fill = all(
            profile[a] == filler_order for a in range(mkt.n_agents) if profile[a] != trigger_order
        )
        if len(triggered) != 1 or not rest_fill:
            return uniform_mechanism(mkt, profile, budget)
        special = triggered[0]
        members = [
            det
            for det in enumerate_rank_minimizers(mkt, profile, budget).members
            if det.choices[special] != denied_type
        ]
        rows = [[ZERO] * mkt.n_types for _ in range(mkt.n_agents)]
        share = Fraction(1, len(members))
        for det in members:
            for a, o in enumerate(det.choices):
                rows[a][o] += share
        return build_assignment(mkt, rows)

    return mechanism


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


def fraction_build_assignment(market: Market, rows) -> tuple[tuple[Fraction, ...], ...]:
    """``build_assignment`` with every check made by comparing ``Fraction`` sums.

    Validate ``rows`` against ``market`` and return them as ``Fraction`` rows,
    to be compared with an Assignment's ``rows``.

    Raises DomainError when a row does not sum to one, an entry leaves [0, 1],
    a column exceeds its capacity, or the shape is off.
    """
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if len(rows) != market.n_agents:
        raise DomainError(f"expected {market.n_agents} rows, got {len(rows)}")
    for a, row in enumerate(rows):
        if len(row) != market.n_types:
            raise DomainError(
                f"row {market.agent_names[a]} has {len(row)} entries, "
                f"expected {market.n_types}"
            )
        for o, v in enumerate(row):
            if not ZERO <= v <= ONE:
                raise DomainError(
                    f"probability {v} for ({market.agent_names[a]}, "
                    f"{market.type_names[o]}) is outside [0, 1]"
                )
        if sum(row, start=ZERO) != ONE:
            raise DomainError(f"row {market.agent_names[a]} does not sum to 1")
    for o in range(market.n_types):
        total = sum((row[o] for row in rows), start=ZERO)
        if total > market.capacities[o]:
            raise DomainError(
                f"column {market.type_names[o]} sums to {total}, "
                f"exceeding capacity {market.capacities[o]}"
            )
    return rows


def fraction_wastefulness_witness(
    market: Market, x: Assignment, profile: Profile
) -> tuple[AgentIndex, TypeIndex, TypeIndex] | None:
    """``wastefulness_witness`` with slack and holdings compared as ``Fraction``.

    First (agent, preferred, held) triple proving waste, or None, scanned in
    agent, then preferred-type, then held-type order.
    """
    check_profile(market, profile)
    rows = x.rows
    slack = [
        market.capacities[o] - sum((row[o] for row in rows), start=ZERO) > 0
        for o in range(market.n_types)
    ]
    for a in range(market.n_agents):
        order = profile[a]
        for o in range(market.n_types):
            if not slack[o]:
                continue
            for held in range(market.n_types):
                if rows[a][held] > 0 and order.rank(o) < order.rank(held):
                    return (a, o, held)
    return None


def fraction_decompose(market: Market, x: Assignment) -> Decomposition:
    """``decompose`` over ``Fraction`` entries with the recursive matching.

    Write ``x`` as a convex combination of deterministic assignments.

    The assignment polytope here has unit demands and per-type capacities, so
    the classic bistochastic argument applies after splitting each type into
    ⌈column sum⌉ unit-capacity copies and padding with dummy agents.  The real
    agents fill a type's copies consecutively, each copy with room ``ONE``:
    laid end to end in agent order, the agents' entries on the type cover the
    column's mass from 0 up, copy k holds the stretch [k, k + 1), and an
    agent's entry on copy k is the overlap of its stretch with that one.  This
    is the fill ``decompose`` makes in integers, divided by its denominator.
    Each extraction step finds a perfect matching over the positive entries
    (one always exists for a matrix with equal row and column sums) and
    subtracts the largest weight that keeps the remainder nonnegative, zeroing
    at least one entry, so the loop terminates.  Projecting matched copies
    back to their types yields deterministic assignments that respect every
    capacity, and the weights recombine to ``x`` exactly.  The matching is
    kept across steps: only the rows whose matched entry reached zero are
    unmatched and re-augmented, in ascending order.
    """
    rows = fraction_build_assignment(market, x.rows)  # malformed input is a domain error
    copies = [math.ceil(sum((row[o] for row in rows), start=ZERO)) for o in range(market.n_types)]
    copy_type: list[TypeIndex] = []
    for o in range(market.n_types):
        copy_type.extend([o] * copies[o])
    n_copies = len(copy_type)
    n_real = market.n_agents

    # Real agents fill each type's copies in agent order, room ONE per copy.
    copy_index = [k for o in range(market.n_types) for k in range(copies[o])]
    matrix: list[list[Fraction]] = []
    for a in range(n_real):
        row = []
        for o, k in zip(copy_type, copy_index):
            low = sum((rows[b][o] for b in range(a)), start=ZERO)
            high = low + rows[a][o]
            row.append(max(ZERO, min(high, k + ONE) - max(low, Fraction(k))))
        matrix.append(row)

    # Dummy agents absorb the remaining column slack, northwest-corner style.
    deficits = [ONE - sum((matrix[a][c] for a in range(n_real)), start=ZERO)
                for c in range(n_copies)]
    for _ in range(n_copies - n_real):
        row = [ZERO] * n_copies
        need = ONE
        for c in range(n_copies):
            if need == 0:
                break
            take = min(need, deficits[c])
            if take > 0:
                row[c] = take
                deficits[c] -= take
                need -= take
        assert need == 0
        matrix.append(row)
    assert all(d == 0 for d in deficits)

    col_of_row = [-1] * n_copies
    row_of_col = [-1] * n_copies
    roots = list(range(n_copies))
    weights: dict[tuple[TypeIndex, ...], Fraction] = {}
    remaining = ONE
    while remaining > 0:
        matched = recursive_positive_perfect_matching(matrix, col_of_row, row_of_col, roots)
        weight = min(matrix[r][matched[r]] for r in range(n_copies))
        assert weight > 0
        choices = tuple(copy_type[matched[a]] for a in range(n_real))
        weights[choices] = weights.get(choices, ZERO) + weight
        remaining -= weight
        roots = []
        for r in range(n_copies):
            c = matched[r]
            matrix[r][c] -= weight
            if matrix[r][c] == 0:
                row_of_col[c] = -1
                col_of_row[r] = -1
                roots.append(r)

    parts = tuple(
        (weights[choices], DeterministicAssignment(choices))
        for choices in sorted(weights)
    )
    return Decomposition(parts)


def recursive_positive_perfect_matching(
    matrix: list[list[Fraction]], col_of_row=None, row_of_col=None, roots=None
) -> list[int]:
    """Kuhn's augmenting-path matching over the strictly positive entries.

    Given a partial matching (``col_of_row``/``row_of_col``, -1 where
    unmatched, updated in place) and its unmatched ``roots``, only those rows
    are augmented, in that order; with none given it starts from an empty
    matching with every row as a root.
    """
    n = len(matrix)
    if col_of_row is None:
        col_of_row = [-1] * n
        row_of_col = [-1] * n
        roots = range(n)

    def try_assign(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if matrix[r][c] > 0 and not seen[c]:
                seen[c] = True
                if row_of_col[c] == -1 or try_assign(row_of_col[c], seen):
                    row_of_col[c] = r
                    col_of_row[r] = c
                    return True
        return False

    for r in roots:
        if not try_assign(r, [False] * n):
            raise AssertionError("no perfect matching; matrix row/column sums are unequal")
    return col_of_row


def fraction_sweep_ete(market, mechanism_name, profiles=None, budget=DEFAULT_BUDGET):
    """``sweep_ete`` through the public ``Fraction`` mechanism and ``check_ete``.

    Every profile multiset (or every given profile) runs the whole mechanism,
    validated by ``build_assignment``, and compares ``Fraction`` rows of
    essentially equal reveals.  Multisets are weighted by their arrangements,
    as in the sweep, and each given profile counts once.  A violation is
    labelled as the README prints a profile: ``name=(type>type>...)`` for
    every agent, separated by spaces.
    """
    mech = get_mechanism(mechanism_name)
    if profiles is None:
        arrangements = math.factorial(market.n_agents)
        profiles = []
        for combo in itertools.combinations_with_replacement(market.all_orders(), market.n_agents):
            weight = arrangements
            for _, group in itertools.groupby(combo):
                weight //= math.factorial(len(list(group)))
            profiles.append((weight, Profile(combo)))
    else:
        profiles = [(1, profile) for profile in profiles]
    checked = 0
    violations = 0
    first = None
    for weight, profile in profiles:
        checked += weight
        if not check_ete(lambda m, p: mech(m, p, budget), market, profile):
            violations += weight
            if first is None:
                first = " ".join(
                    f"{name}=({'>'.join(market.type_names[o] for o in order.ranking)})"
                    for name, order in zip(market.agent_names, profile.orders)
                )
    return SweepOutcome(f"ete-{mechanism_name}", checked, violations, first)


def per_multiset_sweep_ete(market, mechanism_name, budget=DEFAULT_BUDGET):
    """Whole-market ``sweep_ete`` walking every multiset of truncation classes.

    Each class multiset is checked on the class tables and counts as
    n!/prod(k_c!) * prod(|C|^k_c) profiles, with no closed form for the
    count and no filter on which multisets can violate.  The class tables
    are looked up through ``sweeps.class_rows``, so a test that patches
    them there patches the oracle too.
    """
    get_mechanism(mechanism_name)  # rejects an unknown name
    name = f"ete-{mechanism_name}"
    ends = {}

    def violates(source, profile):
        """Whether the class profile ``profile`` treats essentially equal reveals unequally."""
        # each key's distinct classes, each with the first agent revealing it
        groups = {}
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
                    *rest, last = opponents
                    layer = ends[opponents] = source.ends_with(rest, (last,))[last]
                rows.append(source.row(layer, opponents, profile[agent], False))
            counts_a, total_a = rows[0]
            for counts_b, total_b in rows[1:]:
                if any(x * total_b != y * total_a for x, y in zip(counts_a, counts_b)):
                    return True
        return False

    source = sweeps.class_rows(market, budget)
    classes = source.classes
    size = collections.Counter(source.class_of.values())
    n = market.n_agents

    def lifted(profile):
        weight = math.factorial(n)
        for c, group in itertools.groupby(profile):
            k = len(list(group))
            weight = weight // math.factorial(k) * size[c] ** k
        if not violates(source, profile):
            return weight, None
        return weight, sweeps._profile_label(market, Profile(tuple(classes[c] for c in profile)))

    multisets = itertools.combinations_with_replacement(range(len(classes)), n)
    return sweeps._tally(name, map(lifted, multisets))


def demotion_wastes(market, agent, truth, o_prime, budget=DEFAULT_BUDGET):
    """Whether refusal leaves waste when ``agent`` holds ``truth`` and
    everyone, that agent included, reveals the demotion promoting ``o_prime``."""
    revealed = Profile((ods_promoting(market, truth, o_prime),) * market.n_agents)
    truths = revealed.replace(agent, truth)
    outcome = refusal_transform(market, uniform_mechanism(market, revealed, budget), truths)
    return is_wasteful(market, outcome, truths)


def all_agents_sweep_demotion_waste(market, budget=DEFAULT_BUDGET):
    """``sweep_demotion_waste`` over every agent's units, agent-major.

    Each agent, truth and promoted type is one unit, checked with the truth
    at that agent, so no anonymity is assumed."""
    checked = 0
    violations = 0
    first = None
    for agent in range(market.n_agents):
        for truth in market.all_orders():
            for o_prime in sorted({o for _, o in strict_gain_pairs(market, truth)}):
                checked += 1
                if not demotion_wastes(market, agent, truth, o_prime, budget):
                    violations += 1
                    if first is None:
                        first = (
                            f"agent={market.agent_names[agent]} "
                            f"truth=({'>'.join(market.type_names[o] for o in truth.ranking)}) "
                            f"promoted={market.type_names[o_prime]}"
                        )
    return SweepOutcome("prop3", checked, violations, first)


def fraction_demotion_waste_units(market, budget=DEFAULT_BUDGET):
    """Agent 0's ``prop3`` units through the public ``Fraction`` pipeline.

    Each unit runs the uniform mechanism, looked up by name so that a test
    can patch a fixture in, on the profile where everyone reveals the
    demotion, and refuses the matrix through the truths.  A unit is
    (truth, promoted type, refused matrix, truths, waste witness)."""
    n = market.n_agents
    mechanism = get_mechanism("uniform")
    units = []
    for truth, o_prime, demoted in sweeps._promotion_units(market, budget):
        revealed = Profile((PreferenceOrder(demoted),) * n)
        truths = revealed.replace(0, truth)
        refused = refusal_transform(market, mechanism(market, revealed, budget), truths)
        witness = wastefulness_witness(market, refused, truths)
        units.append((truth, o_prime, refused, truths, witness))
    return units


def fraction_sweep_demotion_waste(market, budget=DEFAULT_BUDGET):
    """``sweep_demotion_waste`` from :func:`fraction_demotion_waste_units`: a
    unit violates when its refused matrix is not wasteful, and counts once
    per agent."""
    n = market.n_agents

    def detail(truth, o_prime, refused, truths, witness):
        if witness is not None:
            return None
        return f"{sweeps._truth_label(market, truth)} promoted={market.type_names[o_prime]}"

    units = fraction_demotion_waste_units(market, budget)
    return sweeps._tally("prop3", ((n, detail(*unit)) for unit in units))



# The dominance sweeps over (truth, candidate) pairs of full orders.  Each
# pair is one unit, counted once per agent, and its verdict is read from
# the full witness walk over all the sweep's pairs.  The class tables are
# looked up through ``sweeps.class_rows`` and the walk's through
# ``classpairs.class_rows``, so a test that patches both patches the oracles.


def order_pair_sweep_no_strict_dominance(
    market, mechanism_name, refusal, budget=DEFAULT_BUDGET, dichotomy=False
):
    """``sweep_no_strict_dominance`` over every pair of distinct orders."""
    orders = sweeps.class_rows(market, budget).orders
    pairs = [(truth, candidate) for truth in orders for candidate in orders if candidate != truth]
    found = classpairs.first_witnesses(market, mechanism_name, refusal, pairs, budget)

    def detail(truth, candidate):
        failure, strict = found[truth, candidate]
        if failure is None and strict is not None:
            problem = "strictly dominates"
        elif not dichotomy:
            return None
        elif market.essentially_equal(truth, candidate):
            if failure is None and strict is None:
                return None
            problem = "essentially equal but rows differ somewhere"
        elif failure is None:
            problem = "expected a failure witness"
        else:
            return None
        return (
            f"{sweeps._truth_label(market, truth)} "
            f"candidate=({order_to_names(market, candidate)}): {problem}"
        )

    name = "prop2" if dichotomy else f"no-strict-dominance-{mechanism_name}"
    if mechanism_name == "modified" and refusal:
        name = "prop5"
    return sweeps._tally(name, ((market.n_agents, detail(*pair)) for pair in pairs))


def order_pair_sweep_demotion_weak_dominance(market, budget=DEFAULT_BUDGET):
    """``sweep_demotion_weak_dominance`` over every truth and each of its demotions."""
    orders = sweeps.class_rows(market, budget).orders
    pairs = [(truth, demoted) for truth in orders for demoted in ods_set(market, truth)]
    found = classpairs.first_witnesses(market, "uniform", True, pairs, budget)

    def detail(truth, demoted):
        failure, _ = found[truth, demoted]
        if failure is None:
            return None
        return f"{sweeps._truth_label(market, truth)} demotion=({order_to_names(market, demoted)})"

    return sweeps._tally("thm1", ((market.n_agents, detail(*pair)) for pair in pairs))


def order_pair_sweep_demotion_strict_gain(market, budget=DEFAULT_BUDGET):
    """``sweep_demotion_strict_gain`` over every truth and each type it promotes."""
    units = [
        (truth, o_prime, ods_promoting(market, truth, o_prime))
        for truth in sweeps.class_rows(market, budget).orders
        for o_prime in sorted({o for _, o in strict_gain_pairs(market, truth)})
    ]
    pairs = [(truth, demoted) for truth, _, demoted in units]
    found = classpairs.first_witnesses(market, "uniform", True, pairs, budget)

    def detail(truth, o_prime, demoted):
        failure, strict = found[truth, demoted]
        if failure is None and strict is not None:
            return None
        return f"{sweeps._truth_label(market, truth)} promoted={market.type_names[o_prime]}"

    return sweeps._tally("thm2", ((market.n_agents, detail(*unit)) for unit in units))


def check_weak_ete(mechanism, market, profile):
    """Agents revealing identical orders receive identical rows."""
    x = mechanism(market, profile)
    for a, b in itertools.combinations(range(market.n_agents), 2):
        if profile[a] == profile[b] and x.row(a) != x.row(b):
            return False
    return True


def try_parse(market, profile, special):
    """The crowd-out parse of ``profile`` with ``special`` as the special agent, or None.

    Written from the ``ModifiedPattern`` docstring, without the library's
    parse.  The special agent ranks the outside option third or deeper and
    its first type is the focal type.  Every other agent is a bystander,
    which ranks the outside option first, or a competitor: it ranks the
    outside option at some level L, earlier than the special agent does,
    agrees with the special agent on the L - 1 types above it, and its
    capacity threshold, the least rank whose top types can seat every
    agent, is L.  Any other agent voids the parse.  The competitors must
    share one level and number at least the focal type's capacity.
    """
    null = market.null_type
    special_order = profile[special]
    depth = special_order.rank(null)
    if depth < 3:
        return None
    competitors = []
    bystanders = []
    levels = set()
    for agent, order in enumerate(profile.orders):
        if agent == special:
            continue
        level = order.rank(null)
        if level == 1:
            bystanders.append(agent)
            continue
        seats = itertools.accumulate(market.capacities[o] for o in order.ranking)
        threshold = next(k for k, total in enumerate(seats, start=1) if total >= market.n_agents)
        if (
            level >= depth
            or order.ranking[: level - 1] != special_order.ranking[: level - 1]
            or threshold != level
        ):
            return None
        competitors.append(agent)
        levels.add(level)
    focal = special_order.ranking[0]
    if len(levels) != 1 or len(competitors) < market.capacities[focal]:
        return None
    return ModifiedPattern(
        special_agent=special,
        focal_type=focal,
        prefix_length=levels.pop(),
        competitors=tuple(competitors),
        bystanders=tuple(bystanders),
    )


def override_rows(market, profile, pattern):
    """The modified mechanism's ``Fraction`` rows on a patterned profile.

    The special agent gets its revealed second type outright, each
    competitor an even share of the focal type's seats and the outside
    option for the rest, and each bystander the outside option.
    """
    share = Fraction(market.capacities[pattern.focal_type], len(pattern.competitors))
    rows = []
    for agent in range(market.n_agents):
        row = [ZERO] * market.n_types
        if agent == pattern.special_agent:
            row[profile[agent].ranking[1]] = ONE
        elif agent in pattern.competitors:
            row[pattern.focal_type] = share
            row[market.null_type] = ONE - share
        else:
            row[market.null_type] = ONE
        rows.append(tuple(row))
    return tuple(rows)


def all_agents_pattern(market, profile):
    """The crowd-out parse tried with every agent as the special agent.

    At most one candidate may succeed; two successful parses raise.
    """
    parses = [
        pattern
        for special in range(market.n_agents)
        if (pattern := try_parse(market, profile, special)) is not None
    ]
    if len(parses) > 1:
        raise PatternAmbiguityError(
            f"profile admits {len(parses)} conflicting special-case parses"
        )
    return parses[0] if parses else None


def truncation_representatives(market):
    """Each of ``market.all_orders()``'s least-index order ranking the same
    types down to and including the outside option, by order index."""
    orders = market.all_orders()
    cuts = [order.top(order.rank(market.null_type)) for order in orders]
    least = {}
    for i, cut in enumerate(cuts):
        least.setdefault(cut, i)
    return [least[cut] for cut in cuts]


def forward_layers(market, ranks):
    """The forward half of the counting pass over agents with rank tables ``ranks``.

    Returns the packed start state, the moves as (type, stride, radix) with
    stride 0 for the null type, and one layer per agent boundary: layer k maps
    each state the first k agents can leave to its least prefix rank and the
    number of prefixes reaching it with that rank.
    """
    moves = []
    start = 0
    stride = 1
    for o, q in enumerate(market.capacities):
        if o == market.null_type:
            moves.append((o, 0, 1))
        else:
            moves.append((o, stride, q + 1))
            start += q * stride
            stride *= q + 1
    forward = [{start: (0, 1)}]
    for rank in ranks:
        layer = {}
        for state, (cost, count) in forward[-1].items():
            for o, stride, radix in moves:
                if stride and not state // stride % radix:
                    continue
                after = state - stride
                reach = cost + rank[o]
                held = layer.get(after)
                if held is None or reach < held[0]:
                    layer[after] = (reach, count)
                elif reach == held[0]:
                    layer[after] = (reach, held[1] + count)
        forward.append(layer)
    return start, moves, forward


def uncut_integer_rows(market, profile):
    """:func:`uncut_count_rows` from ``profile``'s rank tables."""
    return uncut_count_rows(market, [rank_table(order) for order in profile.orders])


def uncut_count_rows(market, ranks):
    """The uniform rows as integer counts over a total, from every move, for
    agents with rank tables ``ranks``.

    A forward-backward pass over agents in index order that tries every
    type for every agent, outside option or not.  The forward pass gives
    each state its least prefix rank and how many prefixes reach it; the
    backward pass gives every state its least completion rank and how many
    completions start with each move.  An optimal assignment passes through
    a state exactly when the two ranks sum to the optimum.
    """
    n = market.n_agents
    m = market.n_types
    start, moves, forward = forward_layers(market, ranks)
    optimum = min(cost for cost, _ in forward[n].values())

    counts = [[0] * m for _ in range(n)]
    below = dict.fromkeys(forward[n], (0, 1))
    for a in range(n - 1, -1, -1):
        rank = ranks[a]
        row = counts[a]
        here = {}
        for state, (cost, count) in forward[a].items():
            best = None
            ways = 0
            steps = []
            for o, stride, radix in moves:
                if stride and not state // stride % radix:
                    continue
                rest, through = below[state - stride]
                rest += rank[o]
                if best is None or rest < best:
                    best, ways, steps = rest, through, [(o, through)]
                elif rest == best:
                    ways += through
                    steps.append((o, through))
            here[state] = (best, ways)
            if cost + best == optimum:
                for o, through in steps:
                    row[o] += count * through
        below = here
    total = below[start][1]
    return [(row, total) for row in counts]


def optimal_path_states(market, ranks):
    """The states of the unpruned pass of :func:`forward_layers` that lie on
    an optimal path, after each agent boundary.

    Entry k maps the remaining capacities of the non-null types, in type
    order, of each state the first k agents can leave to its least prefix
    rank and prefix count, for the states from which the remaining agents
    can still reach the optimum: a backward pass over every move gives each
    state its least completion rank, and a state is on an optimal path when
    its least prefix rank plus that is the optimum.
    """
    start, moves, forward = forward_layers(market, ranks)
    optimum = min(cost for cost, _ in forward[-1].values())
    rest = dict.fromkeys(forward[-1], 0)
    kept = []
    for k in range(len(ranks), -1, -1):
        if k < len(ranks):
            rank = ranks[k]
            after, rest = rest, {}
            for state in forward[k]:
                least = None
                for o, stride, radix in moves:
                    if stride and not state // stride % radix:
                        continue
                    reach = rank[o] + after[state - stride]
                    if least is None or reach < least:
                        least = reach
                rest[state] = least
        kept.append({
            tuple(state // stride % radix for _, stride, radix in moves if stride): held
            for state, held in forward[k].items()
            if held[0] + rest[state] == optimum
        })
    return kept[::-1]


def per_agent_count_rows(market: Market, ranks: list[list[int]]) -> list[tuple[list[int], int]]:
    """Every agent's uniform row as integer counts over a total, from the
    agents' rank tables (:func:`rank_table`), one agent at a time.

    A counting forward-backward pass over agents in index order, on the
    mixed-radix layers of :func:`forward_layers`, where every agent may
    take every type with room.  The backward pass starts from the final
    states at the optimum, one completion each, and steps back only along
    tight moves, where the prefix rank plus the move's rank is the next
    state's prefix rank; it counts the optimal completions of each state
    it reaches.  So ``row[a][o]`` sums prefix count times completion count
    over agent ``a``'s tight moves to ``o``, over the number of optimal
    assignments.
    """
    start, moves, forward = forward_layers(market, ranks)
    optimum = min(cost for cost, _ in forward[-1].values())

    counts = [[0] * market.n_types for _ in ranks]
    below = {state: 1 for state, (cost, _) in forward[-1].items() if cost == optimum}
    for row, rank, prefixes, layer in reversed(list(zip(counts, ranks, forward, forward[1:]))):
        here: dict[int, int] = {}
        for after, ways in below.items():
            reach = layer[after][0]
            for o, stride, radix in moves:
                if stride and after // stride % radix == radix - 1:
                    continue
                state = after + stride
                held = prefixes.get(state)
                if held is not None and held[0] + rank[o] == reach:
                    row[o] += held[1] * ways
                    here[state] = here.get(state, 0) + ways
        below = here
    return [(row, below[start]) for row in counts]


class PerStateLayers:
    """The counted rows of ``classpairs._ClassRows`` without the shared walk,
    the truncation classes or the room-mask fold.

    Reveals and opponents are indices into ``orders``.  Each multiset runs a
    fresh forward pass over its opponents, and the row is read from every
    state of the last layer.
    """

    def __init__(self, market, orders):
        self.market = market
        self.ranks = [rank_table(order) for order in orders]
        self.first_with_room = [
            [
                next((o for o in order.ranking if mask >> o & 1), None)
                for mask in range(1 << market.n_types)
            ]
            for order in orders
        ]

    def ends(self, opponents):
        """Each state the opponents can leave, as (least prefix rank, prefix count, room mask)."""
        _, moves, forward = forward_layers(self.market, [self.ranks[i] for i in opponents])
        ends = []
        for state, (cost, count) in forward[-1].items():
            room = [o for o, stride, radix in moves if not stride or state // stride % radix]
            ends.append((cost, count, sum(1 << o for o in room)))
        return ends

    def row(self, ends, reveal):
        """The last agent's row as integer counts over the number of optimal assignments."""
        m = self.market.n_types
        rank = self.ranks[reveal]
        first_with_room = self.first_with_room[reveal]
        row = [0] * m
        best = None
        for cost, count, mask in ends:
            o = first_with_room[mask]
            reach = cost + rank[o]
            if best is None or reach < best:
                row = [0] * m
                best = reach
            if reach == best:
                row[o] += count
        return row, sum(row)


def line_by_line_parse_market_spec(text: str) -> tuple[Market, Profile]:
    """Parse a market file into a market plus the declared revealed profile.

    The parser as it was before identical ranking lines shared one order:
    every agent line splits, resolves and checks its own ranking, and a
    duplicate agent is found by scanning the agents declared so far.
    ``parse_market_spec`` must return an equal market and profile, and raise
    the same ``(code, line, message)``.
    """
    lines = text.splitlines()
    type_names: list[str] = []
    capacities: list[int] = []
    type_lines: list[int] = []
    null_type: int | None = None
    agent_decls: list[tuple[int, str, list[str]]] = []

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "type":
            _parse_type_line(lineno, tokens, type_names, capacities, type_lines)
            if len(tokens) == 5:
                if null_type is not None:
                    raise MarketSpecError(
                        "E_MULTI_NULL", lineno, "a second type carries the null marker"
                    )
                null_type = len(type_names) - 1
        elif tokens[0] == "agent":
            if len(tokens) < 4 or tokens[2] != "prefers":
                raise MarketSpecError(
                    "E_SYNTAX", lineno,
                    "expected: agent <name> prefers <type> > <type> > ...",
                )
            name = tokens[1]
            if any(name == existing for _, existing, _ in agent_decls):
                raise MarketSpecError(
                    "E_DUP_AGENT", lineno, f"agent {name!r} declared twice"
                )
            ranking_text = line.split(None, 3)[3]
            ranked = [part.strip() for part in ranking_text.split(">")]
            if any(not part for part in ranked):
                raise MarketSpecError(
                    "E_SYNTAX", lineno, "empty entry in the ranking list"
                )
            agent_decls.append((lineno, name, ranked))
        else:
            raise MarketSpecError(
                "E_SYNTAX", lineno, f"unknown declaration {tokens[0]!r}"
            )

    if null_type is None:
        raise MarketSpecError("E_NO_NULL", 0, "no type carries the null marker")
    if len(type_names) < 3:
        raise MarketSpecError(
            "E_MARKET_SIZE", 0, "a market needs at least three types"
        )
    if len(agent_decls) < 2:
        raise MarketSpecError(
            "E_MARKET_SIZE", 0, "a market needs at least two agents"
        )

    n_agents = len(agent_decls)
    for o, (lineno, q) in enumerate(zip(type_lines, capacities)):
        if o == null_type:
            if q < n_agents:
                raise MarketSpecError(
                    "E_CAPACITY_BOUNDS", lineno,
                    f"null capacity {q} must cover all {n_agents} agents",
                )
        elif q >= n_agents:
            raise MarketSpecError(
                "E_CAPACITY_BOUNDS", lineno,
                f"capacity {q} of {type_names[o]!r} must stay below the "
                f"agent count {n_agents}",
            )

    index = {name: o for o, name in enumerate(type_names)}
    agent_names = []
    orders = []
    for lineno, name, ranked in agent_decls:
        agent_names.append(name)
        seen = set()
        ranking = []
        for part in ranked:
            if part not in index:
                raise MarketSpecError(
                    "E_UNKNOWN_TYPE", lineno, f"ranking mentions undeclared type {part!r}"
                )
            if part in seen:
                raise MarketSpecError(
                    "E_RANKING_INCOMPLETE", lineno, f"type {part!r} ranked twice"
                )
            seen.add(part)
            ranking.append(index[part])
        if len(ranking) != len(type_names):
            missing = [t for t in type_names if t not in seen]
            raise MarketSpecError(
                "E_RANKING_INCOMPLETE", lineno,
                f"ranking omits {', '.join(repr(m) for m in missing)}",
            )
        orders.append(PreferenceOrder(tuple(ranking)))

    market = Market(
        agent_names=tuple(agent_names),
        type_names=tuple(type_names),
        capacities=tuple(capacities),
        null_type=null_type,
    )
    return market, Profile(tuple(orders))
