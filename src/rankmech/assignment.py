"""Random assignments as exact rational matrices, plus the operations on them.

Everything here is exact: no tolerance appears anywhere.  Matrices are
indexed ``[agent][type]`` in the market's declaration order.  An
``Assignment`` is one integer matrix over one common denominator ``D``,
every entry being ``counts[a][o] / D``.  It is validated against its market
once, when it is made, and kept in lowest terms, its counts as tuples of
plain ints; the checks and the reduction run as whole-row passes of
built-ins.  Refusal, rank values, the waste scan (linear in the matrix) and
``decompose`` read the integers; the ``Fraction`` rows are derived on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Sequence

from .errors import DomainError
from .market import AgentIndex, Market, PreferenceOrder, Profile, TypeIndex, check_profile

ZERO = Fraction(0)


@dataclass(frozen=True)
class Assignment:
    """A random assignment: the matrix ``counts / denominator``, one row per
    agent over all types, validated against ``market``.

    Making one checks, D being ``denominator``, that D is a positive int,
    there is one row per agent, every row holds one int per type, every
    entry lies in [0, D], every row sums to D and every column to at most
    its capacity times D, and raises DomainError otherwise.  Past the row
    count, a row that is not a sequence or a count that is not an int is
    named in place of any other check's text, the first one in row order.
    It then divides D and every count by their gcd, and stores the counts
    as tuples of plain ints, so a bool count becomes the int it equals.  In
    lowest terms D is the lcm of the entries' denominators, so two
    assignments are equal, and hash alike, exactly when their ``Fraction``
    rows are.  ``market`` takes no part in ``==``, ``hash`` or ``repr``.
    """

    market: Market = field(repr=False, compare=False)
    denominator: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        market, denominator, counts = self.market, self.denominator, self.counts
        if not isinstance(denominator, int) or denominator < 1:
            raise DomainError(f"denominator must be a positive int, got {denominator!r}")
        if len(counts) != market.n_agents:
            raise DomainError(f"expected {market.n_agents} rows, got {len(counts)}")
        n_types = len(market.type_names)
        try:
            for a, row in enumerate(counts):
                if len(row) != n_types:
                    raise DomainError(
                        f"row {market.agent_names[a]} has {len(row)} entries, "
                        f"expected {n_types}"
                    )
                if min(row) < 0 or max(row) > denominator:
                    o, c = next((o, c) for o, c in enumerate(row) if not 0 <= c <= denominator)
                    raise DomainError(
                        f"probability {Fraction(c, denominator)} for ({market.agent_names[a]}, "
                        f"{market.type_names[o]}) is outside [0, 1]"
                    )
                if sum(row) != denominator:
                    raise DomainError(f"row {market.agent_names[a]} does not sum to 1")
            for o, (capacity, total) in enumerate(zip(market.capacities, map(sum, zip(*counts)))):
                if total > capacity * denominator:
                    raise DomainError(
                        f"column {market.type_names[o]} sums to {Fraction(total, denominator)}, "
                        f"exceeding capacity {capacity}"
                    )
            common = gcd(denominator, *chain.from_iterable(counts))  # TypeError on a count that is not an int
        except (TypeError, DomainError):
            problem = _not_an_int(market, counts)
            if problem is None:
                raise
            raise DomainError(problem) from None
        if common == 1:
            counts = tuple(map(tuple, counts))
            if bool in set(map(type, chain.from_iterable(counts))):
                counts = tuple(tuple(map(int, row)) for row in counts)
        else:
            object.__setattr__(self, "denominator", denominator // common)
            counts = tuple([tuple([c // common for c in row]) for row in counts])
        object.__setattr__(self, "counts", counts)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.row, range(len(self.counts))))

    def row(self, agent: AgentIndex) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.counts[agent])

    def entry(self, agent: AgentIndex, o: TypeIndex) -> Fraction:
        return Fraction(self.counts[agent][o], self.denominator)

    def column_sum(self, o: TypeIndex) -> Fraction:
        return Fraction(sum(row[o] for row in self.counts), self.denominator)


def _not_an_int(market: Market, counts) -> str | None:
    """The text naming the first row of ``counts`` that is not a sequence,
    or else the first count that is not an int; None when there is neither."""
    for name, row in zip(market.agent_names, counts):
        if not (hasattr(row, "__len__") and hasattr(row, "__iter__")):
            return f"row {name} is not a sequence of counts, got {row!r}"
        for type_name, c in zip(market.type_names, row):
            if not isinstance(c, int):
                return f"count {c!r} for ({name}, {type_name}) is not an int"
    return None


def build_assignment(market: Market, rows) -> Assignment:
    """Validate ``rows`` against ``market`` and wrap them as an Assignment.

    This is the entry point for untrusted rows: each entry is read as a
    ``Fraction``, and the rows become counts over ``D``, the lcm of every
    entry's denominator.  Raises DomainError when the shape is off, an entry
    leaves [0, 1], a row does not sum to one or a column exceeds its
    capacity.
    """
    rows = tuple(
        tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows
    )
    denominator = lcm(*(v.denominator for row in rows for v in row))
    counts = [[v.numerator * (denominator // v.denominator) for v in row] for row in rows]
    return Assignment(market, denominator, counts)


def _scaled(market: Market, x: Assignment) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``x``'s ``(D, counts)``, validated again when ``x`` was made for
    another market."""
    if not (x.market is market or x.market == market):
        x = Assignment(market, x.denominator, x.counts)
    return x.denominator, x.counts


@dataclass(frozen=True)
class DeterministicAssignment:
    """An assignment placing each agent on exactly one type."""

    choices: tuple[TypeIndex, ...]

    def respects_capacities(self, market: Market) -> bool:
        for o in range(market.n_types):
            if self.choices.count(o) > market.capacities[o]:
                return False
        return True


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of deterministic assignments."""

    parts: tuple[tuple[Fraction, DeterministicAssignment], ...]

    def recombine(self, market: Market) -> Assignment:
        rows = [[ZERO] * market.n_types for _ in range(market.n_agents)]
        for weight, det in self.parts:
            for a, choice in enumerate(det.choices):
                rows[a][choice] += weight
        return build_assignment(market, rows)


def rank_value(x: Assignment, profile: Profile) -> Fraction:
    """Expected total rank of ``x`` under the revealed ``profile``: the sum of
    rank times count over the matrix, over D."""
    if len(x.counts) != len(profile):
        raise DomainError("assignment and profile disagree on the number of agents")
    total = 0
    for row, order in zip(x.counts, profile.orders):
        if len(row) != len(order):
            raise DomainError("assignment and profile disagree on the number of types")
        total += sum(rank * c for rank, c in zip(order.ranks, row))
    return Fraction(total, x.denominator)


def deterministic_rank_value(det: DeterministicAssignment, profile: Profile) -> int:
    return sum(profile[a].rank(o) for a, o in enumerate(det.choices))


def wastefulness_witness(
    market: Market, x: Assignment, profile: Profile
) -> tuple[AgentIndex, TypeIndex, TypeIndex] | None:
    """First (agent, preferred, held) triple proving waste, or None.

    Waste means some agent holds probability on a type while a type they rank
    strictly higher still has slack capacity.  The witness is the
    lexicographically first such triple: least agent, then least preferred
    type, then least held type.  Slack and holdings are read from ``x``'s
    counts over D: a column has slack when it sums to less than its capacity
    times D.
    """
    check_profile(market, profile)
    return _first_waste(market, *_scaled(market, x), profile.orders)


def _first_waste(
    market: Market, denominator: int, counts, orders: Sequence[PreferenceOrder]
) -> tuple[AgentIndex, TypeIndex, TypeIndex] | None:
    """:func:`wastefulness_witness` on the integer matrix ``counts / denominator``,
    agent a ranking types by ``orders[a]``; nothing is validated, but every
    row must hold a positive count, as every row summing to D does.

    The scan is O(n·m) for n agents and m types.  An agent is wasteful
    exactly when some slack type ranks above the worst type it holds, so
    the first wasteful agent's preferred type is its first slack type, by
    index, ranked above that worst type, and the held type is the first
    type, by index, that it holds and ranks below the preferred one.
    """
    slack = [
        o
        for o, (capacity, total) in enumerate(zip(market.capacities, map(sum, zip(*counts))))
        if total < capacity * denominator
    ]
    for a, (order, row) in enumerate(zip(orders, counts)):
        ranks = order.ranks
        worst = max(compress(ranks, row))
        for o in slack:
            if ranks[o] < worst:
                preferred = ranks[o]
                for held, c in enumerate(row):
                    if c and ranks[held] > preferred:  # the worst held type is one
                        break
                return (a, o, held)
    return None


def is_wasteful(market: Market, x: Assignment, profile: Profile) -> bool:
    return wastefulness_witness(market, x, profile) is not None


def decompose(market: Market, x: Assignment) -> Decomposition:
    """Write ``x`` as a convex combination of deterministic assignments.

    The assignment polytope here has unit demands and per-type capacities, so
    the classic bistochastic argument applies after splitting each type into
    unit-capacity copies and padding with dummy agents (Budish, Che, Kojima
    and Milgrom 2013).  A type whose column sums to s gets ⌈s⌉ copies, and a
    type nobody holds gets none.  The agents fill a type's copies in agent
    order: each agent's mass on the type goes into the current copy until
    that copy holds one unit, and the rest spills into the next.  Since
    ``x`` is feasible and capacities are integers, ⌈s⌉ is at most the
    type's capacity, so no projected seating overfills a type.  The copies
    number at most n + m - 1 (n agents, m types), so the cost is bounded in
    n and m however large the capacities are.  Each extraction step finds a
    perfect matching over the positive entries (one always exists for
    a matrix with equal row and column sums) and subtracts the largest weight
    that keeps the remainder nonnegative, zeroing at least one entry, so the
    loop terminates.  Projecting matched copies back to their types yields
    deterministic assignments that respect every capacity, and the weights
    recombine to ``x`` exactly.

    The work is done in integers over ``x``'s denominator ``D`` (``x`` is
    validated again when it was made for another market); a copy count is
    read from the counts as the column sum over ``D``, rounded up.  Each row
    of the unit-copy matrix holds only its positive entries, as a map from
    copy to count: a real agent's row is filled as above, and the dummy
    agents, one unit each, then fill the room the copies have left over all
    copies in order, the same way.  Entries and weights are ``D`` times
    their rational values.  Each row also keeps its copies as a bit mask,
    read from its keys; when an entry reaches zero it is deleted and its
    bit cleared.  The matching is kept from one step to the next: the first
    step runs Kuhn's augmenting-path matching over the masks from an empty
    matching, and each later step unmatches only the rows whose matched
    entry reached zero and re-augments them in ascending order, with an
    explicit stack instead of recursion.  Every other matched entry is
    still positive, so the kept pairs stay valid.  The parts are the ones the
    same warm-started algorithm gives over ``Fraction`` entries (the oracle in
    the tests): at every step the integer matrix is an exact multiple of the
    rational one, so it has the same positive support, hence the same
    matching, the same minimum weight up to that factor, and the same
    projected seating.  Weights come out as ``Fraction(w, D)``, sorted by
    seating.
    """
    denominator, counts = _scaled(market, x)  # malformed input is a domain error
    n_real = market.n_agents
    copy_type: list[TypeIndex] = []
    current = []  # each type's copy being filled
    for o, column in enumerate(zip(*counts)):
        current.append(len(copy_type))
        copy_type.extend([o] * -(-sum(column) // denominator))
    n_copies = len(copy_type)

    # Real agents fill each type's copies in agent order, then dummy agents,
    # one unit each, fill the room left over all copies in order, as if on
    # one type whose copies are all the copies: an entry goes into its
    # current copy, and what that copy has no room for spills into the next.
    # Each row keeps its positive entries only.
    room = [denominator] * n_copies
    rows: list[dict[int, int]] = []
    dummy = [0]  # the dummy agents' current copy
    supplies = [(current, row) for row in counts]
    supplies += [(dummy, [denominator])] * (n_copies - n_real)
    for cursor, row in supplies:
        entries = {}
        for o, need in enumerate(row):
            while need:
                c = cursor[o]
                space = room[c]
                if need < space:
                    entries[c] = need
                    room[c] = space - need
                    break
                if space:  # only a dummy meets a copy the real agents filled
                    entries[c] = space
                    room[c] = 0
                    need -= space
                cursor[o] = c + 1
        rows.append(entries)
    positive = [sum(1 << c for c in row) for row in rows]

    col_of_row = [-1] * n_copies
    row_of_col = [-1] * n_copies
    free = (1 << n_copies) - 1
    roots = list(range(n_copies))
    weights: dict[tuple[TypeIndex, ...], int] = {}
    remaining = denominator
    while remaining > 0:
        _complete_matching(positive, col_of_row, row_of_col, free, roots)
        weight = min(map(dict.__getitem__, rows, col_of_row))
        assert weight > 0
        # Read the seating before the zeroed rows give up their columns.
        choices = tuple(map(copy_type.__getitem__, col_of_row[:n_real]))
        weights[choices] = weights.get(choices, 0) + weight
        remaining -= weight
        free = 0
        roots = []
        for r, (row, c) in enumerate(zip(rows, col_of_row)):
            left = row[c] - weight
            if left:
                row[c] = left
            else:
                del row[c]
                bit = 1 << c
                positive[r] ^= bit
                free |= bit
                row_of_col[c] = -1
                col_of_row[r] = -1
                roots.append(r)

    parts = tuple(
        (Fraction(weights[choices], denominator), DeterministicAssignment(choices))
        for choices in sorted(weights)
    )
    return Decomposition(parts)


def _complete_matching(
    positive: list[int], col_of_row: list[int], row_of_col: list[int], free: int, roots
) -> None:
    """Complete a partial matching to a perfect one by Kuhn's augmenting paths.

    Bit c of ``positive[r]`` is set when row r may take column c.
    ``col_of_row`` and ``row_of_col`` hold the partial matching (-1 where
    unmatched) and are updated in place; bit c of ``free`` is set while
    column c is unmatched, and ``roots`` lists the unmatched rows, searched
    in that order.  From an empty matching with every row as a root this is
    Kuhn's algorithm.  From any partial matching each unmatched row has an
    augmenting path whenever a perfect matching exists (its alternating path
    through the symmetric difference with that perfect matching), and
    flipping a path keeps every matched row matched, so every root succeeds.

    Each row's search takes its columns in ascending order, skipping columns
    already seen in this search and descending into a taken column's row,
    exactly as the recursive form does, so it returns the same matching.  A
    row's next column is the lowest set bit of its mask among the unseen
    columns: every lower column of that row is already seen, so this is the
    column an ascending scan would accept next.  A root whose lowest column
    is free takes it without a search.  The path lives on an explicit stack
    of rows, so its depth is not bounded by the interpreter's recursion
    limit.  Each row on it left through the column the next row holds, so
    flipping the path hands every row its successor's column.
    """
    every = (1 << len(positive)) - 1
    for root in roots:
        columns = positive[root]
        bit = columns & -columns
        if bit & free:
            free ^= bit
            c = bit.bit_length() - 1
            row_of_col[c] = root
            col_of_row[root] = c
            continue
        r = root
        unseen = every
        path: list[int] = []  # the rows above r
        while True:
            options = positive[r] & unseen
            if not options:  # dead end: back up to the previous row
                if not path:
                    raise AssertionError(
                        "no perfect matching; matrix row/column sums are unequal"
                    )
                r = path.pop()
                continue
            bit = options & -options
            unseen ^= bit
            c = bit.bit_length() - 1
            if bit & free:  # free column: flip the path
                free ^= bit
                path.append(r)
                for r in reversed(path):
                    row_of_col[c] = r
                    col_of_row[r], c = c, col_of_row[r]
                break
            path.append(r)
            r = row_of_col[c]


def render_matrix(market: Market, x: Assignment) -> str:
    """Aligned text grid: agents as rows, types as columns, fractions in lowest terms."""
    header = [""] + list(market.type_names)
    body = [
        [market.agent_names[a]] + [str(x.entry(a, o)) for o in range(market.n_types)]
        for a in range(market.n_agents)
    ]
    widths = [
        max(len(line[col]) for line in [header] + body)
        for col in range(len(header))
    ]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines)


def csv_rows(market: Market, x: Assignment) -> list[tuple[str, str, str]]:
    """Rows for CSV export: (agent, type, probability as a fraction string)."""
    out = []
    for a in range(market.n_agents):
        for o in range(market.n_types):
            out.append(
                (market.agent_names[a], market.type_names[o], str(x.entry(a, o)))
            )
    return out
