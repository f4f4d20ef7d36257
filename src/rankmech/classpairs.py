"""The class-pair engine: truncation classes, their rows and the decisions over pairs of them.

Every strategic claim here is decided by comparing the rows one agent gets
under two reveals, a truth and a candidate, across every profile of
opponent reveals.  Both mechanisms are anonymous and read no reveal below
its outside option, so that row depends only on the truncation class of the
reveal, two orders sharing a class when they rank the same types down to
and including the outside option, and on the multiset of the opponents'
classes.  (The outside option always has room, so no rank-minimizing
assignment seats an agent below it, and the crowd-out parse stops there
too.)  The engine works in those classes, in three parts:

- The class tables (:class:`_ClassRows`, built once per market and kept on
  it by :func:`class_rows`) are the one place that lists a market's orders.
  They read a row in integers from the forward pass of the counting pass
  over the opponents alone (``mechanisms.OpponentPass``, the only reader of
  its packed states), and from the crowd-out parse
  (``mechanisms.PatternTables``) over the class representatives.
- The clone certificates (:func:`_clone_failures`) compare each pair on its
  truth class's clones, n - 1 opponents all revealing it: the first group
  of the paper's separating profile (``strategy.adversarial_profile``).
- The walk (:func:`_walk_pairs`) seats the queried agent last, visits each
  multiset of opponent classes once, in sorted order, with multisets
  sharing a sorted prefix sharing that prefix's layers, and finds the first
  failing and first strict multiset of every pair.

Both compare rows along the same compared prefix of the truth
(:func:`_compared`).  Before either runs, one test (:func:`_tied`) sets
aside the pairs whose rows cannot differ there, under either mechanism: a
truth whose compared prefix is empty, and two classes sharing their
essential-equality key, a class with itself among them.  Such a pair ties,
weakly but not strictly dominating, with no witness; it is neither
certified nor walked, and no row is read for it.

Other modules reach the engine through three functions: :func:`class_rows`,
the class tables of a market (``sweeps``); :func:`decide`, the verdicts of
class pairs, kept on the tables per (mechanism, refusal) so that a later
sweep with the same key decides only the pairs not yet decided
(``sweeps``); and :func:`first_witnesses`, the first witnesses of pairs of
orders (``strategy``).  The first failing opponent profile in product order
is a sorted tuple of class representatives, the least lift of its class
multiset, so the witnesses are those of the full product.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .market import Market, PreferenceOrder, TypeIndex
from .mechanisms import Budget, OpponentPass, PatternTables, check_budget, get_mechanism

Witnesses = tuple[tuple[PreferenceOrder, ...] | None, tuple[PreferenceOrder, ...] | None]
Verdicts = dict[tuple[int, int], tuple[bool, bool]]


class _ClassRows:
    """A market's class tables: the row of an agent against opponents, in
    truncation class indices.

    Nothing here depends on the mechanism, so one object serves every sweep
    and dominance walk on a market (:func:`class_rows`); whether the
    crowd-out parse is consulted is the caller's choice, per call of
    :meth:`row`.  ``orders`` is ``market.all_orders()``, ``class_of`` maps
    every order's ranking to its class, ``classes`` lists each class's
    representative, its least order, numbered in the order of their
    representatives, ``size`` the number of orders in each class, and
    ``key`` each class's top ranks down to its capacity threshold, which is
    never below the outside option: two orders are essentially equal
    exactly when their classes' keys are equal.  ``layers`` steps the
    opponents of a multiset and gives its ``ends``
    (``mechanisms.OpponentPass``); :meth:`ends_with` gives those of one
    multiset with each of several classes added, stepping the layer over
    it once.  ``clones`` keeps, per class, the multiset of n - 1 opponents
    all revealing it, its ``ends`` and the
    unparsed rows read against it (:meth:`clone`), and ``verdicts`` the
    verdicts of every class pair decided so far, per (mechanism, refusal)
    (:func:`decide`): each at most classes squared entries, in at most four
    verdict tables.  ``tables`` holds the crowd-out parse over the classes
    (``mechanisms.PatternTables``).  No table refers to the market, so a
    market keeping them is still freed by reference counting.
    """

    def __init__(self, market: Market):
        self.n_types = market.n_types
        self.orders = market.all_orders()
        self.class_of: dict[tuple[TypeIndex, ...], int] = {}
        self.classes: list[PreferenceOrder] = []
        self.size: list[int] = []
        first: dict[tuple[TypeIndex, ...], int] = {}
        for order in self.orders:
            c = first.setdefault(order.top(order.rank(market.null_type)), len(self.classes))
            if c == len(self.classes):
                self.classes.append(order)
                self.size.append(0)
            self.size[c] += 1
            self.class_of[order.ranking] = c
        self.key = [order.top(market.capacity_threshold_rank(order)) for order in self.classes]
        # first_with_room[c][mask]: class c's best type among those whose bit
        # is set; each type, worst first, overwrites the masks holding it
        self.first_with_room = []
        for order in self.classes:
            table = [None] * (1 << market.n_types)
            for o in reversed(order.ranking):
                table = [o if mask >> o & 1 else t for mask, t in enumerate(table)]
            self.first_with_room.append(table)
        self.layers = OpponentPass(market, [rep.ranks for rep in self.classes])
        self.tables = PatternTables(market, self.classes)
        self.clones: list[tuple[tuple[int, ...], list, dict] | None] = [None] * len(self.classes)
        self.verdicts: dict[tuple[str, bool], Verdicts] = {}

    def walk(self, k: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
        """Every multiset of ``k`` opponent classes, ``k`` at least 1, with its ``ends``.

        The multisets come as sorted tuples in ``combinations_with_replacement``
        order.  They are the leaves of a trie over their sorted prefixes, and
        the walk keeps one forward layer per proper prefix on a stack, so each
        inner trie node costs one step of the counting pass; nothing recurses.
        A leaf's last opponent is not stepped into a layer: ``layers.fold``
        takes its moves straight into the room masks.
        """
        layers = self.layers
        top = len(self.classes) - 1
        combo = [0] * k
        stack = [layers.start]
        while True:
            for c in combo[len(stack) - 1 : -1]:
                stack.append(layers.step(stack[-1], c))
            yield tuple(combo), layers.fold(stack[-1], combo[-1])
            i = k - 1
            while i >= 0 and combo[i] == top:
                i -= 1
            if i < 0:
                return
            combo[i:] = [combo[i] + 1] * (k - i)
            del stack[i + 1 :]

    def ends_with(
        self, rest: Iterable[int], extras: Iterable[int]
    ) -> dict[int, list[tuple[int, int, int]]]:
        """The ``ends`` of the opponent classes ``rest``, given in any order,
        with one class of ``extras`` added, by that class: the forward layer
        over ``rest`` is stepped once and folded with each extra."""
        layer = self.layers.start
        for c in rest:
            layer = self.layers.step(layer, c)
        return {c: self.layers.fold(layer, c) for c in extras}

    def clone(self, c: int) -> tuple[tuple[int, ...], list[tuple[int, int, int]], dict]:
        """The multiset of n - 1 opponents all revealing class ``c``, with
        its ``ends``, and the rows :meth:`clone_row` has read against it,
        built on first use."""
        held = self.clones[c]
        if held is None:
            combo = (c,) * (self.tables.n_agents - 1)
            held = self.clones[c] = combo, self.ends_with(combo[1:], (c,))[c], {}
        return held

    def clone_row(self, c: int, reveal: int) -> tuple[list[int], int]:
        """The row of the agent revealing class ``reveal`` against class
        ``c``'s clones, the crowd-out parse not consulted, kept once read:
        every caller reads the one row, and none changes it."""
        combo, ends, rows = self.clone(c)
        row = rows.get(reveal)
        if row is None:
            row = rows[reveal] = self.row(ends, combo, reveal, False)
        return row

    def row(
        self,
        ends: list[tuple[int, int, int]],
        opponents: Sequence[int],
        reveal: int,
        parse: bool,
    ) -> tuple[list[int], int]:
        """The row of the agent revealing class ``reveal`` against ``opponents``.

        ``ends`` must be the ``ends`` of ``opponents``.  The row is integer
        counts over a total.  With ``parse`` on (the modified mechanism),
        when ``(reveal, *opponents)`` parses as the crowd-out pattern it is
        the override row.  Otherwise it is counted over the number of
        optimal assignments: in each room mask the agent's best move is its
        best type with room.
        """
        if parse:
            profile = (reveal, *opponents)
            pattern = self.tables.parse(profile)
            if pattern is not None:
                return self.tables.override_row(profile, pattern, 0)
        m = self.n_types
        rank = self.classes[reveal].ranks
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


def class_rows(market: Market, budget: Budget) -> _ClassRows:
    """The class tables of ``market``, built on first use and kept on it;
    ``sweeps`` reads them, as :func:`first_witnesses` does here.

    The budget is checked on every call, before the tables are built or
    returned: building them lists every order.
    """
    check_budget(market, budget)
    if market._class_rows is None:
        object.__setattr__(market, "_class_rows", _ClassRows(market))
    return market._class_rows


def first_witnesses(
    market: Market,
    mechanism: str,
    refusal: bool,
    pairs: Iterable[tuple[PreferenceOrder, PreferenceOrder]],
    budget: Budget,
) -> dict[tuple[PreferenceOrder, PreferenceOrder], Witnesses]:
    """First failing and first strict opponent multiset of every (truth,
    candidate); ``strategy.dominance_verdicts`` reads them.

    The queried agent's row does not depend on which agent it is, nor on the
    order of its opponents, nor on any reveal below its outside option.  So
    pairs with one (truth class, candidate class) share one entry of the
    class-pair walk (:func:`_walk_pairs`), which runs until both witnesses
    of every entry are found.  A pair whose rows cannot differ where they
    are compared, under either mechanism (:func:`_tied`), is not walked and
    has no witness, as a full walk would leave it.  Replacing each reveal
    of a failing opponent tuple by its class representative and sorting
    gives a failing tuple no later in product order, since a representative
    is the least order of its class: the first failing tuple of the product
    is a sorted tuple of representatives, and the walk meets it first.  The
    same holds for the first strict tuple.  The orders are not checked
    here; ``strategy.dominance_verdicts`` checks them.
    """
    get_mechanism(mechanism)
    source = class_rows(market, budget)
    class_of, classes = source.class_of, source.classes
    keys = {pair: (class_of[pair[0].ranking], class_of[pair[1].ranking]) for pair in pairs}
    tied = _tied(source, refusal, keys.values())
    found = _walk_pairs(source, mechanism, refusal, set(keys.values()) - tied)

    def orders(combo: tuple[int, ...] | None) -> tuple[PreferenceOrder, ...] | None:
        return None if combo is None else tuple(classes[c] for c in combo)

    return {pair: tuple(map(orders, found.get(key, (None, None)))) for pair, key in keys.items()}


def decide(
    source: _ClassRows, mechanism: str, refusal: bool, pairs: Iterable[tuple[int, int]]
) -> Verdicts:
    """Whether each (truth class, candidate class) weakly and strictly
    dominates; the dominance sweeps of ``sweeps`` read these verdicts.

    The verdicts are kept on the class tables, one table per (mechanism,
    refusal), which the call returns.  Of the pairs not yet decided, those
    whose rows cannot differ where they are compared, under either
    mechanism (:func:`_tied`), tie, weakly but not strictly dominating.
    Each other pair is first compared on its truth class's clones
    (:func:`_clone_failures`); a pair failing there fails, neither weakly
    nor strictly dominating, as the walk would find.  Only the pairs left
    are walked together (:func:`_walk_pairs`), and the table is written
    only once that walk has finished, so a comparison that raises, on the
    clones or in the walk, leaves none of the verdicts behind.
    """
    get_mechanism(mechanism)
    table = source.verdicts.setdefault((mechanism, refusal), {})
    undecided = {pair for pair in pairs if pair not in table}
    if undecided:
        tied = _tied(source, refusal, undecided)
        failing = _clone_failures(source, mechanism, refusal, undecided - tied)
        found = _walk_pairs(source, mechanism, refusal, undecided - tied - failing)
        table.update(dict.fromkeys(tied, (True, False)))
        table.update(dict.fromkeys(failing, (False, False)))
        table.update(
            (pair, (failure is None, failure is None and strict is not None))
            for pair, (failure, strict) in found.items()
        )
    return table


def _tied(source: _ClassRows, refusal: bool,
          pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """The pairs (truth class ``t``, candidate class ``c``) of ``pairs``
    whose rows cannot differ along the compared prefix (:func:`_compared`)
    under either mechanism, so that they tie at every opponent multiset;
    :func:`decide` and :func:`first_witnesses` set them aside before the
    clones and the walk.  One set is built per call, so the test costs
    little per pair.

    - Refusal is on and ``t`` ranks its outside option first: the compared
      prefix is empty, so nothing can differ on it.
    - ``t`` and ``c`` share their key (:attr:`_ClassRows.key`), as a class
      shares its own.  For distinct classes, let k be the key's length.
      Its types seat all n agents, so it holds no outside option, or it
      would fix the class: k is less than both outside-option ranks, and
      2 <= k, since a scarce type seats fewer than n.  So neither reveal
      can be a competitor of the crowd-out parse, whose types above its
      outside option seat fewer than n, nor a bystander, which ranks its
      outside option first: the agent parses only as the special agent.
      A competitor's level is at most k, so ``PatternTables._role`` gives
      every class the same role against ``t`` as against ``c``, with the
      same focal type and the same override row, since ``ranking[1]`` lies
      inside the key.  A parse with ``t`` as the special agent therefore
      implies a parse with ``c``, and the other way round.  Otherwise both
      rows are read without the parse (:meth:`_ClassRows.row`): in each
      room mask the agent takes its reveal's first type with room, and
      since the n - 1 opponents cannot fill the key's types, that type
      lies inside the key, at the same rank for both.
    """
    null_rank, key = source.tables.null_rank, source.key
    return {(t, c) for t, c in pairs if key[t] == key[c] or refusal and null_rank[t] == 1}


def _compared(source: _ClassRows, t: int, refusal: bool) -> tuple[TypeIndex, ...]:
    """The types, best first, along which rows are compared for truth class
    ``t``: its ranking down to its outside option, inclusive without
    refusal and exclusive with it (:func:`_walk_pairs` says why)."""
    null_rank = source.tables.null_rank[t]
    return source.classes[t].ranking[: null_rank - 1 if refusal else null_rank]


def _clone_failures(
    source: _ClassRows, mechanism: str, refusal: bool, pairs: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """The pairs of distinct classes (truth class, candidate class) whose
    comparison fails on the truth class's clones, the multiset of n - 1
    opponents all revealing it (:meth:`_ClassRows.clone`).

    On every market of three or more agents measured, every pair that fails
    anywhere fails there, and a pair that fails there need not be walked;
    the pairs left, failing or not, are decided by the walk, so this stage
    changes no verdict, only the work.  The rows are those the walk reads on
    that multiset, one ``ends`` and one truth row per truth class and one
    row per candidate, and they are compared by the walk's cumulative
    cross-multiplication along the truth's compared prefix, so a failure
    found here is one the walk finds; only whether the pair fails is read.
    The rows that no crowd-out parse can override are read through
    :meth:`_ClassRows.clone_row`, which keeps them for every key.  The
    pairs whose rows cannot differ (:func:`_tied`) are not handed here.
    """
    parse = mechanism == "modified"
    null_rank = source.tables.null_rank
    by_truth: dict[int, list[int]] = {}
    for t, c in pairs:
        by_truth.setdefault(t, []).append(c)
    failing = set()
    for t, candidates in by_truth.items():
        prefix = _compared(source, t, refusal)
        combo, ends, _ = source.clone(t)
        low, high = source.tables.unparsed(combo) if parse else (1, source.n_types)
        # n agents revealing t have no lone deepest outside option, so no parse
        truth_row, truth_total = source.clone_row(t, t)
        for c in candidates:
            if low <= null_rank[c] <= high:
                candidate_row, candidate_total = source.clone_row(t, c)
            else:
                candidate_row, candidate_total = source.row(ends, combo, c, True)
            cum_truth = cum_candidate = 0
            for o in prefix:
                cum_truth += truth_row[o]
                cum_candidate += candidate_row[o]
                if cum_candidate * truth_total < cum_truth * candidate_total:
                    failing.add((t, c))
                    break
    return failing


def _walk_pairs(
    source: _ClassRows,
    mechanism: str,
    refusal: bool,
    pairs: Iterable[tuple[int, int]],
) -> dict[tuple[int, int], list[tuple[int, ...] | None]]:
    """First failing and first strict opponent class multiset of every pair
    (truth class, candidate class) handed in.

    The queried agent is seated last and the opponents are walked as sorted
    tuples of truncation classes (:meth:`_ClassRows.walk`).  For each
    multiset the last agent's row under each needed class is read once, in
    integers, from the class tables, which also give the modified
    mechanism's override row where the profile parses as the crowd-out
    pattern; the parse is tried only for the reveals that the tables' parse
    (``tables.unparsed``) does not rule out for the multiset.  Rows are
    compared by cross-multiplying cumulative sums along the truth's ranking
    down to its outside option (:func:`_compared`), which depends on the
    truth's class only, so the ranks compared are read from the class
    representative.  Refusal moves everything from the truth's outside
    option down onto it, so every cumulative sum from there on equals the
    total: with refusal on the comparison stops just above the outside
    option.  Without refusal it stops at the outside option, inclusive: a
    row carries no mass below its reveal's outside option, so there the
    truth's sum is its total T_t, and from there on the gap is T_t times
    the candidate's sum less its total.  That is never positive and never
    falls, so if it is negative at the outside option the comparison has
    already failed there, and if it is zero it stays zero: no later rank
    changes either verdict.

    Every pair handed here is an open entry of the walk; the pairs whose
    rows cannot differ (:func:`_tied`) are not handed here, and the rows of
    a class are read only where an open pair needs them.  An entry closes
    once both of its witnesses are found, and the walk ends once no entry
    is open, so both witnesses of every pair are those of a walk over that
    pair alone, whatever pairs are walked with it.
    """
    parse = mechanism == "modified"
    m = source.n_types
    null_rank = source.tables.null_rank
    found = {pair: [None, None] for pair in pairs}
    open_pairs = [(t, c, _compared(source, t, refusal), slot) for (t, c), slot in found.items()]
    needed = {r for t, c, _, _ in open_pairs for r in (t, c)}
    for combo, ends in source.walk(source.tables.n_agents - 1) if open_pairs else ():
        # every outside-option rank lies in 1..m, so no reveal parses under uniform
        low, high = source.tables.unparsed(combo) if parse else (1, m)
        rows = {r: source.row(ends, combo, r, not low <= null_rank[r] <= high) for r in needed}
        closed = False
        for t, c, prefix, slot in open_pairs:
            truth_row, truth_total = rows[t]
            candidate_row, candidate_total = rows[c]
            weak = True
            strict = False
            cum_truth = cum_candidate = 0
            for o in prefix:
                cum_truth += truth_row[o]
                cum_candidate += candidate_row[o]
                gap = cum_candidate * truth_total - cum_truth * candidate_total
                if gap < 0:
                    weak = False
                    break
                if gap > 0:
                    strict = True
            if not weak:
                if slot[0] is None:
                    slot[0] = combo
                    closed = closed or slot[1] is not None
            elif strict and slot[1] is None:
                slot[1] = combo
                closed = closed or slot[0] is not None
        if closed:
            open_pairs = [entry for entry in open_pairs if None in entry[3]]
            if not open_pairs:
                break
            needed = {r for t, c, _, _ in open_pairs for r in (t, c)}
    return found
