"""Markets, strict preference orders and revealed profiles.

A market couples a set of agents with a set of object types.  Exactly one
type is the outside option: it is never scarce (its capacity is at least the
number of agents) while every other type is scarce by assumption (capacity
strictly below the number of agents).  Agents and types are addressed by
dense integer indices; display names are carried along for reporting only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError

AgentIndex = int
TypeIndex = int


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict ranking of every object type, best first.

    ``ranking[k]`` is the type index holding rank ``k + 1``.  Ranks are
    1-based throughout so that "rank 1" means first best.  An order is
    validated once, when it is built, in the same pass that fills its rank
    table, ``ranks[o]`` being the rank of type ``o``: an entry that is not
    an int, is out of range or repeats raises ``DomainError`` (a bool counts
    as the int it equals).  The table takes no part in ``==``, ``hash`` or
    ``repr``, which the dataclass derives from ``ranking`` alone.
    """

    ranking: tuple[TypeIndex, ...]
    ranks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.ranking)
        ranks = [0] * n
        for k, o in enumerate(self.ranking, start=1):
            if not isinstance(o, int) or not 0 <= o < n or ranks[o]:
                raise DomainError(
                    f"ranking must be a permutation of 0..{n - 1}, got {self.ranking!r}"
                )
            ranks[o] = k
        object.__setattr__(self, "ranks", tuple(ranks))

    def rank(self, o: TypeIndex) -> int:
        """1-based rank of type ``o`` under this order."""
        if isinstance(o, int) and 0 <= o < len(self.ranks):
            return self.ranks[o]
        raise DomainError(f"type index {o} not ranked by {self.ranking!r}")

    def top(self, k: int) -> tuple[TypeIndex, ...]:
        """The ``k`` best types, best first."""
        return self.ranking[:k]

    def __len__(self) -> int:
        return len(self.ranking)


@dataclass(frozen=True)
class Market:
    """Agents, object types and capacities, with one designated outside option.

    Invariants enforced at construction:
      - at least two agents and at least three types (outside option included);
      - every capacity and the outside option's index are ints (a bool
        counts as the int it equals);
      - the outside option's capacity is at least the number of agents;
      - every other capacity q satisfies 1 <= q < number of agents.

    A market keeps, privately, the class tables ``classpairs.class_rows``
    builds on first use, which every sweep and dominance walk on the market
    then shares.  They list the market's orders once, and keep every
    class-pair verdict a sweep's walk has decided, one table per (mechanism,
    refusal), so a later sweep on the market walks only the pairs not yet
    decided.  They take no part in ``==``, ``hash`` or ``repr``, and hold no
    reference back to the market.
    """

    agent_names: tuple[str, ...]
    type_names: tuple[str, ...]
    capacities: tuple[int, ...]
    null_type: TypeIndex
    _class_rows: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.agent_names) < 2:
            raise DomainError("a market needs at least two agents")
        if len(self.type_names) < 3:
            raise DomainError("a market needs at least three types, outside option included")
        if len(self.capacities) != len(self.type_names):
            raise DomainError("one capacity per type is required")
        if len(set(self.agent_names)) != len(self.agent_names):
            raise DomainError("agent names must be distinct")
        if len(set(self.type_names)) != len(self.type_names):
            raise DomainError("type names must be distinct")
        if not isinstance(self.null_type, int):
            raise DomainError(f"null_type must be an int, got {self.null_type!r}")
        for name, q in zip(self.type_names, self.capacities):
            if not isinstance(q, int):
                raise DomainError(f"capacity of {name} must be an int, got {q!r}")
        if not 0 <= self.null_type < len(self.type_names):
            raise DomainError("null_type must index a declared type")
        n = len(self.agent_names)
        for o, q in enumerate(self.capacities):
            if o == self.null_type:
                if q < n:
                    raise DomainError(
                        f"outside option capacity {q} must cover all {n} agents"
                    )
            elif not 1 <= q < n:
                raise DomainError(
                    f"capacity of {self.type_names[o]} must lie in [1, {n - 1}], got {q}"
                )

    @property
    def n_agents(self) -> int:
        return len(self.agent_names)

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    def check_order(self, order: PreferenceOrder) -> None:
        if len(order) != self.n_types:
            raise DomainError(
                f"order ranks {len(order)} types but the market has {self.n_types}"
            )

    def capacity_threshold_rank(self, order: PreferenceOrder) -> int:
        """Least rank k whose top-k types can absorb every agent.

        Scarcity below this threshold is impossible: the combined capacity of
        the k best types under ``order`` reaches the number of agents.  The
        outside option guarantees the threshold exists.
        """
        self.check_order(order)
        total = 0
        for k, o in enumerate(order.ranking, start=1):
            total += self.capacities[o]
            if total >= self.n_agents:
                return k
        raise AssertionError("outside option capacity makes the threshold total reachable")

    def essentially_equal(self, first: PreferenceOrder, second: PreferenceOrder) -> bool:
        """True when the two orders agree on every rank up to the threshold.

        Agreement is keyed to ``first``'s threshold rank; agreement on that
        prefix forces both thresholds to coincide, so the relation is
        symmetric.  The internal assert documents that fact.
        """
        self.check_order(first)
        self.check_order(second)
        k = self.capacity_threshold_rank(first)
        if first.top(k) != second.top(k):
            return False
        assert self.capacity_threshold_rank(second) == k
        return True

    def all_orders(self) -> tuple[PreferenceOrder, ...]:
        """Every strict order over this market's types, lexicographic by index.

        Each call builds a new tuple; the class tables keep the one they list
        as their ``orders``.
        """
        return tuple(PreferenceOrder(perm) for perm in itertools.permutations(range(self.n_types)))

    def null_first_order(self) -> PreferenceOrder:
        """The canonical order placing the outside option first."""
        rest = [o for o in range(self.n_types) if o != self.null_type]
        return PreferenceOrder((self.null_type, *rest))

    def agent_index(self, name: str) -> AgentIndex:
        try:
            return self.agent_names.index(name)
        except ValueError:
            raise DomainError(f"unknown agent {name!r}") from None

    def type_index(self, name: str) -> TypeIndex:
        try:
            return self.type_names.index(name)
        except ValueError:
            raise DomainError(f"unknown type {name!r}") from None


@dataclass(frozen=True)
class Profile:
    """One revealed preference order per agent, indexed like the market's agents."""

    orders: tuple[PreferenceOrder, ...]

    def __getitem__(self, agent: AgentIndex) -> PreferenceOrder:
        return self.orders[agent]

    def __len__(self) -> int:
        return len(self.orders)

    def replace(self, agent: AgentIndex, order: PreferenceOrder) -> "Profile":
        """A copy of this profile with one agent's order swapped out."""
        if not 0 <= agent < len(self.orders):
            raise DomainError(f"agent index {agent} out of range")
        orders = list(self.orders)
        orders[agent] = order
        return Profile(tuple(orders))


def check_profile(market: Market, profile: Profile) -> None:
    """Raise unless ``profile`` has one well-formed order per market agent."""
    if len(profile) != market.n_agents:
        raise DomainError(
            f"profile has {len(profile)} orders but the market has {market.n_agents} agents"
        )
    n_types = len(market.type_names)
    for order in profile.orders:
        if len(order.ranking) != n_types:
            market.check_order(order)


def order_from_names(market: Market, text: str) -> PreferenceOrder:
    """Parse an order like ``"o1>null>o2"`` using the market's type names."""
    names = [part.strip() for part in text.split(">")]
    if len(names) != market.n_types:
        raise DomainError(
            f"order {text!r} names {len(names)} types, expected {market.n_types}"
        )
    return PreferenceOrder(tuple(market.type_index(name) for name in names))


def order_to_names(market: Market, order: PreferenceOrder) -> str:
    """Inverse of :func:`order_from_names`."""
    market.check_order(order)
    return ">".join(market.type_names[o] for o in order.ranking)
