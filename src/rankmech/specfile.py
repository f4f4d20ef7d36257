"""Plain-text market files: parsing with diagnostics, and round-trip rendering.

Format, one declaration per line (blank lines and ``#`` comments allowed):

    type <name> capacity <int> [null]
    agent <name> prefers <type> > <type> > ... > <type>

Exactly one type carries the ``null`` marker (the outside option).  A type
name cannot contain ``>``, the ranking separator.  Agent rankings must
mention every declared type exactly once.  Declarations may appear in any
order; types are resolved in a first pass.
"""

from __future__ import annotations

from .errors import DomainError, MarketSpecError
from .market import Market, PreferenceOrder, Profile, check_profile

# Diagnostic codes, stable across releases:
#   E_SYNTAX             malformed declaration, or a type name containing '>'
#   E_DUP_TYPE           type name declared twice
#   E_DUP_AGENT          agent name declared twice
#   E_BAD_CAPACITY       capacity is not a positive integer in ASCII digits
#   E_MULTI_NULL         more than one null marker
#   E_NO_NULL            no null marker
#   E_UNKNOWN_TYPE       ranking mentions an undeclared type
#   E_RANKING_INCOMPLETE ranking misses or repeats a type
#   E_MARKET_SIZE        fewer than 2 agents or 3 types
#   E_CAPACITY_BOUNDS    capacity out of range for its role


def parse_market_spec(text: str) -> tuple[Market, Profile]:
    """Parse a market file into a market plus the declared revealed profile.

    Each line is split once: its comment is cut off only when it holds a
    ``#``, and an agent line splits into its keyword, name, ``prefers`` and
    ranking text.  Identical ranking texts share one order: each distinct
    ranking is split, resolved against the declared types in one pass of
    dict lookups and checked once, at its first line, and every agent
    declaring it gets the same ``PreferenceOrder``.  So a file whose agents
    all reveal one of two lines builds two orders.  Only a ranking that is
    not a permutation of the types is walked entry by entry, to word its
    diagnostic.  The memo lives inside this call; a diagnostic names the
    first line at fault, as a line-by-line check would.
    """
    lines = text.splitlines()
    type_names: list[str] = []
    capacities: list[int] = []
    type_lines: list[int] = []
    null_type: int | None = None
    agents: dict[str, str] = {}  # agent name -> ranking text
    rankings: dict[str, tuple[int, list[str]]] = {}  # ranking text -> (first line, entries)

    for lineno, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        tokens = line.split(None, 3)
        if tokens[0] == "type":
            tokens = line.split()
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
            if name in agents:
                raise MarketSpecError(
                    "E_DUP_AGENT", lineno, f"agent {name!r} declared twice"
                )
            ranking_text = tokens[3]
            if ranking_text not in rankings:
                ranked = list(map(str.strip, ranking_text.split(">")))
                if "" in ranked:
                    raise MarketSpecError(
                        "E_SYNTAX", lineno, "empty entry in the ranking list"
                    )
                rankings[ranking_text] = (lineno, ranked)
            agents[name] = ranking_text
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
    if len(agents) < 2:
        raise MarketSpecError(
            "E_MARKET_SIZE", 0, "a market needs at least two agents"
        )

    n_agents = len(agents)
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
    every_type = set(index.values())
    orders = {}
    for ranking_text, (lineno, ranked) in rankings.items():
        ranking = tuple(map(index.get, ranked))
        if len(ranking) != len(index) or set(ranking) != every_type:
            raise _ranking_error(lineno, ranked, type_names)
        orders[ranking_text] = PreferenceOrder(ranking)

    market = Market(
        agent_names=tuple(agents),
        type_names=tuple(type_names),
        capacities=tuple(capacities),
        null_type=null_type,
    )
    return market, Profile(tuple(orders[text] for text in agents.values()))


def _ranking_error(lineno: int, ranked: list[str], type_names: list[str]) -> MarketSpecError:
    """The diagnostic for a ranking that is not a permutation of the types:
    its first undeclared or repeated entry, walking the entries in order,
    or else the types it omits."""
    seen = set()
    for part in ranked:
        if part not in type_names:
            return MarketSpecError(
                "E_UNKNOWN_TYPE", lineno, f"ranking mentions undeclared type {part!r}"
            )
        if part in seen:
            return MarketSpecError(
                "E_RANKING_INCOMPLETE", lineno, f"type {part!r} ranked twice"
            )
        seen.add(part)
    missing = [t for t in type_names if t not in seen]
    return MarketSpecError(
        "E_RANKING_INCOMPLETE", lineno, f"ranking omits {', '.join(repr(m) for m in missing)}"
    )


def _parse_type_line(lineno, tokens, type_names, capacities, type_lines):
    if len(tokens) not in (4, 5) or tokens[2] != "capacity":
        raise MarketSpecError(
            "E_SYNTAX", lineno, "expected: type <name> capacity <int> [null]"
        )
    if len(tokens) == 5 and tokens[4] != "null":
        raise MarketSpecError(
            "E_SYNTAX", lineno, f"trailing token must be 'null', got {tokens[4]!r}"
        )
    name = tokens[1]
    if ">" in name:
        raise MarketSpecError("E_SYNTAX", lineno, f"type name {name!r} contains '>'")
    if name in type_names:
        raise MarketSpecError("E_DUP_TYPE", lineno, f"type {name!r} declared twice")
    digits = tokens[3]
    try:
        capacity = int(digits) if digits.isascii() and digits.isdigit() else 0
    except ValueError:  # more digits than ``int`` converts
        capacity = 0
    if capacity < 1:
        raise MarketSpecError(
            "E_BAD_CAPACITY", lineno, f"capacity must be a positive integer, got {tokens[3]!r}"
        )
    type_names.append(name)
    capacities.append(capacity)
    type_lines.append(lineno)


def render_market_spec(market: Market, profile: Profile) -> str:
    """Render a market and profile back to spec text that parses to equal objects.

    A name the format cannot carry raises ``DomainError``: an empty one, one
    containing whitespace or ``#``, or a type name containing ``>``.  So does
    a profile without one well-formed order per agent.
    """
    check_profile(market, profile)
    for kind, names, banned in (("type", market.type_names, "#>"),
                                ("agent", market.agent_names, "#")):
        for name in names:
            if not name or any(c.isspace() or c in banned for c in name):
                raise DomainError(f"{kind} name {name!r} cannot be written to a market file")
    lines = []
    for o, name in enumerate(market.type_names):
        marker = " null" if o == market.null_type else ""
        lines.append(f"type {name} capacity {market.capacities[o]}{marker}")
    for a, name in enumerate(market.agent_names):
        ranked = " > ".join(market.type_names[o] for o in profile[a].ranking)
        lines.append(f"agent {name} prefers {ranked}")
    return "\n".join(lines) + "\n"
