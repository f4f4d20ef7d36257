"""Tests for the market file parser and renderer."""

import random
from pathlib import Path

import pytest

from rankmech import (
    DomainError,
    Market,
    MarketSpecError,
    PreferenceOrder,
    Profile,
    parse_market_spec,
    render_market_spec,
)
from rankmech.examples import EXAMPLE2_SPEC

import oracles

DATA = Path(__file__).parent / "data"


def test_parse_bundled_spec():
    market, profile = parse_market_spec(EXAMPLE2_SPEC)
    assert market.agent_names == ("a1", "a2", "a3")
    assert market.type_names == ("o1", "o2", "null")
    assert market.capacities == (1, 1, 3)
    assert market.null_type == 2
    assert profile[0].ranking == (0, 2, 1)
    assert profile[1].ranking == (0, 1, 2)
    assert profile[2].ranking == (1, 0, 2)


def test_parse_allows_comments_blanks_and_any_declaration_order():
    text = """
# agents may come before the types they mention
agent left prefers top > out > low   # trailing comment

agent right prefers low > top > out
type top capacity 1
type low capacity 1

type out capacity 2 null
"""
    market, profile = parse_market_spec(text)
    assert market.agent_names == ("left", "right")
    assert market.type_names == ("top", "low", "out")
    assert market.null_type == 2
    assert profile[0].ranking == (0, 2, 1)


def test_render_round_trips():
    market, profile = parse_market_spec(EXAMPLE2_SPEC)
    text = render_market_spec(market, profile)
    market2, profile2 = parse_market_spec(text)
    assert market2 == market
    assert profile2 == profile
    assert text.endswith("\n")


def test_names_containing_prefers_round_trip():
    """The ranking is the text after the third token, so an agent or type
    name may contain the keyword."""
    text = (
        "type o1 capacity 1\n"
        "type prefersmore capacity 1\n"
        "type null capacity 2 null\n"
        "agent whoprefers prefers o1 > prefersmore > null\n"
        "agent a2 prefers prefersmore > null > o1\n"
    )
    market, profile = parse_market_spec(text)
    assert market.agent_names == ("whoprefers", "a2")
    assert profile[0].ranking == (0, 1, 2)
    assert profile[1].ranking == (1, 2, 0)
    assert render_market_spec(market, profile) == text
    assert parse_market_spec(render_market_spec(market, profile)) == (market, profile)


def _named_market(type_name, agent_name):
    market = Market(
        agent_names=(agent_name, "a2"),
        type_names=(type_name, "o2", "null"),
        capacities=(1, 1, 2),
        null_type=2,
    )
    return market, Profile((PreferenceOrder((0, 2, 1)), PreferenceOrder((1, 0, 2))))


@pytest.mark.parametrize("type_name, agent_name, bad", [
    ("o#1", "a1", "type name 'o#1'"),
    ("o 1", "a1", "type name 'o 1'"),
    ("a>b", "a1", "type name 'a>b'"),
    ("", "a1", "type name ''"),
    ("o1", "", "agent name ''"),
    ("o1", "a\t1", "agent name 'a\\t1'"),
    ("o1", "a#1", "agent name 'a#1'"),
    ("o 1", "a 1", "type name 'o 1'"),
])
def test_render_rejects_names_the_format_cannot_carry(type_name, agent_name, bad):
    """Each of these names would re-parse as an error or as another market;
    the first one in rendering order is named."""
    market, profile = _named_market(type_name, agent_name)
    with pytest.raises(DomainError) as info:
        render_market_spec(market, profile)
    assert str(info.value) == f"{bad} cannot be written to a market file"


@pytest.mark.parametrize("orders", [
    ((0, 2, 1),),
    ((0, 2, 1), (1, 0, 2), (0, 1, 2)),
    ((0, 1), (1, 0, 2)),
])
def test_render_rejects_a_profile_the_market_cannot_hold(orders):
    """Too few or too many orders, or an order of the wrong length, would
    render text that re-parses as an error or as another profile."""
    market, _ = _named_market("o1", "a1")
    with pytest.raises(DomainError):
        render_market_spec(market, Profile(tuple(map(PreferenceOrder, orders))))


def test_agent_names_containing_the_ranking_separator_round_trip():
    market, profile = _named_market("o1", "a>1")
    assert parse_market_spec(render_market_spec(market, profile)) == (market, profile)


def expect_error(text, code, line):
    with pytest.raises(MarketSpecError) as info:
        parse_market_spec(text)
    assert info.value.code == code
    assert info.value.line == line
    return info.value


def test_syntax_errors():
    err = expect_error("bogus line here\n", "E_SYNTAX", 1)
    assert "bogus" in str(err)
    expect_error("type o1 size 1\n", "E_SYNTAX", 1)
    expect_error("type o1 capacity 1 extra_word\n", "E_SYNTAX", 1)
    expect_error(
        "type o1 capacity 1\nagent a1 likes o1\n", "E_SYNTAX", 2
    )
    expect_error(
        "type o1 capacity 1\nagent a1 prefers o1 > > o2\n", "E_SYNTAX", 2
    )


@pytest.mark.parametrize("name", ["a>b", ">", "o1>"])
def test_type_names_containing_the_ranking_separator_are_syntax_errors(name):
    """A type name with ``>`` fails at its type line, not at the first
    ranking that would split it apart."""
    err = expect_error(
        f"type o1 capacity 1\ntype {name} capacity 1\ntype null capacity 2 null\n"
        f"agent a1 prefers o1 > {name} > null\nagent a2 prefers o1 > {name} > null\n",
        "E_SYNTAX", 2,
    )
    assert repr(name) in str(err)


def test_duplicate_declarations():
    expect_error(
        "type o1 capacity 1\ntype o1 capacity 1\n", "E_DUP_TYPE", 2
    )
    expect_error(
        "type o1 capacity 1\n"
        "type o2 capacity 1\n"
        "type null capacity 3 null\n"
        "agent a1 prefers o1 > o2 > null\n"
        "agent a1 prefers o2 > o1 > null\n",
        "E_DUP_AGENT",
        5,
    )


def test_capacity_diagnostics():
    expect_error("type o1 capacity zero\n", "E_BAD_CAPACITY", 1)
    expect_error("type o1 capacity 0\n", "E_BAD_CAPACITY", 1)
    expect_error("type o1 capacity -2\n", "E_BAD_CAPACITY", 1)
    expect_error("type o1 capacity 1_0\n", "E_BAD_CAPACITY", 1)
    expect_error("type o1 capacity \u0663\n", "E_BAD_CAPACITY", 1)
    expect_error("type o1 capacity +1\n", "E_BAD_CAPACITY", 1)


def test_null_marker_diagnostics():
    expect_error(
        "type o1 capacity 3 null\ntype o2 capacity 3 null\n", "E_MULTI_NULL", 2
    )
    expect_error(
        "type o1 capacity 1\n"
        "type o2 capacity 1\n"
        "type o3 capacity 1\n"
        "agent a1 prefers o1 > o2 > o3\n"
        "agent a2 prefers o1 > o2 > o3\n",
        "E_NO_NULL",
        0,
    )


def test_ranking_diagnostics():
    base = (
        "type o1 capacity 1\n"
        "type o2 capacity 1\n"
        "type null capacity 3 null\n"
    )
    expect_error(
        base + "agent a1 prefers o1 > o9 > null\nagent a2 prefers o1 > o2 > null\n",
        "E_UNKNOWN_TYPE",
        4,
    )
    expect_error(
        base + "agent a1 prefers o1 > o1 > null\nagent a2 prefers o1 > o2 > null\n",
        "E_RANKING_INCOMPLETE",
        4,
    )
    err = expect_error(
        base + "agent a1 prefers o1 > null\nagent a2 prefers o1 > o2 > null\n",
        "E_RANKING_INCOMPLETE",
        4,
    )
    assert "o2" in err.message


def test_market_size_diagnostics():
    expect_error(
        "type o1 capacity 1\n"
        "type null capacity 3 null\n"
        "agent a1 prefers o1 > null\n"
        "agent a2 prefers o1 > null\n",
        "E_MARKET_SIZE",
        0,
    )
    expect_error(
        "type o1 capacity 1\n"
        "type o2 capacity 1\n"
        "type null capacity 3 null\n"
        "agent a1 prefers o1 > o2 > null\n",
        "E_MARKET_SIZE",
        0,
    )


def test_capacity_bound_diagnostics():
    expect_error(
        "type o1 capacity 2\n"
        "type o2 capacity 1\n"
        "type null capacity 2 null\n"
        "agent a1 prefers o1 > o2 > null\n"
        "agent a2 prefers o1 > o2 > null\n",
        "E_CAPACITY_BOUNDS",
        1,
    )
    expect_error(
        "type o1 capacity 1\n"
        "type o2 capacity 1\n"
        "type null capacity 2 null\n"
        "agent a1 prefers o1 > o2 > null\n"
        "agent a2 prefers o1 > o2 > null\n"
        "agent a3 prefers o1 > o2 > null\n",
        "E_CAPACITY_BOUNDS",
        3,
    )


def test_error_string_carries_code_and_line():
    err = expect_error("type o1 capacity 0\n", "E_BAD_CAPACITY", 1)
    assert str(err) == "E_BAD_CAPACITY (line 1): capacity must be a positive integer, got '0'"


def test_parsing_ties_16_builds_one_order_per_distinct_ranking(monkeypatch):
    """Sixteen agents on two distinct ranking lines build two orders, and the
    profile equals the line-by-line parser's."""
    text = (DATA / "ties_16.txt").read_text()
    expected = oracles.line_by_line_parse_market_spec(text)
    built = []
    real = PreferenceOrder.__post_init__

    def counting(self):
        built.append(self.ranking)
        real(self)

    monkeypatch.setattr(PreferenceOrder, "__post_init__", counting)
    market, profile = parse_market_spec(text)
    assert built == [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)]
    assert (market, profile) == expected
    assert len(profile) == 16 and len({id(order) for order in profile.orders}) == 2


# A seeded market file is kept as declarations, so that a broken file can
# alter one before the lines are laid out: each type as [name, capacity
# text, marker] and each agent as [name, ranking text].
SPEC_TYPE_NAMES = ("o1", "o2", "o3", "o4", "x", "null", "out")


def _ranking_text(rng, names):
    return rng.choice((" > ", ">", "  >  ", " >")).join(names)


def _declarations(rng):
    m, n = rng.randint(3, 5), rng.randint(2, 7)
    names = rng.sample(SPEC_TYPE_NAMES, m)
    null = rng.randrange(m)
    types = [
        [name, str(rng.randint(n, n + 2) if o == null else rng.randint(1, n - 1)),
         " null" if o == null else ""]
        for o, name in enumerate(names)
    ]
    # A few shared ranking lines, some reusing a shared ranking with other spacing.
    pool = [_ranking_text(rng, rng.sample(names, m)) for _ in range(rng.randint(1, 3))]
    agents = []
    for j in rng.sample(range(1, 10), n):
        if rng.random() < 0.8:
            text = rng.choice(pool)
        else:
            text = _ranking_text(rng, [part.strip() for part in rng.choice(pool).split(">")])
        agents.append([f"a{j}", text])
    return types, agents


def _layout(rng, types, agents, extra=()):
    """The file text: declarations in a seeded order (types may follow the
    agents that rank them), with blank lines and comments between them."""
    decls = [f"type {name} capacity {q}{marker}" for name, q, marker in types]
    decls += [f"agent {name} prefers {text}" for name, text in agents]
    decls += extra
    if rng.random() < 0.5:
        rng.shuffle(decls)
    lines = []
    for decl in decls:
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "   ", "# agent z prefers > >")))
        lines.append(decl + rng.choice(("", "", "  # o1 > o2")))
    return "\n".join(lines) + "\n"


def _break_ranking(rng, types, agents, ranked):
    """Give one ranking text, altered to ``ranked``, to the first agent
    holding it and to a later agent, so the broken text repeats."""
    text = _ranking_text(rng, ranked)
    first = rng.randrange(len(agents))
    agents[first][1] = text
    if first + 1 < len(agents):
        agents[rng.randrange(first + 1, len(agents))][1] = text


def _syntax(rng, types, agents):
    kind = rng.randrange(4)
    if kind == 0:
        return ["bogus declaration"]
    if kind == 1:
        agents[rng.randrange(len(agents))][1] += " >"
        return []
    if kind == 2:
        types[rng.randrange(len(types))][2] = " extra"
        return []
    return ["type a>b capacity 1"]


def _dup_type(rng, types, agents):
    name, q, _ = rng.choice(types)
    return [f"type {name} capacity {q}"]


def _dup_agent(rng, types, agents):
    """A second declaration of an agent, on that agent's (shared) ranking."""
    name, text = rng.choice(agents)
    agents.append([name, text])
    return []


def _bad_capacity(rng, types, agents):
    types[rng.randrange(len(types))][1] = rng.choice(("0", "-1", "x", "1.5", "\u0663"))
    return []


def _multi_null(rng, types, agents):
    scarce = [t for t in types if not t[2]]
    if not scarce:
        return ["type spare capacity 9 null"]
    rng.choice(scarce)[2] = " null"
    return []


def _no_null(rng, types, agents):
    for t in types:
        t[2] = ""
    return []


def _unknown_type(rng, types, agents):
    ranked = [t[0] for t in types]
    rng.shuffle(ranked)
    ranked[rng.randrange(len(ranked))] = "zz"
    _break_ranking(rng, types, agents, ranked)
    return []


def _ranking_incomplete(rng, types, agents):
    ranked = [t[0] for t in types]
    rng.shuffle(ranked)
    if rng.random() < 0.5:
        ranked.pop(rng.randrange(len(ranked)))
    else:
        ranked[rng.randrange(len(ranked))] = rng.choice(ranked)
        if len(set(ranked)) == len(ranked):  # the choice landed on itself
            ranked.pop()
    _break_ranking(rng, types, agents, ranked)
    return []


def _market_size(rng, types, agents):
    """One agent left, or two types: the null one and a scarce one."""
    if rng.random() < 0.5:
        del agents[1:]
    else:
        types.sort(key=lambda t: not t[2])
        del types[2:]
    return []


def _capacity_bounds(rng, types, agents):
    n = len(agents)
    scarce = [t for t in types if not t[2]]
    nulls = [t for t in types if t[2]]
    if scarce and (not nulls or rng.random() < 0.5):
        rng.choice(scarce)[1] = str(n + rng.randint(0, 2))
    else:
        nulls[0][1] = str(n - 1)
    return []


BREAKS = {
    "E_SYNTAX": _syntax,
    "E_DUP_TYPE": _dup_type,
    "E_DUP_AGENT": _dup_agent,
    "E_BAD_CAPACITY": _bad_capacity,
    "E_MULTI_NULL": _multi_null,
    "E_NO_NULL": _no_null,
    "E_UNKNOWN_TYPE": _unknown_type,
    "E_RANKING_INCOMPLETE": _ranking_incomplete,
    "E_MARKET_SIZE": _market_size,
    "E_CAPACITY_BOUNDS": _capacity_bounds,
}


def _outcome(parse, text):
    try:
        return parse(text)
    except MarketSpecError as err:
        return err.code, err.line, err.message


def test_parse_matches_the_line_by_line_parser_on_valid_files():
    """Seeded valid files, with shared and distinct ranking lines, comments,
    blank lines and types declared after agents, parse to the market and
    profile the line-by-line parser gives."""
    rng = random.Random(4201)
    shared = 0
    for _ in range(400):
        types, agents = _declarations(rng)
        text = _layout(rng, types, agents)
        market, profile = parse_market_spec(text)
        assert (market, profile) == oracles.line_by_line_parse_market_spec(text), text
        shared += len({text for _, text in agents}) < len(agents)
    assert shared > 200


@pytest.mark.parametrize("code", sorted(BREAKS))
def test_parse_raises_what_the_line_by_line_parser_raises(code):
    """Seeded files broken in one way raise that code, at the line and with
    the message the line-by-line parser reports; files broken in two or
    three ways at once report the same first fault as it does."""
    rng = random.Random(f"4202-{code}")
    for _ in range(40):
        types, agents = _declarations(rng)
        extra = BREAKS[code](rng, types, agents)
        text = _layout(rng, types, agents, extra)
        got = _outcome(parse_market_spec, text)
        assert got == _outcome(oracles.line_by_line_parse_market_spec, text), text
        assert got[0] == code, text
    for _ in range(40):
        types, agents = _declarations(rng)
        extra = BREAKS[code](rng, types, agents)
        for other in rng.sample(sorted(BREAKS), rng.randint(1, 2)):
            extra += BREAKS[other](rng, types, agents)
        text = _layout(rng, types, agents, extra)
        got = _outcome(parse_market_spec, text)
        assert got == _outcome(oracles.line_by_line_parse_market_spec, text), text
