"""Tests for the market file parser and renderer."""

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
