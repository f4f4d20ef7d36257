"""End-to-end tests for the command-line interface via main()."""

import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rankmech.cli import main
from rankmech.examples import EXAMPLE2_SPEC
from rankmech.sweeps import SWEEPS, SweepOutcome

WIDE_SPEC = """\
type o1 capacity 1
type o2 capacity 2
type o3 capacity 1
type null capacity 3 null
agent a1 prefers o1 > null > o2 > o3
agent a2 prefers o1 > o3 > o2 > null
agent a3 prefers o3 > o1 > o2 > null
"""

CROWD_SPEC = """\
type o1 capacity 1
type o2 capacity 1
type o3 capacity 1
type null capacity 3 null
agent a1 prefers o1 > o2 > o3 > null
agent a2 prefers o1 > o2 > null > o3
agent a3 prefers o1 > o2 > null > o3
"""

NULL_2N_SPEC = """\
type o1 capacity 1
type o2 capacity 1
type null capacity 8 null
agent a1 prefers o2 > o1 > null
agent a2 prefers o1 > o2 > null
agent a3 prefers o1 > o2 > null
agent a4 prefers o2 > o1 > null
"""

SHARED_ORDER_SPEC = """\
type o1 capacity 1
type o2 capacity 1
type null capacity 3 null
agent a1 prefers o1 > o2 > null
agent a2 prefers o1 > o2 > null
agent a3 prefers o1 > o2 > null
"""

ROOT = Path(__file__).parent.parent
# Each pin is a command line, one argument per line in <name>.args with
# paths relative to ROOT, and its exact stdout in <name>.out.
PINS = ROOT / "tests" / "data" / "pins"


def _pin_argv(name):
    return (PINS / f"{name}.args").read_text(encoding="utf-8").splitlines()


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "market.txt"
    path.write_text(EXAMPLE2_SPEC)
    return str(path)


def test_assign_prints_matrix_and_rank_value(spec_path, capsys):
    assert main(["assign", "--spec", spec_path]) == 0
    out = capsys.readouterr().out
    assert "mechanism: uniform" in out
    assert "revealed a1: o1>null>o2" in out
    assert "rank value: 4" in out
    assert "wasteful: no" in out


def test_assign_with_refusal_and_truth_file(tmp_path, capsys):
    revealed = tmp_path / "revealed.txt"
    revealed.write_text(
        EXAMPLE2_SPEC.replace("agent a1 prefers o1 > null > o2",
                              "agent a1 prefers o1 > o2 > null")
        .replace("agent a3 prefers o2 > o1 > null",
                 "agent a3 prefers o1 > o2 > null")
    )
    truth = tmp_path / "truth.txt"
    truth.write_text(
        EXAMPLE2_SPEC.replace("agent a3 prefers o2 > o1 > null",
                              "agent a3 prefers o1 > o2 > null")
    )
    assert main([
        "assign", "--spec", str(revealed), "--refusal", "--truth", str(truth),
    ]) == 0
    out = capsys.readouterr().out
    assert "after refusal:" in out
    assert "wasteful: yes" in out
    assert "o2 has slack" in out


def test_assign_truth_market_must_match(tmp_path, capsys):
    revealed = tmp_path / "revealed.txt"
    revealed.write_text(EXAMPLE2_SPEC)
    truth = tmp_path / "truth.txt"
    truth.write_text(EXAMPLE2_SPEC.replace("type o2 capacity 1", "type o2 capacity 2"))
    assert main([
        "assign", "--spec", str(revealed), "--refusal", "--truth", str(truth),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E_MARKET_MISMATCH" in captured.err


@pytest.mark.parametrize("truth", ["{tmp}/missing.txt", ""], ids=["missing", "empty-path"])
def test_assign_unreadable_truth_file_is_a_usage_error(spec_path, tmp_path, capsys, truth):
    """An empty ``--truth`` path is read like any other and fails to open;
    it does not fall back to the reveals."""
    path = truth.format(tmp=tmp_path)
    assert main(["assign", "--spec", spec_path, "--refusal", "--truth", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: E_IO (line 0): cannot read {path}: ")


@pytest.mark.parametrize("truth", ["{tmp}/missing.txt", "{spec}"], ids=["missing", "readable"])
def test_assign_rejects_truth_without_refusal(spec_path, tmp_path, capsys, truth):
    """Without ``--refusal`` nothing reads ``--truth``, so the flag is a usage error."""
    path = truth.format(tmp=tmp_path, spec=spec_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["assign", "--spec", spec_path, "--truth", path])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rankmech")
    assert "assign reads --truth only with --refusal" in captured.err


def test_assign_writes_csv(spec_path, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["assign", "--spec", spec_path, "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "agent,type,probability"
    assert lines[1] == "a1,o1,0"
    assert len(lines) == 10


def test_csv_quotes_names_holding_a_comma_or_a_double_quote(tmp_path, capsys):
    """A name may hold ``,`` or ``"``; such fields are quoted, so every row
    reads back as three fields and every name round-trips."""
    spec = tmp_path / "market.txt"
    spec.write_text(
        "type o1 capacity 1\n"
        "type o,2 capacity 1\n"
        "type null capacity 2 null\n"
        'agent a"1 prefers o1 > o,2 > null\n'
        'agent a,2 prefers o,2 > o1 > null\n',
        encoding="utf-8",
    )
    csv_path = tmp_path / "out.csv"
    assert main(["assign", "--spec", str(spec), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [3] * 7
    assert rows[0] == ["agent", "type", "probability"]
    assert [(agent, type_) for agent, type_, _ in rows[1:]] == [
        (agent, type_) for agent in ('a"1', "a,2") for type_ in ("o1", "o,2", "null")
    ]
    assert rows[1] == ['a"1', "o1", "1"]


def test_dominance_single_candidate(spec_path, capsys):
    assert main([
        "dominance", "--spec", spec_path, "--agent", "a1",
        "--truth-order", "o1>null>o2", "--candidate", "o1>o2>null",
        "--refusal",
    ]) == 0
    out = capsys.readouterr().out
    assert "weak=yes strict=yes" in out
    assert "strictly preferred at" in out


def test_dominance_ods_listing(spec_path, capsys):
    assert main([
        "dominance", "--spec", spec_path, "--agent", "a1",
        "--truth-order", "o1>null>o2", "--ods", "--refusal",
    ]) == 0
    out = capsys.readouterr().out
    assert "candidate o1>o2>null [full extension]:" in out


def test_dominance_rejects_unknown_agent(spec_path, capsys):
    assert main([
        "dominance", "--spec", spec_path, "--agent", "nobody",
        "--truth-order", "o1>null>o2", "--ods",
    ]) == 2
    assert "unknown agent" in capsys.readouterr().err


def test_dominance_rejects_an_empty_candidate(spec_path, capsys):
    assert main([
        "dominance", "--spec", spec_path, "--agent", "a1",
        "--truth-order", "o1>null>o2", "--candidate", "",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names 1 types" in captured.err


@pytest.mark.parametrize("spec, argv, expected", [
    (EXAMPLE2_SPEC,
     ["--agent", "a1", "--truth-order", "o1>null>o2", "--ods", "--refusal"],
     "agent: a1  truth: o1>null>o2  mechanism: uniform  refusal: on\n"
     "candidate o1>o2>null [full extension]: weak=yes strict=yes\n"
     "  strictly preferred at a2=(o1>o2>null) a3=(o1>o2>null)\n"),
    (EXAMPLE2_SPEC,
     ["--agent", "a2", "--truth-order", "o1>null>o2", "--candidate", "o2>o1>null"],
     "agent: a2  truth: o1>null>o2  mechanism: uniform  refusal: off\n"
     "candidate o2>o1>null: weak=no strict=no\n"
     "  not weakly preferred at a1=(o1>o2>null) a3=(o1>o2>null)\n"),
    (WIDE_SPEC,
     ["--agent", "a2", "--truth-order", "o1>null>o2>o3", "--ods", "--refusal"],
     "agent: a2  truth: o1>null>o2>o3  mechanism: uniform  refusal: on\n"
     "candidate o1>o2>o3>null [full extension]: weak=yes strict=no\n"
     "candidate o1>o3>o2>null [demotion]: weak=yes strict=yes\n"
     "  strictly preferred at a1=(o1>o2>o3>null) a3=(o1>o3>o2>null)\n"),
], ids=["ods-refusal", "candidate-failure", "wide-ods-refusal"])
def test_dominance_output_is_pinned(tmp_path, capsys, spec, argv, expected):
    """The whole report, witnesses included, byte for byte."""
    path = tmp_path / "market.txt"
    path.write_text(spec)
    assert main(["dominance", "--spec", str(path), *argv]) == 0
    assert capsys.readouterr().out == expected


def test_sweep_tokens_pass_on_bundled_market(spec_path, capsys):
    for token in SWEEPS:
        assert main(["sweep", token, "--spec", spec_path]) == 0, token
        out = capsys.readouterr().out
        assert "result: pass" in out
        assert "violations: 0" in out


def test_sweep_prop2_and_prop5(spec_path, capsys):
    assert main(["sweep", "prop2", "--spec", spec_path]) == 0
    assert "checked: 90" in capsys.readouterr().out
    assert main(["sweep", "prop5", "--spec", spec_path]) == 0
    assert "checked: 90" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(path.stem for path in PINS.glob("*.args")))
def test_pinned_output(monkeypatch, capsys, name):
    """Every pin exits 0 and prints its ``.out`` file byte for byte; the CI
    workflow runs the installed script on every pin too.  The 3 x 5
    market's one-seat types and mid-order outside options keep the sweeps
    on cut moves and ``prop5`` and ``ete-fM`` on the modified mechanism's
    override rows, and its dominance query without refusal stops at the
    truth's outside option.  The 16 tied agents have 126,126,000
    rank-minimizing assignments to count and a matrix of 15 parts."""
    monkeypatch.chdir(ROOT)
    assert main(_pin_argv(name)) == 0
    assert capsys.readouterr().out == (PINS / f"{name}.out").read_bytes().decode("utf-8")


def test_the_3x5_pins_cover_every_sweep_token():
    assert [token for token in SWEEPS
            if not (PINS / f"sweep-3x5-{token}.args").is_file()] == []


@pytest.mark.parametrize("prop", ["ete-fU", "ete-fM"])
def test_equal_treatment_on_the_committed_4x5_market(monkeypatch, prop):
    """Four agents and four one-seat types: 120^4 profiles, and no two
    truncation classes share an essential-equality key, so the count comes
    in closed form, within a second, and no multiset is visited.  The
    output is pinned as ``sweep-4x5-<prop>``."""
    monkeypatch.chdir(ROOT)
    start = time.perf_counter()
    assert main(_pin_argv(f"sweep-4x5-{prop}")) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("prop", SWEEPS)
def test_sweep_checks_the_budget_before_listing_orders(tmp_path, capsys, prop):
    """Two agents and seven types exceed the six-type limit.  Every sweep
    fails with exit 3 before it lists the 5,040 orders, even one with no
    units to check."""
    lines = [f"type o{i} capacity 1" for i in range(1, 7)] + ["type null capacity 2 null"]
    lines += ["agent a1 prefers o1 > o2 > o3 > o4 > o5 > o6 > null",
              "agent a2 prefers o2 > o1 > o3 > o4 > o5 > o6 > null"]
    path = tmp_path / "seven.txt"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    assert main(["sweep", prop, "--spec", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err


def test_sweep_prints_its_first_violation_and_exits_1(monkeypatch, spec_path, capsys):
    """A failing sweep names its first violation between the counts and the result."""
    detail = "agent=a1 truth=(o1>null>o2) candidate=(o1>o2>null): strictly dominates"
    monkeypatch.setitem(SWEEPS, "prop2", lambda market, budget: SweepOutcome("prop2", 12, 3, detail))
    assert main(["sweep", "prop2", "--spec", spec_path]) == 1
    assert capsys.readouterr().out == (
        f"property: prop2\nchecked: 12\nviolations: 3\nfirst violation: {detail}\nresult: fail\n"
    )


def test_sweep_parallel_flag_is_gone(spec_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "prop2", "--spec", spec_path, "--parallel"])
    assert exit_info.value.code == 2


def test_sweep_rejects_unknown_property(spec_path):
    with pytest.raises(SystemExit):
        main(["sweep", "prop9", "--spec", spec_path])


def test_reproduce_examples_reports_mismatches(monkeypatch, capsys):
    monkeypatch.setattr(
        "rankmech.cli.run_example_checks",
        lambda: [("stub check", False, "expected 1, got 0")],
    )
    assert main(["reproduce-examples"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH: stub check (expected 1, got 0)" in out
    assert "1 checks failed" in out


def test_decompose_command(spec_path, capsys):
    assert main(["decompose", "--spec", spec_path]) == 0
    out = capsys.readouterr().out
    assert "recombines exactly: yes" in out
    assert "weight" in out
    assert "a1->" in out


def test_decompose_crowd_out_pattern(tmp_path, capsys):
    path = tmp_path / "crowd.txt"
    path.write_text(CROWD_SPEC)
    assert main(["decompose", "--spec", str(path), "--mechanism", "modified"]) == 0
    out = capsys.readouterr().out
    assert "weight 1/2" in out
    assert "recombines exactly: yes" in out


@pytest.mark.parametrize("spec, mechanism, expected", [
    (EXAMPLE2_SPEC, "uniform",
     "mechanism: uniform\n"
     "    o1  o2  null\n"
     "a1   0   0     1\n"
     "a2   1   0     0\n"
     "a3   0   1     0\n"
     "weight 1: a1->null a2->o1 a3->o2\n"
     "recombines exactly: yes\n"),
    (EXAMPLE2_SPEC, "modified",
     "mechanism: modified\n"
     "    o1  o2  null\n"
     "a1   0   0     1\n"
     "a2   1   0     0\n"
     "a3   0   1     0\n"
     "weight 1: a1->null a2->o1 a3->o2\n"
     "recombines exactly: yes\n"),
    (CROWD_SPEC, "modified",
     "mechanism: modified\n"
     "     o1  o2  o3  null\n"
     "a1    0   1   0     0\n"
     "a2  1/2   0   0   1/2\n"
     "a3  1/2   0   0   1/2\n"
     "weight 1/2: a1->o2 a2->o1 a3->null\n"
     "weight 1/2: a1->o2 a2->null a3->o1\n"
     "recombines exactly: yes\n"),
    (NULL_2N_SPEC, "uniform",
     "mechanism: uniform\n"
     "     o1   o2  null\n"
     "a1    0  1/2   1/2\n"
     "a2  1/2    0   1/2\n"
     "a3  1/2    0   1/2\n"
     "a4    0  1/2   1/2\n"
     "weight 1/2: a1->o2 a2->null a3->o1 a4->null\n"
     "weight 1/2: a1->null a2->o1 a3->null a4->o2\n"
     "recombines exactly: yes\n"),
    # The matching is kept across extraction steps, so each step re-seats
    # only the agents whose entry ran out: three parts, not six.
    (SHARED_ORDER_SPEC, "uniform",
     "mechanism: uniform\n"
     "     o1   o2  null\n"
     "a1  1/3  1/3   1/3\n"
     "a2  1/3  1/3   1/3\n"
     "a3  1/3  1/3   1/3\n"
     "weight 1/3: a1->o1 a2->null a3->o2\n"
     "weight 1/3: a1->o2 a2->o1 a3->null\n"
     "weight 1/3: a1->null a2->o2 a3->o1\n"
     "recombines exactly: yes\n"),
], ids=["bundled-uniform", "bundled-modified", "crowd-modified", "null-2n-uniform",
        "shared-order-uniform"])
def test_decompose_output_is_pinned(tmp_path, capsys, spec, mechanism, expected):
    """The whole report, parts in order, byte for byte."""
    path = tmp_path / "market.txt"
    path.write_text(spec)
    assert main(["decompose", "--spec", str(path), "--mechanism", mechanism]) == 0
    assert capsys.readouterr().out == expected


def test_decompose_with_a_million_null_seats(tmp_path, capsys):
    """The null type splits into as many copies as the ceiling of its
    column sum, whatever its capacity, so the report matches null capacity 4."""
    reports = []
    for capacity in (1000000, 4):
        path = tmp_path / f"null{capacity}.txt"
        path.write_text(NULL_2N_SPEC.replace("capacity 8 null", f"capacity {capacity} null"))
        start = time.perf_counter()
        assert main(["decompose", "--spec", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        reports.append(capsys.readouterr().out)
    assert "recombines exactly: yes" in reports[0]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("content", [None, b"type o1 capacity 1\xff\n",
                                     b"\xef\xbb\xbftype o1 capacity 1\xff\n"],
                         ids=["missing", "not-utf-8", "byte-order-mark-then-not-utf-8"])
def test_unreadable_spec_file_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "market.txt"
    if content is not None:
        path.write_bytes(content)
    assert main(["assign", "--spec", str(path)]) == 2
    assert "E_IO" in capsys.readouterr().err


def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path, capsys):
    """A spec or truth file saved with a UTF-8 byte-order mark prints what
    the same file without it prints; a truth file that is not UTF-8 after
    the mark is an unreadable file, as a spec file is."""
    outputs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        spec, truth = tmp_path / f"{name}-spec.txt", tmp_path / f"{name}-truth.txt"
        spec.write_bytes(bom + WIDE_SPEC.encode())
        truth.write_bytes(bom + WIDE_SPEC.replace("o1 > null > o2", "o1 > o2 > null").encode())
        argv = ["assign", "--spec", str(spec), "--refusal", "--truth", str(truth)]
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    broken = tmp_path / "broken.txt"
    broken.write_bytes(b"\xef\xbb\xbftype o1 capacity 1\xff\n")
    assert main(["assign", "--spec", str(spec), "--refusal", "--truth", str(broken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: E_IO (line 0): cannot read {broken}: ")


@pytest.mark.parametrize("command, csv", [
    ("assign", "{tmp}/absent/out.csv"),
    ("decompose", "{tmp}"),
    ("assign", ""),
], ids=["assign-missing-directory", "decompose-directory", "assign-empty-path"])
def test_unwritable_csv_path_is_a_usage_error(spec_path, tmp_path, capsys, command, csv):
    path = csv.format(tmp=tmp_path)
    assert main([command, "--spec", spec_path, "--csv", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_bad_spec_file_reports_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("type o1 capacity zero\n")
    assert main(["assign", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "E_BAD_CAPACITY" in err
    assert "line 1" in err


def test_budget_exceeded_exit_code(tmp_path, capsys):
    lines = [
        "type o1 capacity 1",
        "type o2 capacity 1",
        "type null capacity 9 null",
    ]
    lines += [f"agent a{i} prefers o1 > o2 > null" for i in range(1, 10)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["assign", "--spec", str(path)]) == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert "--budget-agents raises the agent limit" in err
    assert main(["assign", "--spec", str(path), "--budget-agents", "9"]) == 0
    assert "rank value: 24" in capsys.readouterr().out


def test_dominance_over_budget_prints_nothing_to_stdout(tmp_path, capsys):
    """The verdicts are computed before the report's header is printed, so
    a query on a market over the agent budget exits 3 with an empty stdout,
    for one candidate and for the demotions alike."""
    lines = ["type o1 capacity 1", "type o2 capacity 1", "type null capacity 9 null"]
    lines += [f"agent a{i} prefers o1 > o2 > null" for i in range(1, 10)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    query = ["dominance", "--spec", str(path), "--agent", "a1", "--truth-order", "o1>null>o2"]
    for tail in (["--candidate", "o1>o2>null"], ["--ods", "--refusal"]):
        assert main([*query, *tail]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget-agents raises the agent limit" in captured.err
        assert main([*query, *tail, "--budget-agents", "9"]) == 0
        assert capsys.readouterr().out.startswith("agent: a1  truth: o1>null>o2  ")


def test_no_flag_raises_the_six_type_limit(tmp_path, capsys):
    """Six types are within the fixed type limit; seven exceed it whatever
    ``--budget-agents`` says, and the error says that no flag raises it."""
    for m, budget_agents, code in ((6, "2", 0), (7, "50", 3)):
        scarce = [f"o{i}" for i in range(1, m)]
        lines = [f"type {o} capacity 1" for o in scarce] + ["type null capacity 2 null"]
        lines += [f"agent a{a} prefers {' > '.join(scarce)} > null" for a in (1, 2)]
        path = tmp_path / f"types-{m}.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["assign", "--spec", str(path), "--budget-agents", budget_agents]) == code
    err = capsys.readouterr().err
    assert err == ("error: market size 2 agents x 7 types exceeds the budget of 50 agents "
                   "and 6 types; --budget-agents raises the agent limit, and no flag raises "
                   "the type limit\n")


def test_assign_with_raised_budget_on_twelve_tied_agents(tmp_path, capsys):
    lines = [
        "type o1 capacity 3",
        "type o2 capacity 3",
        "type o3 capacity 2",
        "type o4 capacity 2",
        "type null capacity 12 null",
    ]
    lines += [f"agent a{i} prefers o1 > o2 > o3 > o4 > null" for i in range(1, 13)]
    path = tmp_path / "tied.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["assign", "--spec", str(path), "--budget-agents", "12"]) == 0
    out = capsys.readouterr().out
    assert "revealed a12: o1>o2>o3>o4>null" in out
    assert "      o1   o2   o3   o4  null" in out
    for i in range(1, 13):
        assert f"a{i}  1/4  1/4  1/6  1/6   1/6".rjust(29) in out
    assert "rank value: 33" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "prop2", "--mechanism", "modified"],
    ["sweep", "prop2", "--refusal"],
    ["sweep", "prop2", "--csv", "{csv}"],
    ["dominance", "--agent", "a1", "--truth-order", "o1>null>o2", "--ods",
     "--csv", "{csv}"],
    ["decompose", "--refusal"],
])
def test_flags_a_subcommand_ignores_are_rejected(spec_path, tmp_path, argv, capsys):
    csv_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(csv=csv_path) for arg in argv] + ["--spec", spec_path])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("value", ["0", "-1", "\uff13", "\u0663", "+3", " 3", ""])
def test_budget_agents_must_be_positive(spec_path, value, capsys):
    """``--budget-agents`` takes ASCII digits only, as spec capacities do:
    a fullwidth or Arabic-Indic digit three is rejected, not read as 3."""
    with pytest.raises(SystemExit) as exit_info:
        main(["assign", "--spec", spec_path, "--budget-agents", value])
    assert exit_info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_wide_market_assign_with_refusal_defaults_truth_to_revealed(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(WIDE_SPEC)
    assert main(["assign", "--spec", str(path), "--refusal"]) == 0
    out = capsys.readouterr().out
    assert "after refusal:" in out


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["reproduce-examples"],
    ["dominance", "--spec", "tests/data/market_3x5.txt", "--agent", "a1",
     "--truth-order", "o1>null>o2>o3>o4", "--ods", "--refusal"],
], ids=["reproduce-examples", "dominance"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    """A reader that closed stdout before the run is not a failed check
    (exit 1): the run exits 141, as a shell reports a process that SIGPIPE
    ended, and writes no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rankmech.cli", *argv],
            cwd=ROOT, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")
