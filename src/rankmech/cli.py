"""Command-line interface.

``rankmech sweep`` offers the tokens of ``sweeps.SWEEPS`` and runs the
chosen one's sweep from that table.

Exit codes: 0 success, 1 a checked property or reproduction failed,
2 usage or spec-file errors, 3 budget exceeded (``--budget-agents`` raises
the agent limit; no flag raises the six-type limit), 141 (128 +
SIGPIPE) stdout's reader closed before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .assignment import (
    csv_rows,
    decompose,
    rank_value,
    render_matrix,
    wastefulness_witness,
)
from .errors import BudgetError, DomainError, MarketSpecError, RankMechError
from .examples import run_example_checks
from .market import Market, Profile, order_from_names, order_to_names
from .mechanisms import Budget, DEFAULT_BUDGET, get_mechanism
from .specfile import parse_market_spec
from .strategy import dominance_verdicts, full_extension, ods_set, refusal_transform
from .sweeps import SWEEPS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmech",
        description="Exact fair rank-minimizing assignment with refusal analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assign = sub.add_parser("assign", help="run a mechanism on a market file")
    assign.set_defaults(run=_cmd_assign)
    _common_flags(assign)
    assign.add_argument("--truth", metavar="PATH",
                        help="market file whose rankings are the true orders, "
                             "read with --refusal (defaults to the revealed ones)")

    dominance = sub.add_parser("dominance", help="test a reveal against the truth")
    dominance.set_defaults(run=_cmd_dominance)
    _common_flags(dominance, csv=False)
    dominance.add_argument("--agent", required=True, help="agent name from the spec")
    dominance.add_argument("--truth-order", required=True, metavar="ORDER",
                           help="true order, e.g. 'o1>null>o2'")
    group = dominance.add_mutually_exclusive_group(required=True)
    group.add_argument("--candidate", metavar="ORDER", help="candidate reveal to test")
    group.add_argument("--ods", action="store_true",
                       help="test every outside-option demotion of the truth")

    sweep = sub.add_parser("sweep", help="exhaustively check a named property")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("property", choices=list(SWEEPS),
                       help="property to check over the market")
    _common_flags(sweep, mechanism=False, refusal=False, csv=False)

    sub.add_parser(
        "reproduce-examples", help="replay the bundled example markets bit-exactly"
    ).set_defaults(run=_cmd_reproduce)

    decompose_cmd = sub.add_parser(
        "decompose", help="decompose a mechanism output into deterministic parts"
    )
    decompose_cmd.set_defaults(run=_cmd_decompose)
    _common_flags(decompose_cmd, refusal=False)

    return parser


def _common_flags(
    cmd: argparse.ArgumentParser,
    *,
    mechanism: bool = True,
    refusal: bool = True,
    csv: bool = True,
) -> None:
    """Add the shared flags, leaving out those the subcommand does not read."""
    cmd.add_argument("--spec", required=True, metavar="PATH", help="market file")
    if mechanism:
        cmd.add_argument("--mechanism", choices=["uniform", "modified"],
                         default="uniform")
    if refusal:
        cmd.add_argument("--refusal", action="store_true",
                         help="filter outcomes through true acceptability")
    cmd.add_argument("--budget-agents", type=_positive_int, metavar="N",
                     help="raise the budget's agent limit (the six-type limit is fixed)")
    if csv:
        cmd.add_argument("--csv", metavar="PATH",
                         help="also write the final matrix as agent,type,probability")


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "assign" and args.truth is not None and not args.refusal:
        parser.error("assign reads --truth only with --refusal")
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # What is still buffered goes to devnull, so the exit flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except RankMechError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, BudgetError) else 2


def _budget(args: argparse.Namespace) -> Budget:
    if args.budget_agents is not None:
        return Budget(max_agents=args.budget_agents)
    return DEFAULT_BUDGET


def _load(path: str) -> tuple[Market, Profile]:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise MarketSpecError("E_IO", 0, f"cannot read {path}: {err}") from err
    return parse_market_spec(text)


def _write_csv(path: str, market: Market, x) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("agent", "type", "probability"))
            writer.writerows(csv_rows(market, x))
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err}") from err


def _cmd_assign(args: argparse.Namespace) -> int:
    market, revealed = _load(args.spec)
    budget = _budget(args)
    mech = get_mechanism(args.mechanism)
    x = mech(market, revealed, budget)
    truths = revealed
    if args.truth is not None:  # read only with --refusal
        truth_market, truths = _load(args.truth)
        if truth_market != market:
            raise MarketSpecError("E_MARKET_MISMATCH", 0,
                                  "the truth file declares a different market")
    print(f"mechanism: {args.mechanism}")
    for a in range(market.n_agents):
        print(f"revealed {market.agent_names[a]}: {order_to_names(market, revealed[a])}")
    print(render_matrix(market, x))
    print(f"rank value: {rank_value(x, revealed)}")
    witness = wastefulness_witness(market, x, revealed)
    print(_waste_line(market, witness))
    final = x
    if args.refusal:
        refused = refusal_transform(market, x, truths)
        print("after refusal:")
        print(render_matrix(market, refused))
        witness = wastefulness_witness(market, refused, truths)
        print(_waste_line(market, witness))
        final = refused
    if args.csv is not None:
        _write_csv(args.csv, market, final)
    return 0


def _waste_line(market: Market, witness) -> str:
    if witness is None:
        return "wasteful: no"
    a, preferred, held = witness
    return (
        f"wasteful: yes (agent {market.agent_names[a]} holds "
        f"{market.type_names[held]} while {market.type_names[preferred]} has slack)"
    )


def _render_opponents(market: Market, witness) -> str:
    return " ".join(
        f"{market.agent_names[a]}=({order_to_names(market, order)})"
        for a, order in witness
    )


def _cmd_dominance(args: argparse.Namespace) -> int:
    market, _ = _load(args.spec)
    agent = market.agent_index(args.agent)
    truth = order_from_names(market, args.truth_order)
    if args.candidate is not None:
        candidates = [(order_from_names(market, args.candidate), "")]
    else:
        extension = full_extension(market, truth)
        candidates = [
            (order, " [full extension]" if order == extension else " [demotion]")
            for order in ods_set(market, truth)
        ]
    verdicts = dominance_verdicts(market, agent, truth, [order for order, _ in candidates],
                                  args.mechanism, args.refusal, _budget(args))
    print(f"agent: {args.agent}  truth: {args.truth_order}  "
          f"mechanism: {args.mechanism}  refusal: {'on' if args.refusal else 'off'}")
    for (candidate, tag), verdict in zip(candidates, verdicts):
        print(f"candidate {order_to_names(market, candidate)}{tag}: "
              f"weak={'yes' if verdict.weakly_dominates else 'no'} "
              f"strict={'yes' if verdict.strictly_dominates else 'no'}")
        if verdict.failure_witness is not None:
            print(f"  not weakly preferred at "
                  f"{_render_opponents(market, verdict.failure_witness)}")
        if verdict.strict_witness is not None:
            print(f"  strictly preferred at "
                  f"{_render_opponents(market, verdict.strict_witness)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    market, _ = _load(args.spec)
    outcome = SWEEPS[args.property](market, _budget(args))
    print(f"property: {args.property}")
    print(f"checked: {outcome.checked}")
    print(f"violations: {outcome.violations}")
    if outcome.first_violation is not None:
        print(f"first violation: {outcome.first_violation}")
    print(f"result: {'pass' if outcome.passed else 'fail'}")
    return 0 if outcome.passed else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    failures = 0
    for label, ok, detail in run_example_checks():
        if ok:
            print(f"ok: {label}")
        else:
            failures += 1
            suffix = f" ({detail})" if detail else ""
            print(f"MISMATCH: {label}{suffix}")
    total = "all checks passed" if failures == 0 else f"{failures} checks failed"
    print(total)
    return 0 if failures == 0 else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    market, revealed = _load(args.spec)
    budget = _budget(args)
    mech = get_mechanism(args.mechanism)
    x = mech(market, revealed, budget)
    print(f"mechanism: {args.mechanism}")
    print(render_matrix(market, x))
    decomposition = decompose(market, x)
    for weight, det in decomposition.parts:
        placing = " ".join(
            f"{market.agent_names[a]}->{market.type_names[o]}"
            for a, o in enumerate(det.choices)
        )
        print(f"weight {weight}: {placing}")
    exact = decomposition.recombine(market) == x
    print(f"recombines exactly: {'yes' if exact else 'no'}")
    if args.csv is not None:
        _write_csv(args.csv, market, x)
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
