"""Behaviour fingerprint: three sha256 hashes over outputs a refactor must keep.

- ``sweeps``: the ``SweepOutcome`` repr of every ``sweeps.SWEEPS`` token and
  of the two no-strict-dominance sweeps only the library runs (uniform with
  refusal, modified without), on ``tests/data/market_3x5.txt``,
  ``tests/data/market_4x5.txt`` and seeded markets of 2 to 5 agents;
- ``verdicts``: the ``DominanceVerdict`` repr of seeded ``check_dominance``
  queries under each of the four (mechanism, refusal) settings;
- ``cli``: the exit code and stdout of ``rankmech dominance`` on seeded
  queries, with ``--candidate`` and with ``--ods``.

Two trees that print the same three hashes give the same outputs on every
one of these inputs.  The script imports the ``rankmech`` of the checkout it
sits in (``src/`` beside ``tests/``), so a copy of it placed in another
checkout fingerprints that one.  It takes under a minute.  Its output is
committed as ``tests/data/fingerprint.txt``, which CI compares it with; a
change that means to alter these outputs rewrites that file.

Run from anywhere, standard library only:

    python tests/fingerprint.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rankmech import cli  # noqa: E402
from rankmech.market import Market, Profile, order_to_names  # noqa: E402
from rankmech.mechanisms import DEFAULT_BUDGET  # noqa: E402
from rankmech.specfile import parse_market_spec, render_market_spec  # noqa: E402
from rankmech.strategy import DominanceQuery, check_dominance  # noqa: E402
from rankmech.sweeps import SWEEPS, sweep_no_strict_dominance  # noqa: E402

SETTINGS = (("uniform", False), ("uniform", True), ("modified", False), ("modified", True))


def bundled(name: str) -> Market:
    market, _ = parse_market_spec((ROOT / "tests" / "data" / name).read_text(encoding="utf-8"))
    return market


def seeded_market(rng: random.Random, n: int) -> Market:
    """``n`` agents, two or three scarce types of seeded capacity, and the outside option."""
    scarce = rng.randint(2, 3)
    return Market(
        tuple(f"a{i + 1}" for i in range(n)),
        (*(f"o{o + 1}" for o in range(scarce)), "null"),
        (*(rng.randint(1, n - 1) for _ in range(scarce)), n),
        scarce,
    )


def sweep_lines() -> list[str]:
    rng = random.Random(4801)
    markets = [bundled("market_3x5.txt"), bundled("market_4x5.txt")]
    markets += [seeded_market(rng, n) for n in (2, 2, 3, 3, 4, 4, 5)]
    lines = []
    for market in markets:
        for token, sweep in SWEEPS.items():
            lines.append(f"{token} {sweep(market, DEFAULT_BUDGET)!r}")
        for mechanism, refusal in (("uniform", True), ("modified", False)):
            outcome = sweep_no_strict_dominance(market, mechanism, refusal, DEFAULT_BUDGET)
            lines.append(f"{mechanism} {refusal} {outcome!r}")
    return lines


def verdict_lines() -> list[str]:
    rng = random.Random(4802)
    markets = [bundled("market_3x5.txt")] + [seeded_market(rng, n) for n in (2, 3, 3, 4, 4)]
    lines = []
    for market in markets:
        orders = market.all_orders()
        for _ in range(12):
            agent = rng.randrange(market.n_agents)
            truth, candidate = rng.choice(orders), rng.choice(orders)
            for mechanism, refusal in SETTINGS:
                query = DominanceQuery(market, agent, truth, candidate, mechanism, refusal)
                lines.append(repr(check_dominance(query)))
    return lines


def cli_lines() -> list[str]:
    rng = random.Random(4803)
    lines = []
    with tempfile.TemporaryDirectory(prefix="rankmech-fingerprint-") as tmp:
        specs = [ROOT / "tests" / "data" / "market_3x5.txt"]
        for i, n in enumerate((2, 3, 4)):
            market = seeded_market(rng, n)
            path = Path(tmp) / f"seeded{i}.txt"
            profile = Profile(tuple(rng.choice(market.all_orders()) for _ in range(n)))
            path.write_text(render_market_spec(market, profile), encoding="utf-8")
            specs.append(path)
        for path in specs:
            market, _ = parse_market_spec(path.read_text(encoding="utf-8"))
            orders = market.all_orders()
            for _ in range(6):
                mechanism, refusal = rng.choice(SETTINGS)
                truth = order_to_names(market, rng.choice(orders))
                argv = ["dominance", "--spec", str(path), "--agent",
                        rng.choice(market.agent_names), "--truth-order", truth,
                        "--mechanism", mechanism, *(["--refusal"] if refusal else [])]
                for tail in (["--candidate", order_to_names(market, rng.choice(orders))],
                             ["--ods"]):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main([*argv, *tail])
                    lines.append(f"{code}\n{out.getvalue()}")
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def main() -> int:
    for name, lines in (("sweeps", sweep_lines()), ("verdicts", verdict_lines()),
                        ("cli", cli_lines())):
        print(f"{name:<8} {digest(lines)}  ({len(lines)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
