"""Mutation check: every seeded mutant of ``src/`` must be killed by its tests.

Each mutant replaces one exact text in one file of ``src/`` with another.
The script copies ``src/`` to a temporary directory, applies the mutant
there and runs each of the mutant's test ids in its own pytest process, with
``PYTHONPATH`` on the copy (and the ini's ``pythonpath`` cleared, so the
tests import the copy, not ``src/``).  A mutant is killed when every one of
its test ids fails.  The script exits 1 if a mutant survives, if a test id
errors instead of failing, or if a mutant's old text no longer occurs
exactly once in its file, so the list cannot go stale unnoticed.

Run from anywhere, with pytest installed:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant(
        "parse-memo-hands-every-agent-the-first-order",
        "rankmech/specfile.py",
        "Profile(tuple(orders[text] for text in agents.values()))",
        "Profile(tuple(orders[next(iter(agents.values()))] for text in agents.values()))",
        (
            "tests/test_specfile.py::test_parsing_ties_16_builds_one_order_per_distinct_ranking",
            "tests/test_specfile.py::test_parse_matches_the_line_by_line_parser_on_valid_files",
        ),
    ),
    Mutant(
        "order-check-without-negative-index-test",
        "rankmech/market.py",
        "if not isinstance(o, int) or not 0 <= o < n or ranks[o]:",
        "if not isinstance(o, int) or not o < n or ranks[o]:",
        ("tests/test_market.py::test_order_accepts_exactly_the_permutations_of_its_length",),
    ),
    Mutant(
        "check-profile-without-length-test",
        "rankmech/market.py",
        "        if len(order.ranking) != n_types:\n            market.check_order(order)\n",
        "        pass\n",
        (
            "tests/test_market.py::test_check_profile_checks_lengths_without_calling_check_order",
            "tests/test_market.py::test_profile_replace_and_checks",
        ),
    ),
    Mutant(
        "clone-certificate-fails-every-pair",
        "rankmech/classpairs.py",
        "                if cum_candidate * truth_total < cum_truth * candidate_total:\n"
        "                    failing.add((t, c))\n",
        "                if True:\n"
        "                    failing.add((t, c))\n",
        ("tests/test_sweeps.py::test_truth_clone_certificates_leave_the_verdict_tables_unchanged",),
    ),
    Mutant(
        "member-rows-not-divided-by-k",
        "rankmech/mechanisms.py",
        "        return here, [c // self.k for c in mass]\n",
        "        return here, mass\n",
        (
            "tests/test_mechanisms.py::test_uniform_rows_match_enumeration_on_every_small_profile",
            "tests/test_cli.py::test_pinned_output[reproduce-examples]",
        ),
    ),
    Mutant(
        "splits-step-without-guard-test",
        "rankmech/mechanisms.py",
        "                if (room - need) & guards != guards:\n"
        "                    continue\n",
        "",
        (
            "tests/test_mechanisms.py::test_grouped_count_pass_matches_the_per_agent_pass",
            "tests/test_mechanisms.py::test_uniform_rows_match_enumeration_on_random_markets",
        ),
    ),
    Mutant(
        "no-refusal-comparison-stops-one-rank-early",
        "rankmech/classpairs.py",
        "    return source.classes[t].ranking[: null_rank - 1 if refusal else null_rank]\n",
        "    return source.classes[t].ranking[: null_rank - 1]\n",
        (
            "tests/test_cli.py::test_pinned_output[dominance-3x5-candidate]",
            "tests/test_strategy.py::test_dominance_matches_product_oracle_on_every_small_query[example2_market-uniform-False]",
        ),
    ),
    Mutant(
        "thm1-count-without-truth-class-size",
        "rankmech/sweeps.py",
        "weighed = ((n * size[t], not verdicts[t, d][0], (t, demoted))",
        "weighed = ((n, not verdicts[t, d][0], (t, demoted))",
        (
            "tests/test_cli.py::test_pinned_output[sweep-3x5-thm1]",
            "tests/test_sweeps.py::test_class_pair_sweeps_match_the_order_pair_oracles[thm1]",
        ),
    ),
    Mutant(
        "ete-rest-drawn-without-repeats",
        "rankmech/sweeps.py",
        "    rests = itertools.combinations_with_replacement(range(len(classes)), n - 2) if pairs else ()\n",
        "    rests = itertools.combinations(range(len(classes)), n - 2) if pairs else ()\n",
        (
            "tests/test_sweeps.py::test_ete_visits_exactly_the_multisets_that_can_violate",
            "tests/test_sweeps.py::test_ete_matches_the_per_multiset_oracle_on_scrambled_rows[tight331-uniform-scrambled]",
        ),
    ),
    Mutant(
        "ete-row-read-against-its-own-class",
        "rankmech/sweeps.py",
        "    counts_x, total_x = source.row(ends[y], (*rest, y), x, False)\n",
        "    counts_x, total_x = source.row(ends[x], (*rest, x), x, False)\n",
        (
            "tests/test_sweeps.py::test_ete_matches_the_per_multiset_oracle_on_scrambled_rows[pair-uniform-opponents]",
            "tests/test_sweeps.py::test_ete_matches_the_per_multiset_oracle_on_scrambled_rows[ex3-uniform-opponents]",
        ),
    ),
    Mutant(
        "placeholder-verdicts-before-the-walk",
        "rankmech/classpairs.py",
        "        failing = _clone_failures(source, mechanism, refusal, undecided - tied)\n",
        "        table.update(dict.fromkeys(tied, (True, False)))\n"
        "        failing = _clone_failures(source, mechanism, refusal, undecided - tied)\n",
        (
            "tests/test_sweeps.py::test_a_walk_that_raises_keeps_none_of_its_verdicts",
        ),
    ),
    Mutant(
        "empty-prefix-pairs-walked",
        "rankmech/classpairs.py",
        "if key[t] == key[c] or refusal and null_rank[t] == 1}\n",
        "if key[t] == key[c]}\n",
        (
            "tests/test_sweeps.py::test_the_walk_reads_rows_only_for_open_pairs_that_compare",
            "tests/test_sweeps.py::test_the_sweeps_walk_reads_the_pinned_rows[3x(1,1)]",
        ),
    ),
    Mutant(
        "key-clause-on-the-outside-option-rank-alone",
        "rankmech/classpairs.py",
        "if key[t] == key[c] or refusal",
        "if null_rank[t] == null_rank[c] or refusal",
        (
            "tests/test_acceptance.py::test_criterion_07_no_strict_dominance_without_refusal",
            "tests/test_cli.py::test_pinned_output[sweep-3x5-prop2]",
        ),
    ),
    Mutant(
        "pairs-sharing-a-key-walked",
        "rankmech/classpairs.py",
        "if key[t] == key[c] or refusal",
        "if t == c or refusal",
        (
            "tests/test_sweeps.py::test_the_sweeps_walk_reads_the_pinned_rows[2x(1,1,1,1)]",
            "tests/test_sweeps.py::test_the_sweeps_walk_reads_the_pinned_rows[3x(2,2,1)]",
            "tests/test_sweeps.py::test_the_sweeps_walk_reads_the_pinned_rows[4x(1,2,3)]",
        ),
    ),
    Mutant(
        "special-agent-override-two-ranks-down",
        "rankmech/mechanisms.py",
        "row[self.classes[profile[agent]].ranking[1]] = 1",
        "row[self.classes[profile[agent]].ranking[2]] = 1",
        (
            "tests/test_sweeps.py::test_classes_sharing_a_key_get_equal_rows_with_the_parse_at_every_multiset[3x(2,1,1,3)]",
            "tests/test_sweeps.py::test_classes_sharing_a_key_get_equal_rows_with_the_parse_at_every_multiset[pair]",
        ),
    ),
    Mutant(
        "class-tables-built-before-the-budget-check",
        "rankmech/classpairs.py",
        "    check_budget(market, budget)\n"
        "    if market._class_rows is None:\n"
        "        object.__setattr__(market, \"_class_rows\", _ClassRows(market))\n",
        "    if market._class_rows is None:\n"
        "        object.__setattr__(market, \"_class_rows\", _ClassRows(market))\n"
        "    check_budget(market, budget)\n",
        (
            "tests/test_sweeps.py::test_an_over_budget_market_builds_no_class_tables",
        ),
    ),
    Mutant(
        "prop3-without-agent-0s-refusal",
        "rankmech/sweeps.py",
        "        rows = (_refused(market, row, truth), *(row,) * (n - 1))\n",
        "        rows = (row, *(row,) * (n - 1))\n",
        (
            "tests/test_sweeps.py::test_demotion_waste_matches_the_fraction_oracle[ex2]",
            "tests/test_sweeps.py::test_demotion_waste_matches_the_fraction_oracle[four]",
        ),
    ),
    Mutant(
        "walk-closes-an-entry-at-its-first-failure",
        "rankmech/classpairs.py",
        "                    closed = closed or slot[1] is not None\n"
        "            elif strict and slot[1] is None:\n"
        "                slot[1] = combo\n"
        "                closed = closed or slot[0] is not None\n"
        "        if closed:\n"
        "            open_pairs = [entry for entry in open_pairs if None in entry[3]]\n",
        "                    closed = True\n"
        "            elif strict and slot[1] is None:\n"
        "                slot[1] = combo\n"
        "                closed = closed or slot[0] is not None\n"
        "        if closed:\n"
        "            open_pairs = [entry for entry in open_pairs if entry[3][0] is None]\n",
        (
            "tests/test_cli.py::test_pinned_output[dominance-3x5-candidate]",
            "tests/test_strategy.py::test_dominance_matches_product_oracle_on_every_small_query[example2_market-modified-True]",
        ),
    ),
    Mutant(
        "budget-error-exits-2",
        "rankmech/cli.py",
        "        return 3 if isinstance(err, BudgetError) else 2\n",
        "        return 2\n",
        (
            "tests/test_cli.py::test_budget_exceeded_exit_code",
            "tests/test_cli.py::test_sweep_checks_the_budget_before_listing_orders[prop2]",
        ),
    ),
    Mutant(
        "csv-fields-joined-unquoted",
        "rankmech/cli.py",
        "            writer = csv.writer(handle, lineterminator=\"\\n\")\n"
        "            writer.writerow((\"agent\", \"type\", \"probability\"))\n"
        "            writer.writerows(csv_rows(market, x))\n",
        "            handle.write(\"agent,type,probability\\n\")\n"
        "            handle.writelines(\",\".join(row) + \"\\n\" for row in csv_rows(market, x))\n",
        ("tests/test_cli.py::test_csv_quotes_names_holding_a_comma_or_a_double_quote",),
    ),
    Mutant(
        "market-takes-a-capacity-that-is-not-an-int",
        "rankmech/market.py",
        "        if not isinstance(self.null_type, int):\n"
        "            raise DomainError(f\"null_type must be an int, got {self.null_type!r}\")\n"
        "        for name, q in zip(self.type_names, self.capacities):\n"
        "            if not isinstance(q, int):\n"
        "                raise DomainError(f\"capacity of {name} must be an int, got {q!r}\")\n",
        "",
        ("tests/test_market.py::test_market_rejects_a_capacity_or_null_index_that_is_not_an_int",),
    ),
    Mutant(
        "denial-fixture-denies-any-type",
        "rankmech/examples.py",
        "    if denied_type != ranking[0]:\n",
        "    if False:\n",
        ("tests/test_examples.py::test_denial_fixture_denies_only_the_triggers_first_best",),
    ),
    Mutant(
        "order-hash-of-the-bare-ranking",
        "rankmech/market.py",
        "        object.__setattr__(self, \"ranks\", tuple(ranks))\n",
        "        object.__setattr__(self, \"ranks\", tuple(ranks))\n"
        "\n"
        "    def __hash__(self) -> int:\n"
        "        return hash(self.ranking)\n",
        ("tests/test_market.py::test_order_rank_table_leaves_identity_unchanged",),
    ),
    Mutant(
        "first-with-room-by-type-index",
        "rankmech/classpairs.py",
        "            for o in reversed(order.ranking):\n",
        "            for o in reversed(range(market.n_types)):\n",
        (
            "tests/test_symmetry.py::test_swapping_types_of_equal_capacity_commutes_with_everything[4x(2,2,1,4)]",
            "tests/test_symmetry.py::test_swapping_types_of_equal_capacity_commutes_with_everything[3x(1,1,1,1,3)]",
            "tests/test_sweeps.py::test_class_rows_match_the_mechanism_rows[ex2-uniform]",
        ),
    ),
    Mutant(
        "six-types-over-the-type-limit",
        "rankmech/mechanisms.py",
        "market.n_types > TYPE_LIMIT",
        "market.n_types >= TYPE_LIMIT",
        ("tests/test_cli.py::test_no_flag_raises_the_six_type_limit",),
    ),
    Mutant(
        "sweep-without-its-first-violation-line",
        "rankmech/cli.py",
        "    if outcome.first_violation is not None:\n"
        "        print(f\"first violation: {outcome.first_violation}\")\n",
        "",
        ("tests/test_cli.py::test_sweep_prints_its_first_violation_and_exits_1",),
    ),
    Mutant(
        "prop2-problem-texts-swapped",
        "rankmech/sweeps.py",
        "            problem = \"essentially equal but rows differ somewhere\"\n"
        "        else:\n"
        "            problem = \"expected a failure witness\"\n",
        "            problem = \"expected a failure witness\"\n"
        "        else:\n"
        "            problem = \"essentially equal but rows differ somewhere\"\n",
        (
            "tests/test_sweeps.py::test_dominance_sweeps_name_the_problem_of_their_first_violation"
            "[prop2-essentially-equal]",
            "tests/test_sweeps.py::test_dominance_sweeps_name_the_problem_of_their_first_violation"
            "[prop2-expected-a-failure]",
        ),
    ),
    Mutant(
        "assignment-kept-unreduced",
        "rankmech/assignment.py",
        "common = gcd(denominator, *chain.from_iterable(counts))",
        "common = 1",
        ("tests/test_assignment.py::test_equality_and_hash_agree_with_the_fraction_rows",),
    ),
    Mutant(
        "unchecked-path-keeps-lists",
        "rankmech/assignment.py",
        "        object.__setattr__(x, \"counts\", counts)\n",
        "        object.__setattr__(x, \"counts\", tuple(map(list, counts)))\n",
        (
            "tests/test_assignment.py::"
            "test_unchecked_matrices_match_the_checking_constructor_on_every_small_profile[ex2]",
        ),
    ),
    Mutant(
        "decompose-mask-misses-a-dummy-seat",
        "rankmech/assignment.py",
        "                    entries[c] = space\n"
        "                    mask |= 1 << c\n",
        "                    entries[c] = space\n",
        (
            "tests/test_assignment.py::test_decompose_random_mixtures_round_trip",
            "tests/test_assignment.py::test_decompose_matches_fraction_oracle_on_seeded_markets[spread]",
        ),
    ),
    Mutant(
        "counts-reused-for-any-market",
        "rankmech/assignment.py",
        "x.market is market or x.market == market",
        "True",
        ("tests/test_assignment.py::test_integer_form_is_tied_to_its_market",),
    ),
    Mutant(
        "zero-denominator-accepted",
        "rankmech/assignment.py",
        "denominator < 1:",
        "denominator < 0:",
        ("tests/test_assignment.py::test_constructor_checks_the_denominator",),
    ),
    Mutant(
        "non-int-count-raises-type-error",
        "rankmech/assignment.py",
        "        except (TypeError, DomainError):\n",
        "        except DomainError:\n",
        ("tests/test_assignment.py::test_constructor_names_a_count_that_is_not_an_int",),
    ),
    Mutant(
        "waste-scan-prefers-the-worst-held-type",
        "rankmech/assignment.py",
        "            if ranks[o] < worst:\n",
        "            if ranks[o] <= worst:\n",
        (
            "tests/test_assignment.py::test_waste_scan_matches_fraction_oracle_on_seeded_wide_markets",
            "tests/test_assignment.py::test_waste_scan_matches_fraction_oracle_on_every_small_profile[ex2]",
        ),
    ),
    Mutant(
        "cut-memo-hands-every-agent-the-first-cut",
        "rankmech/mechanisms.py",
        "        members = shared.get(id(rank))\n",
        "        members = shared.get(id(ranks[0]))\n",
        (
            "tests/test_mechanisms.py::"
            "test_count_pass_groups_equal_rank_tables_whatever_objects_hold_them",
            "tests/test_mechanisms.py::test_grouped_count_pass_matches_the_per_agent_pass",
        ),
    ),
    Mutant(
        "dominance-header-before-the-verdicts",
        "rankmech/cli.py",
        "    verdicts = dominance_verdicts(market, agent, truth, [order for order, _ in candidates],\n"
        "                                  args.mechanism, args.refusal, _budget(args))\n"
        "    print(f\"agent: {args.agent}  truth: {args.truth_order}  \"\n"
        "          f\"mechanism: {args.mechanism}  refusal: {'on' if args.refusal else 'off'}\")\n",
        "    print(f\"agent: {args.agent}  truth: {args.truth_order}  \"\n"
        "          f\"mechanism: {args.mechanism}  refusal: {'on' if args.refusal else 'off'}\")\n"
        "    verdicts = dominance_verdicts(market, agent, truth, [order for order, _ in candidates],\n"
        "                                  args.mechanism, args.refusal, _budget(args))\n",
        ("tests/test_cli.py::test_dominance_over_budget_prints_nothing_to_stdout",),
    ),
    Mutant(
        "tally-labels-the-last-violation",
        "rankmech/sweeps.py",
        "            if first is None:\n"
        "                first = label(*args)\n",
        "            first = label(*args)\n",
        (
            "tests/test_sweeps.py::test_the_3x5_no_strict_dominance_sweep_with_refusal_is_pinned",
            "tests/test_sweeps.py::test_given_profile_ete_labels_only_its_first_violation",
            "tests/test_sweeps.py::test_class_pair_sweeps_match_the_order_pair_oracles_on_scrambled_rows[ex4]",
        ),
    ),
    Mutant(
        "within-class-pairs-weighed-in-full",
        "rankmech/sweeps.py",
        "n * size[t] * (size[c] - (t == c))",
        "n * size[t] * size[c]",
        (
            "tests/test_acceptance.py::test_criterion_08_no_strict_dominance_under_modified",
            "tests/test_sweeps.py::test_the_3x5_no_strict_dominance_sweep_with_refusal_is_pinned",
        ),
    ),
    Mutant(
        "sweeps-imports-one-more-private-name",
        "rankmech/sweeps.py",
        "from .assignment import _first_waste\n",
        "from .assignment import _first_waste, _scaled\n",
        ("tests/test_size.py::test_the_package_imports_no_more_private_names_across_modules",),
    ),
)


def run(mutant: Mutant) -> list[str]:
    """The problems with one mutant: empty when every test id kills it."""
    with tempfile.TemporaryDirectory(prefix="rankmech-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return [f"old text occurs {text.count(mutant.old)} times in src/{mutant.file}, not once"]
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        problems = []
        for test in mutant.tests:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-o", "pythonpath=", test],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            if result.returncode == 0:
                problems.append(f"survives {test}")
            elif result.returncode != 1:  # not a test failure: a usage or collection error
                tail = "\n".join(result.stdout.splitlines()[-5:])
                problems.append(f"{test} exited {result.returncode}, not 1:\n{tail}")
        return problems


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        problems = run(mutant)
        print(f"{'killed' if not problems else 'NOT KILLED'}: {mutant.name}", flush=True)
        for problem in problems:
            print(f"  {problem}", flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
