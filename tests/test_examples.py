"""The bundled worked-example checks must all hold."""

import ast
import dataclasses

from rankmech import (
    PreferenceOrder,
    Profile,
    examples,
    order_from_names,
    refuse_row,
    uniform_mechanism,
)
from rankmech.examples import example3_market, run_example_checks


def test_every_example_check_passes():
    rows = run_example_checks()
    assert len(rows) >= 30
    failures = [(label, detail) for label, ok, detail in rows if not ok]
    assert failures == []


def test_check_labels_are_unique():
    rows = run_example_checks()
    labels = [label for label, _, _ in rows]
    assert len(labels) == len(set(labels))


def test_ex3_full_extension_mismatch_names_opponents_where_rows_differ(monkeypatch):
    """Fed the promoting demotion in place of the full extension, the ex3
    identity check fails and names opponents at which the refused rows of
    the truth and that demotion differ."""
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    keep = order_from_names(market, "o1>o2>o3>null")
    swap = order_from_names(market, "o1>o3>o2>null")
    real = examples.check_dominance

    def swapped(query, *args):
        if query.candidate == keep:
            query = dataclasses.replace(query, candidate=swap)
        return real(query, *args)

    monkeypatch.setattr(examples, "check_dominance", swapped)
    [(ok, detail)] = [
        (ok, detail) for label, ok, detail in run_example_checks()
        if label.startswith("ex3 full extension matches")
    ]
    assert not ok
    prefix = "differs at opponents "
    assert detail.startswith(prefix)
    opponents = [PreferenceOrder(r) for r in ast.literal_eval(detail[len(prefix):])]
    rows = [
        refuse_row(market, uniform_mechanism(market, Profile((own, *opponents))).row(0), truth)
        for own in (truth, swap)
    ]
    assert rows[0] != rows[1]
