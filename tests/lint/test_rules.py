"""One positive and one negative case per repro-lint rule."""

from __future__ import annotations

import pytest


def _rules_hit(report):
    return {finding.rule for finding in report.new_findings}


@pytest.mark.parametrize(
    "rule_id, bad, good, expected_min",
    [
        ("RPL001", "rpl001_bad.py", "rpl001_good.py", 5),
        ("RPL002", "rpl002_bad.py", "rpl002_good.py", 3),
        ("RPL003", "rpl003_bad.py", "rpl003_good.py", 2),
        ("RPL004", "rpl004_bad.py", "rpl004_good.py", 3),
        ("RPL005", "rpl005_bad.py", "rpl005_good.py", 3),
        ("RPL006", "rpl006_bad.py", "rpl006_good.py", 2),
    ],
)
def test_rule_positive_and_negative(lint_tree, lint_run, rule_id, bad, good, expected_min):
    root = lint_tree(bad, good)
    report = lint_run(root)
    by_rule = [f for f in report.new_findings if f.rule == rule_id]
    assert len(by_rule) >= expected_min, report.new_findings
    # Every finding of the rule under test is in the bad fixture …
    assert all(bad.rsplit("/")[-1] in f.path for f in by_rule), by_rule
    # … and the good fixture is completely clean (for every rule).
    good_findings = [f for f in report.new_findings if good in f.path]
    assert good_findings == []


def test_rpl001_identifies_each_source_kind(lint_tree, lint_run):
    root = lint_tree("rpl001_bad.py")
    messages = [f.message for f in lint_run(root).new_findings]
    assert any("unseeded" in m for m in messages)
    assert any("legacy global-state" in m for m in messages)
    assert any("wall-clock" in m for m in messages)
    assert any("stdlib `random" in m for m in messages)


def test_rpl002_names_the_offending_method(lint_tree, lint_run):
    root = lint_tree("rpl002_bad.py")
    messages = [f.message for f in lint_run(root).new_findings]
    assert any("sneaky_replace" in m for m in messages)
    assert any("sneaky_pop" in m for m in messages)
    assert any("sneaky_splice" in m for m in messages)


def test_rpl005_flags_each_callable_shape(lint_tree, lint_run):
    root = lint_tree("rpl005_bad.py")
    messages = [f.message for f in lint_run(root).new_findings]
    assert any("lambda" in m for m in messages)
    assert any("locally-defined function `chunk`" in m for m in messages)
    assert any("bound method `self.step`" in m for m in messages)


def test_findings_carry_location_and_snippet(lint_tree, lint_run):
    root = lint_tree("rpl006_bad.py")
    report = lint_run(root)
    finding = next(f for f in report.new_findings if f.rule == "RPL006")
    assert finding.path.endswith("rpl006_bad.py")
    assert finding.line > 0 and finding.col > 0
    assert "+=" in finding.snippet
