"""Fixture-based positive/negative tests for every REPRO rule.

Each rule must (a) fire on its positive fixture — so deleting or
breaking the rule's implementation fails here — and (b) stay silent on
its negative fixture — so the rule does not flag the sanctioned idioms
it is steering people toward.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_source, all_rules
from repro.analysis.rules import rule_by_id

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = [
    "REPRO001",
    "REPRO002",
    "REPRO003",
    "REPRO004",
    "REPRO005",
    "REPRO006",
]

#: Minimum flagged sites in each positive fixture — every ``# flagged``
#: comment in the fixture should produce a finding.
EXPECTED_MINIMUM = {
    "REPRO001": 6,
    "REPRO002": 14,
    "REPRO003": 6,
    "REPRO004": 3,
    "REPRO005": 9,
    "REPRO006": 4,
}


def _run(rule_id: str, fixture: str):
    source = (FIXTURES / fixture).read_text()
    findings = analyze_source(source, path=fixture, rules=[rule_by_id(rule_id)])
    return [f for f in findings if f.rule == rule_id]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_positive_fixture_fires(rule_id):
    findings = _run(rule_id, f"{rule_id.lower()}_positive.py")
    assert len(findings) >= EXPECTED_MINIMUM[rule_id], [
        f.render() for f in findings
    ]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_negative_fixture_is_clean(rule_id):
    findings = _run(rule_id, f"{rule_id.lower()}_negative.py")
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_flagged_comments_match_findings(rule_id):
    """Every `# flagged` marker line in a positive fixture is reported."""
    fixture = FIXTURES / f"{rule_id.lower()}_positive.py"
    source = fixture.read_text()
    marked = {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if "# flagged" in line
    }
    findings = _run(rule_id, fixture.name)
    found_lines = {f.line for f in findings}
    missed = marked - found_lines
    assert not missed, f"marked lines with no finding: {sorted(missed)}"


def test_registry_is_complete():
    assert [rule.id for rule in all_rules()] == RULE_IDS


def test_rules_have_distinct_pragma_names():
    names = [rule.name for rule in all_rules()]
    assert len(names) == len(set(names))


def test_finding_identity_is_line_independent():
    source = (FIXTURES / "repro001_positive.py").read_text()
    shifted = "\n\n\n" + source
    original = analyze_source(source, rules=[rule_by_id("REPRO001")])
    moved = analyze_source(shifted, rules=[rule_by_id("REPRO001")])
    assert [f.identity for f in original] == [f.identity for f in moved]
    assert [f.line + 3 for f in original] == [f.line for f in moved]
