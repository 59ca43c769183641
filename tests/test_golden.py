"""Default CLI output pinned byte for byte: stdout, stderr and exit code of each golden case.

The cases and the command that rewrites the files are in ``golden/regenerate.py``.
"""

from __future__ import annotations

import json

import pytest

from golden.regenerate import CASES, HERE, OUTCOMES, changes, run_case
from spinheat import lindblad, steady_state

EXPECTED = json.loads(OUTCOMES.read_text())


def assert_golden(name: str, outcome: tuple[int, str, str]) -> None:
    code, out, err = outcome
    assert out.encode() == (HERE / f"{name}.out").read_bytes()
    assert err == EXPECTED[name]["stderr"]
    assert code == EXPECTED[name]["exit"]


def test_every_case_has_its_files():
    assert set(EXPECTED) == set(CASES)
    assert {p.stem for p in HERE.glob("*.out")} == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_the_golden_file(name):
    assert_golden(name, run_case(name))


# the cases that solve chains (ri-converge solves collision maps, which keep nothing)
CHAIN_CASES = [name for name, (argv, _) in CASES.items()
               if argv[0] in ("steady", "sweep", "check-one-way")]


def test_cases_run_again_on_kept_patterns_match_the_golden_files(monkeypatch):
    # every case runs twice in one thread, in the order a b a c b d c ...: each
    # second run comes back after another case's first, and takes the layouts
    # and plans its own first run kept
    made = []
    layout_of, plan = lindblad._Layout.of, steady_state._Plan
    monkeypatch.setattr(lindblad._Layout, "of",
                        classmethod(lambda cls, *masks: made.append(cls) or layout_of(*masks)))
    monkeypatch.setattr(steady_state, "_Plan", lambda *pattern: made.append(plan) or plan(*pattern))
    order = [CHAIN_CASES[0], *(name for pair in zip(CHAIN_CASES[1:], CHAIN_CASES) for name in pair),
             CHAIN_CASES[-1]]
    ran = set()
    for name in order:
        before = len(made)
        outcome = run_case(name)
        if name in ran:
            assert_golden(name, outcome)
            assert made[before:] == [], name
        ran.add(name)
    assert ran == set(CHAIN_CASES)


def test_changes_reports_the_largest_change_per_column():
    # a CSV zero written "0" moves like any number; a count, a string or a
    # missing row is "changed"; unchanged columns are left out
    old = "a,n,regime\n0,1,Other\n0.5,2,Other\n"
    new = "a,n,regime\n1e-16,1,Other\n0.5000000000000001,3,Heater\n"
    assert changes(old, new) == {"a": "1.1e-16", "n": "changed", "regime": "changed"}
    assert changes('[{"x": 1.0, "k": 2}]', '[{"x": 1.5, "k": 2}]') == {"x": "0.5"}
    assert changes("fitted order = 2.0\n", "fitted order = 2.25\n") == {"fitted order": "0.25"}
    assert changes("a\n1.0\n", "a\n1.0\n2.0\n") == {"a": "changed"}
