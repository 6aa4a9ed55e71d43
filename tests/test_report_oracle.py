"""Whole reports against the benchmark's independent checker.

bench/check.py computes every expected value block by block from a
case's blocks and conjugator and imports nothing from the package, so
it pins what the reports mean where the golden digests pin only their
bytes.  Here it reads the reports and text renderings of the benchmark's
generated cases, seeds 1-20, at the default level: the finite-order
twisted block sums at d = 1, 2, 3 and the semistable d = 1 cases.
"""

import importlib
import os

import pytest

from monodromy import build_report, render_text, scenario_from_dict

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEEDS = range(1, 21)


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        yield importlib.import_module("check"), importlib.import_module("gen")


@pytest.mark.parametrize("kind", ["nonsemistable", "semistable"])
def test_reports_pass_the_independent_checker(bench, kind):
    check, gen = bench
    cases = getattr(gen, f"{kind}_cases")
    checked = 0
    for seed in SEEDS:
        for case in cases(seed):
            report = build_report(scenario_from_dict(case.scenario()))
            problems = check.check_report(case, report)
            problems += check.check_text(case, render_text(report))
            assert problems == [], (case.label, seed, problems)
            checked += 1
    assert checked == len(SEEDS) * (32 if kind == "nonsemistable" else 3)
