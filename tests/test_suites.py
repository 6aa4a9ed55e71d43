import os
import subprocess
import sys

import pytest

import monodromy.suites as suites
from monodromy import SUITE_IDS, SuiteError, SuiteReport, run_suite

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestRegistry:
    def test_suite_ids(self):
        assert SUITE_IDS == (
            "mod-n-equivalence",
            "witness-equivalence",
            "cyclotomic-sweep",
            "neron2",
            "neron3",
            "neron4",
            "cokernel-torsion",
            "torsion-identity",
            "higher-cohomology",
            "linalg-properties",
            "unipotent-vanishing",
            "fixed-complement",
            "raynaud-sharpness",
            "component-bound",
            "conjugation-invariance",
        )

    def test_unknown_suite(self):
        with pytest.raises(SuiteError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_parameter_validation(self):
        with pytest.raises(SuiteError):
            run_suite("neron2", trials=0)
        with pytest.raises(SuiteError):
            run_suite("neron2", d_max=0)


class TestAllSuitesPass:
    # small trial counts; the acceptance run turns the numbers up
    @pytest.mark.parametrize("suite", SUITE_IDS)
    def test_suite_passes(self, suite):
        report = run_suite(suite, trials=10, seed=1, d_max=2)
        assert report.passed, report.failures
        assert report.violations == 0
        assert report.checked > 0
        assert report.suite == suite

    def test_report_fields(self):
        report = run_suite("mod-n-equivalence", trials=5, seed=3, d_max=1)
        assert isinstance(report, SuiteReport)
        assert (report.trials, report.seed, report.d_max) == (5, 3, 1)
        d = report.to_json_dict()
        assert d["passed"] is True
        assert d["failures"] == []
        assert d["checked"] == report.checked


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_suite("witness-equivalence", trials=6, seed=7, d_max=2)
        b = run_suite("witness-equivalence", trials=6, seed=7, d_max=2)
        assert a == b

    def test_seed_matters(self):
        a = run_suite("linalg-properties", trials=5, seed=0, d_max=1)
        b = run_suite("linalg-properties", trials=5, seed=1, d_max=1)
        # same pass/fail, but the checked totals come from different draws
        assert a.passed and b.passed


class TestRunnerAggregation:
    def test_unit_order_and_failure_cap(self, monkeypatch):
        def build(trials, seed, d_max):
            def make(i):
                def unit():
                    if i % 2:
                        return 1, [f"fail-{i}"]
                    return 2, []

                return unit

            return [make(i) for i in range(trials)]

        monkeypatch.setitem(suites._BUILDERS, "synthetic", build)
        report = run_suite("synthetic", trials=40, seed=0, d_max=1)
        assert report.checked == 40 + 20
        assert report.violations == 20
        assert not report.passed
        assert len(report.failures) == suites._MAX_REPORTED
        # aggregation preserves unit order
        assert report.failures[0] == "fail-1"
        assert report.failures[1] == "fail-3"

    def test_raising_unit_counts_as_failure(self, monkeypatch):
        def build(trials, seed, d_max):
            def boom():
                raise RuntimeError("exploded")

            return [boom]

        monkeypatch.setitem(suites._BUILDERS, "synthetic-raise", build)
        report = run_suite("synthetic-raise", trials=1)
        assert not report.passed
        assert report.checked == 1
        assert "unit raised RuntimeError: exploded" in report.failures[0]


# Breaks the kernel-count identity inside neron_torsion and prints what
# the torsion-identity suite reports, with the interpreter's -O level.
_BROKEN_IDENTITY = """
import sys
from monodromy import neron, run_suite
neron.NeronInvariants.phi_torsion_order = lambda self, n: 0
report = run_suite("torsion-identity", trials=1, d_max=1)
print(sys.flags.optimize, report.violations)
print(report.failures[0] if report.failures else "")
"""


def test_torsion_identity_checks_fixed_subgroup_independently(monkeypatch):
    # the suite's reference is a kernel computed mod n, not the cached
    # subgroup the report path reads
    monkeypatch.setattr(suites, "fixed_subgroup",
                        lambda tau, module: module.trivial_subgroup())
    report = run_suite("torsion-identity", trials=1, d_max=1)
    assert report.violations > 0
    assert report.failures[0].startswith("fixed order drifted at n=2")


def test_torsion_identity_fires_under_optimize():
    # python -O strips assert statements; the identity check must not be one
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_IDENTITY],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts, failure = proc.stdout.splitlines()
    optimize, violations = (int(x) for x in counts.split())
    assert optimize == 1
    assert violations > 0
    assert failure.startswith("kernel-count identity failed at n=2")
