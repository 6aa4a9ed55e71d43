import hashlib
import os
import subprocess
import sys

import pytest

import monodromy.matrices as matrices
import monodromy.suites as suites
from monodromy import SUITE_IDS, SuiteError, SuiteReport, canonical_json, run_suite

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


# SHA-256 of canonical_json(report.to_json_dict()) for trials=10, seed=1,
# d_max=2: a refactor of a suite must leave its report byte for byte
REPORT_SHA256 = {
    "mod-n-equivalence":
        "8821f0ce83cde5e8ddb3bffc4f182fc41c6bc1e4a642c0335792733a929a4c43",
    "witness-equivalence":
        "2092919b9971836e361c56657013f7c80e5c2af168daff0d0ad925268d478856",
    "cyclotomic-sweep":
        "33bd42e8dc4c4ab8fad15450fd46f383133ec22f762adb29d9069d75b88b03ad",
    "neron2":
        "42a601cec76456cadea058d69a099455863fcf430a1e6d0a72e0b01ada1dfef8",
    "neron3":
        "9d0a5614c6f2d38dd96dd3b8d78a571a709ea892819f465ef895c69609fbbda6",
    "neron4":
        "e84d472a96ce27e50bb96ffc8d11a2ce42017029da693377f8cbb3c20ae5c8fa",
    "cokernel-torsion":
        "1d6900b24e3d7b2b519cb1a78c5653bb3056c1a122b6630ccea37f0fcd2e583d",
    "torsion-identity":
        "a772ffafb3be9e3e9b07363b95ebb7c2b84dea171c8a67a0570131cfb7c6c6ac",
    "higher-cohomology":
        "8e779d8e3987838bb1845149f5f36cd91371316fcc136e6a38d78199e69842cb",
    "linalg-properties":
        "082861275d12cd653f9bd0879db88e4988e56ea46cefc5691a4fc5651db816dc",
    "unipotent-vanishing":
        "f66cab07737d9573980fabfe1b866791ce9e9434dfe08f4f4de887aa239098d3",
    "fixed-complement":
        "84cd1f0914328588b0eda92c4943a58edfdd481eb4311634a152217cf4163cd3",
    "raynaud-sharpness":
        "bc6ab0a6a359cadfce0d33ffdb822a37d812985df34c080b4177192f8ad80fea",
    "component-bound":
        "bd929c8f9006647a0aefd1d1ef35f61bc1a95cefeb60aeabbb5d28f0445af43a",
    "conjugation-invariance":
        "f888d060f12950e4859cdea17c53bb45012f2d9edc5e5fe6799bc2b6df97439a",
}


class TestAllSuitesPass:
    # small trial counts; the acceptance run turns the numbers up
    @pytest.mark.parametrize("suite", SUITE_IDS)
    def test_suite_passes(self, suite):
        report = run_suite(suite, trials=10, seed=1, d_max=2)
        assert report.passed, report.failures
        assert report.violations == 0
        assert report.checked > 0
        assert report.suite == suite
        digest = hashlib.sha256(canonical_json(report.to_json_dict()).encode()).hexdigest()
        assert digest == REPORT_SHA256[suite]

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
                        lambda tau, module: module.subgroup([]))
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


def test_linalg_properties_are_checked_one_by_one(monkeypatch):
    # A doubled Bezout pair breaks every routine built on the extended
    # gcd: the Smith form (which then raises its own check), the Howell
    # form and the kernels.  Each unit still checks all six properties,
    # records each broken one once, and the exterior power and the
    # characteristic polynomial, which do not use it, keep passing.
    xgcd = matrices._xgcd

    def doubled(a, b):
        g, s, t = xgcd(a, b)
        return g, 2 * s, 2 * t

    monkeypatch.setattr(matrices, "_xgcd", doubled)
    report = run_suite("linalg-properties", trials=20, seed=0, d_max=2)
    assert report.checked == 120
    assert not any(f.startswith("unit raised") for f in report.failures)
    broken = set()
    for i in range(20):
        checked, failures = suites._linalg_unit(i, 0, 2)
        assert checked == 6
        names = [f.split(" for ")[0] for f in failures]
        assert len(names) == len(set(names))
        broken.update(names)
    assert broken == {
        "smith decomposition broken",
        "howell form not idempotent",
        "howell form not canonical",
        "kernel wrong",
    }
    assert report.violations == sum(
        len(suites._linalg_unit(i, 0, 2)[1]) for i in range(20))


def test_neron_instances_are_classified_once(monkeypatch):
    # the hypothesis check classifies each instance at its residue
    # characteristic, and the suite unit reads that generator
    import monodromy.inertia as inertia
    import monodromy.scenarios as scenarios

    calls = []
    real = inertia.classify
    for module in (inertia, scenarios, suites):
        monkeypatch.setattr(module, "classify",
                            lambda *args: calls.append(args) or real(*args))
    report = run_suite("neron2", trials=20, seed=1, d_max=2)
    assert report.checked == 60 and report.violations == 0
    assert len(calls) == 20
