"""What a process imports: the package namespace resolves names on first
use, and each CLI subcommand runs only the modules it needs."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import monodromy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints the monodromy modules whose code has run, and the standard
# modules named in STDLIB once loaded; a submodule that is only
# registered for deferred loading is not counted.
_FOOTPRINT = """
import contextlib, io, json, sys, types
import monodromy{cli}
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        monodromy.cli.main(argv)
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if (name in ("concurrent", "dataclasses", "inspect")
        or name.startswith(("monodromy", "concurrent.")))
    and type(module) is types.ModuleType)))
"""

# dataclasses costs a cold process about 20 ms: its import pulls in
# inspect, and every decorated class execs generated methods.  The
# records are written out by hand instead (monodromy._record).
STDLIB = {"dataclasses", "inspect"}

HEAVY = {"inertia", "torsion", "neron", "scenarios", "reports", "suites", "cohomology"}


def footprint(argv=None):
    code = _FOOTPRINT.format(cli=".cli" if argv is not None else "")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv or [])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("monodromy.") for name in json.loads(proc.stdout)}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"d": 1, "p": 3, "tau": [[-1, 0], [0, -1]], "seed": 0}))
    return str(path)


class TestFootprint:
    def test_package_import_runs_no_submodule(self):
        assert footprint() == {"monodromy"}

    @pytest.mark.parametrize("argv", [
        ["tables", "--nk", "3"],
        ["tables", "--r", "2", "4"],
        ["oracle", "sweep", "--kmax", "2", "--nmax", "4", "--Nmax", "20"],
    ])
    def test_tables_and_oracle_stay_in_cyclotomic(self, argv):
        loaded = footprint(argv)
        assert {"cyclotomic", "polynomials"} <= loaded
        assert not loaded & (HEAVY | {"matrices"})

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_analyze_skips_suites_and_cohomology(self, scenario_file, fmt):
        loaded = footprint(["analyze", scenario_file, "--format", fmt])
        assert {"reports", "neron", "scenarios"} <= loaded
        # catalog only serves instance generation, which analyze never runs
        assert not loaded & {"suites", "cohomology", "catalog", "concurrent"}

    @pytest.mark.parametrize("argv", [
        ["analyze", "{scenario}", "--format", "text"],
        ["analyze", "{scenario}", "--format", "json"],
        ["verify", "--suite", "neron2", "--trials", "1"],
        ["tables", "--nk", "4"],
        ["tables", "--r", "2", "4"],
        ["oracle", "sweep", "--kmax", "2", "--nmax", "4", "--Nmax", "20"],
        ["cohomology", "{scenario}", "--k", "1", "--n", "5"],
    ])
    def test_no_command_loads_dataclasses_or_inspect(self, scenario_file, argv):
        loaded = footprint([a.format(scenario=scenario_file) for a in argv])
        assert "cli" in loaded
        assert not loaded & STDLIB

    def test_refused_analyze_skips_suites_and_cohomology(self, tmp_path):
        # a usage error is told apart without importing its home module
        path = tmp_path / "not-symplectic.json"
        path.write_text(json.dumps({"d": 1, "p": 0, "tau": [[2, 0], [0, 1]], "seed": 0}))
        loaded = footprint(["analyze", str(path)])
        assert {"reports", "scenarios", "inertia"} <= loaded
        assert not loaded & {"suites", "cohomology", "catalog", "concurrent"}

    @pytest.mark.parametrize("argv", [
        ["tables", "--nk", "0"],
        ["tables", "--r", "0", "4"],
        ["oracle", "sweep", "--kmax", "0", "--nmax", "5", "--Nmax", "5"],
    ])
    def test_refused_tables_and_oracle_stay_in_cyclotomic(self, argv):
        loaded = footprint(argv)
        assert "cli" in loaded
        assert not loaded & (HEAVY | {"matrices"})

    def test_verify_loads_suites(self):
        loaded = footprint(["verify", "--suite", "neron2", "--trials", "1"])
        assert "suites" in loaded
        # suites run their units in this thread; no executor is imported
        assert not {name for name in loaded if name.split(".")[0] == "concurrent"}


class TestNamespace:
    def test_every_export_is_its_home_object(self):
        exported = []
        for module, names in monodromy._EXPORTS.items():
            home = importlib.import_module(f"monodromy.{module}")
            for name in names:
                value = getattr(monodromy, name)
                assert value is getattr(home, name), name
                # the table names the module that defines each class and function
                assert getattr(value, "__module__", home.__name__) == home.__name__, name
                exported.append(name)
        assert sorted(exported) == sorted(monodromy.__all__)

    def test_readme_names(self):
        from monodromy import classify, neron_invariants, neron_torsion
        from monodromy.inertia import classify as home_classify
        from monodromy.neron import neron_invariants as home_inv, neron_torsion as home_tor

        assert (classify, neron_invariants, neron_torsion) == (home_classify, home_inv, home_tor)
        assert monodromy.__version__ == "0.1.0"

    def test_dir_and_unknown_names(self):
        assert set(monodromy.__all__) <= set(dir(monodromy))
        with pytest.raises(AttributeError, match="no_such_name"):
            monodromy.no_such_name
        with pytest.raises(ImportError):
            from monodromy import no_such_name  # noqa: F401

    def test_star_import(self):
        namespace = {}
        exec("from monodromy import *", namespace)
        assert set(monodromy.__all__) <= set(namespace)
        assert namespace["run_suite"] is monodromy.suites.run_suite

    def test_submodules_are_modules(self):
        for name in ("matrices", "suites", "cohomology"):
            assert isinstance(getattr(monodromy, name), types.ModuleType)
            assert sys.modules[f"monodromy.{name}"] is getattr(monodromy, name)


def test_usage_errors_name_their_classes():
    from monodromy import cli

    for dotted in cli._USAGE_ERRORS:
        module, _, name = dotted.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert issubclass(cls, ValueError) and cls.__module__ == module


def test_verify_help_lists_the_suite_ids():
    from monodromy import cli, suites

    assert cli._SUITE_IDS == suites.SUITE_IDS
