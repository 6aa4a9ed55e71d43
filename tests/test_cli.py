import json
import os
import subprocess
import sys

import pytest

from monodromy.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MINUS_SCENARIO = {"d": 1, "p": 3, "tau": [[-1, 0], [0, -1]], "seed": 0}
SHEAR_I_SCENARIO = {
    "d": 2,
    "p": 2,
    "tau": [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "seed": 0,
    "flags": {"strictly_henselian": True},
}


@pytest.fixture
def scenario_path(tmp_path):
    def write(obj, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


class TestTables:
    def test_exceptional_levels(self, capsys):
        assert main(["tables", "--nk", "4"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "N(1) = {1, 2}\n"
            "N(2) = {1, 2, 3, 4}\n"
            "N(3) = {1, 2, 3, 4, 8}\n"
            "N(4) = {1, 2, 3, 4, 5, 8, 9, 16}\n"
        )

    def test_degrees(self, capsys):
        assert main(["tables", "--r", "2", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "R(1, 1) unbounded (every order admissible)" in lines
        assert "R(2, 2) = 4 [orders 1, 2, 4]" in lines
        assert "R(2, 3) = 3 [orders 1, 3]" in lines
        assert "R(2, 4) = 2 [orders 1, 2]" in lines
        assert "R(2, 5) = 1 [orders 1]" in lines

    def test_bad_bound(self, capsys):
        assert main(["tables", "--nk", "0"]) == 2
        assert capsys.readouterr().err == "error: KMAX must be >= 1\n"
        assert main(["tables", "--r", "2", "0"]) == 2
        assert capsys.readouterr().err == "error: KMAX and NMAX must be >= 1\n"
        for bound in ("0", "-4"):
            assert main(["tables", "--r", "2", "3", "--nbound", bound]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: --nbound must be >= 1\n"
            assert captured.out == ""


class TestAnalyze:
    def test_text(self, scenario_path, capsys):
        assert main(["analyze", scenario_path(MINUS_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "semistable:        False" in out
        assert "potentially good:  True" in out
        assert "ranks:             a = 0, u = 1, t = 0" in out
        assert "fixed 2-torsion:   order 4 (Z/2 x Z/2)" in out
        assert "DISAGREE" not in out

    def test_json(self, scenario_path, capsys):
        assert main(["analyze", scenario_path(MINUS_SCENARIO), "--format", "json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["phi_prime"] == [2, 2]
        assert out.endswith("\n")

    def test_json_deterministic(self, scenario_path, capsys):
        path = scenario_path(MINUS_SCENARIO)
        main(["analyze", path, "--format", "json"])
        first = capsys.readouterr().out
        main(["analyze", path, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_level_flag(self, scenario_path, capsys):
        assert main(["analyze", scenario_path(MINUS_SCENARIO), "--n", "5"]) == 0
        assert "fixed 5-torsion:   order 1 (trivial)" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario(self, scenario_path, capsys):
        path = scenario_path({"d": 1, "p": 0, "tau": [[2, 0], [0, 1]], "seed": 0})
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "symplectic" in err

    def test_non_prime_residue_char(self, scenario_path, capsys):
        path = scenario_path({"d": 1, "p": 4, "tau": [[1, 0], [0, 1]], "seed": 0})
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'p' must be 0 or a prime")
        assert err.count("\n") == 1

    def test_singular_polarization(self, scenario_path, capsys):
        path = scenario_path({"d": 1, "p": 0, "tau": [[1, 0], [0, 1]], "seed": 0,
                              "polarization": [[0, 0], [0, 0]]})
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field 'polarization' must be nonsingular")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--n", "4"],
                                         ["cohomology", "--k", "1", "--n", "5"]])
    def test_non_alternating_polarization(self, scenario_path, capsys, command):
        # J P = -2I is nonsingular but not alternating: refused when the
        # file is read, before any level sees the induced form
        path = scenario_path({"d": 1, "p": 0, "tau": [[1, 0], [0, 1]], "seed": 0,
                              "polarization": [[0, 2], [-2, 0]]})
        assert main([command[0], path] + command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: field 'polarization' must induce an alternating form")
        assert captured.err.count("\n") == 1

    def test_polarization_tau_does_not_preserve(self, scenario_path, capsys):
        # tau is symplectic but does not commute with P, so J P is not
        # preserved; the fixed maximal isotropic test would not apply
        path = scenario_path({
            "d": 2, "p": 0, "seed": 0, "n": 3,
            "tau": [[9, 4, 0, 8], [-12, -9, -8, 0], [0, 4, 9, -12], [-4, 0, 4, -9]],
            "polarization": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
        })
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: field 'polarization' must be preserved by tau")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("level", ["0", "-3"])
    def test_level_below_two_is_refused(self, scenario_path, capsys, level):
        # the level-bound batteries are not silently left out
        assert main(["analyze", scenario_path(MINUS_SCENARIO), "--n", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: level must be >= 2\n"

    def test_scenario_level_below_two_is_refused(self, scenario_path, capsys):
        path = scenario_path(dict(MINUS_SCENARIO, n=1))
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'n' must be >= 2\n"

    def test_wild_scenario(self, scenario_path, capsys):
        path = scenario_path({"d": 1, "p": 2, "tau": [[-1, 0], [0, -1]], "seed": 0})
        assert main(["analyze", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_141_quietly(self, scenario_path, fmt):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE on every run
        path = scenario_path(MINUS_SCENARIO)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monodromy", "analyze", path, "--format", fmt],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=SRC))
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestVerify:
    def test_passing_suite_text(self, capsys):
        code = main(["verify", "--suite", "cokernel-torsion", "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite cokernel-torsion: passed" in out
        assert "0 violations" in out

    def test_json_deterministic(self, capsys):
        argv = [
            "verify", "--suite", "mod-n-equivalence", "--trials", "6",
            "--seed", "4", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["passed"] is True
        assert parsed["suite"] == "mod-n-equivalence"

    def test_jobs_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "neron2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_witness_equivalence_refuses_unreachable_dimension(self, capsys):
        argv = ["verify", "--suite", "witness-equivalence", "--trials", "1",
                "--dmax", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: witness-equivalence needs d_max <= 2, got 3\n"
        )


class TestOracleSweep:
    def test_clean_sweep(self, capsys):
        code = main([
            "oracle", "sweep", "--kmax", "3", "--nmax", "12", "--Nmax", "12",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no memberships outside the exceptional levels" in out
        assert "boundary membership at order 2, k = 2, n = 4" in out
        assert "boundary membership at order 4, k = 2, n = 2" in out
        assert "boundary membership at order 3, k = 2, n = 3" in out

    @pytest.mark.parametrize("flag", ["--kmax", "--nmax", "--Nmax"])
    def test_bound_below_one_is_a_usage_error(self, capsys, flag):
        argv = ["oracle", "sweep", "--kmax", "5", "--nmax", "5", "--Nmax", "5"]
        argv[argv.index(flag) + 1] = "0"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 1\n"


class TestCohomology:
    def test_text(self, scenario_path, capsys):
        path = scenario_path(SHEAR_I_SCENARIO)
        assert main(["cohomology", path, "--k", "2", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "cohomology-degree-2: reduction side True, vanishing True, agree True" in out

    def test_json(self, scenario_path, capsys):
        path = scenario_path(SHEAR_I_SCENARIO)
        assert main(["cohomology", path, "--k", "1", "--n", "5", "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["id"] == "cohomology-degree-1"
        assert verdict["agree"] is True

    def test_flag_respected(self, scenario_path, capsys):
        # without the henselian flag, even degree at p = 2 is refused
        plain = dict(SHEAR_I_SCENARIO)
        del plain["flags"]
        path = scenario_path(plain)
        assert main(["cohomology", path, "--k", "2", "--n", "5"]) == 2
        assert "strictly" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "2"])
    def test_degree_out_of_range_is_a_usage_error(self, scenario_path, capsys, k):
        # k = 0 and k = 2d on a d = 1 scenario: exit 2, one line, no traceback
        path = scenario_path(MINUS_SCENARIO)
        assert main(["cohomology", path, "--k", k, "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree must satisfy 0 < k < 2\n"

    def test_exceptional_level(self, scenario_path, capsys):
        path = scenario_path(SHEAR_I_SCENARIO)
        assert main(["cohomology", path, "--k", "1", "--n", "4"]) == 2
        assert "exceptional" in capsys.readouterr().err
