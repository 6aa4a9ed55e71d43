"""Command line front end.

Subcommands:
  analyze     full report for one scenario file
  verify      run a verification suite, exit 1 on any violation
  tables      exceptional-level and base-change-degree tables
  oracle      exhaustive root-of-unity membership sweep
  cohomology  one degree-k vanishing verdict for a scenario

Exit codes: 0 success, 1 a suite or sweep found violations, 2 bad
usage or unusable input, 141 (128 + SIGPIPE) the reader closed stdout
before the output was written, as in `monodromy analyze s.json | head -1`.
"""

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main"]

# Each subcommand imports the modules it runs, so a process compiles
# only those.  The suite ids are spelled out here for `verify --help`
# rather than imported from suites; a test keeps them equal to
# suites.SUITE_IDS.
_SUITE_IDS = (
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodromy",
        description="Semistable-reduction criteria and component-group "
        "invariants for symplectic inertia actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for a scenario file")
    analyze.add_argument("scenario", help="path to a scenario JSON file")
    analyze.add_argument("--n", type=int, default=None,
                         help="torsion level for the criterion battery")
    analyze.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("--suite", required=True,
                        help="suite id; one of: " + ", ".join(_SUITE_IDS))
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--dmax", type=int, default=2)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    tables = sub.add_parser("tables", help="print exceptional levels or degrees")
    which = tables.add_mutually_exclusive_group(required=True)
    which.add_argument("--nk", type=int, metavar="KMAX",
                       help="exceptional level sets N(k) for k <= KMAX")
    which.add_argument("--r", type=int, nargs=2, metavar=("KMAX", "NMAX"),
                       help="semistability degrees R(k, n) for k <= KMAX, "
                       "n <= NMAX")
    tables.add_argument("--nbound", type=int, default=1000,
                        help="largest root-of-unity order searched for --r")

    oracle = sub.add_parser("oracle", help="exhaustive consistency oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    sweep = oracle_sub.add_parser(
        "sweep", help="root-of-unity membership sweep outside the "
        "exceptional levels")
    sweep.add_argument("--kmax", type=int, required=True)
    sweep.add_argument("--nmax", type=int, required=True)
    sweep.add_argument("--Nmax", type=int, required=True, dest="order_max")

    cohomology = sub.add_parser(
        "cohomology", help="degree-k vanishing verdict for a scenario")
    cohomology.add_argument("scenario", help="path to a scenario JSON file")
    cohomology.add_argument("--k", type=int, required=True)
    cohomology.add_argument("--n", type=int, required=True)
    cohomology.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_analyze(args) -> int:
    from .reports import build_report, canonical_json, render_text
    from .scenarios import load_scenario

    scenario = load_scenario(args.scenario)
    report = build_report(scenario, level=args.n)
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        print(render_text(report))
    return 0


def _cmd_verify(args) -> int:
    from .reports import canonical_json
    from .suites import run_suite

    report = run_suite(args.suite, trials=args.trials, seed=args.seed,
                       d_max=args.dmax)
    if args.format == "json":
        sys.stdout.write(canonical_json(report.to_json_dict()))
    else:
        status = "passed" if report.passed else "FAILED"
        print(f"suite {report.suite}: {status}")
        print(f"  checked {report.checked} properties, "
              f"{report.violations} violations "
              f"(trials={report.trials} seed={report.seed} "
              f"d_max={report.d_max})")
        for failure in report.failures:
            print(f"  {failure}")
        if report.violations > len(report.failures):
            print(f"  ... and {report.violations - len(report.failures)} more")
    return 0 if report.passed else 1


def _cmd_tables(args) -> int:
    from .cyclotomic import exceptional_prime_powers, semistability_degree

    if args.nk is not None:
        if args.nk < 1:
            return _refuse("KMAX must be >= 1")
        for k in range(1, args.nk + 1):
            members = ", ".join(str(n) for n in exceptional_prime_powers(k))
            print(f"N({k}) = {{{members}}}")
        return 0
    k_max, n_max = args.r
    if k_max < 1 or n_max < 1:
        return _refuse("KMAX and NMAX must be >= 1")
    if args.nbound < 1:
        return _refuse("--nbound must be >= 1")
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            cert = semistability_degree(k, n, args.nbound)
            if cert.unbounded:
                print(f"R({k}, {n}) unbounded (every order admissible)")
            else:
                orders = ", ".join(str(o) for o in cert.admissible)
                print(f"R({k}, {n}) = {cert.degree} [orders {orders}]")
    return 0


def _cmd_oracle_sweep(args) -> int:
    from .cyclotomic import quasi_unipotence_sweep

    for flag, bound in (("--kmax", args.kmax), ("--nmax", args.nmax),
                        ("--Nmax", args.order_max)):
        if bound < 1:
            return _refuse(f"{flag} must be >= 1")
    report = quasi_unipotence_sweep(args.kmax, args.nmax, args.order_max)
    print(f"checked {report.checked} triples with k <= {report.k_max}, "
          f"n <= {report.n_max}, order <= {report.order_max}")
    for order, k, n in report.boundary_memberships:
        print(f"  boundary membership at order {order}, k = {k}, n = {n}")
    if report.ok:
        print("no memberships outside the exceptional levels")
        return 0
    for order, k, n in report.violations:
        print(f"VIOLATION: membership at order {order}, k = {k}, n = {n}")
    return 1


def _cmd_cohomology(args) -> int:
    from .cohomology import higher_cohomology_criterion
    from .reports import _verdict_dict, canonical_json
    from .scenarios import load_scenario

    scenario = load_scenario(args.scenario)
    gen = scenario.generator()
    verdict = higher_cohomology_criterion(
        gen, args.k, args.n, strictly_henselian=scenario.strictly_henselian)
    if args.format == "json":
        sys.stdout.write(canonical_json(_verdict_dict(verdict)))
    else:
        print(f"{verdict.criterion}: reduction side {verdict.hypothesis}, "
              f"vanishing {verdict.conclusion}, agree {verdict.agree}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "tables": _cmd_tables,
        "oracle": _cmd_oracle_sweep,
        "cohomology": _cmd_cohomology,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # BrokenPipeError is an OSError, so it is caught before the usage
        # errors.  Pointing stdout at devnull keeps the flush at shutdown
        # from raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:
        if not _is_usage_error(exc):
            raise
        return _refuse(exc)


# The exceptions besides OSError that mean bad usage or unusable input
# (exit 2), named rather than imported: a class whose module never ran
# was not raised, so telling one apart loads nothing.
_USAGE_ERRORS = {"monodromy.inertia.InertiaError", "monodromy.matrices.MatrixError",
                 "monodromy.scenarios.ScenarioError", "monodromy.suites.SuiteError"}


def _is_usage_error(exc: Exception) -> bool:
    return isinstance(exc, OSError) or any(
        f"{cls.__module__}.{cls.__qualname__}" in _USAGE_ERRORS for cls in type(exc).__mro__)


def _refuse(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
