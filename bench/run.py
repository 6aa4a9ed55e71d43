"""Benchmark of the exact pipeline, one workload per input class.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-nonsemistable and cli-cold (README.md says what
each holds and why, and which workloads were tried and dropped).  A run repeats whole rounds of
the same operations for about S seconds, checks every output with
bench/check.py, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates
untraced and traced rounds and the metrics are the per-layer ones plus
the tracing overhead.  Exits 1 when any check fails and 2 when the
package source is missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("analyze-nonsemistable", "cli-cold")
SETUP_PROBES = 7
MIN_ROUNDS = 2
CLI_SUITES = ("neron2", "neron3", "cokernel-torsion", "linalg-properties",
              "fixed-complement", "raynaud-sharpness", "component-bound",
              "cyclotomic-sweep")
SUITE_TRIALS = 4
SUITE_D_MAX = 2
CHILD_TIMEOUT = 120
EXPECTED_FAILURE = "EnumerationCapError"


class Op:
    """One timed operation.  run() returns the output to check;
    check(output) returns a list of problems.  An op built for a known
    fault instead expects run() to end in that fault."""

    def __init__(self, key, run, check, expect_failure=False):
        self.key = key
        self.run = run
        self.check = check
        self.expect_failure = expect_failure


def _import_package():
    sys.path.insert(0, SRC)
    import monodromy
    if os.path.dirname(os.path.abspath(monodromy.__file__)) != os.path.join(SRC, "monodromy"):
        raise SystemExit(f"monodromy imported from {monodromy.__file__}, not {SRC}")
    return monodromy


def analyze_ops(mono, seed):
    """JSON text -> scenario_from_dict -> build_report -> canonical_json
    and render_text, one op per generated scenario."""
    import check as ck
    import gen

    def op(case):
        text = case.to_json()

        def run():
            report = mono.build_report(mono.scenario_from_dict(json.loads(text)))
            return mono.canonical_json(report), mono.render_text(report)

        def check(output):
            body, rendered = output
            report = json.loads(body)
            problems = ck.check_report(case, report) + ck.check_text(case, rendered)
            if body != ck.canonical(report):
                problems.append("canonical_json is not sorted compact JSON")
            return problems

        return Op(case.label, run, check)

    return [op(c) for c in gen.nonsemistable_cases(seed)]


class Cli:
    """Fresh `python -m monodromy` children, one at a time.  In traced
    rounds the child is bench/cli_launch.py, which installs the tracer
    around monodromy.cli.main and hands its spans back."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.tracer = None
        self.main_s = 0.0
        self.process_s = 0.0

    def __call__(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "monodromy"] + args
        else:
            trace_out = os.path.join(self.workdir, "child-trace.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), trace_out] + args
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        if self.tracer is not None:
            with open(trace_out, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(trace_out)
            self.tracer.merge(child["summary"])
            self.tracer.absorb(child["spans"], self.tracer.op)
            self.main_s += child["main_s"]
            self.process_s += wall - child["main_s"]
        return proc.returncode, proc.stdout, proc.stderr


def cli_ops(seed, workdir, cli):
    import check as ck
    import gen
    ops = []

    def add(key, args, check, expect_failure=False):
        ops.append(Op(key, lambda: cli(args), check, expect_failure))

    cases = gen.semistable_cases(seed) + gen.nonsemistable_cases(seed, (1, 2, 1))
    formats = [("text", "json")] * len(cases) + [("text",), ("json",)]
    for case, fmts in zip(cases + gen.failing_cases(), formats):
        path = os.path.join(workdir, f"{case.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.to_json())
        for fmt in fmts:
            add(f"analyze-{fmt}-{case.label}", ["analyze", path, "--format", fmt],
                lambda out, case=case, fmt=fmt: ck.check_cli_analyze(case, fmt, out),
                case.expect_failure)

    suite_seed = gen.suite_seed(seed)
    for i, sid in enumerate(CLI_SUITES):
        fmt = ("text", "json")[i % 2]
        add(f"verify-{sid}", ["verify", "--suite", sid, "--trials", str(SUITE_TRIALS),
                              "--seed", str(suite_seed), "--dmax", str(SUITE_D_MAX),
                              "--format", fmt],
            lambda out, sid=sid, fmt=fmt: ck.check_cli_verify(sid, fmt, out))

    k_max = 3 + seed % 6
    add("tables-nk", ["tables", "--nk", str(k_max)],
        lambda out: ck.check_exit(out) + ck.check_nk_table(out[1], k_max))
    n_max = 4 + seed % 5
    add("tables-r", ["tables", "--r", "3", str(n_max)],
        lambda out: ck.check_exit(out) + ck.check_r_table(out[1], 3, n_max))
    add("oracle-sweep", ["oracle", "sweep", "--kmax", "2", "--nmax", "6", "--Nmax", "30"],
        ck.check_cli_sweep)
    # odd k away from the exceptional levels N(k + 1), at a tame n
    for case, k, fmt in ((cases[0], 1, "text"), (cases[4], 3, "json")):
        n = 7 if case.p != 7 else 11
        add(f"cohomology-{case.label}",
            ["cohomology", os.path.join(workdir, f"{case.label}.json"),
             "--k", str(k), "--n", str(n), "--format", fmt],
            lambda out, fmt=fmt: ck.check_cli_cohomology(fmt, out))
    return ops


class Outcome:
    """Timings and check results of a set of rounds."""

    def __init__(self, ops):
        self.times = {op.key: [] for op in ops}
        self.busy_s = 0.0
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, output, error, seconds):
        self.attempted += 1
        self.busy_s += seconds
        if op.expect_failure:
            self.failed += 1
            if error is not None:
                known = type(error).__name__ == EXPECTED_FAILURE
            else:  # a CLI child must print the traceback and exit 1
                known = len(output) == 3 and output[0] == 1 and EXPECTED_FAILURE in output[2]
            if not known:
                self.problems.append(f"{op.key}: expected the known {EXPECTED_FAILURE}, "
                                     f"got {error!r} / {str(output)[-300:]}")
            return
        if error is not None:
            self.failed += 1
            self.problems.append(f"{op.key}: raised {type(error).__name__}: {error}")
            return
        self.times[op.key].append(seconds)
        if op.key not in self.first:
            self.first[op.key] = output
            self.problems += [f"{op.key}: {p}" for p in op.check(output)]
        elif output != self.first[op.key]:
            self.problems.append(f"{op.key}: output differs from the first round")

    def medians(self):
        return {key: statistics.median(ts) for key, ts in self.times.items() if ts}


def run_rounds(ops, seconds, outcomes, before_round=None, tracer=None):
    """Whole rounds, at least MIN_ROUNDS, and no round that the last
    one's length says would end after `seconds`; round r is recorded in
    outcomes[r % len(outcomes)]."""
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        if before_round:
            before_round(rounds)
        for index, op in enumerate(ops):
            if tracer:
                tracer.op = rounds * len(ops) + index
            t0 = time.perf_counter()
            output = error = None
            try:
                output = op.run()
            except Exception as exc:  # classified after timing
                error = exc
            outcomes[rounds % len(outcomes)].record(op, output, error,
                                                    time.perf_counter() - t0)
        rounds += 1
        last = time.perf_counter() - round_start


def end_to_end(outcome, setup_s, rss_kb):
    times = [t for ts in outcome.times.values() for t in ts]
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (1000 * statistics.median(times), "ms"),
        "op_ms.p90": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        # failing operations spend time and complete nothing
        "ops_per_s": (len(times) / outcome.busy_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced_run(args, ops, cli):
    """Even rounds untraced, odd rounds traced; the traced half gives the
    per-layer means, the difference between the halves the overhead."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced = Outcome(ops), Outcome(ops)
    traced.first = plain.first  # tracing must not change a byte of output

    def before_round(index):
        if cli is not None:
            cli.tracer = tracer if index % 2 else None
        elif index % 2:
            tracer.install()
        else:
            tracer.uninstall()

    run_rounds(ops, args.seconds, [plain, traced], before_round, tracer)
    tracer.uninstall()
    tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    per_op = traced.attempted
    metrics = tracer.layer_metrics(per_op, CLI_SUITES)
    metrics["cli.main_ms"] = (1000 * cli.main_s / per_op if cli else 0.0, "ms")
    metrics["cli.process_ms"] = (1000 * cli.process_s / per_op if cli else 0.0, "ms")
    untraced_s = sum(plain.medians().values())
    traced_s = sum(traced.medians().values())
    metrics["trace.overhead_ms"] = (1000 * (traced_s - untraced_s) / len(plain.medians()), "ms")
    metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")

    merged = Outcome(ops)
    merged.attempted = plain.attempted + traced.attempted
    merged.failed = plain.failed + traced.failed
    merged.problems = plain.problems + traced.problems
    return metrics, merged


def build_ops(workload, seed, workdir):
    """Everything a workload does before its first timed operation."""
    mono = _import_package()
    if workload == "cli-cold":
        import monodromy.cli  # noqa: F401  (what each child imports)
        cli = Cli(workdir)
        return cli, cli_ops(seed, workdir, cli)
    return None, analyze_ops(mono, seed)


def probe(workload, seed):
    """One set-up, timed from before the package import."""
    start = time.perf_counter()
    workdir = tempfile.mkdtemp(dir=RESULTS)
    try:
        build_ops(workload, seed, workdir)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir)


def setup_seconds(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "monodromy", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()} system={platform.system()}")
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workdir = tempfile.mkdtemp(dir=RESULTS)
    try:
        cli, ops = build_ops(args.workload, args.seed, workdir)
        if args.trace:
            metrics, outcome = traced_run(args, ops, cli)
        else:
            outcome = Outcome(ops)
            run_rounds(ops, args.seconds, [outcome])
            who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            metrics = end_to_end(outcome, setup_s, resource.getrusage(who).ru_maxrss)
    finally:
        shutil.rmtree(workdir)

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
