"""Independent checks of the program's outputs.

Expected values are computed block by block from the generator's
blocks and conjugator, never from the program's own output:

* semistable: (tau - I)^2 = 0 in plain integers;
* potentially good, minimal degree: from each block's order;
* a, u, t, phi, phi': from the cokernel of block - I, compared through
  elementary divisors (conjugation preserves the Smith form);
* fixed torsion: conjugation by U is an automorphism of (Z/n)^2d, so
  #G[m] of the fixed subgroup is the product over blocks of brute-force
  counts of fixed vectors killed by m, for every m dividing n.  That
  pins down both the order and the isomorphism type.

Each check returns a list of problems; an empty list means the output
is right.
"""

import json
import math

from gen import PRIMITIVES, block_order, matmul


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def is_semistable(tau):
    n = len(tau)
    disp = [[tau[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    return not any(any(row) for row in matmul(disp, disp))


def factor(q):
    out, p = {}, 2
    while p * p <= q:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
        p += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def elementary_divisors(invariants):
    """Sorted prime powers of a finite abelian group given by any list
    of cyclic orders."""
    return sorted(p**e for q in invariants for p, e in factor(q).items())


def cokernel(name):
    """(zero divisor count, nonzero divisors) of block - I over Z."""
    (a, b), (c, d) = PRIMITIVES[name][0]
    m = (a - 1, b, c, d - 1)
    g = math.gcd(*m)
    if g == 0:
        return 2, []
    det = abs(m[0] * m[3] - m[1] * m[2])
    if det == 0:
        return 1, [g]
    return 0, [g, det // g]


def fixed_count(name, n, m=None):
    """#{v in (Z/n)^2 : block v = v, m v = 0}, by brute force."""
    (a, b), (c, d) = PRIMITIVES[name][0]
    m = n if m is None else m
    count = 0
    for x in range(n):
        for y in range(n):
            if ((a * x + b * y - x) % n == 0 and (c * x + d * y - y) % n == 0
                    and (m * x) % n == 0 and (m * y) % n == 0):
                count += 1
    return count


def exceptional_levels(k):
    """N(k) = {1} and the prime powers l^m with m (l - 1) <= k."""
    out = {1}
    for l in range(2, k + 2):
        if all(l % q for q in range(2, l)):
            e = 1
            while e * (l - 1) <= k:
                out.add(l**e)
                e += 1
    return out


def _strip(q, p):
    while p > 1 and q % p == 0:
        q //= p
    return q


def expected(case):
    """Everything the checker knows about a case's report."""
    tau = case.tau
    orders = [block_order(b) for b in case.blocks]
    good = all(orders)
    exp = {
        "semistable": is_semistable(tau),
        "potentially_good": good,
        "min_degree": math.lcm(*(o or 1 for o in orders)),
        "torsion": {},
    }
    if good:
        zeros, divs = 0, []
        for b in case.blocks:
            z, q = cokernel(b)
            zeros += z
            divs += q
        exp["a"] = zeros // 2
        exp["u"] = case.d - zeros // 2
        exp["t"] = 0
        exp["phi"] = elementary_divisors(divs)
        exp["phi_prime"] = elementary_divisors(_strip(q, case.p) for q in divs)
    for n in (2, 3, 4):
        if case.p == 0 or math.gcd(case.p, n) == 1:
            exp["torsion"][str(n)] = {
                m: math.prod(fixed_count(b, n, m) for b in case.blocks)
                for m in range(1, n + 1) if n % m == 0
            }
    return exp


def _torsion_problems(exp, n, fixed_order, structure):
    counts = exp["torsion"][n]
    out = []
    if fixed_order != counts[int(n)]:
        out.append(f"fixed {n}-torsion order {fixed_order}, expected {counts[int(n)]}")
    if structure is not None:
        got = {m: math.prod(math.gcd(s, m) for s in structure) for m in counts}
        if got != counts:
            out.append(f"fixed {n}-torsion structure {structure} has #G[m] "
                       f"{got}, expected {counts}")
    return out


def check_report(case, report):
    exp = expected(case)
    problems = []
    for key in ("semistable", "potentially_good", "min_degree"):
        if report.get(key) != exp[key]:
            problems.append(f"{key} = {report.get(key)!r}, expected {exp[key]!r}")
    if exp["potentially_good"]:
        for key in ("a", "u", "t"):
            if report.get(key) != exp[key]:
                problems.append(f"{key} = {report.get(key)!r}, expected {exp[key]!r}")
        for key in ("phi", "phi_prime"):
            if elementary_divisors(report.get(key) or []) != exp[key]:
                problems.append(f"{key} = {report.get(key)!r}, expected "
                                f"elementary divisors {exp[key]}")
    elif any(report.get(k) is not None for k in ("a", "u", "t", "phi", "phi_prime")):
        problems.append("reduction invariants present for an infinite-order tau")
    torsion = report.get("torsion", {})
    if sorted(torsion) != sorted(exp["torsion"]):
        problems.append(f"torsion levels {sorted(torsion)}, expected {sorted(exp['torsion'])}")
    else:
        for n, data in torsion.items():
            problems += _torsion_problems(exp, n, data["fixed_order"], data["structure"])
    problems += _verdict_problems(exp, [(v["id"], v["hypothesis"], v["agree"])
                                        for v in report.get("verdicts", [])])
    if json.loads(canonical(report)) != report:
        problems.append("report does not survive a JSON round trip")
    return problems


def _verdict_problems(exp, verdicts):
    problems = [f"verdict {vid} disagrees" for vid, _, agree in verdicts if agree is not True]
    for vid in ("level-structure", "exceptional-degree"):
        hyps = [h for v, h, _ in verdicts if v == vid]
        if hyps != [exp["semistable"]]:
            problems.append(f"{vid} hypotheses {hyps}, expected [{exp['semistable']}]")
    return problems


def check_text(case, text):
    """The text rendering of a report, read back line by line."""
    exp = expected(case)
    lines = text.splitlines()
    problems = []
    heads = {
        "semistable:": exp["semistable"],
        "potentially good:": exp["potentially_good"],
        "minimal degree:": exp["min_degree"],
    }
    for head, value in heads.items():
        found = [ln[len(head):].strip() for ln in lines if ln.startswith(head)]
        if found != [str(value)]:
            problems.append(f"text {head} {found}, expected {value}")
    torsion = {}
    for ln in lines:
        if ln.startswith("fixed "):
            n = ln.split()[1].split("-")[0]
            torsion[n] = int(ln.split("order ")[1].split()[0])
    if sorted(torsion) != sorted(exp["torsion"]):
        problems.append(f"text torsion levels {sorted(torsion)}")
    else:
        for n, order in torsion.items():
            problems += _torsion_problems(exp, n, order, None)
    verdicts = []
    for ln in lines:
        if ln.startswith("  ["):
            body = ln.split("] ", 1)[1]
            vid, rest = body.split(": ", 1)
            hyp = rest.split()[0].split("=")[1]
            verdicts.append((vid, {"True": True, "False": False}.get(hyp, hyp),
                             ln.startswith("  [ok ]")))
    return problems + _verdict_problems(exp, verdicts)


def check_suite(report):
    """A SuiteReport as its JSON dict: passed, with nothing flagged."""
    problems = []
    if report.get("passed") is not True or report.get("violations") != 0:
        problems.append(f"suite {report.get('suite')}: passed={report.get('passed')} "
                        f"violations={report.get('violations')}")
    if report.get("failures"):
        problems.append(f"suite {report.get('suite')}: failures {report['failures'][:3]}")
    if not report.get("checked"):
        problems.append(f"suite {report.get('suite')}: checked nothing")
    return problems


def check_nk_table(text, k_max):
    problems = []
    lines = text.splitlines()
    if len(lines) != k_max:
        return [f"tables --nk {k_max} printed {len(lines)} lines"]
    for k, ln in enumerate(lines, start=1):
        head, _, body = ln.partition(" = ")
        got = {int(x) for x in body.strip("{}").split(", ") if x}
        if head != f"N({k})" or got != exceptional_levels(k):
            problems.append(f"tables --nk line {ln!r}, expected {sorted(exceptional_levels(k))}")
    return problems


# R(2, n) at the exceptional levels 2, 3, 4 and beyond; R(k, 1) is unbounded
_KNOWN_R2 = {2: "4", 3: "3", 4: "2"}


def check_r_table(text, k_max, n_max):
    lines = text.splitlines()
    if len(lines) != k_max * n_max:
        return [f"tables --r printed {len(lines)} lines, expected {k_max * n_max}"]
    problems = []
    for i, ln in enumerate(lines):
        k, n = i // n_max + 1, i % n_max + 1
        head = f"R({k}, {n})"
        if not ln.startswith(head):
            problems.append(f"tables --r line {ln!r} out of order")
        elif n == 1 and "unbounded" not in ln:
            problems.append(f"{head} should be unbounded")
        elif k == 2 and n > 1 and not ln.startswith(f"{head} = {_KNOWN_R2.get(n, '1')} "):
            problems.append(f"tables --r line {ln!r}")
    return problems


# ---- command line outputs: (exit code, stdout, stderr) --------------------

def check_exit(out, want=0):
    rc, _, stderr = out
    if rc != want:
        return [f"exit code {rc}, expected {want}: {stderr.strip()[-300:]}"]
    return []


def check_cli_analyze(case, fmt, out):
    problems = check_exit(out)
    if problems:
        return problems
    stdout = out[1]
    if fmt == "text":
        return check_text(case, stdout)
    report = json.loads(stdout)
    if stdout != canonical(report):
        problems.append("analyze --format json is not canonical JSON")
    return problems + check_report(case, report)


def check_cli_verify(suite, fmt, out):
    problems = check_exit(out)
    if problems:
        return problems
    if fmt == "json":
        return check_suite(json.loads(out[1]))
    lines = out[1].splitlines()
    if lines[:1] != [f"suite {suite}: passed"] or " 0 violations" not in out[1]:
        problems.append(f"verify {suite} printed {lines[:2]}")
    return problems


def check_cli_cohomology(fmt, out):
    problems = check_exit(out)
    if problems:
        return problems
    stdout = out[1]
    agree = json.loads(stdout)["agree"] if fmt == "json" else stdout.rstrip().endswith("agree True")
    return [] if agree is True else [f"cohomology verdict disagrees: {stdout.strip()}"]


def check_cli_sweep(out):
    done = out[1].rstrip().endswith("no memberships outside the exceptional levels")
    return check_exit(out) + ([] if done else ["oracle sweep reported memberships"])
