"""End-to-end acceptance battery.

One test per shipping criterion, named so that pytest -v reads as the
acceptance checklist.  Each test also prints a labeled pass/fail line
(visible under -s, and in the failure report when a criterion breaks).
Expected values are frozen; randomized parts derive their seeds so reruns
are byte-for-byte repeatable.
"""

import json
import random

from monodromy import (
    IntMatrix,
    ModMatrix,
    classify,
    cokernel_torsion_check,
    compute_R,
    enumerate_subgroups,
    fixed_subgroup,
    fixes_pointwise,
    galois_criterion,
    generate_hypothesis_instances,
    higher_cohomology_criterion,
    howell_form,
    neron_invariants,
    neron_torsion,
    orthogonal_complement,
    quasi_unipotence_sweep,
    run_suite,
    standard_module,
    verify_neron2,
    verify_neron3,
    verify_neron4,
)
from monodromy.catalog import (
    IDENTITY_2,
    MINUS_IDENTITY_2,
    ORDER_4,
    ORDER_4_INVERSE,
    SHEARS,
    block_sum,
    catalog_matrices,
    derive_seed,
    random_symplectic,
    random_symplectic_conjugate,
)
from monodromy.cli import main

from _oracles import span_closure

MINUS_SCENARIO = {"d": 1, "p": 3, "tau": [[-1, 0], [0, -1]], "seed": 0}


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "criterion %2d [%s]: %s" % (num, label, status)
    if detail and not ok:
        line += " (%s)" % detail
    print(line, flush=True)
    assert ok, "criterion %d [%s]: %s" % (num, label, detail or "failed")


def _scenario_file(tmp_path, obj):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_criterion_01_exceptional_level_tables(capsys):
    assert main(["tables", "--nk", "4"]) == 0
    out = capsys.readouterr().out
    expected = (
        "N(1) = {1, 2}\n"
        "N(2) = {1, 2, 3, 4}\n"
        "N(3) = {1, 2, 3, 4, 8}\n"
        "N(4) = {1, 2, 3, 4, 5, 8, 9, 16}\n"
    )
    _report(1, "exceptional level tables", out == expected,
            "tables --nk 4 output drifted")


def test_criterion_02_semistability_degrees():
    got = tuple(compute_R(2, n) for n in (2, 3, 4, 5))
    _report(2, "semistability degrees", got == (4, 3, 2, 1),
            "compute_R(2, n) for n = 2..5 gave %r" % (got,))


def test_criterion_03_quadratic_twist_analysis(tmp_path, capsys):
    # minus identity at p = 3: additive now, good after a quadratic extension
    path = _scenario_file(tmp_path, MINUS_SCENARIO)
    assert main(["analyze", path, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    checks = (
        rep["semistable"] is False,
        rep["potentially_good"] is True,
        rep["min_degree"] == 2,
        rep["a"] == 0 and rep["u"] == 1 and rep["t"] == 0,
        rep["torsion"]["2"] == {"fixed_order": 4, "structure": [2, 2]},
        rep["torsion"]["4"] == {"fixed_order": 4, "structure": [2, 2]},
        rep["phi_prime"] == [2, 2],
        all(v["agree"] for v in rep["verdicts"]),
    )
    _report(3, "quadratic twist analysis", all(checks),
            "failed sub-checks at positions %s"
            % [i for i, c in enumerate(checks) if not c])


def test_criterion_04_displacement_square_mod_n():
    # reducing (tau - I)^2 mod n loses nothing once n has a prime outside {2, 3}
    levels = (5, 6, 7, 9, 25)
    catalog = catalog_matrices(1) + catalog_matrices(2)
    violations = 0

    def check(tau):
        ident = IntMatrix.identity(tau.rows)
        disp = tau - ident
        sq = disp @ disp
        exact = sq.is_zero()
        return sum(1 for n in levels if sq.reduce_mod(n).is_zero() != exact)

    for tau in catalog:
        violations += check(tau)
    for i in range(10 ** 4):
        rng = random.Random(derive_seed(77, i))
        base = catalog[rng.randrange(len(catalog))]
        u, u_inv = random_symplectic(rng, base.rows // 2)
        violations += check(u @ base @ u_inv)
    _report(4, "displacement square mod n", violations == 0,
            "%d violations" % violations)


def test_criterion_05_witness_subgroup_search():
    # exhaustive mod 5: tau fixes some S and its perp pointwise iff semistable
    violations = 0
    for d in (1, 2):
        module = standard_module(5, d)
        table = [(s, orthogonal_complement(s)) for s in enumerate_subgroups(module)]
        for tau in catalog_matrices(d):
            gen = classify(tau)
            tau5 = tau.reduce_mod(5)
            found = any(
                fixes_pointwise(tau5, s) and fixes_pointwise(tau5, sperp)
                for s, sperp in table
            )
            if found != galois_criterion(gen):
                violations += 1
    _report(5, "witness subgroup search", violations == 0,
            "%d violations" % violations)


def test_criterion_06_quasi_unipotence_sweep():
    rep = quasi_unipotence_sweep(4, 30, 60)
    required = {(2, 2, 4), (4, 2, 2), (3, 2, 3)}
    boundary = set(rep.boundary_memberships)
    ok = rep.ok and not rep.violations and required <= boundary
    _report(6, "quasi-unipotence sweep", ok,
            "violations=%r missing=%r" % (rep.violations, required - boundary))


def test_criterion_07_neron_fixed_point_batteries():
    failures = []

    def phi_prime_order(inv):
        total = 1
        for q in inv.phi_prime:
            total *= q
        return total

    for family, count, runner in (
        ("neron2", 500, verify_neron2),
        ("neron3", 500, verify_neron3),
        ("neron4a", 250, lambda g: verify_neron4(g, "a")),
        ("neron4b", 250, lambda g: verify_neron4(g, "b")),
    ):
        for inst in generate_hypothesis_instances(family, count, 3, seed=11):
            gen = classify(inst.matrix, inst.residue_char)
            for v in runner(gen):
                if not v.agree:
                    failures.append((family, v.criterion))
            inv = neron_invariants(gen)
            d, a, u = inv.dimension, inv.abelian_rank, inv.unipotent_rank
            if family == "neron2":
                rep = neron_torsion(gen, 2)
                index = 2 ** (2 * d) // rep.fixed_order
                ok = (index * phi_prime_order(inv) == 2 ** (2 * u)
                      and all(q == 2 for q in inv.phi_prime))
            elif family == "neron3":
                rep = neron_torsion(gen, 3)
                ok = (rep.fixed_order == 3 ** (2 * d - u)
                      and inv.phi_prime == (3,) * u)
            else:
                rep = neron_torsion(gen, 4)
                ok = (rep.fixed_structure == (2,) * (2 * u) + (4,) * (2 * a)
                      and inv.phi_prime == (2,) * (2 * u))
            if not ok:
                failures.append((family, "identity"))
    _report(7, "Neron fixed-point batteries", not failures,
            "first failures %r" % failures[:4])


def test_criterion_08_kernel_component_identity():
    # #ker((tau - I) mod n) = n^(2a) * #Phi[n], checked from both ends
    violations = 0
    for d in (1, 2):
        for tau in catalog_matrices(d, finite_only=True):
            inv = neron_invariants(classify(tau))
            for n in range(2, 10):
                fixed = fixed_subgroup(tau.reduce_mod(n), standard_module(n, d))
                expected = n ** (2 * inv.abelian_rank) * inv.phi_torsion_order(n)
                if fixed.order != expected:
                    violations += 1
    _report(8, "kernel component identity", violations == 0,
            "%d violations" % violations)


def test_criterion_09_cokernel_two_torsion():
    blocks = (IDENTITY_2, MINUS_IDENTITY_2, ORDER_4, ORDER_4_INVERSE)
    failures = 0
    for i in range(1000):
        rng = random.Random(derive_seed(91, i))
        base = block_sum([rng.choice(blocks) for _ in range(rng.choice((1, 2, 3)))])
        mat, _, _ = random_symplectic_conjugate(base, rng)
        v = cokernel_torsion_check(mat, 2, 1, 2)
        if not (v.hypothesis and v.conclusion and v.agree):
            failures += 1
    _report(9, "cokernel two-torsion", failures == 0, "%d failures" % failures)


def test_criterion_10_higher_degree_vanishing():
    pairs = ((1, 5), (1, 7), (1, 8), (1, 9), (2, 5), (2, 7), (2, 9), (3, 7))
    disagreements = 0
    for tau in catalog_matrices(2):
        gen = classify(tau)
        for k, n in pairs:
            if not higher_cohomology_criterion(gen, k, n).agree:
                disagreements += 1

    worked = []
    minus4 = block_sum([MINUS_IDENTITY_2, MINUS_IDENTITY_2])
    rot44 = block_sum([ORDER_4, ORDER_4])
    shear_i = block_sum([SHEARS[0], IDENTITY_2])
    for tau, p, k, n, expected in (
        (minus4, 3, 2, 5, (True, True, True)),
        (rot44, 3, 2, 5, (False, False, True)),
        (shear_i, 0, 3, 7, (True, True, True)),
    ):
        v = higher_cohomology_criterion(classify(tau, p), k, n)
        worked.append((v.hypothesis, v.conclusion, v.agree) == expected)
    _report(10, "higher degree vanishing", disagreements == 0 and all(worked),
            "%d disagreements, worked examples %r" % (disagreements, worked))


def test_criterion_11_normal_form_properties():
    rep = run_suite("linalg-properties", trials=1000, seed=3, d_max=2)
    suite_ok = rep.passed and rep.checked >= 6000

    # canonical form keeps the span; verified against brute-force closures
    rng = random.Random(derive_seed(23, 0))
    brute_ok = True
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        data = tuple(
            tuple(rng.randrange(n) for _ in range(cols)) for _ in range(rows)
        )
        mat = ModMatrix(n, data)
        h = howell_form(mat)
        if span_closure(h.data, cols, n) != span_closure(data, cols, n):
            brute_ok = False
            break
        if howell_form(h) != h:
            brute_ok = False
            break
        # span-preserving scramble must land on the same canonical form
        scrambled = [list(row) for row in data]
        rng.shuffle(scrambled)
        if rows > 1:
            src = rng.randrange(rows)
            dst = (src + 1 + rng.randrange(rows - 1)) % rows
            mult = rng.randrange(n)
            scrambled[dst] = [
                (scrambled[dst][j] + mult * scrambled[src][j]) % n
                for j in range(cols)
            ]
        rebuilt = ModMatrix(n, tuple(tuple(r) for r in scrambled))
        if howell_form(rebuilt) != h:
            brute_ok = False
            break
    _report(11, "normal form properties", suite_ok and brute_ok,
            "suite passed=%r checked=%d brute=%r"
            % (rep.passed, rep.checked, brute_ok))


def test_criterion_12_byte_identical_reports(tmp_path, capsys):
    verify_argv = [
        "verify", "--suite", "mod-n-equivalence", "--trials", "8",
        "--seed", "4", "--format", "json",
    ]
    outs = []
    for _ in range(3):
        assert main(verify_argv) == 0
        outs.append(capsys.readouterr().out)
    verify_ok = outs[0] == outs[1] == outs[2]

    path = _scenario_file(tmp_path, MINUS_SCENARIO)
    assert main(["analyze", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--format", "json"]) == 0
    analyze_ok = capsys.readouterr().out == first
    _report(12, "byte-identical reports", verify_ok and analyze_ok,
            "verify stable=%r analyze stable=%r" % (verify_ok, analyze_ok))
