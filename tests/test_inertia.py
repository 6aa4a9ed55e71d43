import math
import os
import random
import subprocess
import sys

import pytest

from monodromy import (
    DegreeObstruction,
    HypothesisNotMet,
    InertiaError,
    IntMatrix,
    NotPotentiallySemistable,
    NotQuasiUnipotent,
    NotSymplectic,
    Polarization,
    WildRamification,
    char_poly,
    classify,
    elliptic_criteria,
    exceptional_criterion,
    find_witness_subgroup,
    galois_criterion,
    level_structure_criterion,
    minimal_semistable_degree,
    purely_additive_criteria,
    quartic_semistability_check,
    raynaud_criterion,
    semistable_after_extension,
    square_zero_mod_n,
    standard_symplectic_form,
    witness_exists,
)
from monodromy.catalog import (
    FINITE_ORDER_PRIMITIVES,
    PRIMITIVES,
    block_sum,
    catalog_matrices,
    random_symplectic_conjugate,
)
from monodromy.cyclotomic import DegreeCertificate
from monodromy.inertia import (
    InertiaGenerator,
    is_good,
    is_purely_additive,
    is_tame,
    require_tame,
)
from monodromy.matrices import MatrixError, ModMatrix, smith_normal_form
from monodromy.neron import neron_torsion, verify_neron2, verify_neron3, verify_neron4
from monodromy.torsion import (
    TorsionError,
    extend_to_maximal_isotropic,
    fixed_subgroup,
    fixes_pointwise,
    orthogonal_complement,
    standard_module,
)

from _oracles import (
    brute_fixed_vectors,
    brute_orthogonal,
    displacements_after,
    elements,
    is_unipotent,
    leibniz_det,
    naive_classify,
    naive_product,
    riemann_form,
    scalar_polarization,
    split_fixed_vectors,
    structure_from_counts,
    subgroup_structure,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

I2 = IntMatrix.identity(2)
MINUS = IntMatrix([[-1, 0], [0, -1]])
ROT3 = IntMatrix([[0, -1], [1, -1]])
ROT4 = IntMatrix([[0, -1], [1, 0]])
ROT6 = IntMatrix([[1, -1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])


DEEP = IntMatrix([[1, -1, -1, 0], [0, 1, -1, -1], [0, 0, 1, 0], [0, 0, 1, 1]])


def polarized_outcome(g, n, pol):
    """g.fixes_maximal_isotropic(n, pol) checked against brute force:
    DegreeObstruction iff gcd(det(J P mod n), n) != 1, a plain
    InertiaError iff tau^T (J P) tau != J P, and otherwise whether the
    vectors orthogonal to FIX's generators under J P mod n (a scan of
    the module) all lie in FIX (a scan too).  Returns "degenerate",
    "unpreserved" or that answer."""
    form = riemann_form(pol.matrix.data)
    reduced = [[x % n for x in row] for row in form]
    if math.gcd(leibniz_det(reduced), n) != 1:
        with pytest.raises(DegreeObstruction):
            g.fixes_maximal_isotropic(n, pol)
        return "degenerate"
    tau = g.matrix.data
    if naive_product(naive_product(list(zip(*tau)), form), tau) != form:
        with pytest.raises(InertiaError) as caught:
            g.fixes_maximal_isotropic(n, pol)
        assert type(caught.value) is InertiaError
        return "unpreserved"
    fix = g.fixed_at_level(n)
    fixed = brute_fixed_vectors(g.matrix.reduce_mod(n))
    assert set(elements(fix)) == fixed
    expected = brute_orthogonal(frozenset(fix.gens.data), ModMatrix(n, reduced)) <= fixed
    assert g.fixes_maximal_isotropic(n, pol) == expected
    return expected


def triple(v):
    return (v.hypothesis, v.conclusion, v.agree)


def classify_outcome(tau, p=0):
    """classify's fields and the content of (tau - I)^2 in the oracle's
    order, or the refusal's type and message."""
    try:
        g = classify(tau, p)
    except InertiaError as exc:
        return type(exc), str(exc)
    return (g.semisimple_order, g.factor_orders, g.unipotent_index,
            g.potentially_good, g.displacement_content)


def naive_outcome(tau, p=0):
    try:
        return naive_classify(tau, p)
    except InertiaError as exc:
        return type(exc), str(exc)


class TestClassify:
    @pytest.mark.parametrize("d", [1, 2])
    def test_unipotent_index_matches_direct_test(self, d):
        for tau in catalog_matrices(d):
            unipotent, index = is_unipotent(tau)
            g = classify(tau)
            assert g.unipotent_index == (index if unipotent else None)

    def test_identity(self):
        g = classify(I2)
        assert g.dimension == 1
        assert g.rank == 2
        assert g.semisimple_order == 1
        assert g.unipotent_index == 0
        assert g.potentially_good

    def test_shear(self):
        g = classify(SHEAR)
        assert g.semisimple_order == 1
        assert g.unipotent_index == 2
        assert not g.potentially_good
        assert g.factor_orders == ((1, 2),)

    def test_minus_identity(self):
        g = classify(MINUS)
        assert g.semisimple_order == 2
        assert g.unipotent_index is None
        assert g.potentially_good
        assert g.factor_orders == ((2, 2),)

    def test_rotations(self):
        assert classify(ROT3).semisimple_order == 3
        assert classify(ROT4).semisimple_order == 4
        g = classify(ROT6)
        assert g.semisimple_order == 6
        assert g.factor_orders == ((6, 1),)

    def test_not_symplectic(self):
        with pytest.raises(NotSymplectic):
            classify(IntMatrix([[1]]))
        with pytest.raises(NotSymplectic):
            classify(IntMatrix([[2, 0], [0, 1]]))
        # anti-symplectic, tau^T J tau = -J: the swap has c_0 = -1, while
        # diag(1, 1, -1, -1) has c_0 = 1 and only fails N_3 = J tau^T J
        swap = IntMatrix([[0, 1], [1, 0]])
        diagonal = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        for tau, c0 in ((swap, -1), (diagonal, 1)):
            j = standard_symplectic_form(tau.rows // 2)
            assert tau.transpose() @ j @ tau == -j
            assert char_poly(tau).coeffs[0] == c0
            with pytest.raises(NotSymplectic, match="does not preserve the standard symplectic"):
                classify(tau)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_symplectic_form_broken_in_one_half(self, d):
        # For symplectic tau, tau [[I, 0], [X, I]] carries the form
        # J + [[X - X^T, 0], [0, 0]] and tau [[I, X], [0, I]] carries
        # J + [[0, 0], [0, X^T - X]]: broken only in the top half or
        # only in the bottom half, exactly when X is not symmetric (never
        # at d = 1).  The reference is the product over the integers.
        rng = random.Random(d)
        j = [list(row) for row in standard_symplectic_form(d).data]
        refused = 0
        for base in catalog_matrices(d)[::97]:
            tau = random_symplectic_conjugate(base, rng)[0]
            for _ in range(4):
                x = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
                lower = [[int(r == c) for c in range(2 * d)] for r in range(2 * d)]
                upper = [row[:] for row in lower]
                for r in range(d):
                    for c in range(d):
                        lower[d + r][c] = x[r][c]
                        upper[r][d + c] = x[r][c]
                for shear, intact in ((lower, slice(d, None)), (upper, slice(0, d))):
                    broken = naive_product(tau.data, shear)
                    form = naive_product(naive_product(list(zip(*broken)), j), broken)
                    assert form[intact] == j[intact]
                    if form == j:
                        classify(IntMatrix(broken))
                        continue
                    refused += 1
                    with pytest.raises(NotSymplectic):
                        classify(IntMatrix(broken))
        assert (refused > 0) == (d > 1)

    def test_not_quasi_unipotent(self):
        # determinant 1 but trace 3: eigenvalues off the unit circle
        with pytest.raises(NotQuasiUnipotent):
            classify(IntMatrix([[2, 1], [1, 1]]))

    def test_deep_unipotent_rejected(self):
        j = standard_symplectic_form(2)
        assert DEEP.transpose() @ j @ DEEP == j
        with pytest.raises(NotPotentiallySemistable):
            classify(DEEP)

    @pytest.mark.parametrize("tau, m", [
        (DEEP, 1),
        (-DEEP, 2),
        (block_sum([DEEP, ROT3]), 3),
        (block_sum([DEEP, ROT4]), 4),
    ])
    def test_deep_unipotent_part_rejected_at_every_order(self, tau, m):
        # the obstruction is (tau^m - I)^2 != 0 at the semisimple order
        # m, decided from f(tau)^2 for f the radical of chi
        rng = random.Random(m)
        for t in (tau, random_symplectic_conjugate(tau, rng)[0]):
            with pytest.raises(NotPotentiallySemistable) as caught:
                classify(t)
            assert str(caught.value) == (
                f"(tau^{m} - I)^2 != 0: unipotent part has nilpotency index above 2")
            assert classify_outcome(t) == naive_outcome(t)

    def test_wild_ramification(self):
        with pytest.raises(WildRamification):
            classify(ROT3, 3)
        with pytest.raises(WildRamification):
            classify(MINUS, 2)
        with pytest.raises(WildRamification):
            classify(ROT6, 2)
        # coprime residue characteristic passes
        assert classify(ROT3, 5).residue_char == 5

    def test_negative_residue_char(self):
        with pytest.raises(InertiaError):
            classify(I2, -1)

    def test_helpers(self):
        g = classify(ROT4)
        assert g.module(5).level == 5
        assert g.fixed_at_level(2).order == 2


class TestSemistability:
    def test_galois_criterion(self):
        assert galois_criterion(classify(I2))
        assert galois_criterion(classify(SHEAR))
        assert not galois_criterion(classify(MINUS))
        assert not galois_criterion(classify(ROT4))

    def test_square_zero_mod_n(self):
        g = classify(MINUS)
        # (-2I)^2 = 4I: zero mod 2 and 4, nonzero mod 3 and 5
        assert square_zero_mod_n(g, 2)
        assert square_zero_mod_n(g, 4)
        assert not square_zero_mod_n(g, 3)
        assert not square_zero_mod_n(g, 5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_displacement_content_decides_every_level(self, d):
        # one gcd per generator; the reference is the square taken by
        # naive products and reduced entry by entry
        for tau in catalog_matrices(d):
            g = classify(tau)
            disp = (tau - IntMatrix.identity(2 * d)).data
            square = naive_product(disp, disp)
            assert galois_criterion(g) == (not any(map(any, square)))
            for n in range(1, 31):
                expected = all(x % n == 0 for row in square for x in row)
                assert g.fixes_maximal_isotropic(n) == expected
                assert (g.displacement_content % n == 0) == expected

    def test_levels_below_one_keep_their_errors(self):
        # a bare remainder by the content or by the first Smith divisor
        # would divide by zero at n = 0 and answer at n < 0 (True for
        # fixes_all_torsion(-2) at -I); every such level is refused
        for g in (classify(SHEAR), classify(MINUS)):
            for n in (0, -2, -3):
                for call, error, message in (
                    (lambda: g.fixes_maximal_isotropic(n), MatrixError,
                     "modulus must be >= 1"),
                    (lambda: g.fixes_all_torsion(n), MatrixError, "modulus must be >= 1"),
                    (lambda: square_zero_mod_n(g, n), InertiaError, "level must be >= 1"),
                    (lambda: g.fixes_maximal_isotropic(n, scalar_polarization(1, 2)),
                     MatrixError, "modulus must be >= 1"),
                ):
                    with pytest.raises(error) as caught:
                        call()
                    assert type(caught.value) is error
                    assert str(caught.value) == message
            for call in (g.fixes_maximal_isotropic, g.fixes_all_torsion):
                with pytest.raises(MatrixError, match="not float"):
                    call(2.0)

    def test_square_zero_respects_wildness(self):
        g = classify(ROT3, 5)
        with pytest.raises(WildRamification):
            square_zero_mod_n(g, 10)
        with pytest.raises(InertiaError):
            square_zero_mod_n(g, 0)

    def test_extension_degree(self):
        g = classify(ROT3, 5)
        assert not semistable_after_extension(g, 1)
        assert semistable_after_extension(g, 3)
        # degree may share a factor with p: only divisibility by the
        # semisimple order matters
        assert not semistable_after_extension(g, 5)
        assert semistable_after_extension(g, 15)
        with pytest.raises(InertiaError):
            semistable_after_extension(g, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_extension_degree_matches_the_squared_power(self, d):
        # read off the semisimple order; the reference squares tau^e - I
        # for e = 1..12.  Every entry at d <= 2 and every fifth at d = 3,
        # each with one conjugate
        rng = random.Random(d)
        for i, base in enumerate(catalog_matrices(d)):
            if d == 3 and i % 5:
                continue
            for tau in (base, random_symplectic_conjugate(base, rng)[0]):
                g = classify(tau)
                m = g.semisimple_order
                for e, (identity, square_zero) in enumerate(
                    displacements_after(tau.data, 12), start=1
                ):
                    assert semistable_after_extension(g, e) == square_zero
                    if g.potentially_good:
                        assert (e % m == 0) == identity

    def test_minimal_degrees(self):
        mats = (I2, MINUS, ROT3, ROT4, ROT6, SHEAR)
        degrees = [minimal_semistable_degree(classify(m)) for m in mats]
        assert degrees == [1, 2, 3, 4, 6, 1]
        for m, e in zip(mats, degrees):
            g = classify(m)
            assert semistable_after_extension(g, e)
            assert all(
                not semistable_after_extension(g, f) for f in range(1, e)
            )

    def test_reduction_type_predicates(self):
        assert is_good(classify(I2))
        assert not is_good(classify(MINUS))
        assert is_purely_additive(classify(MINUS))
        assert is_purely_additive(classify(ROT4))
        assert not is_purely_additive(classify(SHEAR))


class TestTameness:
    def test_predicate(self):
        assert is_tame(0, 12)
        assert is_tame(5, 12)
        assert not is_tame(3, 12)
        assert not is_tame(2, 4)

    def test_one_refusal_for_every_level_check(self):
        g = classify(ROT4, 5)
        expected = "level 10 shares a factor with the residue characteristic 5"
        for check in (
            lambda: square_zero_mod_n(g, 10),
            lambda: raynaud_criterion(g, 10),
            lambda: neron_torsion(g, 10),
        ):
            with pytest.raises(WildRamification) as exc:
                check()
            assert str(exc.value) == expected
        with pytest.raises(InertiaError, match="level must be >= 1"):
            require_tame(5, 0)


class TestWitness:
    def test_shear_level_five(self):
        g = classify(SHEAR)
        assert witness_exists(g, 5)
        w = find_witness_subgroup(g, 5)
        assert w.gens.to_lists() == [[1, 0]]

    def test_rot4_has_none_at_five(self):
        g = classify(ROT4)
        assert not witness_exists(g, 5)
        assert find_witness_subgroup(g, 5) is None

    def test_minus_identity_small_levels(self):
        # -I is trivial mod 2, so everything is a witness there, and
        # fixes only the 2-torsion mod 4
        g = classify(MINUS)
        assert witness_exists(g, 2)
        assert witness_exists(g, 4)
        assert not witness_exists(g, 3)
        assert not witness_exists(g, 5)

    def test_wild_level_rejected(self):
        g = classify(ROT3, 5)
        with pytest.raises(WildRamification):
            witness_exists(g, 5)


class TestRaynaudCriterion:
    def test_two_torsion_excluded(self):
        # -I is trivial on the 2-torsion yet not semistable; the rule
        # starts at m = 3 and must stay silent here
        v = raynaud_criterion(classify(MINUS), 2)
        assert v.criterion == "raynaud-2"
        assert triple(v) == (True, None, True)

    def test_hypothesis_fails(self):
        v = raynaud_criterion(classify(MINUS), 3)
        assert v.criterion == "raynaud-3"
        assert triple(v) == (False, None, True)

    def test_applies(self):
        v = raynaud_criterion(classify(IntMatrix([[1, 3], [0, 1]])), 3)
        assert triple(v) == (True, True, True)
        v = raynaud_criterion(classify(IntMatrix([[1, 4], [0, 1]])), 4)
        assert v.criterion == "raynaud-4"
        assert triple(v) == (True, True, True)

    def test_catalog_never_disagrees(self):
        for mat in (I2, MINUS, ROT3, ROT4, ROT6, SHEAR):
            for m in (2, 3, 4, 5):
                assert raynaud_criterion(classify(mat), m).agree


class TestLevelStructureCriterion:
    def test_semistable_has_witness(self):
        g = classify(SHEAR)
        v = level_structure_criterion(g, 5)
        assert triple(v) == (True, True, True)
        assert v.witness is None
        assert extend_to_maximal_isotropic(g.fixed_at_level(5)).gens.to_lists() == [[1, 0]]

    def test_not_semistable_no_witness(self):
        g = classify(ROT4)
        v = level_structure_criterion(g, 5)
        assert triple(v) == (False, None, True)
        assert not g.fixes_maximal_isotropic(5)
        with pytest.raises(TorsionError, match="not contained"):
            extend_to_maximal_isotropic(g.fixed_at_level(5))

    def test_low_level_makes_no_claim(self):
        # -I fixes everything mod 2, but n = 2 < 5 licenses nothing
        g = classify(MINUS)
        v = level_structure_criterion(g, 2)
        assert triple(v) == (True, None, True)
        assert extend_to_maximal_isotropic(g.fixed_at_level(2)).order == 2

    def test_degenerate_polarization(self):
        with pytest.raises(DegreeObstruction):
            level_structure_criterion(
                classify(MINUS), 2, scalar_polarization(1, 2)
            )

    @pytest.mark.parametrize("n", [1009, 10007])
    @pytest.mark.parametrize("blocks", [(I2, I2, I2), (SHEAR, I2, SHEAR)])
    def test_large_level_takes_few_complements(self, monkeypatch, blocks, n):
        # the criterion reads the square and builds nothing; the
        # isotropic extension walks Howell rows, not the module's n^6
        # elements: one complement of FIX and one per step, d steps at
        # most at a prime level
        import monodromy.torsion as torsion

        calls = []
        real = torsion.orthogonal_complement
        monkeypatch.setattr(torsion, "orthogonal_complement",
                            lambda s: calls.append(s) or real(s))
        tau = block_sum(list(blocks))
        g = classify(tau)
        v = level_structure_criterion(g, n)
        assert triple(v) == (True, True, True)
        assert calls == []
        h = extend_to_maximal_isotropic(g.fixed_at_level(n))
        assert len(calls) <= len(blocks) + 2
        monkeypatch.undo()
        assert h.order == n**3
        assert fixes_pointwise(tau, h)
        assert h == orthogonal_complement(h)


class TestExceptionalCriterion:
    def test_degree_two_at_level_four(self):
        v = exceptional_criterion(classify(MINUS), 4)
        assert v.criterion == "exceptional-degree"
        assert triple(v) == (True, True, True)
        assert v.witness.gens.to_lists() == [[2, 0], [0, 2]]

    def test_no_witness_at_level_three(self):
        v = exceptional_criterion(classify(MINUS), 3)
        assert triple(v) == (False, None, True)
        assert v.witness is None

    def test_degree_four_at_level_two(self):
        v = exceptional_criterion(classify(ROT4), 2)
        assert triple(v) == (True, True, True)
        assert v.witness.gens.to_lists() == [[1, 1]]

    def test_level_bound(self):
        with pytest.raises(InertiaError):
            exceptional_criterion(classify(MINUS), 1)


class TestQuarticSemistability:
    def test_rot4(self):
        g = classify(ROT4, 3)
        v = quartic_semistability_check(g)
        assert v.criterion == "quartic-semistability"
        assert triple(v) == (True, True, True)
        assert v.witness is None
        assert extend_to_maximal_isotropic(g.fixed_at_level(2)).gens.to_lists() == [[1, 1]]

    def test_rot6_hypothesis_fails(self):
        with pytest.raises(HypothesisNotMet):
            quartic_semistability_check(classify(ROT6, 7))

    def test_residue_two_rejected(self):
        with pytest.raises(WildRamification):
            quartic_semistability_check(classify(SHEAR, 2))

    def test_even_polarization_rejected(self):
        with pytest.raises(DegreeObstruction):
            quartic_semistability_check(
                classify(SHEAR, 3), scalar_polarization(1, 2)
            )


class TestEllipticCriteria:
    def test_dimension_gate(self):
        block = IntMatrix(
            [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        with pytest.raises(HypothesisNotMet):
            elliptic_criteria(classify(block))

    def test_names_in_order(self):
        names = [v.criterion for v in elliptic_criteria(classify(I2))]
        assert names == [f"elliptic-{c}" for c in "abcdef"]

    def test_rot3_at_two(self):
        # only clause b survives the p = 2 gates
        got = {v.criterion: triple(v) for v in elliptic_criteria(classify(ROT3, 2))}
        assert got["elliptic-b"] == (True, True, True)
        for c in "acdef":
            assert got[f"elliptic-{c}"] == (None, None, True)

    def test_rot4_at_three(self):
        got = {v.criterion: triple(v) for v in elliptic_criteria(classify(ROT4, 3))}
        assert got["elliptic-a"] == (True, True, True)
        assert got["elliptic-c"] == (False, False, True)
        assert got["elliptic-d"] == (False, False, True)
        for c in "bef":
            assert got[f"elliptic-{c}"] == (None, None, True)

    def test_shear_at_seven(self):
        got = {v.criterion: triple(v) for v in elliptic_criteria(classify(SHEAR, 7))}
        for c in "abc":
            assert got[f"elliptic-{c}"] == (True, True, True)
        # d needs bad potentially good reduction, the shear is not
        assert got["elliptic-d"] == (None, None, True)
        assert got["elliptic-e"] == (False, False, True)
        assert got["elliptic-f"] == (False, False, True)

    def test_rot6_at_seven(self):
        got = {v.criterion: triple(v) for v in elliptic_criteria(classify(ROT6, 7))}
        for c in "abcd":
            assert got[f"elliptic-{c}"] == (False, False, True)
        assert got["elliptic-e"] == (True, True, True)
        assert got["elliptic-f"] == (True, True, True)

    def test_catalog_all_agree(self):
        for mat in (I2, MINUS, ROT3, ROT4, ROT6, SHEAR):
            for p in (0, 5, 7, 11):
                for v in elliptic_criteria(classify(mat, p)):
                    assert v.agree, (mat.data, p, v)


class TestPurelyAdditiveCriteria:
    def test_minus_identity_at_three(self):
        got = {v.criterion: triple(v) for v in purely_additive_criteria(classify(MINUS, 3))}
        assert got["purely-additive-quadratic"] == (True, True, True)
        assert got["purely-additive-cubic"] == (None, None, True)

    def test_rot3_at_seven(self):
        got = {v.criterion: triple(v) for v in purely_additive_criteria(classify(ROT3, 7))}
        assert got["purely-additive-quadratic"] == (False, False, True)
        assert got["purely-additive-cubic"] == (True, True, True)

    def test_infinite_order_rejected(self):
        with pytest.raises(HypothesisNotMet):
            purely_additive_criteria(classify(SHEAR))

    def test_fixed_part_rejected(self):
        mixed = IntMatrix(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        )
        with pytest.raises(HypothesisNotMet):
            purely_additive_criteria(classify(mixed))


class TestOneFaddeevLeverrierRun:
    """classify decides finite order, the obstruction and the content of
    (tau - I)^2 from one Faddeev-LeVerrier run; the oracle decides them
    from the definitions (tau**m, (tau**m - I)**2, (tau - I)**2)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_catalog_and_conjugates_match_the_definitions(self, d):
        rng = random.Random(26 + d)
        primes = (0, 2, 3, 5)
        for i, tau in enumerate(catalog_matrices(d)):
            conj = random_symplectic_conjugate(tau, rng)[0]
            for t in (tau, conj):
                p = primes[i % len(primes)]
                assert classify_outcome(t, p) == naive_outcome(t, p), (t, p)

    def test_block_sums_like_the_benchmark_match_the_definitions(self):
        rng = random.Random(401)
        twisted = FINITE_ORDER_PRIMITIVES[1:]
        kinds = set()
        for _ in range(150):
            d = rng.randint(1, 3)
            blocks = [rng.choice(twisted)] + [rng.choice(PRIMITIVES) for _ in range(d - 1)]
            rng.shuffle(blocks)
            tau = random_symplectic_conjugate(block_sum(blocks), rng)[0]
            p = rng.choice((0, 2, 3, 5, 7, 11, 13))
            got = classify_outcome(tau, p)
            assert got == naive_outcome(tau, p), (tau, p)
            kinds.add(got[0].__name__ if isinstance(got[0], type) else got[3])
        assert kinds == {True, False, "WildRamification"}

    def test_refusals_match_the_definitions(self):
        for tau in (IntMatrix([[2, 1], [1, 1]]), IntMatrix([[2, 0], [0, 1]]),
                    IntMatrix([[1, 2, 3]]), IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
            got = classify_outcome(tau)
            assert isinstance(got[0], type) and got == naive_outcome(tau)
        assert classify_outcome(I2, -1) == naive_outcome(I2, -1)

    def test_squarefree_chi_needs_no_evaluation(self, monkeypatch):
        # chi squarefree means f = chi, which vanishes at tau by the
        # Cayley-Hamilton check the run already made
        import monodromy.inertia as inertia

        taus = [ROT3, ROT4, block_sum([ROT3, ROT4]), block_sum([ROT4, ROT6]),
                block_sum([ROT6, ROT3, ROT4])]
        rng = random.Random(7)
        taus += [random_symplectic_conjugate(t, rng)[0] for t in taus]
        monkeypatch.setattr(inertia, "_poly_at", None)
        gens = [classify(t) for t in taus]
        monkeypatch.undo()
        for t, g in zip(taus, gens):
            assert g.potentially_good
            assert classify_outcome(t) == naive_outcome(t)

    def test_no_power_and_one_product_only_at_infinite_order(self, monkeypatch):
        import monodromy.inertia as inertia

        products, runs = [], []
        real_matmul, real_run = IntMatrix.__matmul__, inertia._faddeev_leverrier
        monkeypatch.setattr(IntMatrix, "__pow__", None)
        monkeypatch.setattr(IntMatrix, "__matmul__",
                            lambda a, b: products.append(1) or real_matmul(a, b))
        monkeypatch.setattr(inertia, "_faddeev_leverrier",
                            lambda a: runs.append(1) or real_run(a))
        cases = ((block_sum([ROT4, MINUS]), 0), (block_sum([ROT3, I2, ROT6]), 0),
                 (SHEAR, 1), (block_sum([SHEAR, ROT3]), 1), (block_sum([ROT4, SHEAR]), 1))
        for tau, expected in cases:
            del products[:], runs[:]
            g = classify(tau)
            g.displacement_content
            g.fixes_maximal_isotropic(5)
            assert (len(products), len(runs)) == (expected, 1)

    def test_a_generator_built_directly_runs_it_once(self, monkeypatch):
        import monodromy.inertia as inertia

        runs = []
        real_run = inertia._faddeev_leverrier
        monkeypatch.setattr(inertia, "_faddeev_leverrier",
                            lambda a: runs.append(a) or real_run(a))
        g = classify(block_sum([SHEAR, MINUS]))
        twin = InertiaGenerator(g.matrix, g.residue_char, g.dimension, g.factor_orders,
                                g.semisimple_order, g.unipotent_index, g.potentially_good)
        assert "_horner" not in twin.__dict__
        assert twin.displacement_content == g.displacement_content == 4
        twin.displacement_content
        assert runs == [g.matrix, g.matrix]
        assert twin.__dict__["_horner"] == g.__dict__["_horner"]


class TestGeneratorMemo:
    def test_fixed_subgroup_computed_once_per_level(self):
        g = classify(block_sum([MINUS, SHEAR]))
        assert g.fixed_at_level(4) is g.fixed_at_level(4)
        assert g.fixed_at_level(4) == fixed_subgroup(g.matrix, standard_module(4, 2))
        assert g.fixed_at_level(4) is not g.fixed_at_level(2)
        assert list(g.__dict__["_fixed"]) == [4, 2]

    def test_fixed_maximal_isotropic_matches_direct_extension(self):
        # the extension of the memoized FIX is the one of a fresh kernel,
        # and it is a fixed maximal isotropic subgroup
        g = classify(block_sum([MINUS, SHEAR]))
        fix = fixed_subgroup(g.matrix, standard_module(2, 2))
        assert g.fixes_maximal_isotropic(2)
        h = extend_to_maximal_isotropic(g.fixed_at_level(2))
        assert h == extend_to_maximal_isotropic(fix)
        assert h == orthogonal_complement(h) and fixes_pointwise(g.matrix, h)
        assert not classify(ROT4).fixes_maximal_isotropic(5)

    def test_fixed_perp_inside_has_one_home(self, monkeypatch):
        # FIX-perp <= FIX is read off (tau - I)^2 mod n, so asking takes
        # no orthogonal complement, whatever the answer
        import monodromy.inertia as inertia
        import monodromy.torsion as torsion

        calls = []
        for module in (inertia, torsion):
            real = module.orthogonal_complement
            monkeypatch.setattr(module, "orthogonal_complement",
                                lambda s, real=real: calls.append(s) or real(s))
        for tau in (ROT4, ROT6, block_sum([MINUS, SHEAR])):
            g = classify(tau)
            assert not witness_exists(g, 5)
            assert not g.fixes_maximal_isotropic(5)
        assert classify(SHEAR).fixes_maximal_isotropic(5)
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_fixed_perp_inside_matches_the_complement(self, d):
        # the square test against the containment itself
        for tau in catalog_matrices(d)[::3]:
            g = classify(tau)
            for n in range(2, 8):
                fix = fixed_subgroup(tau, standard_module(n, d))
                expected = orthogonal_complement(fix).is_subgroup_of(fix)
                assert witness_exists(g, n) == expected
                assert g.fixes_maximal_isotropic(n) == expected
                if expected:
                    h = extend_to_maximal_isotropic(g.fixed_at_level(n))
                    assert h == orthogonal_complement(h) and h.is_subgroup_of(fix)

    def test_square_test_matches_the_complement_under_invariant_polarizations(self):
        # a block sum acts on coordinates (i, d + i) block by block, so it
        # commutes with diag(k, 1, k, 1) and preserves J P
        checked = 0
        for k in (2, 3):
            pol = Polarization(IntMatrix([
                [k, 0, 0, 0], [0, 1, 0, 0], [0, 0, k, 0], [0, 0, 0, 1],
            ]))
            for tau in catalog_matrices(2)[::2]:
                g = classify(tau)
                for n in range(2, 8):
                    outcome = polarized_outcome(g, n, pol)
                    assert (outcome == "degenerate") == (n % k == 0)
                    checked += outcome is True
        assert checked == 98

    def test_polarization_tau_does_not_preserve_is_refused(self):
        # not a gate that a report would silently skip
        tau = IntMatrix([[9, 4, 0, 8], [-12, -9, -8, 0], [0, 4, 9, -12], [-4, 0, 4, -9]])
        pol = Polarization(IntMatrix([
            [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2],
        ]))
        g = classify(tau)
        assert not pol.preserved_by(tau)
        for call in (lambda: g.fixes_maximal_isotropic(3, pol),
                     lambda: level_structure_criterion(g, 3, pol)):
            with pytest.raises(InertiaError) as caught:
                call()
            assert type(caught.value) is InertiaError

    def test_polarized_gate_builds_no_module_and_refuses_in_order(self, monkeypatch):
        # size, then the level, then gcd(deg P, n), then J P preserved;
        # each input below also fails every later check
        import monodromy.torsion as torsion

        built = []
        init = torsion.TorsionModule.__init__
        monkeypatch.setattr(torsion.TorsionModule, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        torsion.standard_module.cache_clear()
        g = classify(IntMatrix([
            [9, 4, 0, 8], [-12, -9, -8, 0], [0, 4, 9, -12], [-4, 0, 4, -9],
        ]))
        degree_two = Polarization(IntMatrix([
            [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2],
        ]))
        assert not degree_two.preserved_by(g.matrix)
        for call, error, message in (
            (lambda: g.fixes_maximal_isotropic(0, scalar_polarization(1, 2)),
             TorsionError, "polarization size does not match the module"),
            (lambda: g.fixes_maximal_isotropic(0, degree_two),
             MatrixError, "modulus must be >= 1"),
            (lambda: g.fixes_maximal_isotropic(4, degree_two),
             DegreeObstruction, "polarization degree 4 shares a factor with level 4"),
            (lambda: g.fixes_maximal_isotropic(5, degree_two),
             InertiaError, "tau does not preserve the polarization form J P"),
        ):
            with pytest.raises(error) as caught:
                call()
            assert type(caught.value) is error and str(caught.value) == message
        pol = scalar_polarization(2, 3)
        for h in (g, classify(block_sum([SHEAR, ROT4]))):
            for n in (2, 4, 5):
                assert h.fixes_maximal_isotropic(n, pol) == h.fixes_maximal_isotropic(n)
        assert built == []

    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        g = classify(ROT4, 3)
        before = (repr(g), hash(g))
        g.displacement_divisors
        g.fixed_at_level(2)
        g.fixes_maximal_isotropic(2)
        assert (repr(g), hash(g)) == before
        assert g == classify(ROT4, 3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_fixes_all_torsion_matches_the_matrix_mod_m(self, d):
        # read off the Smith divisors; the reference is tau - I mod m
        rng = random.Random(d)
        for base in catalog_matrices(d):
            for tau in (base, random_symplectic_conjugate(base, rng)[0]):
                g = classify(tau)
                displacement = tau - IntMatrix.identity(2 * d)
                for m in range(1, 13):
                    assert g.fixes_all_torsion(m) == displacement.reduce_mod(m).is_zero()

    def test_trivial_torsion_has_one_home(self, monkeypatch):
        # Raynaud's hypothesis, the elliptic clauses, Neron mode "a" and
        # its X_2 <= X_4(F) and X_4(F) = X_4 clauses, and the good-reduction
        # clauses at levels 2 and 3 all ask the generator
        asked = []
        real = InertiaGenerator.fixes_all_torsion
        monkeypatch.setattr(InertiaGenerator, "fixes_all_torsion",
                            lambda self, m: asked.append(m) or real(self, m))
        g = classify(MINUS, 3)
        assert raynaud_criterion(g, 4).hypothesis is False
        assert asked == [4]
        elliptic_criteria(g)
        assert set(asked) == {4, 2}
        asked.clear()
        verify_neron4(g, "a")
        assert set(asked) == {2, 4}
        asked.clear()
        verify_neron2(g)
        assert asked == [2]
        asked.clear()
        verify_neron3(classify(ROT3, 5))
        assert asked == [3]

    @pytest.mark.parametrize("d", [1, 2])
    def test_fixed_subgroup_from_one_smith_form(self, d):
        # every level is read off the one Smith form of tau - I; the
        # references are a kernel computed mod n and an exhaustive scan
        for tau in catalog_matrices(d):
            g = classify(tau)
            for n in range(2, 13):
                fix = g.fixed_at_level(n)
                assert fix == fixed_subgroup(tau, standard_module(n, d))
                assert set(elements(fix)) == split_fixed_vectors(tau.reduce_mod(n))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fixed_structure_from_the_smith_divisors(self, d):
        # gcd(d_i, n) over the Smith divisors of tau - I, against a Smith
        # form of the fixed subgroup's own Hermite basis for every entry,
        # and on a sample against the kill-count profile of up to 6^3
        # elements and a conjugate, which has the same structure.  The
        # sample is everything at d <= 2 and every fifth entry at d = 3
        rng = random.Random(d)
        levels = range(2, 13) if d < 3 else range(2, 7)
        for i, base in enumerate(catalog_matrices(d)):
            g = classify(base)
            sampled = d < 3 or i % 5 == 0
            if sampled:
                conjugate = classify(random_symplectic_conjugate(base, rng)[0])
            for n in levels:
                fix = g.fixed_at_level(n)
                structure = g.fixed_structure(n)
                assert structure == subgroup_structure(fix)
                if not sampled:
                    continue
                if fix.order <= 6**3:
                    assert structure == structure_from_counts(frozenset(elements(fix)), n)
                assert conjugate.fixed_structure(n) == structure == subgroup_structure(
                    conjugate.fixed_at_level(n))

    def test_split_oracle_matches_brute_scan(self):
        for d, levels in ((1, range(2, 13)), (2, (2, 3, 4))):
            for tau in catalog_matrices(d)[::3]:
                for n in levels:
                    m = tau.reduce_mod(n)
                    assert split_fixed_vectors(m) == brute_fixed_vectors(m)

    def test_fixed_subgroup_under_non_principal_polarization(self):
        # diag(P, P^T) keeps J P antisymmetric; degree 4, so J P mod n is
        # degenerate exactly at even levels
        pol = Polarization(IntMatrix([
            [1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 1, 2],
        ]))
        outcomes = set()
        for tau in catalog_matrices(2)[::4]:
            g = classify(tau)
            for n in (2, 3, 4, 5, 6, 12):
                outcome = polarized_outcome(g, n, pol)
                assert (outcome == "degenerate") == (n % 2 == 0)
                outcomes.add(outcome)
        assert outcomes == {"degenerate", "unpreserved", True, False}

    def test_fixed_generator_check_survives_optimize(self):
        # smith_normal_form checks its own result, and the check must
        # fire with asserts stripped, called directly and through the
        # generator's one Smith form.  The fault is a Bezout pair scaled
        # by 2 in every extended-gcd step: in a row step it breaks the
        # divisors (the first column of A V is (6, 9) for
        # tau - I = [[6, -4], [9, -6]], and the pivot 4 divides neither),
        # in a column step it doubles det V ([[2, 3]] and
        # tau - I = [[-2, 3], [0, -2]]); the calls with a correct Bezout
        # pair go through
        calls = {
            "m.smith_normal_form(m.IntMatrix([[2], [3]]))":
                "Smith divisor 2 does not divide column 0 of A V",
            "m.smith_normal_form(m.IntMatrix([[2, 3]]))":
                "Smith transform V has determinant -2, not +-1",
            "i.classify(m.IntMatrix([[7, -4], [9, -5]])).fixed_at_level(4)":
                "Smith divisor 4 does not divide column 0 of A V",
            "i.classify(m.IntMatrix([[-1, 3], [0, -1]])).fixed_at_level(4)":
                "Smith transform V has determinant -2, not +-1",
        }
        code = (
            "import monodromy.inertia as i, monodromy.matrices as m\n"
            "assert False, 'assert statements must be stripped here'\n"
            f"calls = {list(calls)!r}\n"
            "for call in calls:\n"
            "    eval(call)\n"
            "real = m._xgcd\n"
            "def fake(a, b):\n"
            "    g, s, t = real(a, b)\n"
            "    return g, 2 * s, 2 * t\n"
            "m._xgcd = fake\n"
            "for call in calls:\n"
            "    try:\n"
            "        eval(call)\n"
            "    except AssertionError as e:\n"
            "        print(e)\n"
            "    else:\n"
            "        print('no error')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == list(calls.values())

    def test_displacement_divisors(self):
        g = classify(block_sum([MINUS, I2]))
        expected = smith_normal_form(g.matrix - IntMatrix.identity(4)).divisors
        assert g.displacement_divisors == expected == (2, 2, 0, 0)

    def test_unbounded_degree_is_refused_without_assert(self, monkeypatch):
        import monodromy.inertia as inertia

        unbounded = DegreeCertificate(2, 5, 1000, (), None, True)
        monkeypatch.setattr(inertia, "semistability_degree", lambda k, n: unbounded)
        with pytest.raises(AssertionError, match="unbounded"):
            exceptional_criterion(classify(MINUS), 5)
