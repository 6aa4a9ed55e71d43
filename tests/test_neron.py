import math
import random

import pytest

from monodromy import (
    HypothesisNotMet,
    InertiaError,
    InertiaGenerator,
    IntMatrix,
    NotPotentiallyGood,
    WildRamification,
    classify,
    cokernel_torsion_check,
    neron_invariants,
    neron_torsion,
    verify_neron2,
    verify_neron3,
    verify_neron4,
)
from monodromy.catalog import block_sum, catalog_matrices, random_symplectic_conjugate
from monodromy.torsion import fixed_subgroup

from _oracles import full_subgroup, two_torsion_inside

I2 = IntMatrix.identity(2)
MINUS = IntMatrix([[-1, 0], [0, -1]])
ROT3 = IntMatrix([[0, -1], [1, -1]])
ROT4 = IntMatrix([[0, -1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
# -1 on one factor, 1 on the other: mixed abelian/unipotent ranks
MIXED = IntMatrix([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])


def triples(verdicts):
    return {v.criterion: (v.hypothesis, v.conclusion, v.agree) for v in verdicts}


class TestNeronInvariants:
    @pytest.mark.parametrize(
        "mat,a,u,phi",
        [
            (I2, 1, 0, ()),
            (MINUS, 0, 1, (2, 2)),
            (ROT3, 0, 1, (3,)),
            (ROT4, 0, 1, (2,)),
            (IntMatrix([[1, -1], [1, 0]]), 0, 1, ()),
        ],
    )
    def test_primitives(self, mat, a, u, phi):
        inv = neron_invariants(classify(mat))
        assert inv.abelian_rank == a
        assert inv.unipotent_rank == u
        assert inv.toric_rank == 0
        assert inv.phi == phi
        assert inv.phi_prime == phi

    def test_rank_split(self):
        inv = neron_invariants(classify(MIXED, 3))
        assert inv.dimension == 2
        assert inv.abelian_rank == 1
        assert inv.unipotent_rank == 1
        assert inv.phi == (2, 2)
        assert inv.phi_prime == (2, 2)
        assert math.prod(inv.phi) == 4

    def test_forced_p_part_is_kept(self):
        # classify refuses p = 3 for a tau of order 3; a generator built
        # directly around that keeps its component group whole
        g = classify(ROT3)
        forced = InertiaGenerator(g.matrix, 3, *(getattr(g, f) for f in g._fields[2:]))
        inv = neron_invariants(forced)
        assert inv.phi == inv.phi_prime == (3,)

    def test_divisor_outside_the_order_is_refused(self):
        # -I forced to order 1: its divisors 2, 2 do not divide the order
        g = classify(MINUS)
        fields = [getattr(g, f) for f in g._fields]
        fields[g._fields.index("semisimple_order")] = 1
        with pytest.raises(AssertionError, match="does not divide the order 1"):
            neron_invariants(InertiaGenerator(*fields))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_classified_generators_have_no_p_part(self, p):
        # the order of tau kills the component group and classify
        # requires it prime to p, so phi_prime is all of phi
        accepted = 0
        for d in (1, 2):
            for tau in catalog_matrices(d, finite_only=True):
                try:
                    g = classify(tau, p)
                except WildRamification:
                    continue
                accepted += 1
                inv = neron_invariants(g)
                assert inv.phi_prime == inv.phi
        assert accepted > 0

    def test_built_once_per_generator(self, monkeypatch):
        import monodromy.neron as neron

        built = []
        real = neron._neron_invariants
        monkeypatch.setattr(neron, "_neron_invariants",
                            lambda g: built.append(g) or real(g))
        g = classify(MIXED, 3)
        first = neron_invariants(g)
        neron_torsion(g, 2)
        verify_neron4(g, "a")
        assert neron_invariants(g) is first
        assert built == [g]
        assert neron_invariants(classify(MIXED, 3)) == first
        assert len(built) == 2

    def test_phi_torsion_order(self):
        inv = neron_invariants(classify(MINUS, 3))
        assert inv.phi_torsion_order(2) == 4
        assert inv.phi_torsion_order(4) == 4
        assert inv.phi_torsion_order(3) == 1

    def test_infinite_order_rejected(self):
        g = classify(SHEAR)
        for _ in range(3):
            with pytest.raises(NotPotentiallyGood):
                neron_invariants(g)

    def test_reads_the_generator_smith_divisors(self, monkeypatch):
        import monodromy.inertia as inertia

        calls = []
        real = inertia.smith_normal_form
        monkeypatch.setattr(
            inertia, "smith_normal_form", lambda a: calls.append(a) or real(a)
        )
        g = classify(MIXED)
        first = neron_invariants(g)
        assert neron_invariants(g) == first
        neron_torsion(g, 5)
        assert len(calls) == 1


class TestNeronTorsion:
    def test_minus_identity_levels(self):
        g2 = classify(MINUS, 3)
        rep = neron_torsion(g2, 2)
        assert (rep.fixed_order, rep.fixed_structure) == (4, (2, 2))
        assert rep.phi_torsion == (2, 2)
        assert rep.b_exponent == 2

        rep = neron_torsion(g2, 4)
        assert (rep.fixed_order, rep.fixed_structure) == (4, (2, 2))
        assert rep.b_exponent == 1

        rep = neron_torsion(classify(MINUS, 5), 3)
        assert (rep.fixed_order, rep.fixed_structure) == (1, ())
        assert rep.phi_torsion == ()
        assert rep.b_exponent == 0

    def test_block_with_fixed_line(self):
        g = classify(block_sum([ROT3, I2]))
        rep = neron_torsion(g, 3)
        assert rep.fixed_order == 27
        assert rep.fixed_structure == (3, 3, 3)
        assert rep.phi_torsion == (3,)
        assert rep.b_exponent == 3

    def test_b_exponent_exact_at_large_level(self):
        n = 2**61 - 1
        rep = neron_torsion(classify(block_sum([I2, I2, MINUS])), n)
        assert rep.fixed_order == n**4
        assert rep.b_exponent == 4
        rep = neron_torsion(classify(MINUS), 10**30)
        assert rep.fixed_order == 4
        assert rep.b_exponent is None

    def test_b_exponent_absent_off_powers(self):
        # -I fixes the 2-torsion inside the 6-torsion: order 4, not a power of 6
        rep = neron_torsion(classify(MINUS), 6)
        assert rep.fixed_order == 4
        assert rep.b_exponent is None

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_order_matches_a_fresh_kernel(self, d):
        # the order read off the checked Smith form against the Howell
        # order of a kernel computed mod n, with no fixed subgroup built
        # on the way; every finite-order entry at d <= 2 and every fifth
        # at d = 3
        for tau in catalog_matrices(d, finite_only=True)[::1 if d < 3 else 5]:
            g = classify(tau)
            for n in range(2, 13):
                fresh = fixed_subgroup(tau, g.module(n))
                assert neron_torsion(g, n).fixed_order == fresh.order
            assert "_fixed" not in g.__dict__

    def test_identity_compares_smith_zeros_with_the_eigenvalue_one(self):
        # the abelian rank comes from the characteristic polynomial, so
        # a generator whose factor orders deny the eigenvalue 1 of tau = I
        # (two Smith zeros) fails the identity at every level above 1
        g = InertiaGenerator(I2, 0, 1, ((2, 2),), 2, None, True)
        assert neron_torsion(g, 1).fixed_order == 1
        for n in (2, 3, 5):
            with pytest.raises(AssertionError, match=f"fails at level {n}: fixed order {n * n} != 1"):
                neron_torsion(g, n)

    def test_wild_level_rejected(self):
        with pytest.raises(WildRamification):
            neron_torsion(classify(MINUS, 3), 3)
        with pytest.raises(InertiaError):
            neron_torsion(classify(MINUS), 0)


class TestVerifyNeron2:
    def test_good_generator(self):
        got = triples(verify_neron2(classify(I2)))
        assert got["neron2-shape"] == (True, True, True)
        assert got["neron2-index"] == (True, True, True)
        assert got["neron2-good"] == (True, True, True)

    def test_minus_identity(self):
        got = triples(verify_neron2(classify(MINUS, 3)))
        assert got["neron2-shape"] == (True, True, True)
        assert got["neron2-index"] == (True, True, True)
        assert got["neron2-good"] == (False, False, True)

    def test_mixed_ranks(self):
        for v in verify_neron2(classify(MIXED, 3)):
            assert v.agree

    def test_residue_two_excluded(self):
        with pytest.raises(HypothesisNotMet):
            verify_neron2(classify(I2, 2))

    def test_infinite_order(self):
        with pytest.raises(NotPotentiallyGood):
            verify_neron2(classify(SHEAR))


class TestVerifyNeron3:
    def test_good_generator(self):
        got = triples(verify_neron3(classify(I2)))
        assert got["neron3-fixed-order"] == (True, True, True)
        assert got["neron3-phi"] == (True, True, True)
        assert got["neron3-good"] == (True, True, True)
        assert got["neron3-additive"] == (False, False, True)

    def test_rot3(self):
        got = triples(verify_neron3(classify(ROT3, 5)))
        assert got["neron3-fixed-order"] == (True, True, True)
        assert got["neron3-phi"] == (True, True, True)
        assert got["neron3-good"] == (False, False, True)
        assert got["neron3-additive"] == (True, True, True)

    def test_minus_identity_gated(self):
        # -I fixes no three-torsion, so the entry hypothesis fails
        with pytest.raises(HypothesisNotMet):
            verify_neron3(classify(MINUS, 5))

    def test_residue_three_excluded(self):
        with pytest.raises(HypothesisNotMet):
            verify_neron3(classify(I2, 3))


class TestVerifyNeron4:
    def test_good_generator(self):
        got = triples(verify_neron4(classify(I2), "a"))
        assert got["neron4-good"] == (True, True, True)
        assert got["neron4-additive"] == (False, False, True)
        assert all(t[2] for t in got.values())

    def test_minus_identity_mode_a(self):
        got = triples(verify_neron4(classify(MINUS, 3), "a"))
        assert got["neron4-structure"] == (True, True, True)
        assert got["neron4-index"] == (True, True, True)
        assert got["neron4-two-torsion"] == (True, True, True)
        assert got["neron4-phi"] == (True, True, True)
        assert got["neron4-good"] == (False, False, True)
        assert got["neron4-additive"] == (True, True, True)

    def test_mixed_ranks(self):
        for v in verify_neron4(classify(MIXED, 3), "a"):
            assert v.agree

    def test_mode_a_gate(self):
        with pytest.raises(HypothesisNotMet):
            verify_neron4(classify(ROT3, 5), "a")

    def test_mode_b_gate(self):
        with pytest.raises(HypothesisNotMet):
            verify_neron4(classify(ROT4, 3), "b")

    def test_unknown_mode(self):
        with pytest.raises(InertiaError):
            verify_neron4(classify(MINUS, 3), "c")

    def test_residue_two_excluded(self):
        with pytest.raises(HypothesisNotMet):
            verify_neron4(classify(I2, 2), "a")

    @pytest.mark.parametrize("d", [1, 2])
    def test_level_four_facts_match_the_subgroups(self, d):
        # the clauses read the Smith divisors; the reference compares
        # the fixed four-torsion with X_4 and with X_2 spanned by 2 e_i
        rng = random.Random(d)
        for base in catalog_matrices(d):
            for tau in (base, random_symplectic_conjugate(base, rng)[0]):
                g = classify(tau)
                fix4, module = g.fixed_at_level(4), g.module(4)
                two = two_torsion_inside(module)
                inside = two.is_subgroup_of(fix4)
                assert g.fixes_all_torsion(2) == inside
                assert g.fixes_all_torsion(4) == (fix4 == full_subgroup(module))
                assert (g.fixed_structure(4) == (2,) * g.rank) == (fix4 == two)
                if not g.potentially_good:
                    continue
                a = neron_invariants(g).abelian_rank
                for mode in ("a", "b"):
                    try:
                        got = triples(verify_neron4(g, mode))
                    except HypothesisNotMet:
                        continue
                    two_ok = inside and fix4.order // two.order == 2 ** (2 * a)
                    assert got["neron4-two-torsion"][1] == two_ok
                    assert got["neron4-good"][0] == (fix4 == full_subgroup(module))
                    assert got["neron4-additive"][0] == (fix4 == two)


class TestCokernelTorsion:
    def test_minus_identity(self):
        v = cokernel_torsion_check(MINUS, 2, 1, 2)
        assert v.criterion == "cokernel-torsion"
        assert (v.hypothesis, v.conclusion, v.agree) == (True, True, True)

    def test_rot4_and_rot3(self):
        v = cokernel_torsion_check(ROT4, 2, 1, 2)
        assert v.agree
        v = cokernel_torsion_check(ROT3, 3, 1, 2)
        assert v.agree

    def test_infinite_order_rejected(self):
        with pytest.raises(HypothesisNotMet):
            cokernel_torsion_check(SHEAR, 2, 1, 2)

    def test_small_r_rejected(self):
        with pytest.raises(HypothesisNotMet):
            cokernel_torsion_check(MINUS, 2, 1, 1)

    def test_parameter_validation(self):
        with pytest.raises(InertiaError):
            cokernel_torsion_check(MINUS, 1, 1, 2)
        with pytest.raises(InertiaError):
            cokernel_torsion_check(MINUS, 2, 0, 2)

    def test_congruence_gate(self):
        # (rot4 - I)^6 is invertible mod 3
        with pytest.raises(HypothesisNotMet):
            cokernel_torsion_check(ROT4, 3, 1, 2)
