import random

import pytest

from monodromy import (
    HypothesisNotMet,
    InertiaError,
    IntMatrix,
    PreconditionExcluded,
    WildRamification,
    classify,
    cohomology_action,
    higher_cohomology_criterion,
    hk_vanishing,
)
from monodromy.catalog import block_sum, catalog_matrices, random_symplectic_conjugate

from _oracles import inverse_unimodular, matrix_hk_vanishing

I2 = IntMatrix.identity(2)
SHEAR = IntMatrix([[1, 1], [0, 1]])
ROT6 = IntMatrix([[1, -1], [1, 0]])
MINUS4 = IntMatrix(
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
)
SHEAR_I = block_sum([SHEAR, I2])


def triple(v):
    return (v.hypothesis, v.conclusion, v.agree)


class TestCohomologyAction:
    def test_degree_one_is_contragredient(self, monkeypatch):
        g = classify(SHEAR_I)
        act = cohomology_action(g, 1)
        assert act.modulus == 0
        assert act.matrix == inverse_unimodular(SHEAR_I.transpose())
        assert act.base == act.matrix
        # -J tau J against the adjugate inverse of tau^T, over the d <= 2
        # catalog and a conjugate of each d = 2 entry; J's block shuffle
        # forms it with no matrix product
        rng = random.Random(11)
        taus = list(catalog_matrices(1)) + list(catalog_matrices(2))
        taus += [random_symplectic_conjugate(tau, rng)[0] for tau in catalog_matrices(2)]
        products = []
        real_matmul = IntMatrix.__matmul__
        monkeypatch.setattr(IntMatrix, "__matmul__",
                            lambda a, b: products.append(1) or real_matmul(a, b))
        for tau in taus:
            gen = classify(tau)
            del products[:]
            base = cohomology_action(gen, 1).base
            assert products == []
            assert base == inverse_unimodular(tau.transpose())

    def test_sizes_are_binomials(self):
        g = classify(SHEAR_I)
        for k, size in [(0, 1), (1, 4), (2, 6), (3, 4), (4, 1)]:
            assert cohomology_action(g, k).size == size

    def test_degree_zero_trivial(self):
        act = cohomology_action(classify(SHEAR_I), 0, 3)
        assert act.matrix.data == ((1,),)

    def test_reduction_commutes(self):
        g = classify(SHEAR_I)
        integral = cohomology_action(g, 2, 0).matrix
        modular = cohomology_action(g, 2, 7).matrix
        assert integral.reduce_mod(7) == modular

    def test_degree_range(self):
        g = classify(SHEAR_I)
        with pytest.raises(InertiaError):
            cohomology_action(g, -1)
        with pytest.raises(InertiaError):
            cohomology_action(g, 5)

    def test_wild_modulus(self):
        with pytest.raises(WildRamification):
            cohomology_action(classify(SHEAR_I, 5), 1, 5)


class TestHkVanishing:
    def test_semistable_vanishes_in_degree_one(self):
        assert hk_vanishing(classify(SHEAR_I), 1, 5)
        assert hk_vanishing(classify(SHEAR_I), 1, 0)

    def test_rotation_does_not_vanish(self):
        g = classify(block_sum([ROT6, ROT6]))
        assert not hk_vanishing(g, 1, 7)

    def test_minus_identity_parity(self):
        # -I survives odd degrees and dies in even ones
        g = classify(MINUS4)
        assert not hk_vanishing(g, 1, 5)
        assert hk_vanishing(g, 2, 5)
        assert not hk_vanishing(g, 3, 5)

    def test_degree_strictly_interior(self):
        g = classify(SHEAR_I)
        with pytest.raises(InertiaError):
            hk_vanishing(g, 0, 5)
        with pytest.raises(InertiaError):
            hk_vanishing(g, 4, 5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_content_per_degree_matches_the_action_mod_n(self, d):
        # the content of (A_k - I)^(k+1) over Z against the power of
        # the action reduced mod n, at every level and over Z
        for tau in catalog_matrices(d):
            g = classify(tau)
            for k in range(1, 2 * d):
                for n in (0, *range(2, 31)):
                    assert hk_vanishing(g, k, n) == matrix_hk_vanishing(g, k, n)
            assert sorted(g.__dict__["_vanishing_contents"]) == list(range(1, 2 * d))

    def test_argument_checks_keep_their_order(self):
        # the degree range first, then a negative modulus, then a wild one
        g = classify(SHEAR_I, 5)
        for k, n, error, message in (
            (0, -1, InertiaError, "degree must satisfy 0 < k < 4"),
            (1, -1, InertiaError, "modulus must be >= 0"),
            (1, 10, WildRamification,
             "level 10 shares a factor with the residue characteristic 5"),
        ):
            with pytest.raises(error) as caught:
                hk_vanishing(g, k, n)
            assert type(caught.value) is error
            assert str(caught.value) == message
        assert "_vanishing_contents" not in g.__dict__


class TestHigherCohomologyCriterion:
    def test_worked_examples(self):
        v = higher_cohomology_criterion(classify(SHEAR_I), 1, 5)
        assert v.criterion == "cohomology-degree-1"
        assert triple(v) == (True, True, True)

        v = higher_cohomology_criterion(classify(MINUS4), 2, 5)
        assert v.criterion == "cohomology-degree-2"
        assert triple(v) == (True, True, True)

        v = higher_cohomology_criterion(classify(block_sum([ROT6, ROT6])), 1, 7)
        assert triple(v) == (False, False, True)

    def test_minus_identity_all_degrees(self):
        g = classify(MINUS4)
        assert triple(higher_cohomology_criterion(g, 1, 7)) == (False, False, True)
        assert triple(higher_cohomology_criterion(g, 2, 7)) == (True, True, True)
        assert triple(higher_cohomology_criterion(g, 3, 7)) == (False, False, True)

    def test_exceptional_levels_refused(self):
        g = classify(SHEAR_I)
        with pytest.raises(PreconditionExcluded):
            higher_cohomology_criterion(g, 1, 4)
        with pytest.raises(PreconditionExcluded):
            higher_cohomology_criterion(g, 2, 8)
        with pytest.raises(PreconditionExcluded):
            higher_cohomology_criterion(g, 3, 5)

    def test_even_degree_at_two_needs_flag(self):
        g = classify(SHEAR_I, 2)
        with pytest.raises(HypothesisNotMet):
            higher_cohomology_criterion(g, 2, 5)
        v = higher_cohomology_criterion(g, 2, 5, strictly_henselian=True)
        assert triple(v) == (True, True, True)
        # odd degrees never need it
        assert higher_cohomology_criterion(g, 1, 5).agree

    def test_wild_level(self):
        with pytest.raises(WildRamification):
            higher_cohomology_criterion(classify(SHEAR_I, 5), 1, 5)

    def test_level_bound(self):
        with pytest.raises(InertiaError):
            higher_cohomology_criterion(classify(SHEAR_I), 4, 7)
