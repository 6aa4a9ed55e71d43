import random

import pytest

from monodromy import IntMatrix, char_poly, classify, standard_symplectic_form
from monodromy.catalog import (
    FINITE_ORDER_PRIMITIVES,
    ORDER_3,
    PRIMITIVES,
    SHEARS,
    block_sum,
    catalog_matrices,
    derive_seed,
    random_symplectic,
    random_symplectic_conjugate,
    symplectic_transvection,
)


class TestPrimitives:
    def test_orders(self):
        gens = [classify(m) for m in FINITE_ORDER_PRIMITIVES]
        assert all(g.potentially_good for g in gens)
        assert [g.semisimple_order for g in gens] == [1, 2, 3, 3, 4, 4, 6, 6]

    def test_shears_unipotent(self):
        for s in SHEARS:
            g = classify(s)
            assert g.unipotent_index == 2
            assert not g.potentially_good

    def test_all_symplectic(self):
        j = standard_symplectic_form(1)
        for m in PRIMITIVES:
            assert m.transpose() @ j @ m == j

    def test_inverse_pairs(self):
        ident = IntMatrix.identity(2)
        for a, b in ((2, 3), (4, 5), (6, 7)):
            assert FINITE_ORDER_PRIMITIVES[a] @ FINITE_ORDER_PRIMITIVES[b] == ident


class TestBlockSum:
    def test_interleaved_coordinates(self):
        b = block_sum([ORDER_3, IntMatrix.identity(2)])
        assert b.data == (
            (0, 0, -1, 0),
            (0, 1, 0, 0),
            (1, 0, -1, 0),
            (0, 0, 0, 1),
        )

    def test_preserves_form(self):
        j = standard_symplectic_form(2)
        for head in PRIMITIVES[:4]:
            for tail in PRIMITIVES[:4]:
                b = block_sum([head, tail])
                assert b.transpose() @ j @ b == j

    def test_validation(self):
        with pytest.raises(ValueError):
            block_sum([])
        with pytest.raises(ValueError):
            block_sum([IntMatrix([[1]])])


class TestCatalog:
    def test_counts(self):
        assert len(catalog_matrices(1)) == 11
        assert len(catalog_matrices(1, finite_only=True)) == 8
        assert len(catalog_matrices(2)) == 121
        assert len(catalog_matrices(2, finite_only=True)) == 64

    def test_deduplicated(self):
        mats = catalog_matrices(2)
        assert len({m.data for m in mats}) == len(mats)

    def test_all_symplectic_and_classifiable(self):
        j = standard_symplectic_form(2)
        for m in catalog_matrices(2):
            assert m.transpose() @ j @ m == j
            classify(m)

    def test_deterministic_order(self):
        assert catalog_matrices(2) == catalog_matrices(2)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            catalog_matrices(0)


class TestTransvections:
    def test_symplectic_with_exact_inverse(self):
        j = standard_symplectic_form(2)
        t = symplectic_transvection(2, [1, 0, 1, -1], 3)
        assert t.transpose() @ j @ t == j
        assert t @ symplectic_transvection(2, [1, 0, 1, -1], -3) == IntMatrix.identity(4)

    def test_zero_coefficient_is_identity(self):
        assert symplectic_transvection(1, [1, 1], 0) == IntMatrix.identity(2)


class TestRandomSymplectic:
    def test_exact_inverse(self):
        j = standard_symplectic_form(2)
        rng = random.Random(7)
        for _ in range(20):
            u, u_inv = random_symplectic(rng, 2)
            assert u @ u_inv == IntMatrix.identity(4)
            assert u.transpose() @ j @ u == j

    def test_conjugate_preserves_class(self):
        rng = random.Random(3)
        for base in FINITE_ORDER_PRIMITIVES:
            t, u, u_inv = random_symplectic_conjugate(base, rng)
            assert u @ u_inv == IntMatrix.identity(2)
            assert t == u @ base @ u_inv
            assert char_poly(t) == char_poly(base)

    def test_frozen_conjugate(self):
        # anchors the rng consumption pattern: reordering draws would
        # silently change every derived corpus
        rng = random.Random(42)
        t, _, _ = random_symplectic_conjugate(ORDER_3, rng)
        assert t.data == ((16, -39), (7, -17))
        assert char_poly(t).coeffs == (1, 1, 1)
        assert classify(t).semisimple_order == 3


class TestDeriveSeed:
    def test_frozen_stream(self):
        assert [derive_seed(42, i) for i in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_index_independence(self):
        # trial i's seed must not depend on other trials
        a = derive_seed(9, 100)
        assert derive_seed(9, 100) == a
        assert derive_seed(9, 101) != a
        assert derive_seed(10, 100) != a

    def test_64_bit_range(self):
        for i in range(50):
            s = derive_seed(1234, i)
            assert 0 <= s < 1 << 64
