import math
import random

import pytest

from monodromy import (
    DegreeObstruction,
    EnumerationCapError,
    IntMatrix,
    ModMatrix,
    Polarization,
    Subgroup,
    TorsionError,
    TorsionModule,
    classify,
    enumerate_subgroups,
    extend_to_maximal_isotropic,
    fixed_subgroup,
    fixes_pointwise,
    orthogonal_complement,
    standard_module,
    standard_symplectic_form,
)
from monodromy.catalog import catalog_matrices, random_symplectic_conjugate
from monodromy.torsion import _complement_gens, subgroup_count_estimate

from _oracles import (
    brute_fixed_vectors,
    full_subgroup,
    brute_orthogonal,
    brute_subgroups,
    contains,
    elements,
    inverse_unimodular,
    is_isotropic,
    is_isotropic_extension,
    is_maximal_isotropic,
    leibniz_det,
    pair,
    riemann_form,
    scalar_polarization,
    span_closure,
    structure_from_counts,
    subgroup_structure,
)


def _random_subgroup(rng, n, d):
    rank = 2 * d
    gens = [[rng.randrange(n) for _ in range(rank)] for _ in range(rng.randint(0, 2))]
    # scaled generators give proper subgroups more often
    gens = [[x * rng.choice((1, 1, 2, 3)) % n for x in g] for g in gens]
    return standard_module(n, d).subgroup(gens), gens


class TestTorsionModule:
    def test_standard_shape(self):
        m = standard_module(5, 2)
        assert m.level == 5
        assert m.dimension == 2
        assert m.rank == 4
        assert m.order == 625
        # the Gram matrix is always J mod n, so its determinant is 1
        assert m.gram == standard_symplectic_form(2).reduce_mod(5)
        assert leibniz_det(m.gram.data) % 5 == 1

    def test_standard_pairing_values(self):
        m = standard_module(7, 1)
        assert pair(m, (1, 0), (0, 1)) == 1
        assert pair(m, (0, 1), (1, 0)) == 6
        assert pair(m, (1, 0), (1, 0)) == 0
        assert pair(m, (2, 3), (4, 5)) == (2 * 5 - 3 * 4) % 7

    def test_pairing_is_alternating(self):
        m = standard_module(6, 2)
        rng = random.Random(5)
        for _ in range(30):
            x = tuple(rng.randrange(6) for _ in range(4))
            y = tuple(rng.randrange(6) for _ in range(4))
            assert (pair(m, x, y) + pair(m, y, x)) % 6 == 0
            assert pair(m, x, x) == 0

    def test_validation(self):
        with pytest.raises(TorsionError):
            TorsionModule(0, 1)
        with pytest.raises(TorsionError):
            TorsionModule(4, 0)
        # the pairing is always J mod n: no Gram matrix is taken
        with pytest.raises(TypeError):
            TorsionModule(5, 1, ModMatrix(5, [[0, 1], [-1, 0]]))

    @pytest.mark.parametrize("level,dimension,kind", [
        (4.0, 1, "float"), (2.5, 1, "float"), (True, 1, "bool"), ("4", 1, "str"),
        (4, 1.0, "float"), (4, True, "bool"),
    ])
    def test_non_integer_sizes_rejected(self, level, dimension, kind):
        with pytest.raises(TorsionError, match=f"must be an integer, not {kind}"):
            TorsionModule(level, dimension)

    def test_immutable_and_cached(self):
        m = standard_module(3, 1)
        with pytest.raises(AttributeError):
            m.level = 9
        assert standard_module(3, 1) is m
        assert TorsionModule(3, 1) == m


class TestSubgroup:
    def test_trivial_and_full(self):
        m = standard_module(4, 1)
        t = m.subgroup([])
        f = full_subgroup(m)
        assert t.order == 1
        assert subgroup_structure(t) == ()
        assert f.order == 16
        assert subgroup_structure(f) == (4, 4)
        assert t.is_subgroup_of(f)
        assert not f.is_subgroup_of(t)

    def test_is_subgroup_of_matches_set_inclusion(self):
        rng = random.Random(61)
        outcomes = set()
        for n, d in ((2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)):
            m = standard_module(n, d)
            rank = 2 * d
            for _ in range(40):
                gens = [
                    [[rng.randrange(n) for _ in range(rank)] for _ in range(rng.randint(0, 2))]
                    for _ in range(2)
                ]
                if rng.random() < 0.3:
                    # a subgroup of the other one, so inclusions occur often
                    gens[0] = [[sum(rng.randrange(n) * g[j] for g in gens[1]) % n
                                for j in range(rank)]] if gens[1] else []
                a, b = (m.subgroup(g) for g in gens)
                a_set, b_set = (span_closure(g, rank, n) for g in gens)
                expected = a_set <= b_set
                assert a.is_subgroup_of(b) == expected
                assert b.is_subgroup_of(a) == (b_set <= a_set)
                outcomes.add(expected)
        assert outcomes == {True, False}
        with pytest.raises(TorsionError):
            full_subgroup(standard_module(2, 1)).is_subgroup_of(
                full_subgroup(standard_module(3, 1)))

    def test_contains(self):
        m = standard_module(6, 1)
        s = m.subgroup([[2, 0]])
        assert contains(s, (4, 0))
        assert contains(s, (0, 0))
        assert not contains(s, (1, 0))
        assert not contains(s, (2, 3))
        with pytest.raises(TorsionError):
            contains(s, (1, 2, 3))

    @pytest.mark.parametrize("coordinate,kind", [
        (2.7, "float"), (2.0, "float"), (True, "bool"), ("2", "str"),
    ])
    def test_contains_refuses_non_integer_coordinates(self, coordinate, kind):
        s = standard_module(6, 1).subgroup([[2, 0]])
        with pytest.raises(TorsionError, match=f"integers, not {kind}"):
            contains(s, (coordinate, 0))

    def test_contains_accepts_index_coordinates(self):
        class Eight:
            def __index__(self):
                return 8

        s = standard_module(6, 1).subgroup([[2, 0]])
        assert contains(s, (Eight(), 0)) and not contains(s, (0, Eight()))

    def test_contains_matches_span_closure(self):
        rng = random.Random(83)
        outcomes = set()
        for n, d in ((2, 1), (4, 1), (6, 1), (9, 1), (12, 1), (2, 2), (4, 2), (6, 2)):
            rank = 2 * d
            for _ in range(15):
                s, gens = _random_subgroup(rng, n, d)
                members = span_closure(gens, rank, n)
                probes = [tuple(rng.randrange(n) for _ in range(rank)) for _ in range(10)]
                probes += rng.sample(sorted(members), min(3, len(members)))
                for x in probes:
                    assert contains(s, x) == (x in members)
                    outcomes.add(x in members)
        assert outcomes == {True, False}

    def test_elements_walk_the_span_in_lexicographic_order(self):
        rng = random.Random(89)
        for n in range(1, 13):
            for d in (1, 2):
                for _ in range(2):
                    s, gens = _random_subgroup(rng, n, d)
                    walked = list(elements(s))
                    assert walked == sorted(span_closure(gens, 2 * d, n))
                    assert len(walked) == s.order

    def test_elements_enumerate_once(self):
        m = standard_module(4, 1)
        s = m.subgroup([[2, 0], [0, 1]])
        got = list(elements(s))
        assert len(got) == len(set(got)) == s.order == 8
        closure = span_closure([[2, 0], [0, 1]], 2, 4)
        assert set(got) == closure

    def test_structure_detects_cyclic(self):
        # order 4 alone cannot tell (4,) from (2, 2)
        m = standard_module(4, 1)
        cyclic = m.subgroup([[1, 2]])
        flat = m.subgroup([[2, 0], [0, 2]])
        assert cyclic.order == flat.order == 4
        assert subgroup_structure(cyclic) == (4,)
        assert subgroup_structure(flat) == (2, 2)

    def test_structure_matches_counting_oracle(self):
        rng = random.Random(11)
        for n in (2, 3, 4, 6):
            m = standard_module(n, 1)
            for _ in range(25):
                gens = [
                    [rng.randrange(n) for _ in range(2)]
                    for _ in range(rng.randrange(1, 3))
                ]
                s = m.subgroup(gens)
                members = span_closure(gens, 2, n)
                assert subgroup_structure(s) == structure_from_counts(members, n)
        # composite levels up to rank 6, with zero rows and rows of
        # multiples of n among the random generators
        for n, d in ((4, 2), (6, 2), (8, 2), (9, 2), (10, 1), (12, 1), (4, 3)):
            m = standard_module(n, d)
            for _ in range(8):
                gens = []
                for _ in range(rng.randrange(0, 5)):
                    kind = rng.random()
                    if kind < 0.15:
                        gens.append([0] * m.rank)
                    elif kind < 0.3:
                        gens.append([n * rng.randint(-2, 2) for _ in range(m.rank)])
                    else:
                        gens.append([rng.randrange(-n, 2 * n) for _ in range(m.rank)])
                s = m.subgroup(gens)
                members = span_closure(gens, m.rank, n)
                assert s.order == len(members)
                assert subgroup_structure(s) == structure_from_counts(members, n)


class TestOrthogonalComplement:
    def test_extremes(self):
        m = standard_module(9, 1)
        assert orthogonal_complement(m.subgroup([])) == full_subgroup(m)
        assert orthogonal_complement(full_subgroup(m)) == m.subgroup([])

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for n, d in ((4, 1), (6, 1), (3, 2)):
            m = standard_module(n, d)
            for _ in range(15):
                gens = [
                    [rng.randrange(n) for _ in range(m.rank)]
                    for _ in range(rng.randrange(1, 3))
                ]
                s = m.subgroup(gens)
                perp = orthogonal_complement(s)
                members = span_closure(gens, m.rank, n)
                assert set(elements(perp)) == brute_orthogonal(members, m.gram)

    def test_double_complement(self):
        # over Z/n the pairing is perfect, so perp-perp recovers the group
        m = standard_module(8, 1)
        for gens in ([[2, 0]], [[1, 3]], [[4, 0], [0, 2]]):
            s = m.subgroup(gens)
            assert orthogonal_complement(orthogonal_complement(s)) == s

    def test_order_product(self):
        m = standard_module(12, 1)
        for gens in ([[3, 0]], [[2, 5]], [[6, 0], [0, 4]]):
            s = m.subgroup(gens)
            assert s.order * orthogonal_complement(s).order == m.order

    def test_complement_cache_is_bounded(self):
        # a process that takes complements of ever new subgroups must
        # not keep every one of them
        maxsize = _complement_gens.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestIsotropic:
    def test_lagrangian_line(self):
        m = standard_module(5, 1)
        line = m.subgroup([[1, 0]])
        assert is_isotropic(line)
        assert is_maximal_isotropic(line)

    def test_full_not_isotropic(self):
        m = standard_module(5, 1)
        assert not is_isotropic(full_subgroup(m))

    def test_small_isotropic_not_maximal(self):
        m = standard_module(4, 1)
        s = m.subgroup([[2, 0]])
        assert is_isotropic(s)
        assert not is_maximal_isotropic(s)


class TestFixedSubgroup:
    def test_minus_identity_mod_four(self):
        # -I fixes exactly the 2-torsion of (Z/4)^2
        m = standard_module(4, 1)
        f = fixed_subgroup(IntMatrix([[-1, 0], [0, -1]]), m)
        assert f.order == 4
        assert subgroup_structure(f) == (2, 2)
        assert contains(f, (2, 2))

    def test_identity_fixes_everything(self):
        m = standard_module(6, 1)
        f = fixed_subgroup(IntMatrix.identity(2), m)
        assert f == full_subgroup(m)

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for n in (2, 3, 4, 5, 6):
            m = standard_module(n, 1)
            for _ in range(20):
                a = ModMatrix(
                    n, [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
                )
                f = fixed_subgroup(a, m)
                assert set(elements(f)) == brute_fixed_vectors(a)

    def test_fixes_pointwise(self):
        m = standard_module(4, 1)
        minus = ModMatrix(4, [[-1, 0], [0, -1]])
        two_torsion = m.subgroup([[2, 0], [0, 2]])
        assert fixes_pointwise(minus, two_torsion)
        assert not fixes_pointwise(minus, full_subgroup(m))
        assert fixes_pointwise(minus, m.subgroup([]))


class TestDualAction:
    # the action on the dual module is the inverse transpose
    def test_preserves_evaluation_pairing(self):
        # x . y is the pairing with the dual module, and
        # (a x) . (a* y) = x . y for a* the inverse transpose
        a = ModMatrix(
            5,
            [
                [1, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
        )
        # a is unimodular over Z, so its inverse there reduces to the
        # inverse mod 5
        astar = inverse_unimodular(a.lift().transpose()).reduce_mod(5)
        rng = random.Random(7)
        for _ in range(25):
            x = tuple(rng.randrange(5) for _ in range(4))
            y = tuple(rng.randrange(5) for _ in range(4))
            ax = tuple(
                sum(a.data[i][j] * x[j] for j in range(4)) % 5 for i in range(4)
            )
            ay = tuple(
                sum(astar.data[i][j] * y[j] for j in range(4)) % 5
                for i in range(4)
            )
            assert sum(p * q for p, q in zip(ax, ay)) % 5 == sum(
                p * q for p, q in zip(x, y)
            ) % 5

    def test_involutive(self):
        a = IntMatrix([[2, 1], [1, 1]])

        def dual(m):
            return inverse_unimodular(m.transpose())

        assert dual(dual(a)) == a


class TestEnumeration:
    COUNTS = [
        (2, 1, 5),
        (3, 1, 6),
        (4, 1, 15),
        (6, 1, 30),
        (5, 2, 1120),
    ]

    @pytest.mark.parametrize("n,d,count", COUNTS)
    def test_counts(self, n, d, count):
        subs = enumerate_subgroups(standard_module(n, d))
        assert len(subs) == count
        assert len({s.gens for s in subs}) == count

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_brute_force(self, n):
        subs = enumerate_subgroups(standard_module(n, 1))
        got = {frozenset(elements(s)) for s in subs}
        want = set(brute_subgroups(2, n))
        assert got == want

    def test_cap_refusal(self):
        m = standard_module(6, 2)
        assert subgroup_count_estimate(6, 4) > 10
        with pytest.raises(EnumerationCapError):
            enumerate_subgroups(m, cap=10)


class TestMaximalIsotropicExtension:
    def test_full_module_canonical_witnesses(self):
        # each step adjoins the first Howell row of H-perp outside H
        h1 = extend_to_maximal_isotropic(full_subgroup(standard_module(5, 1)))
        assert h1.gens.to_lists() == [[1, 0]]
        h2 = extend_to_maximal_isotropic(full_subgroup(standard_module(5, 2)))
        assert h2.gens.to_lists() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    def test_extension_contract(self):
        rng = random.Random(47)
        m = standard_module(4, 1)
        for sub in enumerate_subgroups(m):
            perp = orthogonal_complement(sub)
            if not perp.is_subgroup_of(sub):
                with pytest.raises(TorsionError):
                    extend_to_maximal_isotropic(sub)
                continue
            h = extend_to_maximal_isotropic(sub)
            assert perp.is_subgroup_of(h)
            assert h.is_subgroup_of(sub)
            assert is_maximal_isotropic(h)

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (5, 3)])
    def test_full_module_matches_element_set_greedy(self, n, d):
        s = full_subgroup(standard_module(n, d))
        assert is_isotropic_extension(s, extend_to_maximal_isotropic(s))

    def test_fixed_subgroups_match_element_set_greedy(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            d = rng.randint(1, 2)
            pool = catalog_matrices(d)
            tau = random_symplectic_conjugate(pool[rng.randrange(len(pool))], rng)[0]
            n = rng.choice((2, 3, 4, 5, 6, 7, 8, 9) if d == 1 else (2, 3, 4, 5, 6))
            fix = fixed_subgroup(tau, standard_module(n, d))
            if not orthogonal_complement(fix).is_subgroup_of(fix):
                continue
            assert is_isotropic_extension(fix, extend_to_maximal_isotropic(fix))
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_subgroup_under_a_moved_form_matches_element_set_greedy(self, n):
        # under a moved form U^T J U (U invertible mod n) the subgroup S
        # behaves as S U^T does under J, and S U^T runs over every
        # subgroup as S does; so the scan over all subgroups under the
        # standard form covers the moved cases, with the same count
        m = standard_module(n, 2)
        checked = 0
        for sub in enumerate_subgroups(m):
            if orthogonal_complement(sub).is_subgroup_of(sub):
                assert is_isotropic_extension(sub, extend_to_maximal_isotropic(sub))
                checked += 1
        assert checked == {3: 81, 4: 517}[n]


class TestPolarization:
    def test_degrees(self):
        assert Polarization(IntMatrix.identity(4)).degree == 1
        assert scalar_polarization(1, 3).degree == 9
        with pytest.raises(TorsionError):
            Polarization(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_polarization_is_checked_where_it_is_made(self):
        # singular, and nonsingular with J P not antisymmetric (d = 1,
        # P = diag(1, 2): J P = [[0, 2], [-1, 0]])
        with pytest.raises(TorsionError, match="nonsingular"):
            Polarization(IntMatrix([[1, 2], [2, 4]]))
        with pytest.raises(TorsionError, match="antisymmetric"):
            Polarization(IntMatrix([[1, 0], [0, 2]]))
        pol = Polarization(IntMatrix([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 1, 2]]))
        assert pol.degree == abs(leibniz_det(pol.matrix.data)) == 4
        assert pol.form.to_lists() == riemann_form(pol.matrix.data)

    def test_induced_pairing_scales_gram(self):
        # the pairing a polarization induces at level n is J P mod n
        pol = scalar_polarization(1, 2)
        assert pol.form.reduce_mod(5) == ModMatrix(5, [[0, 2], [-2, 0]])
        assert classify(IntMatrix([[1, 1], [0, 1]])).fixes_maximal_isotropic(5, pol)

    def test_induced_pairing_may_degenerate(self):
        pol = scalar_polarization(1, 2)
        assert math.gcd(leibniz_det(riemann_form(pol.matrix.data)), 4) != 1
        with pytest.raises(DegreeObstruction):
            classify(IntMatrix([[1, 1], [0, 1]])).fixes_maximal_isotropic(4, pol)

    def test_nondegeneracy_is_the_unit_determinant(self):
        # the gate against the Leibniz determinant of J P mod n.
        # diag(A, A^T) keeps J P antisymmetric, degree det(A)^2
        gen = classify(IntMatrix.identity(4))
        for n in range(1, 13):
            for k in range(1, 7):
                pol = Polarization(IntMatrix([
                    [k, 1, 0, 0], [0, 1, 0, 0], [0, 0, k, 0], [0, 0, 1, 1],
                ]))
                form = [[x % n for x in row] for row in riemann_form(pol.matrix.data)]
                expected = math.gcd(leibniz_det(form), n) == 1
                assert expected == (math.gcd(k, n) == 1)
                if expected:
                    assert gen.fixes_maximal_isotropic(n, pol)
                else:
                    with pytest.raises(DegreeObstruction):
                        gen.fixes_maximal_isotropic(n, pol)

    def test_induced_pairing_size_mismatch(self):
        with pytest.raises(TorsionError, match="size"):
            classify(IntMatrix.identity(4)).fixes_maximal_isotropic(
                5, Polarization(IntMatrix.identity(2)))

    def test_compatibility(self):
        # tau respects the polarization at level 5 when it preserves the
        # induced pairing: tau^T (J P) tau = J P mod 5
        def preserves(tau, pol):
            gram = IntMatrix(riemann_form(pol.matrix.data)).reduce_mod(5)
            t = tau.reduce_mod(5)
            return t.transpose() @ gram @ t == gram

        rot = IntMatrix([[0, -1], [1, 0]])
        shear = IntMatrix([[1, 1], [0, 1]])
        for pol in (Polarization(IntMatrix.identity(2)), scalar_polarization(1, 3)):
            assert preserves(rot, pol) and pol.preserved_by(rot)
            assert preserves(shear, pol) and pol.preserved_by(shear)
        # non-symplectic matrix fails against the principal form
        bad = IntMatrix([[2, 0], [0, 1]])
        assert not preserves(bad, Polarization(IntMatrix.identity(2)))
        assert not Polarization(IntMatrix.identity(2)).preserved_by(bad)
