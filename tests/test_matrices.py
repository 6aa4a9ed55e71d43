import os
import random
import subprocess
import sys

import pytest

from monodromy import (
    DimensionError,
    IntMatrix,
    MatrixError,
    ModMatrix,
    char_poly,
    exterior_power,
    howell_form,
    kernel_mod_n,
    smith_normal_form,
    standard_symplectic_form,
)

from monodromy.catalog import catalog_matrices, random_symplectic_conjugate

from _oracles import (
    SingularMatrixError,
    brute_kernel_vectors,
    determinant_divisor_snf,
    hermite_normal_form,
    inverse_unimodular,
    is_unipotent,
    leibniz_char_poly,
    leibniz_det,
    naive_howell_form,
    naive_power,
    naive_product,
    span_closure,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def rnd_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rnd_mod_matrix(rng, n, rows, cols):
    return ModMatrix(n, [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)], cols)


def assert_validated(result, modulus=None):
    """result equals a validated construction of its own entries."""
    if modulus is None:
        rebuilt = IntMatrix(result.to_lists())
    else:
        rebuilt = ModMatrix(modulus, result.to_lists(), result.cols)
        assert result.modulus == modulus
        assert all(0 <= x < modulus for row in result.data for x in row)
    assert (result.rows, result.cols, result.data) == (rebuilt.rows, rebuilt.cols, rebuilt.data)
    assert type(result.data) is tuple and all(type(row) is tuple for row in result.data)
    assert all(type(x) is int for row in result.data for x in row)


class TestIntMatrix:
    def test_construction_and_equality(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.rows == 2 and a.cols == 2
        assert a == IntMatrix([[1, 2], [3, 4]])
        assert a != IntMatrix([[1, 2], [3, 5]])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3]])

    def test_identity_and_arithmetic(self):
        i = IntMatrix.identity(3)
        a = IntMatrix([[1, 2, 0], [0, 1, 0], [5, 0, 1]])
        assert a @ i == a and i @ a == a
        assert a - a == IntMatrix([[0] * 3] * 3)
        assert (a + a).data[0][1] == 4
        assert (-a).data[2][0] == -5

    def test_power(self):
        s = IntMatrix([[1, 1], [0, 1]])
        assert (s**5).data[0][1] == 5
        assert s**0 == IntMatrix.identity(2)

    def test_det_matches_permutation_sum(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = rnd_int_matrix(rng, n, n)
            assert a.det() == leibniz_det(a.data)

    def test_det_requires_square(self):
        with pytest.raises(MatrixError):
            IntMatrix([[1, 2, 3], [4, 5, 6]]).det()

    def test_inverse_unimodular(self):
        # the oracle inverse the contragredient is checked against
        a = IntMatrix([[2, 1], [1, 1]])
        assert a @ inverse_unimodular(a) == IntMatrix.identity(2)
        assert inverse_unimodular(IntMatrix([[-1]])) == IntMatrix([[-1]])
        with pytest.raises(SingularMatrixError):
            inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))

    def test_negative_powers_refused(self):
        with pytest.raises(MatrixError, match="negative powers"):
            IntMatrix([[2, 1], [1, 1]]) ** -1

    def test_transpose(self):
        a = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().data == ((1, 4), (2, 5), (3, 6))

    @pytest.mark.parametrize("entry,kind", [
        (1.7, "float"), (1.0, "float"), (True, "bool"), (False, "bool"), ("1", "str"),
    ])
    def test_non_integer_entries_rejected(self, entry, kind):
        with pytest.raises(MatrixError, match=f"integers, not {kind}"):
            IntMatrix([[1, 0], [entry, 1]])

    @pytest.mark.parametrize("make", [
        lambda: IntMatrix.identity(0),
        lambda: IntMatrix([]),
        lambda: IntMatrix([[], []]),
    ])
    def test_empty_shapes_rejected(self, make):
        with pytest.raises(DimensionError):
            make()

    def test_results_match_validated_construction(self):
        rng = random.Random(43)
        for _ in range(50):
            a, b = rnd_int_matrix(rng, 2, 3), rnd_int_matrix(rng, 3, 2)
            for result in (a @ b, a.transpose(), -a, a - a, a + a, 3 * a,
                           IntMatrix.identity(3)):
                assert_validated(result)
            assert (a @ b).to_lists() == naive_product(a.data, b.data)

    def test_power_matches_repeated_product(self):
        rng = random.Random(47)
        for _ in range(40):
            size = rng.randint(1, 4)
            a = rnd_int_matrix(rng, size, size, -3, 3)
            for e in range(10):
                power = a**e
                assert_validated(power)
                assert power.to_lists() == naive_power(a.data, e)

    def test_identity_is_one_shared_instance(self):
        assert IntMatrix.identity(3) is IntMatrix.identity(3)
        assert IntMatrix.identity(3).data == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(AttributeError):
            IntMatrix.identity(3).data = ((0,),)
        with pytest.raises(MatrixError):
            IntMatrix.identity(2.0)


class TestSizes:
    """identity takes its size by the rule for entries:
    bool, float and str raise MatrixError, __index__ integers pass."""

    @pytest.mark.parametrize("size,kind", [
        (2.0, "float"), (2.5, "float"), (True, "bool"), (False, "bool"), ("2", "str"),
    ])
    def test_non_integer_sizes_rejected(self, size, kind):
        match = f"matrix size must be an integer, not {kind}"
        for make in (
            lambda: IntMatrix.identity(size),
            lambda: ModMatrix.identity(size, 5),
        ):
            with pytest.raises(MatrixError, match=match):
                make()

    def test_bool_size_is_not_served_from_the_identity_cache(self):
        one = IntMatrix.identity(1)
        with pytest.raises(MatrixError, match="not bool"):
            IntMatrix.identity(True)
        assert IntMatrix.identity(1) is one

    def test_index_sizes_accepted(self):
        class Two:
            def __index__(self):
                return 2

        assert IntMatrix.identity(Two()) == IntMatrix.identity(2)
        i = ModMatrix.identity(Two(), 5)
        assert i == ModMatrix.identity(2, 5)
        assert type(i.rows) is int and type(i.cols) is int

    def test_zero_and_negative_row_counts(self):
        assert ModMatrix(5, [], 3).rows == 0
        for size in (0, -1):
            with pytest.raises(DimensionError):
                ModMatrix.identity(size, 5)


class TestStandardSymplecticForm:
    def test_blocks(self):
        j = standard_symplectic_form(2)
        assert j.to_lists() == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
        assert j.transpose() == -j
        assert j @ j == -IntMatrix.identity(4)
        assert standard_symplectic_form(2) is j

    def test_empty_form_refused(self):
        with pytest.raises(DimensionError):
            standard_symplectic_form(0)


class TestModMatrix:
    def test_reduction_and_lift(self):
        a = IntMatrix([[-1, 5], [7, -9]]).reduce_mod(4)
        assert a.data == ((3, 1), (3, 3))
        assert a.lift().data == ((3, 1), (3, 3))

    def test_identity_signature_is_size_first(self):
        i = ModMatrix.identity(3, 7)
        assert i.rows == 3 and i.modulus == 7

    def test_zero_rows_allowed_with_explicit_cols(self):
        z = ModMatrix(5, [], 3)
        assert z.rows == 0 and z.cols == 3
        with pytest.raises(DimensionError):
            ModMatrix(5, [])

    def test_modulus_mismatch_rejected(self):
        a = ModMatrix(4, [[1, 0], [0, 1]])
        b = ModMatrix(5, [[1, 0], [0, 1]])
        with pytest.raises(MatrixError):
            a @ b

    def test_matmul_reduces(self):
        a = ModMatrix(6, [[3, 0], [0, 2]])
        assert (a @ a).data == ((3, 0), (0, 4))

    def test_negative_power_refused_promptly(self):
        # binary powering shifts e right until it is 0, which a negative
        # e never reaches, so the refusal has to come first; the child
        # process is timed out rather than left to hang the suite
        code = (
            "import monodromy.matrices as m\n"
            "a = m.ModMatrix(7, [[2, 1], [1, 1]])\n"
            "for e in (-1, -2):\n"
            "    try:\n"
            "        a ** e\n"
            "    except m.MatrixError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "MatrixError negative powers of a ModMatrix are not supported"
        ] * 2

    @pytest.mark.parametrize("entry,kind", [
        (1.7, "float"), (1.0, "float"), (True, "bool"), (False, "bool"), ("1", "str"),
    ])
    def test_non_integer_entries_rejected(self, entry, kind):
        with pytest.raises(MatrixError, match=f"integers, not {kind}"):
            ModMatrix(5, [[1, 0], [entry, 1]])

    @pytest.mark.parametrize("modulus,kind", [
        (2.5, "float"), (3.0, "float"), (True, "bool"), (False, "bool"), ("5", "str"),
    ])
    def test_non_integer_modulus_rejected(self, modulus, kind):
        match = f"modulus must be an integer, not {kind}"
        with pytest.raises(MatrixError, match=match):
            ModMatrix(modulus, [[1, 0], [0, 1]])
        with pytest.raises(MatrixError, match=match):
            ModMatrix.identity(2, modulus)
        with pytest.raises(MatrixError, match=match):
            IntMatrix([[3, 1], [1, 1]]).reduce_mod(modulus)

    def test_index_modulus_is_stored_as_int(self):
        class Five:
            def __index__(self):
                return 5

        a = IntMatrix([[7, -1], [0, 5]]).reduce_mod(Five())
        assert type(a.modulus) is int
        assert a == ModMatrix(5, [[2, 4], [0, 0]]) == ModMatrix(Five(), [[7, -1], [0, 5]])

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 12])
    def test_results_match_validated_construction(self, n):
        rng = random.Random(53 + n)
        for _ in range(40):
            r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a, a2 = rnd_mod_matrix(rng, n, r, c), rnd_mod_matrix(rng, n, r, c)
            b = rnd_mod_matrix(rng, n, c, k)
            sq = rnd_mod_matrix(rng, n, c, c)
            z = rnd_int_matrix(rng, r, c, -40, 40)
            reduce = lambda rows: [[x % n for x in row] for row in rows]
            cases = [
                (a - a2, reduce([[x - y for x, y in zip(p, q)]
                                 for p, q in zip(a.data, a2.data)])),
                (-a, reduce([[-x for x in row] for row in a.data])),
                (a @ b, reduce(naive_product(a.data, b.data))),
                (sq**3, reduce(naive_power(sq.data, 3))),
                (a.transpose(), [[a.data[i][j] for i in range(r)] for j in range(c)]),
                (ModMatrix.identity(c, n), reduce(naive_power(sq.data, 0))),
                (z.reduce_mod(n), reduce(z.data)),
            ]
            for result, expected in cases:
                assert_validated(result, n)
                assert result.to_lists() == expected
            h = howell_form(a)
            assert_validated(h, n)
            if r * c <= 6 and n <= 6:
                assert span_closure(h.data, c, n) == span_closure(a.data, c, n)
            empty = ModMatrix(n, [], c)
            for result in (empty - empty, -empty, empty @ b,
                           howell_form(empty)):
                assert_validated(result, n)
                assert result.rows == 0


def assert_smith_certified(a, s):
    """The three facts that make s a Smith form of a without U (see
    TestSmithNormalForm)."""
    assert_validated(s.v)
    assert s.divisors == determinant_divisor_snf(a)
    av = naive_product(a.data, s.v.data)
    for i in range(a.cols):
        q = s.divisors[i] if i < len(s.divisors) else 0
        assert all((row[i] % q if q else row[i]) == 0 for row in av)
    assert abs(leibniz_det(s.v.data)) == 1


class TestSmithNormalForm:
    """smith_normal_form returns the divisors and V, not U.  Three facts
    certify the form exactly all the same: the divisors equal the
    determinantal divisors of A, d_i divides column i of A V (which is
    zero when d_i = 0 or i is past the divisors), and |det V| = 1.
    With k nonzero divisors, A V = C diag(d_1, ..., d_k, 0, ...) for an
    integer C with k columns, so the k x k minors of A V are zero or
    d_1 ... d_k times those of C.  V is unimodular, so their gcd is the
    k-th determinantal divisor of A, which is d_1 ... d_k; hence the
    k x k minors of C have gcd 1, C extends to a unimodular W, and
    U = W^-1 gives U A V = D."""

    def test_certificate_and_divisor_chain(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rnd_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            s = smith_normal_form(a)
            assert_smith_certified(a, s)
            nz = tuple(x for x in s.divisors if x)
            assert all(x > 0 for x in nz)
            assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
            # zero divisors only after every nonzero one
            assert s.divisors[: len(nz)] == nz

    def test_matches_determinant_divisors(self):
        rng = random.Random(13)
        for _ in range(150):
            a = rnd_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), -6, 6)
            assert smith_normal_form(a).divisors == determinant_divisor_snf(a)

    def test_gcd_steps_and_zero_lines(self):
        # entries without units force extended-gcd steps and stained
        # rows; zero rows and columns must end up last
        rng = random.Random(43)
        for trial in range(300):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            big = trial % 3 == 0
            data = [[rng.choice((0, 2, 3, 4, 6, 9, 10, 15)) * rng.randint(-3, 3)
                     * (rng.randint(1, 10**6) if big else 1) for _ in range(c)]
                    for _ in range(r)]
            if rng.random() < 0.3:
                data[rng.randrange(r)] = [0] * c
            if rng.random() < 0.3:
                j = rng.randrange(c)
                for row in data:
                    row[j] = 0
            a = IntMatrix(data)
            s = smith_normal_form(a)
            assert_smith_certified(a, s)
            assert len(s.divisors) == min(r, c)
            nz = tuple(x for x in s.divisors if x)
            assert all(x > 0 for x in nz) and s.divisors[:len(nz)] == nz
            assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))

    def test_known_values(self):
        assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])).divisors == (2, 4)
        assert smith_normal_form(IntMatrix([[1, 0], [0, 0]])).divisors == (1, 0)


class TestHermite:
    def test_shape_and_span(self):
        h = hermite_normal_form(IntMatrix([[4, 6], [2, 2]]))
        # row-style form: pivots positive, entries above reduced
        assert h.data == ((2, 0), (0, 2))


class TestHowell:
    def test_idempotent_and_canonical(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.choice((2, 3, 4, 5, 6, 8, 9))
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = rnd_int_matrix(rng, rows, cols, 0, n - 1).reduce_mod(n)
            h = howell_form(a)
            assert howell_form(h) == h
            # any generating set with the same row span has the same form
            data = [list(r) for r in a.data]
            rng.shuffle(data)
            c1, c2 = rng.randint(0, n - 1), rng.randint(0, n - 1)
            data.append(
                [
                    (c1 * a.data[0][j] + c2 * a.data[-1][j]) % n
                    for j in range(cols)
                ]
            )
            assert howell_form(ModMatrix(n, data, cols)) == h

    def test_canonical_by_brute_span(self):
        # exhaustive: equal spans imply equal forms, n <= 4, 2 columns
        rng = random.Random(19)
        for n in (2, 3, 4):
            seen = {}
            for _ in range(150):
                rows = rng.randint(1, 2)
                a = rnd_int_matrix(rng, rows, 2, 0, n - 1).reduce_mod(n)
                span = span_closure(a.data, 2, n)
                h = howell_form(a)
                if span in seen:
                    assert seen[span] == h
                else:
                    seen[span] = h

    def test_matches_stacked_hermite_oracle_and_span(self):
        # random generating sets at n <= 12 and c in {2, 4, 6}, with zero
        # rows, rows of multiples of n and multiples of earlier rows
        rng = random.Random(41)
        for _ in range(600):
            n = rng.randint(1, 12)
            c = rng.choice((2, 4, 6))
            rows = []
            for _ in range(rng.randint(0, 7)):
                kind = rng.random()
                if kind < 0.15:
                    rows.append([0] * c)
                elif kind < 0.3:
                    rows.append([n * rng.randint(-3, 3) for _ in range(c)])
                elif kind < 0.45 and rows:
                    k = rng.randint(-n, n)
                    rows.append([k * x for x in rng.choice(rows)])
                else:
                    rows.append([rng.randint(-2 * n, 2 * n) for _ in range(c)])
            a = ModMatrix(n, rows, c)
            h = howell_form(a)
            assert h == naive_howell_form(a)
            if n**c <= 1296:
                assert span_closure(h.data, c, n) == span_closure(a.data, c, n)

    def test_saturation_property(self):
        # mod 4, the row (2, 0) generates the same span as itself; the
        # span of (1, 0) strictly contains it and the forms differ
        a = howell_form(ModMatrix(4, [[2, 0]]))
        b = howell_form(ModMatrix(4, [[1, 0]]))
        assert a != b


class TestKernel:
    def test_matches_brute_enumeration(self):
        rng = random.Random(23)
        cases = []
        for _ in range(200):
            n = rng.choice((2, 3, 4, 5, 6))
            a = rnd_int_matrix(rng, rng.randint(1, 2), rng.randint(1, 2), 0, n - 1)
            cases.append(a.reduce_mod(n))
        # no rows, a zero matrix, and fewer rows than columns, so that
        # the Smith kernel generators run past the diagonal
        for n in (1, 2, 4, 6, 12):
            cases += [ModMatrix(n, [], 3), ModMatrix(n, [[0, 0, 0]] * 2, 3),
                      ModMatrix(n, [[2, 3, 4]], 3), ModMatrix(n, [[6, 3, 0, 9]], 4),
                      ModMatrix(n, [[1, 2, 0, 3], [0, 4, 6, 2]], 4)]
            cases.append(rnd_int_matrix(rng, 2, 3, 0, 11).reduce_mod(n))
        for am in cases:
            ker = kernel_mod_n(am)
            brute = brute_kernel_vectors(am)
            assert span_closure(ker.data, am.cols, am.modulus) == brute

    def test_zero_matrix_kernel_is_everything(self):
        ker = kernel_mod_n(ModMatrix(3, [[0, 0]] * 2, 2))
        assert len(span_closure(ker.data, 2, 3)) == 9


class TestCharPoly:
    def test_matches_polynomial_expansion(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 4)
            a = rnd_int_matrix(rng, n, n, -5, 5)
            assert char_poly(a) == leibniz_char_poly(a)

    def test_conjugated_catalog_with_large_entries(self):
        # 6x6 finite-order and shear blocks conjugated until the entries
        # reach about 10^6; the scalars I and -I are their own conjugates
        rng = random.Random(47)
        scalars = (IntMatrix.identity(6), -IntMatrix.identity(6))
        for base in catalog_matrices(3)[1::150]:
            assert base not in scalars
            tau = base
            while max(abs(x) for row in tau.data for x in row) < 10**5:
                tau = random_symplectic_conjugate(tau, rng)[0]
            assert char_poly(tau) == leibniz_char_poly(tau) == char_poly(base)

    def test_known_values(self):
        assert char_poly(IntMatrix([[0, -1], [1, -1]])).coeffs == (1, 1, 1)
        assert char_poly(IntMatrix([[0, -1], [1, 0]])).coeffs == (1, 0, 1)
        assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)

    def test_cayley_hamilton_check_survives_optimize(self):
        # Entries whose products are off by one keep the one division
        # exact (the trace of the wrong product is 2) but break the final
        # check; under python -O an assert statement would vanish, the
        # explicit raise must not.
        code = (
            "import monodromy.matrices as m\n"
            "assert False, 'assert statements must be stripped here'\n"
            "class Off(int):\n"
            "    def __mul__(self, other):\n"
            "        return int(self) * other + 1\n"
            "a = m.IntMatrix._trusted(((Off(1), Off(1)), (Off(0), Off(1))))\n"
            "m.char_poly(a)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.rstrip().endswith("AssertionError: Cayley-Hamilton check failed")


class TestExteriorPower:
    def test_multiplicative(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            a = rnd_int_matrix(rng, n, n, -4, 4)
            b = rnd_int_matrix(rng, n, n, -4, 4)
            assert exterior_power(a @ b, k) == exterior_power(a, k) @ exterior_power(b, k)

    def test_top_power_is_determinant(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(1, 4)
            a = rnd_int_matrix(rng, n, n)
            top = exterior_power(a, n)
            assert top.rows == 1 and top.data[0][0] == a.det()

    def test_mod_matrices_supported(self):
        a = IntMatrix([[1, 2], [3, 4]])
        am = a.reduce_mod(5)
        assert exterior_power(am, 2).data[0][0] == (a.det()) % 5


class TestIsUnipotent:
    def test_identity_has_index_zero(self):
        assert is_unipotent(IntMatrix.identity(3)) == (True, 0)

    def test_shear_has_nilpotency_index_two(self):
        assert is_unipotent(IntMatrix([[1, 3], [0, 1]])) == (True, 2)

    def test_non_unipotent(self):
        ok, index = is_unipotent(IntMatrix([[0, -1], [1, 0]]))
        assert not ok and index is None
