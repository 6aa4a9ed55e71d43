import pytest

from monodromy import IntPoly, cyclotomic_poly
from monodromy.polynomials import divisors


class TestIntPoly:
    def test_constant_term_first(self):
        p = IntPoly((1, 0, 1))
        assert p.degree == 2 and p.coeffs[0] == 1 and p.coeffs[2] == 1

    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).is_zero()
        assert IntPoly().degree == -1

    def test_arithmetic(self):
        x = IntPoly.x()
        p = (x + IntPoly.one()) * (x - IntPoly.one())
        assert p.coeffs == (-1, 0, 1)
        assert (p - p).is_zero()
        assert (x**3).coeffs == (0, 0, 0, 1)

    def test_scalar_multiplication(self):
        assert (IntPoly((1, 1)) * 3).coeffs == (3, 3)

    def test_divmod_exact(self):
        num = IntPoly((-1, 0, 0, 1))  # x^3 - 1
        den = IntPoly((-1, 1))  # x - 1
        q, r = divmod(num, den)
        assert r.is_zero() and q.coeffs == (1, 1, 1)
        assert num % den == r

    def test_divmod_with_remainder(self):
        q, r = divmod(IntPoly((1, 0, 1)), IntPoly((1, 1)))
        assert (IntPoly((1, 1)) * q + r).coeffs == (1, 0, 1)

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            IntPoly((1, 0, 1)).exact_div(IntPoly((1, 1)))

    def test_evaluate(self):
        p = IntPoly((1, -2, 1))  # (x - 1)^2
        assert [p.evaluate(t) for t in (-1, 0, 1, 2, 5)] == [4, 1, 0, 1, 16]

    def test_monic(self):
        assert IntPoly((3, 1)).is_monic()
        assert not IntPoly((1, 2)).is_monic()


class TestDivisors:
    def test_small_values(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(49) == (1, 7, 49)


class TestCyclotomicPoly:
    def test_small_indices(self):
        assert cyclotomic_poly(1).coeffs == (-1, 1)
        assert cyclotomic_poly(2).coeffs == (1, 1)
        assert cyclotomic_poly(3).coeffs == (1, 1, 1)
        assert cyclotomic_poly(4).coeffs == (1, 0, 1)
        assert cyclotomic_poly(6).coeffs == (1, -1, 1)
        assert cyclotomic_poly(8).coeffs == (1, 0, 0, 0, 1)
        assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)

    def test_product_over_divisors_is_x_n_minus_one(self):
        for n in (1, 2, 6, 12, 30):
            product = IntPoly.one()
            for d in divisors(n):
                product = product * cyclotomic_poly(d)
            expected = IntPoly((-1,) + (0,) * (n - 1) + (1,))
            assert product == expected

    def test_degree_is_euler_phi(self):
        from monodromy import euler_phi

        for n in range(1, 40):
            assert cyclotomic_poly(n).degree == euler_phi(n)
