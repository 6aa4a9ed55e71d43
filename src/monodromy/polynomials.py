"""Dense univariate polynomials over Z, plus cyclotomic polynomials.

Everything here is exact: coefficients are Python ints, division is only
performed when it is exact, and cyclotomic polynomials are built by the
recursive division x^N - 1 = prod_{d | N} Phi_d.
"""

from __future__ import annotations

import functools
from typing import Iterable, Tuple

from ._record import Record


class IntPoly(Record):
    """Integer polynomial, constant term first.

    IntPoly((1, 0, 1)) is 1 + x^2.  Trailing zero coefficients are
    stripped on construction; the zero polynomial has coeffs == () and
    degree -1.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(map(int, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return IntPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = IntPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, divisor: "IntPoly") -> Tuple["IntPoly", "IntPoly"]:
        """Division with remainder; the divisor must be monic."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not divisor.is_monic():
            raise ValueError("division only supported by monic divisors")
        rem = list(self.coeffs)
        d = divisor.degree
        if d == 0:
            return IntPoly(rem), IntPoly.zero()
        quo = [0] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                quo[k - d] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[k - d + j] -= c * b
        return IntPoly(quo), IntPoly(rem[:d])

    def __mod__(self, divisor: "IntPoly") -> "IntPoly":
        return divmod(self, divisor)[1]

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        quo, rem = divmod(self, divisor)
        if not rem.is_zero():
            raise ValueError("division was not exact")
        return quo

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                var = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(f"+{var}")
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c:+d}*{var}")
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s


def divisors(n: int) -> Tuple[int, ...]:
    """Positive divisors of n > 0, ascending."""
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial Phi_n as an IntPoly."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    num = IntPoly.monomial(n) - IntPoly.one()
    for d in divisors(n)[:-1]:
        num = num.exact_div(cyclotomic_poly(d))
    return num
