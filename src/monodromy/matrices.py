"""Exact dense linear algebra over Z and Z/nZ.

Matrices are immutable tuples of tuples of Python ints, so every
operation is exact at any size and results are hashable.  The normal
forms here are the load-bearing primitives for everything else:

* Smith normal form over Z: the divisors and the unimodular column
  transform, from a fixed pivoting rule, so outputs are deterministic,
  and checked by the routine itself in every interpreter mode.
* The Howell form over Z/nZ: the Howell form of a row span is the
  mod-n reduction of the row Hermite form of the lattice spanned by the
  rows and n*Z^c.  That makes the Howell form canonical: two
  generating sets span the same submodule of (Z/nZ)^c exactly when
  their forms are identical.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from ._record import Record
from .polynomials import IntPoly


class MatrixError(ValueError):
    pass


class DimensionError(MatrixError):
    pass


def _entry(x, what: str = "matrix entries must be integers") -> int:
    # bool is an int subclass and a float would be truncated by int(),
    # so both are refused rather than converted.
    if isinstance(x, bool):
        raise MatrixError(f"{what}, not bool")
    try:
        return operator.index(x)
    except TypeError:
        raise MatrixError(f"{what}, not {type(x).__name__}") from None


_SIZE = "matrix size must be an integer"


def _check_modulus(modulus) -> int:
    """The modulus as an int >= 1; bool, float and other non-integers
    raise MatrixError."""
    n = _entry(modulus, "modulus must be an integer")
    if n < 1:
        raise MatrixError("modulus must be >= 1")
    return n


def _freeze(data: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(_entry(x) for x in row) for row in data)


class IntMatrix:
    """Immutable matrix over Z with positive dimensions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]]) -> None:
        frozen = _freeze(data)
        if not frozen or not frozen[0]:
            raise DimensionError("IntMatrix dimensions must be positive")
        cols = len(frozen[0])
        if any(len(r) != cols for r in frozen):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "rows", len(frozen))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", frozen)

    @classmethod
    def _trusted(cls, data: Tuple[Tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a nonempty rectangular tuple of tuples of ints as is.

        Only for results computed here from matrices that were already
        validated; outside data goes through __init__.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: restoring the slots
        # one by one would go through the refusing __setattr__
        return IntMatrix, (self.data,)

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def identity(n: int) -> "IntMatrix":
        # one shared instance per size; IntMatrix is immutable.  The
        # cache is typed, so identity(True) is not served as identity(1).
        n = _entry(n, _SIZE)
        if n < 1:
            raise DimensionError("IntMatrix dimensions must be positive")
        return IntMatrix._trusted(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self) -> List[List[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.data)))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(("IntMatrix", self.data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        add = operator.add
        return IntMatrix._trusted(tuple([
            tuple(map(add, ra, rb)) for ra, rb in zip(self.data, other.data)
        ]))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        sub = operator.sub
        return IntMatrix._trusted(tuple([
            tuple(map(sub, ra, rb)) for ra, rb in zip(self.data, other.data)
        ]))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix._trusted(tuple(tuple(a * scalar for a in row) for row in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        bt = tuple(zip(*other.data))
        mul = operator.mul
        # list comprehensions inside tuple() skip the generator frames
        return IntMatrix._trusted(tuple([
            tuple([sum(map(mul, row, col)) for col in bt]) for row in self.data
        ]))

    def __pow__(self, e: int) -> "IntMatrix":
        if not self.is_square:
            raise DimensionError("powers need a square matrix")
        if e < 0:
            raise MatrixError("negative powers of an IntMatrix are not supported")
        if e == 0:
            return IntMatrix.identity(self.rows)
        return _power(self, e)

    def reduce_mod(self, n: int) -> "ModMatrix":
        n = _check_modulus(n)
        return ModMatrix._trusted(
            n, tuple(tuple(x % n for x in row) for row in self.data), self.cols
        )

    def det(self) -> int:
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        return _det_bareiss(self.data)

    def content(self) -> int:
        """The gcd of the entries, 0 for the zero matrix: the matrix
        vanishes mod n exactly when n divides it."""
        return math.gcd(*itertools.chain.from_iterable(self.data))

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


def _apply_j(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """J a for a given by its 2d rows, with no product: the lower half of
    a over minus its upper half.  J's blocks are written out only here."""
    d = len(rows) // 2
    return tuple(map(tuple, rows[d:])) + tuple([tuple(map(operator.neg, r)) for r in rows[:d]])


@lru_cache(maxsize=None, typed=True)
def standard_symplectic_form(d: int) -> IntMatrix:
    """The integer Gram matrix J = [[0, I], [-I, 0]] of size 2d, J
    applied to the identity, one shared immutable instance per d."""
    return IntMatrix._trusted(_apply_j(IntMatrix.identity(2 * d).data))


class ModMatrix:
    """Immutable matrix over Z/nZ; entries are reduced into [0, n).

    Zero-row matrices are allowed so that the trivial subgroup has a
    generator matrix; the column count is always positive.
    """

    __slots__ = ("modulus", "rows", "cols", "data")

    def __init__(self, modulus: int, data: Iterable[Iterable[int]], cols: Optional[int] = None) -> None:
        modulus = _check_modulus(modulus)
        frozen = tuple(tuple(_entry(x) % modulus for x in row) for row in data)
        if frozen:
            ncols = len(frozen[0])
            if any(len(r) != ncols for r in frozen):
                raise DimensionError("ragged rows")
            if cols is not None and cols != ncols:
                raise DimensionError("cols does not match data")
        else:
            if cols is None or cols < 1:
                raise DimensionError("zero-row ModMatrix needs an explicit positive column count")
            ncols = cols
        if ncols < 1:
            raise DimensionError("column count must be positive")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rows", len(frozen))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", frozen)

    @classmethod
    def _trusted(cls, modulus: int, data: Tuple[Tuple[int, ...], ...], cols: int) -> "ModMatrix":
        """Wrap a tuple of tuples of ints already reduced into [0, modulus)
        as is, with cols >= 1 matching every row.

        Only for results computed here from matrices that were already
        validated; outside data goes through __init__.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "modulus", modulus)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ModMatrix is immutable")

    def __reduce__(self):
        # cols too, which a zero-row matrix cannot do without
        return ModMatrix, (self.modulus, self.data, self.cols)

    @staticmethod
    def identity(n: int, modulus: int) -> "ModMatrix":
        modulus = _check_modulus(modulus)
        n = _entry(n, _SIZE)
        if n < 1:
            raise DimensionError("zero-row ModMatrix needs an explicit positive column count")
        one = 1 % modulus
        return ModMatrix._trusted(
            modulus,
            tuple(tuple(one if i == j else 0 for j in range(n)) for i in range(n)),
            n,
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def lift(self) -> IntMatrix:
        if self.rows == 0:
            raise DimensionError("cannot lift a zero-row matrix")
        return IntMatrix._trusted(self.data)

    def to_lists(self) -> List[List[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "ModMatrix":
        if self.rows == 0:
            raise DimensionError("cannot transpose a zero-row matrix")
        return ModMatrix._trusted(self.modulus, tuple(zip(*self.data)), self.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMatrix)
            and self.modulus == other.modulus
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(("ModMatrix", self.modulus, self.cols, self.data))

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        if self.modulus != other.modulus:
            raise MatrixError("modulus mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")
        n = self.modulus
        return ModMatrix._trusted(n, tuple(
            tuple((a - b) % n for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ), self.cols)

    def __neg__(self) -> "ModMatrix":
        n = self.modulus
        return ModMatrix._trusted(
            n, tuple(tuple(-a % n for a in row) for row in self.data), self.cols
        )

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if not isinstance(other, ModMatrix):
            return NotImplemented
        if self.modulus != other.modulus:
            raise MatrixError("modulus mismatch")
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        n = self.modulus
        bt = tuple(zip(*other.data))
        mul = operator.mul
        return ModMatrix._trusted(n, tuple([
            tuple([sum(map(mul, row, col)) % n for col in bt]) for row in self.data
        ]), other.cols)

    def __pow__(self, e: int) -> "ModMatrix":
        if not self.is_square:
            raise DimensionError("powers need a square matrix")
        if e < 0:
            raise MatrixError("negative powers of a ModMatrix are not supported")
        if e == 0:
            return ModMatrix.identity(self.rows, self.modulus)
        return _power(self, e)

    def det(self) -> int:
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        return _det_bareiss(self.data) % self.modulus

    def __repr__(self) -> str:
        return f"ModMatrix({self.modulus}, {self.to_lists()!r})"


def _power(base, e: int):
    """base**e for e >= 1 by binary powering; the base is squared only
    while higher bits of e remain, and no factor is the identity."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else result @ base
        e >>= 1
        if not e:
            return result
        base = base @ base


def _det_bareiss(data: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; all divisions are exact."""
    n = len(data)
    if n == 0:
        return 1
    if n == 1:
        return data[0][0]
    m = [list(r) for r in data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - mik * m[k][j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


class SmithDecomposition(Record):
    """Divisors d1 | d2 | ... (zeros last) and a unimodular V such that
    d_i divides column i of A V, and columns past the divisors vanish."""

    __slots__ = _fields = ("divisors", "v")

    def __init__(self, divisors: Tuple[int, ...], v: IntMatrix) -> None:
        put = object.__setattr__
        put(self, "divisors", divisors)
        put(self, "v", v)


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith divisors of a with the column transform V, checked.

    At each stage the pivot is the smallest-absolute-value nonzero
    entry of the trailing block, ties broken row-major, moved to the
    corner and made positive.  Its column and then its row are cleared
    by exact quotients, or by an extended-gcd step that replaces the
    pivot by the gcd, until both are clear and the pivot divides the
    whole trailing block; a row holding an entry it does not divide is
    added to the pivot row first.  The computation is deterministic,
    and the divisors come out nonnegative with zeros last and each
    dividing the next.  The row operations are not recorded.

    The result is checked in every interpreter mode, with an
    AssertionError: d_i divides column i of a V (zero if d_i = 0 or i is
    past the divisors; skipped if d_i = 1, which divides anything), and
    |det V| = 1.  Then at every level n the kernel generators
    (_smith_kernel_gens) lie in the kernel of a mod n and span
    prod gcd(d_i, n) points, a lower bound on its order; with divisors
    equal to the determinantal divisors of a the check implies a
    unimodular U with U a V = D (the argument is in
    tests/test_matrices.py, TestSmithNormalForm).
    """
    rows, cols = a.rows, a.cols
    m = a.to_lists()
    vt = IntMatrix.identity(cols).to_lists()  # row j is column j of V
    for t in range(min(rows, cols)):
        best = 0
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best, pi, pj = abs(x), i, j
            if best == 1:
                break
        if not best:
            break
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        while True:
            p = m[t][t]
            for i in range(t + 1, rows):
                b = m[i][t]
                if not b:
                    continue
                q, r = divmod(b, p)
                if not r:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    continue
                g, c, e = _xgcd(p, b)
                pg, bg = p // g, b // g
                mt, mi = m[t], m[i]
                m[t] = [c * x + e * y for x, y in zip(mt, mi)]
                m[i] = [bg * x - pg * y for x, y in zip(mt, mi)]
                p = g
            # column t is now zero off the pivot, so an exact column
            # operation changes only row t of m; a gcd step refills
            # column t, which is then cleared again
            for j in range(t + 1, cols):
                b = m[t][j]
                if not b:
                    continue
                q, r = divmod(b, p)
                if not r:
                    m[t][j] = 0
                    vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    continue
                g, c, e = _xgcd(p, b)
                pg, bg = p // g, b // g
                for w in m:
                    x, y = w[t], w[j]
                    w[t], w[j] = c * x + e * y, bg * x - pg * y
                xs, ys = vt[t], vt[j]
                vt[t] = [c * x + e * y for x, y in zip(xs, ys)]
                vt[j] = [bg * x - pg * y for x, y in zip(xs, ys)]
                break
            else:
                stain = next((i for i in range(t + 1, rows) if p > 1
                              and any(x % p for x in m[i][t + 1:])), None)
                if stain is None:
                    break
                m[t] = [x + y for x, y in zip(m[t], m[stain])]
    divisors = tuple(m[i][i] for i in range(min(rows, cols)))
    mul = operator.mul
    # the divisors equal to 1 come first, as each divides the next
    for i in range(divisors.count(1), cols):
        q = divisors[i] if i < len(divisors) else 0
        for row in a.data:
            x = sum(map(mul, row, vt[i]))
            if x % q if q else x:
                raise AssertionError(f"Smith divisor {q} does not divide column {i} of A V")
    v = IntMatrix._trusted(tuple(zip(*vt)))
    det = v.det()
    if abs(det) != 1:
        raise AssertionError(f"Smith transform V has determinant {det}, not +-1")
    return SmithDecomposition(divisors, v)


def _lattice_basis(n: int, cols: int, rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """Row Hermite basis of the lattice spanned by rows and n*Z^cols.

    Starts from the basis n*I and inserts each row in turn, clearing
    its entry at every pivot column with one extended-gcd step against
    that column's basis row, so the basis stays upper triangular with
    every pivot dividing n.  Vectors are reduced mod n as they go: an
    element of n*Z^cols that vanishes left of column j is spanned by the
    basis rows at j and beyond, which the insertion has not touched yet.
    Each row ends exactly at 0, so the basis spans the whole lattice;
    reducing the entries above each pivot makes it the Hermite form.
    """
    basis = [[n if i == j else 0 for j in range(cols)] for i in range(cols)]
    for row in rows:
        r = [x % n for x in row]
        for j in range(cols):
            b = r[j]
            if not b:
                continue
            piv = basis[j]
            a = piv[j]
            q, rem = divmod(b, a)
            if not rem:
                r = [(x - q * y) % n for x, y in zip(r, piv)]
                continue
            g, s, t = _xgcd(a, b)
            ag, bg = a // g, b // g
            basis[j] = [(s * y + t * x) % n for x, y in zip(r, piv)]
            r = [(bg * y - ag * x) % n for x, y in zip(r, piv)]
    for j in range(1, cols):
        pj = basis[j]
        p = pj[j]
        for i in range(j):
            q = basis[i][j] // p
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], pj)]
    return basis


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b > 0, for (a, b) != 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def howell_form(a: ModMatrix) -> ModMatrix:
    """Canonical generator matrix for the row span of a over Z/nZ.

    The Hermite basis of the lattice spanned by the rows and n*Z^c,
    reduced mod n: its rows with pivot n are n*e_j and vanish, and
    every other entry already lies in [0, n).  Every pivot divides n,
    and two matrices have equal row spans iff their Howell forms are
    equal.
    """
    n = a.modulus
    basis = _lattice_basis(n, a.cols, a.data)
    return ModMatrix._trusted(
        n, tuple(tuple(row) for j, row in enumerate(basis) if row[j] != n), a.cols
    )


def howell_pivots(h: ModMatrix) -> Tuple[Tuple[int, int], ...]:
    """(column, pivot) pairs for the rows of a Howell-form matrix."""
    out = []
    for row in h.data:
        for j, x in enumerate(row):
            if x:
                out.append((j, x))
                break
    return tuple(out)


def _smith_kernel_gens(snf: SmithDecomposition, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Generators of {x : A x = 0 mod n} for U A V = D, U unimodular
    and not computed: with x = V y the condition is d_i y_i = 0 mod n,
    so column i of V times n / gcd(d_i, n), with d_i = 0 past the
    divisors, reduced mod n; the zero ones are dropped."""
    divisors = snf.divisors
    gens = []
    for i, col in enumerate(zip(*snf.v.data)):
        scale = n // math.gcd(divisors[i] if i < len(divisors) else 0, n)
        g = tuple(x * scale % n for x in col)
        if any(g):
            gens.append(g)
    return tuple(gens)


def kernel_mod_n(a: ModMatrix) -> ModMatrix:
    """Howell-form generators of {x : a @ x == 0 over Z/nZ}.

    A zero-row matrix imposes no constraints, so the kernel is all of
    (Z/nZ)^cols.
    """
    n, cols = a.modulus, a.cols
    if a.rows == 0:
        return howell_form(ModMatrix.identity(cols, n))
    gens = _smith_kernel_gens(smith_normal_form(a.lift()), n)
    return howell_form(ModMatrix._trusted(n, gens, cols))


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(x*I - a), exactly over Z,
    from _faddeev_leverrier with its exactness and Cayley-Hamilton
    checks."""
    return _faddeev_leverrier(a)[0]


def _faddeev_leverrier(a: IntMatrix) -> Tuple[IntPoly, Tuple[Sequence[Sequence[int]], ...]]:
    """The characteristic polynomial chi = x^n + c_(n-1) x^(n-1) + ...
    + c_0 of a square a, and the Horner partial sums of chi at a.

    Faddeev-LeVerrier on plain rows: M_1 = a, c_(n-k) = -tr(M_k) / k,
    N_k = M_k + c_(n-k) I and M_(k+1) = a N_k.  So N_k = a^k + c_(n-1)
    a^(k-1) + ... + c_(n-k) I is h_k(a), with h_k the quotient of chi
    by x^(n-k).  Every division is exact, and the Cayley-Hamilton
    identity N_n = 0 is checked at the end; both checks raise
    AssertionError in every interpreter mode.

    Returns chi and (N_0, ..., N_(n-1)), N_0 = I, each kept as the row
    lists the run made (read by _poly_at).
    """
    if not a.is_square:
        raise DimensionError("characteristic polynomial needs a square matrix")
    n = a.rows
    rows = a.data
    mul = operator.mul
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    partials = [IntMatrix.identity(n).data]
    m = [list(row) for row in rows]
    for k in range(1, n + 1):
        q, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        coeffs[n - k] = q
        for i in range(n):
            m[i][i] += q
        if k < n:
            partials.append(m)
            cols = tuple(zip(*m))
            m = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    if any(map(any, m)):
        raise AssertionError("Cayley-Hamilton check failed")
    return IntPoly(coeffs), tuple(partials)


def _poly_at(horner: Tuple[IntPoly, Tuple[Sequence[Sequence[int]], ...]],
             p: Sequence[int]) -> IntMatrix:
    """p(a) for integer coefficients p, constant first, of degree at
    most n, from horner = _faddeev_leverrier(a), with no matrix product.

    chi(a) = 0, so p(a) = (p - p_n chi)(a), of degree below n.  The h_k
    are monic of degree k, so one triangular change of basis writes
    that as sum w_k h_k with integer w_k, and p(a) = sum w_k N_k.
    """
    chi, partials = horner
    c = chi.coeffs
    n = len(c) - 1
    if len(p) > n + 1:
        raise ValueError(f"degree {len(p) - 1} above {n}")
    r = list(p) + [0] * (n + 1 - len(p))
    top = r[n]
    if top:
        r = [x - top * y for x, y in zip(r, c)]
    weights, sums = [], []
    for k in range(n - 1, 0, -1):
        w = r[k]
        if w:
            weights.append(w)
            sums.append(partials[k])
            # x^i in h_k has coefficient c_(n-k+i)
            for i in range(k):
                r[i] -= w * c[n - k + i]
    # the weight of N_0 = I lands on the diagonal
    scalar = r[0]
    if not weights:
        weights, sums, scalar = [scalar], [partials[0]], 0
    mul, add = operator.mul, operator.add
    out = []
    for i, rows in enumerate(zip(*sums)):
        acc = None
        for w, row in zip(weights, rows):
            term = row if w == 1 else map(mul, itertools.repeat(w), row)
            acc = term if acc is None else map(add, acc, term)
        row = list(acc)
        row[i] += scalar
        out.append(tuple(row))
    return IntMatrix._trusted(tuple(out))


def exterior_power(a, k: int):
    """k-th exterior power; entries are k x k minors in lexicographic order.

    Accepts IntMatrix or ModMatrix (the latter computed via an integer
    lift and reduced).  k = 0 gives the 1 x 1 identity.
    """
    if isinstance(a, ModMatrix):
        return exterior_power(a.lift(), k).reduce_mod(a.modulus)
    if not isinstance(a, IntMatrix):
        raise TypeError("exterior_power expects IntMatrix or ModMatrix")
    if not a.is_square:
        raise DimensionError("exterior power needs a square matrix")
    if k < 0 or k > a.rows:
        raise ValueError("k out of range")
    subsets = list(itertools.combinations(range(a.rows), k))
    ent = []
    for s in subsets:
        row = []
        for t in subsets:
            sub = tuple(tuple(a.data[i][j] for j in t) for i in s)
            row.append(_det_bareiss(sub))
        ent.append(row)
    return IntMatrix(ent)
