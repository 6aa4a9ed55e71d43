"""Torsion points at a fixed level as a pairing-equipped module.

The n-torsion of a d-dimensional abelian variety is modeled as
(Z/nZ)^(2d) carrying the standard alternating pairing J mod n, with the
Weil pairing values written additively in Z/nZ; det J = 1, so the
pairing is nondegenerate at every level.  A polarization P enters only
through its degree and the form J P that tau must preserve (see
Polarization): no module carries another pairing.  Subgroups are stored
by canonical Howell-form generator matrices, so equality of subgroups
is equality of data, and every operation downstream (orthogonal
complements, isotropic extensions, fixed subgroups, exhaustive subgroup
search) is deterministic and exact.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from ._record import Record
from .matrices import (
    IntMatrix,
    MatrixError,
    ModMatrix,
    _entry,
    howell_form,
    howell_pivots,
    kernel_mod_n,
    standard_symplectic_form,
)
from .polynomials import divisors


class TorsionError(ValueError):
    pass


class EnumerationCapError(TorsionError):
    pass


def _integer(value, what: str) -> int:
    # non-integers are refused by the same rule as matrix entries:
    # bool, float and str raise instead of being converted
    try:
        return _entry(value, what)
    except MatrixError as exc:
        raise TorsionError(str(exc)) from None


def _size(value, name: str) -> int:
    # a float or bool level would build a float or 0/1 Gram matrix
    value = _integer(value, f"{name} must be an integer")
    if value < 1:
        raise TorsionError(f"{name} must be >= 1")
    return value


@lru_cache(maxsize=None)
def standard_module(n: int, d: int) -> "TorsionModule":
    """The principally polarized module at level n, cached."""
    return TorsionModule(n, d)


class TorsionModule:
    """(Z/nZ)^(2d) with the standard pairing <x, y> = x^T J y mod n."""

    __slots__ = ("level", "dimension", "gram")

    def __init__(self, level: int, dimension: int) -> None:
        level = _size(level, "level")
        dimension = _size(dimension, "dimension")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "gram", standard_symplectic_form(dimension).reduce_mod(level))

    def __setattr__(self, name, value):
        raise AttributeError("TorsionModule is immutable")

    def __reduce__(self):
        return TorsionModule, (self.level, self.dimension)

    @property
    def rank(self) -> int:
        return 2 * self.dimension

    @property
    def order(self) -> int:
        return self.level ** self.rank

    def subgroup(self, generators) -> "Subgroup":
        """Subgroup spanned by the given row vectors."""
        gens = ModMatrix(self.level, generators, self.rank)
        return Subgroup(self, howell_form(gens))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorsionModule)
            and self.level == other.level
            and self.dimension == other.dimension
        )

    def __hash__(self) -> int:
        return hash(("TorsionModule", self.level, self.dimension))

    def __repr__(self) -> str:
        return f"TorsionModule(level={self.level}, dimension={self.dimension})"


class Subgroup(Record):
    """Subgroup of a torsion module, held in Howell canonical form."""

    __slots__ = _fields = ("module", "gens")

    def __init__(self, module: TorsionModule, gens: ModMatrix) -> None:
        put = object.__setattr__
        put(self, "module", module)
        put(self, "gens", gens)

    @property
    def order(self) -> int:
        n = self.module.level
        out = 1
        for _, p in howell_pivots(self.gens):
            out *= n // p
        return out

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        """Whether self <= other: each of self's Howell rows reduces to
        0 against other's Howell rows (see _in_span), so no Howell form
        is recomputed."""
        if self.module != other.module:
            raise TorsionError("subgroups of different modules")
        pivots = howell_pivots(other.gens)
        return all(_in_span(other.gens, pivots, row) for row in self.gens.data)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={self.gens.to_lists()!r} mod {self.module.level})"


def _in_span(h: ModMatrix, pivots: Sequence[Tuple[int, int]],
             x: Sequence[int]) -> bool:
    """Whether x (entries in [0, n)) lies in the row span of the
    Howell-form matrix h, whose (column, pivot) pairs are pivots.

    Columns are walked in order.  By the Howell property the elements
    of the span that vanish left of column j are combinations of the
    rows pivoting at j or later.  So at a pivot column the entry must
    be a multiple of the pivot, and that multiple of the row clears it;
    at any other column the entry must already be 0.
    """
    n = h.modulus
    start = 0
    for row, (j, p) in zip(h.data, pivots):
        if any(x[start:j]):
            return False
        q, r = divmod(x[j], p)
        if r:
            return False
        if q:
            x = [(a - q * b) % n for a, b in zip(x, row)]
        start = j + 1
    return not any(x[start:])


class Polarization(Record):
    """Integer 2d x 2d matrix P standing in for an isogeny to the dual.

    P is square of even size and nonsingular, and its Riemann form J P
    (J the standard symplectic form) is antisymmetric over Z, hence
    alternating at every level.  Each is checked here, so every
    Polarization in hand is one.  degree = |det P| = |det J P| (det J =
    1) and the form J P are kept outside the fields.
    """

    __slots__ = ("matrix", "degree", "form")
    _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix) -> None:
        if not matrix.is_square or matrix.rows % 2:
            raise TorsionError("polarization matrix must be square of even size")
        degree = abs(matrix.det())
        if degree == 0:
            raise TorsionError("polarization matrix must be nonsingular, "
                               "but its determinant is 0")
        form = standard_symplectic_form(matrix.rows // 2) @ matrix
        # over Z, antisymmetry alone forces the zero diagonal
        if form.transpose() != -form:
            raise TorsionError("polarization matrix must induce an alternating form: "
                               "J P must be antisymmetric, J the standard symplectic form")
        put = object.__setattr__
        put(self, "matrix", matrix)
        put(self, "degree", degree)
        put(self, "form", form)

    def preserved_by(self, tau: IntMatrix) -> bool:
        """Whether tau^T (J P) tau = J P over Z."""
        return tau.transpose() @ self.form @ tau == self.form


# bounded, so a long run over ever new subgroups does not grow it
@lru_cache(maxsize=1024)
def _complement_gens(gram: ModMatrix, gens: ModMatrix) -> ModMatrix:
    if gens.rows == 0:
        return howell_form(ModMatrix.identity(gram.cols, gram.modulus))
    return kernel_mod_n(gens @ gram)


def orthogonal_complement(s: Subgroup) -> Subgroup:
    """{y : <x, y> = 0 for all x in s}, in canonical form."""
    return Subgroup(s.module, _complement_gens(s.module.gram, s.gens))


def fixed_subgroup(action: Union[IntMatrix, ModMatrix], module: TorsionModule) -> Subgroup:
    """Kernel of (action - I) on the module, i.e. the points the
    action leaves in place."""
    n = module.level
    if isinstance(action, IntMatrix):
        a = action.reduce_mod(n)
    else:
        if action.modulus != n:
            raise TorsionError("action modulus does not match the level")
        a = action
    if a.rows != module.rank or a.cols != module.rank:
        raise TorsionError("action size does not match the module rank")
    return Subgroup(module, kernel_mod_n(a - ModMatrix.identity(module.rank, n)))


def fixes_pointwise(action: Union[IntMatrix, ModMatrix], s: Subgroup) -> bool:
    """Whether the action is the identity on every element of s."""
    n = s.module.level
    a = action.reduce_mod(n) if isinstance(action, IntMatrix) else action
    if a.modulus != n:
        raise TorsionError("action modulus does not match the level")
    if s.gens.rows == 0:
        return True
    return _fixed_by(a - ModMatrix.identity(s.module.rank, n), s)


def _fixed_by(displacement: ModMatrix, s: Subgroup) -> bool:
    """Whether displacement = a - I (mod the level) kills every
    generator of s, i.e. a fixes s pointwise.  A caller testing many
    subgroups against one action builds the displacement once."""
    n = displacement.modulus
    mul = operator.mul
    return all(
        sum(map(mul, r, g)) % n == 0 for g in s.gens.data for r in displacement.data
    )


def subgroup_count_estimate(level: int, rank: int) -> int:
    """Upper bound on candidate triangular matrices enumerated for the
    subgroups of (Z/level)^rank."""
    est = 1
    for j in range(rank):
        est *= sum(h**j for h in divisors(level))
    return est


def enumerate_subgroups(module: TorsionModule, cap: int = 10**6) -> Tuple[Subgroup, ...]:
    """Every subgroup, in ascending canonical order.

    Subgroups correspond to integer lattices between nZ^c and Z^c,
    each with a unique upper-triangular Hermite basis whose diagonal
    divides n.  Candidates are enumerated by diagonal and reduced
    above-diagonal entries, then filtered by the containment nZ^c <=
    lattice; the candidate count is estimated first and the call
    refuses to start past the cap.

    Raises:
      EnumerationCapError: naming the estimate when it exceeds cap.
    """
    n, c = module.level, module.rank
    est = subgroup_count_estimate(n, c)
    if est > cap:
        raise EnumerationCapError(
            f"estimated {est} candidate matrices exceeds the cap of {cap}"
        )
    divs = divisors(n)
    found: List[Subgroup] = []
    for diag in itertools.product(divs, repeat=c):
        entry_ranges = []
        for i in range(c):
            for j in range(i + 1, c):
                entry_ranges.append(range(diag[j]))
        for entries in itertools.product(*entry_ranges):
            h = [[0] * c for _ in range(c)]
            pos = 0
            for i in range(c):
                h[i][i] = diag[i]
                for j in range(i + 1, c):
                    h[i][j] = entries[pos]
                    pos += 1
            if _contains_scaled_basis(h, n, c):
                reduced = tuple(tuple(x % n for x in row) for row in h)
                found.append(Subgroup(module, howell_form(ModMatrix._trusted(n, reduced, c))))
    if len(set(f.gens for f in found)) != len(found):
        raise AssertionError("subgroup enumeration produced a duplicate")
    found.sort(key=lambda s: (s.gens.rows, s.gens.data))
    return tuple(found)


def _contains_scaled_basis(h: List[List[int]], n: int, c: int) -> bool:
    # n*e_j must be an integer row combination of the triangular basis;
    # rows i < j get coefficient 0, so back-substitution starts at row j.
    for j in range(c):
        coeffs = [0] * c
        for col in range(j, c):
            acc = (n if col == j else 0) - sum(coeffs[i] * h[i][col] for i in range(j, col))
            if acc % h[col][col]:
                return False
            coeffs[col] = acc // h[col][col]
    return True


def extend_to_maximal_isotropic(s: Subgroup) -> Subgroup:
    """Deterministic maximal isotropic H with s-perp <= H <= s.

    Requires s-perp <= s; the pairing J mod n is nondegenerate at every
    level.  Starting from H = s-perp, adjoin the first Howell row of
    H-perp that is not in H until every row of H-perp is.  The pairing
    is alternating, so each adjoined row keeps H isotropic; s-perp <= H
    gives H-perp <= s, so H stays inside s; and the loop ends at
    H-perp <= H <= H-perp.  Each step grows H, so there are at most as
    many steps as n^d has prime factors counted with multiplicity, each
    with one complement.
    """
    h = orthogonal_complement(s)
    if not h.is_subgroup_of(s):
        raise TorsionError("orthogonal complement is not contained in the subgroup")
    while True:
        perp = orthogonal_complement(h)
        pivots = howell_pivots(h.gens)
        x = next((r for r in perp.gens.data if not _in_span(h.gens, pivots, r)), None)
        if x is None:
            break
        h = h.module.subgroup(h.gens.data + (x,))
    if h != perp:
        raise AssertionError("isotropic extension is not self-orthogonal")
    return h
