"""Brute-force reference implementations the tests check against.

Everything here is deliberately naive: permutation sums, exhaustive
vector scans, closure by repeated addition.  Slow is fine; these only
run on small inputs, and they share no code paths with the package.
The exceptions are subgroup_structure, contains and elements, which
stand in for methods the package no longer carries: they are built on
package internals, and the tests check each against a naive reference;
and matrix_hk_vanishing, the earlier computation of cohomology
vanishing on the degree-k action itself at each level.  naive_classify
and is_unipotent work on IntMatrix products and powers, and
naive_classify takes the characteristic polynomial from char_poly,
which the tests hold against leibniz_char_poly.
"""

import dataclasses
import math
from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from monodromy import (
    InertiaError,
    IntMatrix,
    IntPoly,
    MatrixError,
    ModMatrix,
    NonCyclotomicFactor,
    NotPotentiallySemistable,
    NotQuasiUnipotent,
    NotSymplectic,
    Polarization,
    TorsionError,
    WildRamification,
    char_poly,
    cohomology_action,
    cyclotomic_poly,
    orthogonal_complement,
    smith_normal_form,
    standard_symplectic_form,
)
from monodromy.matrices import _lattice_basis, howell_pivots
from monodromy.torsion import _in_span, _integer


def leibniz_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


class SingularMatrixError(MatrixError):
    """A determinant that is not a unit in Z."""


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """The inverse over Z of a square matrix with determinant +-1: the
    adjugate times the determinant, every cofactor a permutation sum."""
    n = a.rows
    det = leibniz_det(a.data)
    if det not in (1, -1):
        raise SingularMatrixError(f"determinant {det} is not a unit in Z")

    def minor(i, j):
        return [[x for c, x in enumerate(row) if c != j]
                for r, row in enumerate(a.data) if r != i]

    return IntMatrix([[det * (-1) ** (i + j) * leibniz_det(minor(j, i)) for j in range(n)]
                      for i in range(n)])


def naive_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-by-column product of two integer matrices given as rows."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for t in range(len(b)):
                total += a[i][t] * b[t][j]
            row.append(total)
        out.append(row)
    return out


def naive_power(a: Sequence[Sequence[int]], e: int) -> List[List[int]]:
    """a^e for e >= 0: e successive products, starting from the identity."""
    size = len(a)
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(e):
        out = naive_product(out, a)
    return out


def displacements_after(a: Sequence[Sequence[int]],
                        emax: int) -> List[Tuple[bool, bool]]:
    """For e = 1..emax, whether a^e = I and whether (a^e - I)^2 = 0,
    every power a naive product of the one before with a."""
    size = len(a)
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    out = []
    for _ in range(emax):
        power = naive_product(power, a)
        shift = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power)]
        out.append((not any(map(any, shift)), not any(map(any, naive_product(shift, shift)))))
    return out


def full_subgroup(module):
    """The whole module as a subgroup, spanned by the unit vectors."""
    rank = module.rank
    return module.subgroup([[int(j == i) for j in range(rank)] for i in range(rank)])


def two_torsion_inside(module):
    """The subgroup {x : 2x = 0} of a level-4 module, spanned by 2 e_i."""
    rank = module.rank
    return module.subgroup([[2 * (j == i) for j in range(rank)] for i in range(rank)])


def matrix_hk_vanishing(gen, k: int, n: int) -> bool:
    """Whether (A_k - I)^(k+1) = 0 mod n (n = 0: over Z), with A_k the
    degree-k action computed mod n and powered mod n."""
    a = cohomology_action(gen, k, n).matrix
    if isinstance(a, ModMatrix):
        ident = ModMatrix.identity(a.rows, n)
    else:
        ident = IntMatrix.identity(a.rows)
    return ((a - ident) ** (k + 1)).is_zero()


def is_unipotent(a) -> Tuple[bool, Optional[int]]:
    """(True, index) when (a - I) is nilpotent, index the least r with
    (a - I)^r = 0 and index(I) fixed at 0; (False, None) otherwise.
    Powers of a - I by successive products."""
    if isinstance(a, IntMatrix):
        ident = IntMatrix.identity(a.rows)
    elif isinstance(a, ModMatrix):
        ident = ModMatrix.identity(a.rows, a.modulus)
    else:
        raise TypeError("is_unipotent expects IntMatrix or ModMatrix")
    nil = a - ident
    if nil.is_zero():
        return True, 0
    power = nil
    for r in range(1, a.rows + 1):
        if power.is_zero():
            return True, r
        power = power @ nil
    return False, None


def leibniz_char_poly(a: IntMatrix) -> IntPoly:
    """det(xI - a) expanded with polynomial entries."""
    n = a.rows
    x = IntPoly.x()
    entries = [
        [
            (x if i == j else IntPoly()) - IntPoly([a.data[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = IntPoly()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = IntPoly([sign])
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def determinant_divisor_snf(a: IntMatrix) -> Tuple[int, ...]:
    """Smith divisors via gcds of k x k minors."""
    from itertools import combinations

    limit = min(a.rows, a.cols)
    previous = 1
    out = []
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                minor = leibniz_det(
                    [[a.data[i][j] for j in cols] for i in rows]
                )
                g = math.gcd(g, minor)
        if g == 0:
            out.extend([0] * (limit - len(out)))
            break
        out.append(g // previous)
        previous = g
    return tuple(out)


def all_vectors(n: int, size: int):
    vec = [0] * size
    for code in range(n**size):
        x = code
        for j in range(size):
            vec[j] = x % n
            x //= n
        yield tuple(vec)


def brute_kernel_vectors(m: ModMatrix) -> FrozenSet[Tuple[int, ...]]:
    n = m.modulus
    return frozenset(
        v
        for v in all_vectors(n, m.cols)
        if all(
            sum(m.data[i][j] * v[j] for j in range(m.cols)) % n == 0
            for i in range(m.rows)
        )
    )


def brute_fixed_vectors(m: ModMatrix) -> FrozenSet[Tuple[int, ...]]:
    n = m.modulus
    return frozenset(
        v
        for v in all_vectors(n, m.cols)
        if all(
            sum(m.data[i][j] * v[j] for j in range(m.cols)) % n == v[i]
            for i in range(m.rows)
        )
    )


def split_fixed_vectors(m: ModMatrix) -> FrozenSet[Tuple[int, ...]]:
    """Every v with m v = v, by an exhaustive scan of both halves of v.

    With v = (a, b), (m - I) v = A a + B b, so v is fixed exactly when
    A a = -B b.  Tabulating A a over every a and looking up -B b for
    every b visits n^(size/2) vectors per half instead of n^size.
    """
    n = m.modulus
    size = m.cols
    half = size // 2
    disp = [[(m.data[i][j] - (i == j)) % n for j in range(size)] for i in range(m.rows)]
    by_image: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for a in all_vectors(n, half):
        image = tuple(
            sum(disp[i][j] * a[j] for j in range(half)) % n for i in range(m.rows)
        )
        by_image.setdefault(image, []).append(a)
    out = set()
    for b in all_vectors(n, size - half):
        image = tuple(
            -sum(disp[i][half + j] * b[j] for j in range(size - half)) % n
            for i in range(m.rows)
        )
        for a in by_image.get(image, ()):
            out.add(a + b)
    return frozenset(out)


def span_closure(
    gens: Sequence[Sequence[int]], size: int, n: int
) -> FrozenSet[Tuple[int, ...]]:
    zero = tuple([0] * size)
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((base[j] + g[j]) % n for j in range(size))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def elements(s) -> Iterator[Tuple[int, ...]]:
    """All elements of the subgroup s, each exactly once, in increasing
    lexicographic order, generated lazily.

    Each element is sum c_k row_k over the Howell rows with
    0 <= c_k < n / p_k; the saturation property of the form makes
    this a bijection onto the subgroup.  Rows pivot at increasing
    columns, so once c_1 .. c_(k-1) are chosen every entry left of
    row k's pivot column j is fixed, and the entry at j runs over
    the n / p_k values congruent to the partial sum mod p_k.  A
    depth-first walk taking those values in increasing order
    therefore yields the elements sorted.
    """
    n = s.module.level
    rows = s.gens.data
    pivots = howell_pivots(s.gens)

    def walk(k: int, acc: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if k == len(rows):
            yield acc
            return
        row = rows[k]
        j, p = pivots[k]
        c = -(acc[j] // p)
        cur = tuple((a + c * b) % n for a, b in zip(acc, row))
        for _ in range(n // p):
            yield from walk(k + 1, cur)
            cur = tuple((a + b) % n for a, b in zip(cur, row))

    return walk(0, (0,) * s.module.rank)


def riemann_form(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """J P over Z for the rows of P, J = [[0, I], [-I, 0]]: row i of
    J P is row d + i of P, and row d + i is minus row i."""
    d = len(rows) // 2
    return [list(rows[i + d]) if i < d else [-x for x in rows[i - d]]
            for i in range(2 * d)]


def scalar_polarization(d: int, m: int):
    """m times the identity as a polarization of dimension d."""
    return Polarization(m * IntMatrix.identity(2 * d))


def _hnf_rows(rows: List[List[int]], cols: int) -> List[List[int]]:
    """Row Hermite normal form; returns only the nonzero rows.

    Pivots are positive, pivot columns strictly increase, and entries
    above each pivot are reduced into [0, pivot).
    """
    work = [list(r) for r in rows]
    m = len(work)
    pr = 0
    for j in range(cols):
        while True:
            nz = [i for i in range(pr, m) if work[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][j]), i))
            if i0 != pr:
                work[pr], work[i0] = work[i0], work[pr]
            p = work[pr][j]
            clean = True
            for i in range(pr + 1, m):
                if work[i][j]:
                    q = work[i][j] // p
                    if q:
                        work[i] = [x - q * y for x, y in zip(work[i], work[pr])]
                    if work[i][j]:
                        clean = False
            if clean:
                break
        if pr < m and work[pr][j] != 0:
            if work[pr][j] < 0:
                work[pr] = [-x for x in work[pr]]
            p = work[pr][j]
            for i in range(pr):
                q = work[i][j] // p
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[pr])]
            pr += 1
    return work[:pr]


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row Hermite normal form of a; zero rows are dropped.

    Raises MatrixError when the row space is trivial, since IntMatrix
    cannot represent an empty matrix.
    """
    rows = _hnf_rows(a.to_lists(), a.cols)
    if not rows:
        raise MatrixError("zero row space has no IntMatrix Hermite form")
    return IntMatrix(rows)


def naive_howell_form(a: ModMatrix) -> ModMatrix:
    """Howell form as the Hermite form of the rows stacked over n*I,
    reduced mod n with vanishing rows dropped."""
    n, cols = a.modulus, a.cols
    stacked = a.to_lists() + [
        [n if i == j else 0 for j in range(cols)] for i in range(cols)
    ]
    out = []
    for row in hermite_normal_form(IntMatrix(stacked)).data:
        red = tuple(x % n for x in row)
        if any(red):
            out.append(red)
    return ModMatrix(n, out, cols)


def brute_subgroups(size: int, n: int) -> List[FrozenSet[Tuple[int, ...]]]:
    """Every subgroup of (Z/n)^size, as element sets.

    Spans of pairs suffice when size <= 2; for larger sizes spans of
    all element triples are taken, enough for the ranks tested here.
    """
    elements = list(all_vectors(n, size))
    seen = set()
    out = []
    if size <= 2:
        tuples = [(a, b) for a in elements for b in elements]
    else:
        tuples = [
            (a, b, c) for a in elements for b in elements for c in elements
        ]
    for gens in tuples:
        group = span_closure(gens, size, n)
        if group not in seen:
            seen.add(group)
            out.append(group)
    return out


def brute_orthogonal(
    members: FrozenSet[Tuple[int, ...]], gram: ModMatrix
) -> FrozenSet[Tuple[int, ...]]:
    n = gram.modulus
    size = gram.rows
    return frozenset(
        v
        for v in all_vectors(n, size)
        if all(
            sum(
                v[i] * gram.data[i][j] * w[j]
                for i in range(size)
                for j in range(size)
            )
            % n
            == 0
            for w in members
        )
    )


def structure_from_counts(
    members: FrozenSet[Tuple[int, ...]], n: int
) -> Tuple[int, ...]:
    """Invariant factors from the kill-count profile.

    For each divisor m of the exponent, count elements x with m*x = 0;
    in a product of cyclics C_{d_1} x ... x C_{d_r} that count is
    prod gcd(m, d_i).  The profile determines the multiset {d_i}, and
    a greedy search over divisor multisets recovers it.
    """
    from itertools import combinations_with_replacement

    order = len(members)
    if order == 1:
        return ()
    zero = None
    for v in members:
        zero = tuple([0] * len(v))
        break
    counts: Dict[int, int] = {}
    for m in range(1, n + 1):
        counts[m] = sum(
            1
            for v in members
            if tuple(a * m % n for a in v) == zero
        )
    divisors_of_n = [d for d in range(2, n + 1) if n % d == 0]
    # r is at most log2(order)
    for r in range(1, order.bit_length() + 1):
        for combo in combinations_with_replacement(divisors_of_n, r):
            product = 1
            for d in combo:
                product *= d
            if product != order:
                continue
            ok = all(
                counts[m]
                == math.prod(math.gcd(m, d) for d in combo)
                for m in counts
            )
            if ok:
                return tuple(sorted(combo))
    raise AssertionError("no cyclic decomposition matched the counts")


def subgroup_structure(s) -> Tuple[int, ...]:
    """Invariant factors (s_1 | s_2 | ...) of a subgroup, omitting
    trivial ones, from a Smith form of its own.

    The preimage lattice L of the span has a basis H with U H V = D,
    so L V = (+) e_i Z for the Smith divisors e_i of H, while V keeps
    nZ^c in place.  As nZ^c <= L, every e_i divides n, and L / nZ^c is
    the sum of the cyclic groups Z/(n/e_i).
    """
    n = s.module.level
    h = IntMatrix._trusted(tuple(map(tuple, _lattice_basis(n, s.module.rank, s.gens.data))))
    divisors = smith_normal_form(h).divisors
    if any(n % e for e in divisors):
        raise AssertionError("preimage lattice must contain n Z^c")
    return tuple(sorted(n // e for e in divisors if n // e > 1))


def contains(s, x) -> bool:
    """Whether the vector x lies in the subgroup s, by reduction against
    its Howell rows; coordinates are refused by the torsion module's
    integer rule."""
    n = s.module.level
    vec = tuple(_integer(v, "vector entries must be integers") % n for v in x)
    if len(vec) != s.module.rank:
        raise TorsionError("vector length does not match the module rank")
    return _in_span(s.gens, howell_pivots(s.gens), vec)


def naive_cyclotomic_factor(p: IntPoly) -> Dict[int, int]:
    """{order: multiplicity} by trial division of IntPoly by IntPoly,
    one quotient and one remainder polynomial per step, each order
    tried while it divides.  Raises NonCyclotomicFactor carrying the
    monic remainder when no eligible cyclotomic polynomial divides it."""
    out: Dict[int, int] = {}
    rem = p
    for order in range(1, 2 * p.degree * p.degree + 1):
        if rem.degree == 0:
            break
        if _naive_totient(order) > rem.degree:
            continue
        q = cyclotomic_poly(order)
        while q.degree <= rem.degree:
            quo, r = divmod(rem, q)
            if not r.is_zero():
                break
            out[order] = out.get(order, 0) + 1
            rem = quo
    if rem.degree > 0:
        raise NonCyclotomicFactor(rem)
    return out


def naive_classify(tau: IntMatrix, residue_char: int = 0):
    """classify's fields and the content of (tau - I)^2 from the
    definitions: tau^T J tau = J by plain products, the factors by
    IntPoly trial division, finite order as tau**m == I, the obstruction
    as (tau**m - I)**2 != 0, the unipotent index by powers of tau - I,
    and the content of (tau - I)**2.  Returns (semisimple order, factor
    orders, unipotent index, potentially good, content), or raises the
    refusal classify raises, with the same message."""
    if residue_char < 0:
        raise InertiaError("residue characteristic must be >= 0")
    if not tau.is_square or tau.rows % 2 or tau.rows < 2:
        raise NotSymplectic("matrix must be square of even positive size")
    d = tau.rows // 2
    j = standard_symplectic_form(d)
    if tau.transpose() @ j @ tau != j:
        raise NotSymplectic("matrix does not preserve the standard symplectic form")
    try:
        factors = naive_cyclotomic_factor(char_poly(tau))
    except NonCyclotomicFactor as exc:
        raise NotQuasiUnipotent(
            f"characteristic polynomial has non-cyclotomic factor {exc.remainder}"
        ) from exc
    m = math.lcm(*factors)
    ident = IntMatrix.identity(tau.rows)
    finite = tau**m == ident
    if not finite and not ((tau**m - ident) ** 2).is_zero():
        raise NotPotentiallySemistable(
            f"(tau^{m} - I)^2 != 0: unipotent part has nilpotency index above 2"
        )
    if residue_char > 0 and math.gcd(residue_char, m) != 1:
        raise WildRamification(
            f"residue characteristic {residue_char} divides the semisimple order {m}"
        )
    index = None
    if m == 1:
        nil = tau - ident
        index = 0
        if not nil.is_zero():
            power, index = nil, 1
            while not power.is_zero():
                power, index = power @ nil, index + 1
    content = ((tau - ident) ** 2).content()
    return m, tuple(sorted(factors.items())), index, finite, content


def _poly_divmod(num: List[int], den: List[int]) -> Tuple[List[int], List[int]]:
    # coefficient lists, lowest degree first; den is monic
    num = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        quo[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    rem = num[: len(den) - 1] or [0]
    return quo, rem


@lru_cache(maxsize=None)
def _naive_cyclotomic(order: int) -> Tuple[int, ...]:
    """Phi_order by dividing x^order - 1 by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, _ = _poly_divmod(poly, list(_naive_cyclotomic(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _naive_totient(order: int) -> int:
    return sum(1 for i in range(1, order + 1) if math.gcd(i, order) == 1)


def naive_semistability_degree(k: int, n: int, bound: int):
    """(admissible orders, lcm) by checking every order in [2, bound]
    directly: (x - 1)^k reduced modulo Phi_N, all coefficients
    divisible by n.  None for n = 1, where every order is admissible."""
    if n == 1:
        return None
    power = [1]
    for _ in range(k):
        power = [(power[i - 1] if i else 0) - (power[i] if i < len(power) else 0)
                 for i in range(len(power) + 1)]
    admissible = [1]
    for order in range(2, bound + 1):
        if _naive_totient(order) > k:
            rem = power  # already of lower degree than Phi_N
        else:
            _, rem = _poly_divmod(power, list(_naive_cyclotomic(order)))
        if all(c % n == 0 for c in rem):
            admissible.append(order)
    return tuple(admissible), math.lcm(*admissible)


def pair(module, x: Sequence[int], y: Sequence[int]) -> int:
    """The module's pairing x^T G y mod its level, G its Gram matrix."""
    g, rank = module.gram.data, module.rank
    return sum(x[i] * g[i][j] * y[j] for i in range(rank) for j in range(rank)) % module.level


def is_isotropic(s) -> bool:
    """Whether the pairing vanishes on s x s."""
    comp = orthogonal_complement(s)
    return s.is_subgroup_of(comp)


def is_maximal_isotropic(s) -> bool:
    """Whether s equals its own orthogonal complement, which
    characterizes maximality because the module's pairing J mod n is
    nondegenerate."""
    return s == orthogonal_complement(s)


def is_isotropic_extension(s, h) -> bool:
    """Whether h is maximal isotropic with s-perp <= h <= s, decided on
    element sets: the pairing vanishes on every pair of elements of h,
    h has n^d elements, and the vectors orthogonal to s's generators
    (found by scanning the whole module) lie in h, which lies in s."""
    module = s.module
    n, rank, gram = module.level, module.rank, module.gram.data
    members = span_closure(h.gens.data, rank, n)
    isotropic = all(
        sum(x[i] * gram[i][j] * y[j] for i in range(rank) for j in range(rank)) % n == 0
        for x in members
        for y in members
    )
    perp = brute_orthogonal(frozenset(s.gens.data), module.gram)
    return (
        isotropic
        and len(members) == n**module.dimension
        and perp <= members <= span_closure(s.gens.data, rank, n)
    )


# The package's frozen records as they were declared with
# @dataclass(frozen=True): field names in order, a (name, default) pair
# where the declaration had a default.  dataclass_twin builds a real
# frozen dataclass from each declaration, and the hand-written records
# must behave exactly like it.
RECORD_DECLARATIONS = {
    "IntPoly": (("coeffs", ()),),
    "SmithDecomposition": ("divisors", "v"),
    "PrimePowerSet": ("k", "members"),
    "SweepReport": ("k_max", "n_max", "order_max", "checked", "violations",
                    "boundary_memberships"),
    "DegreeCertificate": ("k", "n", "bound", "admissible", "degree", "unbounded"),
    "Subgroup": ("module", "gens"),
    "Polarization": ("matrix",),
    "InertiaGenerator": ("matrix", "residue_char", "dimension", "factor_orders",
                         "semisimple_order", "unipotent_index", "potentially_good"),
    "Verdict": ("criterion", "hypothesis", "conclusion", "agree", "citation",
                ("witness", None)),
    "NeronInvariants": ("dimension", "residue_char", "abelian_rank", "unipotent_rank",
                        "toric_rank", "phi", "phi_prime"),
    "TorsionReport": ("level", "fixed_order", "fixed_structure", "phi_torsion",
                      "b_exponent"),
    "Scenario": ("dimension", "residue_char", "tau", ("polarization", None),
                 ("level", None), ("strictly_henselian", False), ("seed", 0)),
    "HypothesisInstance": ("family", "level", "base", "matrix", "conjugator",
                           "conjugator_inverse", "residue_char"),
    "CohomologyAction": ("degree", "modulus", "base", "matrix"),
    "SuiteReport": ("suite", "trials", "seed", "d_max", "checked", "violations",
                    "failures"),
}


def _polarization_post_init(self):
    rows = self.matrix.data
    size = len(rows)
    if not self.matrix.is_square or size % 2:
        raise TorsionError("polarization matrix must be square of even size")
    if leibniz_det(rows) == 0:
        raise TorsionError("polarization matrix must be nonsingular, "
                           "but its determinant is 0")
    form = riemann_form(rows)
    if any(form[i][j] != -form[j][i] for i in range(size) for j in range(size)):
        raise TorsionError("polarization matrix must induce an alternating form: "
                           "J P must be antisymmetric, J the standard symplectic form")


def _subgroup_repr(self):
    n = self.module.level
    order = len(span_closure(self.gens.data, self.module.rank, n))
    return f"Subgroup(order={order}, gens={[list(r) for r in self.gens.data]!r} mod {n})"


def dataclass_twin(name: str):
    """A frozen dataclass named like the record, from its declaration.

    Subgroup declared its own __repr__, which the decorator keeps; its
    twin spells that repr out with the order counted by closure.
    Polarization checked its matrix in __post_init__.
    """
    namespace = {}
    if name == "Subgroup":
        namespace["__repr__"] = _subgroup_repr
    if name == "Polarization":
        namespace["__post_init__"] = _polarization_post_init
    fields = [
        f if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1]))
        for f in RECORD_DECLARATIONS[name]
    ]
    return dataclasses.make_dataclass(name, fields, namespace=namespace, frozen=True)
