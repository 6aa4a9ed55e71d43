"""The inertia generator and the reduction-type criteria built on it.

A single integer symplectic matrix tau models the action of a
topological generator of tame inertia on all torsion of an abelian
variety at once.  "Semistable" is defined in-model as (tau - I)^2 = 0,
"good" as tau = I, and a totally ramified base change of degree e
replaces tau by tau^e.  Every criterion below is a decision procedure
returning either a bool or a Verdict that records both sides of the
implication it checks, so agreement can be asserted wholesale by the
property suites.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from typing import Dict, Optional, Tuple

from ._record import Record
from .cyclotomic import (
    NonCyclotomicFactor,
    cyclotomic_factor,
    semistability_degree,
)
from .matrices import (
    IntMatrix,
    ModMatrix,
    SmithDecomposition,
    _check_modulus,
    _faddeev_leverrier,
    _poly_at,
    _smith_kernel_gens,
    howell_form,
    smith_normal_form,
    standard_symplectic_form,
)
from .polynomials import cyclotomic_poly
from .torsion import (
    Polarization,
    Subgroup,
    TorsionError,
    TorsionModule,
    fixes_pointwise,
    enumerate_subgroups,
    orthogonal_complement,
    standard_module,
)


class InertiaError(ValueError):
    pass


class NotSymplectic(InertiaError):
    pass


class NotQuasiUnipotent(InertiaError):
    pass


class WildRamification(InertiaError):
    pass


class NotPotentiallySemistable(InertiaError):
    """The unipotent part is too deep: no power e has (tau^e - I)^2 = 0."""


class HypothesisNotMet(InertiaError):
    pass


class DegreeObstruction(InertiaError):
    """The polarization degree shares a factor with the level."""


def is_tame(p: int, n: int) -> bool:
    """Whether level n is prime to the residue characteristic p; with
    p = 0 every level is."""
    return p <= 0 or math.gcd(p, n) == 1


def require_tame(p: int, n: int) -> None:
    """Refuse a level below 1, or one that shares a factor with the
    residue characteristic p.

    Raises:
      InertiaError: n < 1.
      WildRamification: n not prime to p.
    """
    if n < 1:
        raise InertiaError("level must be >= 1")
    if not is_tame(p, n):
        raise WildRamification(
            f"level {n} shares a factor with the residue characteristic {p}"
        )


class InertiaGenerator(Record):
    """Validated symplectic quasi-unipotent integer matrix with context.

    semisimple_order is the least e >= 1 with (tau^e - I)^2 = 0, which
    for these matrices equals the lcm of the orders of the cyclotomic
    factors of the characteristic polynomial.  unipotent_index is the
    nilpotency index of tau - I when tau is unipotent, with the
    identity assigned index 0, and None otherwise.

    Data that several criteria read off tau is computed on first use
    and kept in the instance __dict__: the one Faddeev-LeVerrier run,
    the characteristic polynomial with its Horner partial sums at tau
    (_horner, which classify seeds); the content of (tau - I)^2, read
    off those sums (displacement_content); the Smith form of tau - I,
    its divisors and column transform V, which smith_normal_form checks
    (_displacement_snf, read through displacement_divisors,
    fixed_structure and fixed_at_level); the fixed subgroup FIX per
    level; the Neron invariants; and, per cohomology degree k, the
    content of (A_k - I)^(k+1).  None of it is a field, so equality,
    hashing and repr are unchanged, and it goes away with the instance.
    """

    _fields = ("matrix", "residue_char", "dimension", "factor_orders",
               "semisimple_order", "unipotent_index", "potentially_good")

    def __init__(self, matrix: IntMatrix, residue_char: int, dimension: int,
                 factor_orders: Tuple[Tuple[int, int], ...], semisimple_order: int,
                 unipotent_index: Optional[int], potentially_good: bool) -> None:
        put = object.__setattr__
        put(self, "matrix", matrix)
        put(self, "residue_char", residue_char)
        put(self, "dimension", dimension)
        put(self, "factor_orders", factor_orders)
        put(self, "semisimple_order", semisimple_order)
        put(self, "unipotent_index", unipotent_index)
        put(self, "potentially_good", potentially_good)

    @property
    def rank(self) -> int:
        return 2 * self.dimension

    def module(self, n: int) -> TorsionModule:
        return standard_module(n, self.dimension)

    @cached_property
    def _horner(self):
        """The characteristic polynomial of tau and its Horner partial
        sums at tau, from one checked Faddeev-LeVerrier run
        (matrices._faddeev_leverrier); classify seeds it."""
        return _faddeev_leverrier(self.matrix)

    @cached_property
    def displacement_content(self) -> int:
        """The gcd of the entries of (tau - I)^2 over Z: 0 exactly when
        tau is semistable, and (tau - I)^2 = 0 mod n exactly when n
        divides it.  (x - 1)^2 is evaluated on the Horner partial sums
        N_0 = I, N_1 and N_2 = tau^2 + c_(n-1) tau + c_(n-2) I, with no
        matrix product."""
        return _poly_at(self._horner, (1, -2, 1)).content()

    @cached_property
    def _displacement_snf(self) -> SmithDecomposition:
        """The one Smith form of tau - I that every level reads, checked
        by smith_normal_form itself."""
        return smith_normal_form(self.matrix - IntMatrix.identity(self.rank))

    @cached_property
    def displacement_divisors(self) -> Tuple[int, ...]:
        """Smith divisors of tau - I over Z, zeros last."""
        return self._displacement_snf.divisors

    def fixed_structure(self, n: int) -> Tuple[int, ...]:
        """Invariant factors of the fixed n-torsion, trivial ones
        omitted: d_i kills Z/gcd(d_i, n) of Z/n, and as d_i | d_(i+1)
        with zeros last, the factors come sorted."""
        return tuple(g for g in (math.gcd(d, n) for d in self.displacement_divisors) if g > 1)

    def fixes_all_torsion(self, m: int) -> bool:
        """Whether tau fixes every m-torsion point, that is tau = I mod
        m: m divides every Smith divisor of tau - I, hence the first,
        which divides every later one (zeros come last).

        Raises:
          MatrixError: m is not an integer >= 1.
        """
        return self.displacement_divisors[0] % _check_modulus(m) == 0

    @cached_property
    def _fixed(self) -> Dict[int, Subgroup]:
        return {}

    def fixed_at_level(self, n: int) -> Subgroup:
        """Points of the level-n module that tau fixes.

        Generated by the kernel generators of the one Smith form of
        tau - I (see matrices.smith_normal_form and _smith_kernel_gens).
        Its Howell form is canonical, so the subgroup equals the one a
        fresh kernel computation mod n gives.  No report reads it.
        """
        if n not in self._fixed:
            module = self.module(n)
            gens = _smith_kernel_gens(self._displacement_snf, n)
            self._fixed[n] = Subgroup(
                module, howell_form(ModMatrix._trusted(n, gens, self.rank)))
        return self._fixed[n]

    def fixes_maximal_isotropic(self, n: int, pol: Optional[Polarization] = None) -> bool:
        """Whether tau fixes some maximal isotropic subgroup of the
        level-n module pointwise, under the pairing J P mod n (J when
        pol is None).

        The fixed subgroup FIX is the largest candidate, so one exists
        iff FIX-perp <= FIX, and then the isotropic extension of FIX
        (torsion.extend_to_maximal_isotropic) is one.  For any
        nondegenerate pairing tau preserves, FIX-perp = im(tau - I), so
        the containment is (tau - I)^2 = 0 mod n: n divides
        displacement_content.  J P mod n is nondegenerate iff
        gcd(det P, n) = 1, as det J = 1, so with pol that gcd is the
        whole gate and no module is built.

        Raises:
          TorsionError: pol's size does not match tau.
          MatrixError: n is not an integer >= 1.
          DegreeObstruction: the polarization degree shares a factor
            with n (J P mod n is degenerate).
          InertiaError: tau does not preserve J P.
        """
        if pol is not None and pol.matrix.rows != self.rank:
            raise TorsionError("polarization size does not match the module")
        n = _check_modulus(n)
        if pol is not None:
            if math.gcd(pol.degree, n) != 1:
                raise DegreeObstruction(
                    f"polarization degree {pol.degree} shares a factor with level {n}"
                )
            if not pol.preserved_by(self.matrix):
                raise InertiaError("tau does not preserve the polarization form J P")
        return self.displacement_content % n == 0


def classify(matrix: IntMatrix, residue_char: int = 0) -> InertiaGenerator:
    """Validate a candidate inertia matrix and derive its invariants.

    One Faddeev-LeVerrier run gives the characteristic polynomial chi
    and its Horner partial sums at tau, and decides everything else.
    With f the product of the distinct cyclotomic Phi_k dividing chi
    and m the lcm of those k, x^m - 1 = f g with g prime to chi, so
    g(tau) is invertible: tau^m = I iff f(tau) = 0, and
    (tau^m - I)^2 = 0 iff f(tau)^2 = 0.  f(tau) is a weighted sum of
    the partial sums (matrices._poly_at), and deg f = 2d means f = chi,
    which vanishes at tau.  Only an infinite-order tau pays one matrix
    product, f(tau) f(tau).  The run is kept on the generator.

    Raises:
      NotSymplectic: wrong shape or tau^T J tau != J.
      NotQuasiUnipotent: characteristic polynomial has a
        non-cyclotomic factor.
      NotPotentiallySemistable: quasi-unipotent, but the unipotent
        part at the semisimple order has nilpotency index above 2, so
        no base change makes the action semistable.
      WildRamification: the residue characteristic divides the
        semisimple order.
    """
    if residue_char < 0:
        raise InertiaError("residue characteristic must be >= 0")
    if not matrix.is_square or matrix.rows % 2 or matrix.rows < 2:
        raise NotSymplectic("matrix must be square of even positive size")
    d = matrix.rows // 2
    # tau^T (J tau), where J tau is tau's bottom half over minus its top half
    t = matrix.data
    neg = operator.neg
    j_tau = t[d:] + tuple([tuple(map(neg, row)) for row in t[:d]])
    mul = operator.mul
    j_cols = tuple(zip(*j_tau))
    if tuple([
        tuple([sum(map(mul, col, jc)) for jc in j_cols]) for col in zip(*t)
    ]) != standard_symplectic_form(d).data:
        raise NotSymplectic("matrix does not preserve the standard symplectic form")
    horner = _faddeev_leverrier(matrix)
    try:
        factors = cyclotomic_factor(horner[0])
    except NonCyclotomicFactor as exc:
        raise NotQuasiUnipotent(
            f"characteristic polynomial has non-cyclotomic factor {exc.remainder}"
        ) from exc
    orders = tuple(sorted(factors.items()))
    m = math.lcm(*factors.keys())
    radical = [cyclotomic_poly(k) for k in factors]
    finite = True
    if sum(q.degree for q in radical) < matrix.rows:
        f_tau = _poly_at(horner, reduce(operator.mul, radical).coeffs)
        finite = f_tau.is_zero()
        if not finite and not (f_tau @ f_tau).is_zero():
            raise NotPotentiallySemistable(
                f"(tau^{m} - I)^2 != 0: unipotent part has nilpotency index above 2"
            )
    if not is_tame(residue_char, m):
        raise WildRamification(
            f"residue characteristic {residue_char} divides the semisimple order {m}"
        )
    # m = 1 exactly when chi = (x - 1)^2d; then f(tau) = tau - I, so
    # tau = I (index 0) or its square vanishes (index 2).  For m > 1
    # some eigenvalue of tau - I is nonzero.
    index = None
    if m == 1:
        index = 0 if finite else 2
    gen = InertiaGenerator(
        matrix=matrix,
        residue_char=residue_char,
        dimension=d,
        factor_orders=orders,
        semisimple_order=m,
        unipotent_index=index,
        potentially_good=finite,
    )
    vars(gen)["_horner"] = horner
    return gen


class Verdict(Record):
    """One criterion's outcome: the two sides it relates and whether
    they are consistent.

    hypothesis/conclusion are None when the criterion makes no claim
    (side condition not met); agree is True in that case.  citation is
    a self-contained statement of the rule being checked.
    """

    __slots__ = _fields = ("criterion", "hypothesis", "conclusion", "agree",
                           "citation", "witness")

    def __init__(self, criterion: str, hypothesis: Optional[bool],
                 conclusion: Optional[bool], agree: bool, citation: str,
                 witness: Optional[Subgroup] = None) -> None:
        put = object.__setattr__
        put(self, "criterion", criterion)
        put(self, "hypothesis", hypothesis)
        put(self, "conclusion", conclusion)
        put(self, "agree", agree)
        put(self, "citation", citation)
        put(self, "witness", witness)


def galois_criterion(gen: InertiaGenerator) -> bool:
    """Semistability itself: (tau - I)^2 = 0 over the integers."""
    return gen.displacement_content == 0


def square_zero_mod_n(gen: InertiaGenerator, n: int) -> bool:
    """(tau - I)^2 = 0 mod n.  For n >= 5 this is equivalent to
    semistability; for n <= 4 it can hold spuriously."""
    require_tame(gen.residue_char, n)
    return gen.fixes_maximal_isotropic(n)


def semistable_after_extension(gen: InertiaGenerator, e: int) -> bool:
    """(tau^e - I)^2 = 0: some degree-e base change is semistable.

    This holds iff the semisimple order m divides e.  If m | e, then
    with N = tau^m - I, which classify proved has N^2 = 0, tau^e =
    (I + N)^(e/m) = I + (e/m) N, so (tau^e - I)^2 = (e/m)^2 N^2 = 0.
    If not, some eigenvalue zeta of tau, a root of unity of order
    dividing m, has zeta^e != 1, and (tau^e - I)^2 has the nonzero
    eigenvalue (zeta^e - 1)^2.

    No coprimality constraint on e: the minimal degree m is prime to
    the residue characteristic, so whenever it divides e a degree-e
    extension with the right tame part exists.
    """
    if e < 1:
        raise InertiaError("extension degree must be >= 1")
    return e % gen.semisimple_order == 0


def minimal_semistable_degree(gen: InertiaGenerator) -> int:
    return gen.semisimple_order


def is_good(gen: InertiaGenerator) -> bool:
    return gen.matrix == IntMatrix.identity(gen.rank)


def is_purely_additive(gen: InertiaGenerator) -> bool:
    """1 is not an eigenvalue of tau: the fixed part has rank zero."""
    return 0 not in gen.displacement_divisors


def witness_exists(gen: InertiaGenerator, n: int) -> bool:
    """Whether some subgroup S at level n has tau trivial on S and on
    its orthogonal complement.

    S works iff S and S-perp both sit inside the fixed subgroup FIX;
    complements shrink as subgroups grow, so S = FIX minimizes the
    complement and the test collapses to FIX-perp <= FIX.  tau
    preserves the pairing, so FIX-perp = im(tau - I), and that
    containment is (tau - I)^2 = 0 mod n.
    """
    return square_zero_mod_n(gen, n)


def find_witness_subgroup(gen: InertiaGenerator, n: int) -> Optional[Subgroup]:
    """First subgroup in canonical order with tau trivial on it and on
    its orthogonal complement, or None.

    The existence test is the square above; the exhaustive scan runs
    only when a witness is known to exist.

    Raises:
      EnumerationCapError: subgroup enumeration refused (propagated).
    """
    if not witness_exists(gen, n):
        return None
    tau_mod = gen.matrix.reduce_mod(n)
    for sub in enumerate_subgroups(gen.module(n)):
        if fixes_pointwise(tau_mod, sub) and fixes_pointwise(
            tau_mod, orthogonal_complement(sub)
        ):
            return sub
    raise AssertionError("existence test promised a witness")


def raynaud_criterion(gen: InertiaGenerator, m: int) -> Verdict:
    """Unramified m-torsion with m >= 3 forces semistability."""
    require_tame(gen.residue_char, m)
    hypothesis = gen.fixes_all_torsion(m)
    citation = (
        "if tau fixes all points of the m-torsion for some m >= 3, "
        "then (tau - I)^2 = 0; at m = 2 the rule fails (tau = -I)"
    )
    name = f"raynaud-{m}"
    if hypothesis and m >= 3:
        semistable = galois_criterion(gen)
        return Verdict(name, True, True, semistable, citation)
    return Verdict(name, hypothesis, None, True, citation)


def level_structure_criterion(gen: InertiaGenerator, n: int,
                              pol: Optional[Polarization] = None) -> Verdict:
    """Fixed maximal isotropic level structure versus semistability.

    Forward: a fixed maximal isotropic subgroup at level n >= 5 forces
    semistability.  Converse: semistability yields one.  Both need the
    polarization degree prime to n, which is exactly nondegeneracy of
    J P mod n.  Existence is gen.fixes_maximal_isotropic; no subgroup
    or module is built.

    Raises:
      DegreeObstruction: the polarization degree shares a factor with
        n; neither direction is then modeled.
    """
    require_tame(gen.residue_char, n)
    exists = gen.fixes_maximal_isotropic(n, pol)
    semistable = galois_criterion(gen)
    agree = True
    if exists and n >= 5 and not semistable:
        agree = False
    if semistable and not exists:
        agree = False
    conclusion: Optional[bool]
    if exists and n >= 5:
        conclusion = semistable
    elif semistable:
        conclusion = exists
    else:
        conclusion = None
    citation = (
        "with polarization degree prime to n: a fixed maximal isotropic "
        "subgroup at level n >= 5 exists iff (tau - I)^2 = 0, and under "
        "semistability one is built by isotropic extension of the fixed "
        "subgroup at any level"
    )
    return Verdict("level-structure", exists, conclusion, agree, citation)


def exceptional_criterion(gen: InertiaGenerator, n: int) -> Verdict:
    """A witness subgroup at level n forces semistability in degree
    R, the lcm of root-of-unity orders admissible for (2, n).

    At the exceptional levels R(2) = 4, R(3) = 3, R(4) = 2; from n = 5
    on R = 1 and this is the plain witness criterion.
    """
    if n < 2:
        raise InertiaError("level must be >= 2")
    require_tame(gen.residue_char, n)
    degree = semistability_degree(2, n).degree
    if degree is None:
        raise AssertionError(f"semistability degree unbounded at level {n}")
    witness = find_witness_subgroup(gen, n)
    citation = (
        f"a subgroup S at level {n} with tau trivial on S and on its "
        f"orthogonal complement forces (tau^{degree} - I)^2 = 0, the "
        f"exponent being the lcm of the admissible root orders for "
        f"squared displacements at level {n}"
    )
    if witness is None:
        return Verdict("exceptional-degree", False, None, True, citation)
    conclusion = semistable_after_extension(gen, degree)
    return Verdict("exceptional-degree", True, True, conclusion, citation, witness)


def quartic_semistability_check(gen: InertiaGenerator,
                                pol: Optional[Polarization] = None) -> Verdict:
    """Fixed maximal isotropic two-torsion forces (tau - I)^2 = 0 mod 2
    and semistability in degree 4.

    Raises:
      WildRamification: residue characteristic 2.
      HypothesisNotMet: no fixed maximal isotropic subgroup mod 2.
    """
    if gen.residue_char == 2:
        raise WildRamification("the criterion needs residue characteristic != 2")
    if not gen.fixes_maximal_isotropic(2, pol):
        raise HypothesisNotMet("no fixed maximal isotropic subgroup of the two-torsion")
    conclusion = square_zero_mod_n(gen, 2) and semistable_after_extension(gen, 4)
    citation = (
        "a fixed maximal isotropic subgroup of the two-torsion forces "
        "(tau - I)^2 = 0 mod 2 and (tau^4 - I)^2 = 0"
    )
    return Verdict("quartic-semistability", True, True, conclusion, citation)


def _fixed_has_element_of_order(gen: InertiaGenerator, r: int) -> bool:
    return r in gen.fixed_structure(r)


def _clause(name: str, allowed: bool, left, right, citation: str) -> Verdict:
    """One equivalence clause: hypothesis left(), conclusion right(),
    agree their equality; both sides None when the residue
    characteristic rules the clause out."""
    if not allowed:
        return Verdict(name, None, None, True, citation)
    lv, rv = left(), right()
    return Verdict(name, lv, rv, lv == rv, citation)


def elliptic_criteria(gen: InertiaGenerator) -> Tuple[Verdict, ...]:
    """The six fixed-point criteria for dimension one.

    Each clause is an equivalence; hypothesis holds the fixed-point
    side, conclusion the base-change side, agree their equality.
    Clauses whose residue-characteristic constraint fails are reported
    with both sides None.
    """
    if gen.dimension != 1:
        raise HypothesisNotMet("these criteria apply to dimension 1 only")
    p = gen.residue_char
    return (
        _clause(
            "elliptic-a", p != 2,
            lambda: _fixed_has_element_of_order(gen, 2),
            lambda: semistable_after_extension(gen, 4),
            "for p != 2: a fixed point of order 2 exists iff (tau^4 - I)^2 = 0",
        ),
        _clause(
            "elliptic-b", p != 3,
            lambda: _fixed_has_element_of_order(gen, 3),
            lambda: semistable_after_extension(gen, 3),
            "for p != 3: a fixed point of order 3 exists iff (tau^3 - I)^2 = 0",
        ),
        _clause(
            "elliptic-c", p != 2,
            lambda: _fixed_has_element_of_order(gen, 4) or gen.fixes_all_torsion(2),
            lambda: semistable_after_extension(gen, 2),
            "for p != 2: a fixed point of order 4 exists, or all points of "
            "order 2 are fixed, iff (tau^2 - I)^2 = 0",
        ),
        _clause(
            "elliptic-d",
            p != 2 and gen.potentially_good and not is_good(gen),
            lambda: (not _fixed_has_element_of_order(gen, 4))
            and gen.fixes_all_torsion(2),
            lambda: 2 % gen.semisimple_order == 0,
            "for p != 2 and bad potentially good reduction: tau^2 = I iff "
            "no fixed point of order 4 exists and all points of order 2 are fixed",
        ),
        _clause(
            "elliptic-e", p not in (2, 3),
            lambda: not (
                _fixed_has_element_of_order(gen, 2)
                or _fixed_has_element_of_order(gen, 3)
            ),
            lambda: not any(semistable_after_extension(gen, e) for e in range(1, 6)),
            "for p not in {2, 3}: no fixed points of order 2 or 3 iff no "
            "base change of degree below 6 is semistable",
        ),
        _clause(
            "elliptic-f", p not in (2, 3),
            lambda: not _fixed_has_element_of_order(gen, 4)
            and not _fixed_has_element_of_order(gen, 3)
            and not gen.fixes_all_torsion(2),
            lambda: not any(semistable_after_extension(gen, e) for e in range(1, 4)),
            "for p not in {2, 3}: no fixed point of order 4 or 3 and not all "
            "order-2 points fixed iff no base change of degree below 4 is semistable",
        ),
    )


def purely_additive_criteria(gen: InertiaGenerator) -> Tuple[Verdict, ...]:
    """Witness levels 4 and 3 against quadratic / cubic good reduction,
    for purely additive potentially good actions.

    Raises:
      HypothesisNotMet: tau has infinite order or a nonzero fixed part.
    """
    if not gen.potentially_good:
        raise HypothesisNotMet("tau must have finite order")
    if not is_purely_additive(gen):
        raise HypothesisNotMet("tau must have no eigenvalue 1")
    p = gen.residue_char
    return (
        _clause(
            "purely-additive-quadratic", p != 2,
            lambda: witness_exists(gen, 4),
            lambda: 2 % gen.semisimple_order == 0,
            "purely additive finite order, p != 2: a witness subgroup at "
            "level 4 exists iff tau^2 = I",
        ),
        _clause(
            "purely-additive-cubic", p != 3,
            lambda: witness_exists(gen, 3),
            lambda: 3 % gen.semisimple_order == 0,
            "purely additive finite order, p != 3: a witness subgroup at "
            "level 3 exists iff tau^3 = I",
        ),
    )
