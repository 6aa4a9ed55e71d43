"""Reduction invariants for finite-order actions.

For a finite-order symplectic tau the special fiber after base change
is abelian, so the toric rank is zero and the dimension splits as
abelian rank a plus unipotent rank u.  2a is the multiplicity of the
eigenvalue 1 of tau; the rest is read off one Smith normal form of
tau - I over Z: 2a zero divisors, the component group as the divisors
above 1, all of them prime to p.  Per-level torsion then comes from the
gcds of the level with the divisors, and the verification routines
check the announced shapes of those invariants on concrete generators,
clause by clause.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ._record import Record
from .cyclotomic import cyclotomic_factor
from .inertia import (
    DegreeObstruction,
    HypothesisNotMet,
    InertiaError,
    InertiaGenerator,
    Verdict,
    is_good,
    is_purely_additive,
    require_tame,
)
from .matrices import IntMatrix, char_poly, smith_normal_form
from .torsion import Polarization


class NotPotentiallyGood(InertiaError):
    pass


class NeronInvariants(Record):
    """Rank split and component group of the reduction.

    a + u + t = d with t = 0 throughout; phi lists the elementary
    divisors above 1 of tau - I, and phi_prime, its prime-to-p part, is
    all of phi.

    With m the order of tau and N = 1 + tau + ... + tau^(m-1), m x = N x
    modulo the image of tau - I, and N (tau - I) = tau^m - I = 0, so N
    kills every x whose class in coker(tau - I) is torsion.  So every
    divisor in phi divides m, and classify requires m prime to p: no
    divisor has a p-part.
    """

    __slots__ = _fields = ("dimension", "residue_char", "abelian_rank",
                           "unipotent_rank", "toric_rank", "phi", "phi_prime")

    def __init__(self, dimension: int, residue_char: int, abelian_rank: int,
                 unipotent_rank: int, toric_rank: int, phi: Tuple[int, ...],
                 phi_prime: Tuple[int, ...]) -> None:
        put = object.__setattr__
        put(self, "dimension", dimension)
        put(self, "residue_char", residue_char)
        put(self, "abelian_rank", abelian_rank)
        put(self, "unipotent_rank", unipotent_rank)
        put(self, "toric_rank", toric_rank)
        put(self, "phi", phi)
        put(self, "phi_prime", phi_prime)

    def phi_torsion_order(self, n: int) -> int:
        """#Phi[n], the n-torsion of the component group."""
        return math.prod(math.gcd(q, n) for q in self.phi)


def neron_invariants(gen: InertiaGenerator) -> NeronInvariants:
    """Invariants of the reduction for a finite-order generator, built
    once and kept in the generator's memo.

    Raises:
      NotPotentiallyGood: tau has infinite order.
    """
    if not gen.potentially_good:
        raise NotPotentiallyGood("tau must have finite order")
    memo = gen.__dict__
    if "_neron" not in memo:
        memo["_neron"] = _neron_invariants(gen)
    return memo["_neron"]


def _neron_invariants(gen: InertiaGenerator) -> NeronInvariants:
    p = gen.residue_char
    # tau has finite order, so it is semisimple and the rational
    # nullity of tau - I is the multiplicity of Phi_1 = x - 1 in the
    # characteristic polynomial; read it there rather than off the
    # Smith zeros, so the kernel-count identity in neron_torsion
    # compares two computations.  The fixed sublattice of a symplectic
    # action is symplectic, so the nullity is even.
    nullity = dict(gen.factor_orders).get(1, 0)
    if nullity % 2:
        raise AssertionError(f"rational nullity {nullity} of tau - I is odd")
    a = nullity // 2
    phi = tuple(q for q in gen.displacement_divisors if q > 1)
    m = gen.semisimple_order
    if any(m % q for q in phi):
        raise AssertionError(f"a component divisor in {phi} does not divide the order {m}")
    return NeronInvariants(
        dimension=gen.dimension,
        residue_char=p,
        abelian_rank=a,
        unipotent_rank=gen.dimension - a,
        toric_rank=0,
        phi=phi,
        phi_prime=phi,
    )


class TorsionReport(Record):
    """Per-level snapshot: the fixed n-torsion and the n-torsion of the
    component group.  The order is read off the checked Smith form; the
    kernel-count identity #ker((tau - I) mod n) = n^(2a) * #Phi[n] is
    asserted against the Neron invariants, with 2a the multiplicity of
    the eigenvalue 1 of tau."""

    __slots__ = _fields = ("level", "fixed_order", "fixed_structure", "phi_torsion",
                           "b_exponent")

    def __init__(self, level: int, fixed_order: int, fixed_structure: Tuple[int, ...],
                 phi_torsion: Tuple[int, ...], b_exponent: Optional[int]) -> None:
        put = object.__setattr__
        put(self, "level", level)
        put(self, "fixed_order", fixed_order)
        put(self, "fixed_structure", fixed_structure)
        put(self, "phi_torsion", phi_torsion)
        put(self, "b_exponent", b_exponent)


def neron_torsion(gen: InertiaGenerator, n: int) -> TorsionReport:
    """Fixed n-torsion and component-group n-torsion.

    The fixed n-torsion is the kernel of (tau - I) mod n.  Its order is
    read off the checked Smith form (gen.fixed_structure): one factor n
    per zero divisor, gcd(q, n) per nonzero divisor q.  No subgroup is
    built.  The check smith_normal_form makes on its result (d_i
    divides column i of (tau - I) V, and |det V| = 1) shows that its
    kernel generators span that many fixed points, a lower bound.  The
    kernel-count identity is asserted against the Neron invariants,
    whose abelian rank comes from the characteristic polynomial, so it
    checks the Smith zero count against the multiplicity of the
    eigenvalue 1.

    Raises:
      InertiaError: n < 1.
      WildRamification: p divides n.
      NotPotentiallyGood: tau has infinite order.
    """
    require_tame(gen.residue_char, n)
    inv = neron_invariants(gen)
    structure = gen.fixed_structure(n)
    order = math.prod(structure)
    phi_n = tuple(sorted(g for g in (math.gcd(q, n) for q in inv.phi) if g > 1))
    count = n ** (2 * inv.abelian_rank) * inv.phi_torsion_order(n)
    if order != count:
        raise AssertionError(
            f"kernel-count identity fails at level {n}: fixed order "
            f"{order} != {count}"
        )
    b: Optional[int] = None
    if n > 1:
        exponent, power = 0, 1
        while power < order:
            exponent, power = exponent + 1, power * n
        if power == order:
            b = exponent
    return TorsionReport(n, order, structure, phi_n, b)


def _is_elementary_abelian(structure: Tuple[int, ...], q: int) -> bool:
    return all(s == q for s in structure)


def _neron_entry(gen: InertiaGenerator, excluded: int, level: Optional[int],
                 pol: Optional[Polarization]) -> NeronInvariants:
    """The entry check the verifiers share: tau of finite order, residue
    characteristic other than excluded, and, unless level is None, a
    fixed maximal isotropic subgroup at level (a polarization degree
    that shares a factor with level counts as none).

    Raises:
      NotPotentiallyGood, HypothesisNotMet.
    """
    inv = neron_invariants(gen)
    if gen.residue_char == excluded:
        raise HypothesisNotMet(f"residue characteristic {excluded} is excluded")
    if level is not None:
        try:
            found = gen.fixes_maximal_isotropic(level, pol)
        except DegreeObstruction as exc:
            raise HypothesisNotMet(str(exc)) from None
        if not found:
            raise HypothesisNotMet(f"no fixed maximal isotropic subgroup of the {level}-torsion")
    return inv


def verify_neron2(gen: InertiaGenerator,
                  pol: Optional[Polarization] = None) -> Tuple[Verdict, ...]:
    """Two-torsion shape of the component group.

    With a fixed maximal isotropic subgroup of the two-torsion and
    2^b = #X_2(F): the prime-to-p component group is elementary
    abelian of rank b - 2a, the index identity
    [X_2 : X_2(F)] * #Phi' = 2^(2u) holds, and good reduction is
    equivalent to a vanishing component group with all of X_2 fixed.

    Raises:
      NotPotentiallyGood, HypothesisNotMet.
    """
    inv = _neron_entry(gen, 2, 2, pol)
    report = neron_torsion(gen, 2)
    if report.b_exponent is None:
        raise AssertionError(
            f"fixed two-torsion order {report.fixed_order} is not a power of 2"
        )
    b = report.b_exponent
    a, u = inv.abelian_rank, inv.unipotent_rank
    out = []

    shape_ok = (
        _is_elementary_abelian(inv.phi_prime, 2)
        and len(inv.phi_prime) == b - 2 * a
    )
    out.append(Verdict(
        "neron2-shape", True, shape_ok, shape_ok,
        "with a fixed maximal isotropic subgroup of the two-torsion and "
        "2^b fixed two-torsion points, the prime-to-p component group is "
        "elementary abelian of order 2^(b - 2a)",
    ))

    index = 2**gen.rank // report.fixed_order
    identity_ok = index * math.prod(inv.phi_prime) == 2 ** (2 * u)
    out.append(Verdict(
        "neron2-index", True, identity_ok, identity_ok,
        "the index of the fixed two-torsion times the component group "
        "order equals 2^(2u)",
    ))

    good = is_good(gen)
    criterion = gen.fixes_all_torsion(2) and not inv.phi_prime
    out.append(Verdict(
        "neron2-good", criterion, good, criterion == good,
        "good reduction holds iff the component group vanishes and every "
        "two-torsion point is fixed",
    ))
    return tuple(out)


def verify_neron3(gen: InertiaGenerator,
                  pol: Optional[Polarization] = None) -> Tuple[Verdict, ...]:
    """Three-torsion shape: fixed order 3^(2d - u), component group
    elementary abelian of rank u, good iff all fixed, purely additive
    iff the fixed part has order 3^d.

    Raises:
      NotPotentiallyGood, HypothesisNotMet.
    """
    inv = _neron_entry(gen, 3, 3, pol)
    report = neron_torsion(gen, 3)
    d, u = gen.dimension, inv.unipotent_rank
    out = []

    order_ok = report.fixed_order == 3 ** (2 * d - u)
    out.append(Verdict(
        "neron3-fixed-order", True, order_ok, order_ok,
        "with a fixed maximal isotropic subgroup of the three-torsion, "
        "the fixed three-torsion has order 3^(2d - u)",
    ))

    shape_ok = (
        _is_elementary_abelian(inv.phi_prime, 3) and len(inv.phi_prime) == u
    )
    out.append(Verdict(
        "neron3-phi", True, shape_ok, shape_ok,
        "the prime-to-p component group is elementary abelian of order 3^u",
    ))

    good = is_good(gen)
    all_fixed = gen.fixes_all_torsion(3)
    out.append(Verdict(
        "neron3-good", all_fixed, good, all_fixed == good,
        "good reduction holds iff every three-torsion point is fixed",
    ))

    additive = is_purely_additive(gen)
    additive_shape = report.fixed_order == 3**d
    out.append(Verdict(
        "neron3-additive", additive_shape, additive, additive_shape == additive,
        "purely additive reduction holds iff the fixed three-torsion has "
        "order 3^d",
    ))
    return tuple(out)


def verify_neron4(gen: InertiaGenerator, mode: str,
                  pol: Optional[Polarization] = None) -> Tuple[Verdict, ...]:
    """Four-torsion shape under either entry hypothesis.

    mode "a": tau acts trivially on the two-torsion.
    mode "b": a fixed maximal isotropic subgroup of the four-torsion
    exists for the pairing J P mod 4.

    Clauses: X_4(F) isomorphic to (Z/4)^(2a) x (Z/2)^(2u); the index
    [X_4 : X_4(F)] = 2^(2u); X_2 sits inside X_4(F) with index 2^(2a);
    Phi' elementary abelian of rank 2u; good iff X_4(F) = X_4; purely
    additive iff X_4(F) = X_2.

    X_2 is the subgroup 2 X_4, and tau fixes 2x mod 4 for every x iff
    tau = I mod 2, so X_2 <= X_4(F) iff tau fixes all two-torsion.  The
    points of X_4 killed by 2 are exactly X_2, so X_4(F) = X_2 iff
    X_4(F) is of type (Z/2)^(2d).

    Raises:
      NotPotentiallyGood, HypothesisNotMet.
      InertiaError: an unknown mode.
    """
    inv = _neron_entry(gen, 2, 4 if mode == "b" else None, pol)
    if mode == "a":
        if not gen.fixes_all_torsion(2):
            raise HypothesisNotMet("tau is not trivial on the two-torsion")
    elif mode != "b":
        raise InertiaError(f"unknown mode {mode!r}")
    report = neron_torsion(gen, 4)
    a, u, d = inv.abelian_rank, inv.unipotent_rank, gen.dimension
    out = []

    expected = tuple(sorted([2] * (2 * u) + [4] * (2 * a)))
    structure_ok = report.fixed_structure == expected
    out.append(Verdict(
        "neron4-structure", True, structure_ok, structure_ok,
        "the fixed four-torsion is isomorphic to (Z/4)^(2a) x (Z/2)^(2u)",
    ))

    index_ok = 4 ** (2 * d) // report.fixed_order == 2 ** (2 * u)
    out.append(Verdict(
        "neron4-index", True, index_ok, index_ok,
        "the fixed four-torsion has index 2^(2u) in the four-torsion",
    ))

    two_ok = (gen.fixes_all_torsion(2)
              and report.fixed_order // 2**gen.rank == 2 ** (2 * a))
    out.append(Verdict(
        "neron4-two-torsion", True, two_ok, two_ok,
        "the full two-torsion lies inside the fixed four-torsion with "
        "index 2^(2a)",
    ))

    shape_ok = (
        _is_elementary_abelian(inv.phi_prime, 2)
        and len(inv.phi_prime) == 2 * u
    )
    out.append(Verdict(
        "neron4-phi", True, shape_ok, shape_ok,
        "the prime-to-p component group is elementary abelian of order "
        "2^(2u)",
    ))

    good = is_good(gen)
    all_fixed = gen.fixes_all_torsion(4)
    out.append(Verdict(
        "neron4-good", all_fixed, good, all_fixed == good,
        "good reduction holds iff every four-torsion point is fixed",
    ))

    additive = is_purely_additive(gen)
    collapsed = report.fixed_structure == (2,) * gen.rank
    out.append(Verdict(
        "neron4-additive", collapsed, additive, collapsed == additive,
        "purely additive reduction holds iff the fixed four-torsion is "
        "exactly the two-torsion",
    ))
    return tuple(out)


def cokernel_torsion_check(a: IntMatrix, ell: int, m: int, r: int) -> Verdict:
    """Nilpotency of (A - I) mod ell^m with exponent m(ell-1)ell^(r-1)
    bounds the ell-part of the cokernel torsion by ell^(r-1).

    Raises:
      HypothesisNotMet: A not finite order, congruence fails, or r < 2.
    """
    if ell < 2 or m < 1:
        raise InertiaError("need ell >= 2 and m >= 1")
    if r < 2:
        raise HypothesisNotMet("the bound needs r > 1")
    try:
        factors = cyclotomic_factor(char_poly(a))
    except ValueError:
        raise HypothesisNotMet("A must have finite order") from None
    order = math.lcm(*factors.keys())
    if a**order != IntMatrix.identity(a.rows):
        raise HypothesisNotMet("A must have finite order")
    exponent = m * (ell - 1) * ell ** (r - 1)
    modulus = ell**m
    power = (a - IntMatrix.identity(a.rows)) ** exponent
    if not power.reduce_mod(modulus).is_zero():
        raise HypothesisNotMet(
            f"(A - I)^{exponent} does not vanish mod {modulus}"
        )
    divisors = smith_normal_form(a - IntMatrix.identity(a.rows)).divisors
    bound = ell ** (r - 1)
    ok = True
    for q in divisors:
        if q == 0:
            continue
        ell_part = 1
        while q % ell == 0:
            ell_part *= ell
            q //= ell
        if bound % ell_part != 0:
            ok = False
    return Verdict(
        "cokernel-torsion", True, ok, ok,
        f"finite order with (A - I)^{exponent} vanishing mod {modulus} "
        f"bounds the {ell}-part of every cokernel divisor by {bound}",
    )
