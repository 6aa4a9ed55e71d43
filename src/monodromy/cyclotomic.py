"""Root-of-unity congruences, decided exactly.

The driving question is for which moduli n the ideal membership
(zeta_N - 1)^k in n*Z[zeta_N] can hold with zeta_N != 1.  It is
decided on the power basis 1, zeta, ..., zeta^(phi(N)-1): the remainder
of (x - 1)^k modulo the N-th cyclotomic polynomial must have every
coefficient divisible by n.  The answer is controlled by the set of
prime powers l^m with m(l-1) <= k; outside that set membership forces
the root of unity to be trivial, and the least common multiple of the
admissible orders is the extension degree needed to kill the
finite-order part of a quasi-unipotent action.  Characteristic
polynomials are split into cyclotomic factors here as well.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple

from ._record import Record
from .polynomials import IntPoly, cyclotomic_poly


class NonCyclotomicFactor(ValueError):
    """A monic polynomial had an irreducible factor that is not cyclotomic."""

    def __init__(self, remainder: IntPoly) -> None:
        self.remainder = remainder
        super().__init__(f"non-cyclotomic remainder: {remainder}")


@lru_cache(maxsize=None)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...), p ascending."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            out.append((p, m))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, m in factorize(n):
        phi *= (p - 1) * p ** (m - 1)
    return phi


def prime_power_components(n: int) -> Tuple[int, ...]:
    """The maximal prime-power divisors of n, e.g. 12 -> (4, 3)."""
    return tuple(p**m for p, m in factorize(n))


# Miller-Rabin with these bases is deterministic below 3.3 * 10^24
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n < 2**64."""
    if not 0 <= n < 2**64:
        raise ValueError("is_prime needs 0 <= n < 2**64")
    if n < 2:
        return False
    for q in _WITNESS_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_upto(bound: int) -> Tuple[int, ...]:
    return tuple(p for p in range(2, bound + 1) if is_prime(p))


class PrimePowerSet(Record):
    """The prime powers l^m with m(l-1) <= k, together with 1."""

    __slots__ = _fields = ("k", "members")

    def __init__(self, k: int, members: Tuple[int, ...]) -> None:
        put = object.__setattr__
        put(self, "k", k)
        put(self, "members", members)

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def exceptional_prime_powers(k: int) -> PrimePowerSet:
    """Moduli for which k-fold root-of-unity congruences can be nontrivial.

    Args:
      k: congruence exponent, >= 1.

    Returns:
      PrimePowerSet of every l^m with m(l-1) <= k, plus 1, sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    members = {1}
    for l in _primes_upto(k + 1):
        m = 1
        while m * (l - 1) <= k:
            members.add(l**m)
            m += 1
    return PrimePowerSet(k, tuple(sorted(members)))


def power_membership(order: int, k: int, n: int) -> bool:
    """Decide (zeta - 1)^k in n*Z[zeta] for zeta a primitive root of the given order.

    Args:
      order: root-of-unity order, >= 1.
      k: exponent, >= 1.
      n: modulus, >= 1.

    Returns:
      True iff every power-basis coefficient of (zeta - 1)^k is
      divisible by n.
    """
    if order < 1 or k < 1 or n < 1:
        raise ValueError("order, k, n must all be >= 1")
    if n == 1:
        return True
    if k < euler_phi(order):
        # (x-1)^k is already reduced mod Phi and its leading
        # coefficient is 1, which n >= 2 never divides.
        return False
    rem = IntPoly((-1, 1)) ** k % cyclotomic_poly(order)
    return all(c % n == 0 for c in rem.coeffs)


class SweepReport(Record):
    """Outcome of an exhaustive membership sweep.

    checked counts the (order, k, n) triples where membership was
    asserted false; violations would list any that held anyway.
    Memberships at moduli inside the exceptional set are legitimate and
    collected in boundary_memberships.
    """

    __slots__ = _fields = ("k_max", "n_max", "order_max", "checked", "violations",
                           "boundary_memberships")

    def __init__(self, k_max: int, n_max: int, order_max: int, checked: int,
                 violations: Tuple[Tuple[int, int, int], ...],
                 boundary_memberships: Tuple[Tuple[int, int, int], ...]) -> None:
        put = object.__setattr__
        put(self, "k_max", k_max)
        put(self, "n_max", n_max)
        put(self, "order_max", order_max)
        put(self, "checked", checked)
        put(self, "violations", violations)
        put(self, "boundary_memberships", boundary_memberships)

    @property
    def ok(self) -> bool:
        return not self.violations


def quasi_unipotence_sweep(k_max: int, n_max: int, order_max: int) -> SweepReport:
    """Verify that membership fails whenever the modulus is not exceptional.

    For every k <= k_max, n in [2, n_max] outside
    exceptional_prime_powers(k), and order in [2, order_max], asserts
    power_membership(order, k, n) is false and reports violations
    (there should be none).

    Args:
      k_max, n_max, order_max: inclusive sweep bounds, all >= 1.
    """
    if k_max < 1 or n_max < 1 or order_max < 1:
        raise ValueError("sweep bounds must be >= 1")
    violations = []
    boundary = []
    checked = 0
    for k in range(1, k_max + 1):
        allowed = set(exceptional_prime_powers(k).members)
        for n in range(2, n_max + 1):
            for order in range(2, order_max + 1):
                if n in allowed:
                    if power_membership(order, k, n):
                        boundary.append((order, k, n))
                    continue
                checked += 1
                if power_membership(order, k, n):
                    violations.append((order, k, n))
    return SweepReport(
        k_max, n_max, order_max, checked, tuple(violations), tuple(boundary)
    )


class DegreeCertificate(Record):
    """Admissible root-of-unity orders for a congruence level, and their lcm.

    degree is None exactly when the certificate is unbounded, which
    happens only for n = 1 where every order is admissible.
    """

    __slots__ = _fields = ("k", "n", "bound", "admissible", "degree", "unbounded")

    def __init__(self, k: int, n: int, bound: int, admissible: Tuple[int, ...],
                 degree: Optional[int], unbounded: bool) -> None:
        put = object.__setattr__
        put(self, "k", k)
        put(self, "n", n)
        put(self, "bound", bound)
        put(self, "admissible", admissible)
        put(self, "degree", degree)
        put(self, "unbounded", unbounded)


@lru_cache(maxsize=None)
def semistability_degree(k: int, n: int, bound: int = 1000) -> DegreeCertificate:
    """lcm of the orders N <= bound with (zeta_N - 1)^k in n*Z[zeta_N].

    Only orders with phi(N) <= k are searched: for any other order
    (zeta_N - 1)^k is already reduced modulo Phi_N with leading
    coefficient 1, so no n >= 2 divides it, and such N are never
    admissible.  That leaves at most 2k^2 candidates whatever the
    bound.  An order is screened through its prime-power components
    first: if zeta_q with q a component of N fails membership on its
    own, N cannot pass, because zeta_q is a power of zeta_N and
    n*Z[zeta_N] meets Z[zeta_q] in n*Z[zeta_q].  Survivors get a
    direct check, so the screen is only a shortcut.

    The certificate depends on (k, n, bound) alone and is immutable,
    so each one is computed once per process and then served from a
    memo.

    Args:
      k: congruence exponent, >= 1.
      n: modulus, >= 1; n = 1 yields the unbounded sentinel.
      bound: largest order searched, >= 1.

    Returns:
      DegreeCertificate listing every admissible order and the lcm.
    """
    if k < 1 or n < 1 or bound < 1:
        raise ValueError("k, n and bound must be >= 1")
    if n == 1:
        return DegreeCertificate(k, n, bound, (), None, True)
    admissible = [1]
    for order in _orders_with_phi_at_most(k)[1:]:
        if order > bound:
            break
        comps = prime_power_components(order)
        if all(power_membership(q, k, n) for q in comps) and power_membership(
            order, k, n
        ):
            admissible.append(order)
    return DegreeCertificate(
        k, n, bound, tuple(admissible), math.lcm(*admissible), False
    )


def compute_R(k: int, n: int, bound: int = 1000) -> Optional[int]:
    """The uniform base-change degree for exponent k at level n: just
    the lcm from the certificate, None when n = 1 leaves it unbounded."""
    return semistability_degree(k, n, bound).degree


@lru_cache(maxsize=None)
def _orders_with_phi_at_most(d: int) -> Tuple[int, ...]:
    # phi(N) >= sqrt(N/2), so N <= 2 d^2 exhausts phi(N) <= d.
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d)


def cyclotomic_factor(p: IntPoly) -> Dict[int, int]:
    """Factor a monic integer polynomial into cyclotomic polynomials.

    Args:
      p: monic polynomial of degree >= 0.

    Returns:
      {order: multiplicity} with the product of the corresponding
      cyclotomic powers equal to p.

    Raises:
      NonCyclotomicFactor: carrying the monic remainder once no
        cyclotomic polynomial of eligible degree divides it.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("only monic polynomials factor into cyclotomics")
    out: Dict[int, int] = {}
    rem = list(p.coeffs)
    # each order is tried once, strip by strip: a cyclotomic polynomial
    # that does not divide rem divides none of its later quotients.
    # Trial division runs on plain coefficient lists, constant first.
    for order in _orders_with_phi_at_most(p.degree):
        if len(rem) == 1:
            break
        q = cyclotomic_poly(order).coeffs
        d = len(q) - 1
        lower = [(j, b) for j, b in enumerate(q[:d]) if b]
        while d < len(rem):
            # synthetic division by the monic q: the quotient ends up
            # in work[d:], the remainder in work[:d]
            work = rem[:]
            for k in range(len(work) - 1, d - 1, -1):
                c = work[k]
                if c:
                    for j, b in lower:
                        work[k - d + j] -= c * b
            if any(work[:d]):
                break
            out[order] = out.get(order, 0) + 1
            rem = work[d:]
    if len(rem) > 1:
        raise NonCyclotomicFactor(IntPoly(rem))
    return out
