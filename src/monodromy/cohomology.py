"""Cohomology of the action in each degree via exterior powers.

Degree one carries the contragredient of tau (the twist by roots of
unity is invisible in the tame model), and degree k is its k-th
exterior power, of size C(2d, k).  The vanishing statement in degree k
is divided-power nilpotency: (A_k - I)^(k+1) = 0 mod n, with n = 0
meaning over the integers.
"""

from __future__ import annotations

from typing import Union

from ._record import Record
from .cyclotomic import exceptional_prime_powers
from .inertia import (
    HypothesisNotMet,
    InertiaError,
    InertiaGenerator,
    Verdict,
    galois_criterion,
    is_purely_additive,
    require_tame,
    semistable_after_extension,
)
from .matrices import (
    IntMatrix,
    ModMatrix,
    _apply_j,
    _check_modulus,
    exterior_power,
)


class PreconditionExcluded(InertiaError):
    pass


class CohomologyAction(Record):
    """The induced matrix in degree k, over Z (modulus 0) or Z/nZ."""

    __slots__ = _fields = ("degree", "modulus", "base", "matrix")

    def __init__(self, degree: int, modulus: int, base: Union[IntMatrix, ModMatrix],
                 matrix: Union[IntMatrix, ModMatrix]) -> None:
        put = object.__setattr__
        put(self, "degree", degree)
        put(self, "modulus", modulus)
        put(self, "base", base)
        put(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.rows


def cohomology_action(gen: InertiaGenerator, k: int, n: int = 0) -> CohomologyAction:
    """Action on degree-k cohomology with Z/nZ (or integral) coefficients.

    Degree one is the inverse transpose of tau, which is -J tau J as
    tau^T J tau = J and J^-1 = -J, formed as (J (J tau)^T)^T by J's
    block shuffle with no product; higher degrees are its exterior powers.

    Raises:
      InertiaError: k outside 0..2d, or n < 0.
      WildRamification: n > 0 sharing a factor with the residue char.
    """
    if k < 0 or k > gen.rank:
        raise InertiaError(f"degree {k} outside 0..{gen.rank}")
    _require_coefficients(gen, n)
    base_z = IntMatrix._trusted(tuple(zip(*_apply_j(tuple(zip(*_apply_j(gen.matrix.data)))))))
    if n == 0:
        base: Union[IntMatrix, ModMatrix] = base_z
    else:
        base = base_z.reduce_mod(n)
    return CohomologyAction(k, n, base, exterior_power(base, k))


def _require_coefficients(gen: InertiaGenerator, n: int) -> None:
    """Refuse a negative modulus, or a positive one that shares a
    factor with the residue characteristic."""
    if n < 0:
        raise InertiaError("modulus must be >= 0")
    if n > 0:
        require_tame(gen.residue_char, n)


def hk_vanishing(gen: InertiaGenerator, k: int, n: int) -> bool:
    """Whether (A_k - I)^(k+1) vanishes mod n (n = 0: over Z), A_k the
    degree-k cohomology action.

    Taking k x k minors commutes with reduction mod n, so the action
    mod n is the integral one reduced, and so is the power.  One
    content per degree, c_k = content((A_k - I)^(k+1)) over Z, kept in
    the generator's __dict__, decides every level: vanishing mod n iff
    n divides c_k, and over Z iff c_k = 0.

    Raises:
      InertiaError: k outside the open range 0 < k < 2d, or n < 0.
      WildRamification: n > 0 sharing a factor with the residue char.
    """
    if not 0 < k < gen.rank:
        raise InertiaError(f"degree must satisfy 0 < k < {gen.rank}")
    _require_coefficients(gen, n)
    contents = gen.__dict__.setdefault("_vanishing_contents", {})
    if k not in contents:
        a = cohomology_action(gen, k).matrix
        contents[k] = ((a - IntMatrix.identity(a.rows)) ** (k + 1)).content()
    if n == 0:
        return contents[k] == 0
    return contents[k] % _check_modulus(n) == 0


def higher_cohomology_criterion(
    gen: InertiaGenerator, k: int, n: int,
    strictly_henselian: bool = False,
) -> Verdict:
    """Vanishing in degree k versus the reduction type, away from the
    exceptional levels.

    Odd k: vanishing holds iff (tau - I)^2 = 0.  Even k: iff that, or
    tau is purely additive and (tau^2 - I)^2 = 0; the even case needs
    residue characteristic != 2 unless the strictly henselian flag is
    set.  For finite-order tau the even-k reduction side collapses to
    tau = I or tau = -I, and that collapse is asserted.

    Raises:
      InertiaError: k outside 0 < k < 2d, or n < 2.
      PreconditionExcluded: n is an exceptional level for k + 1.
      HypothesisNotMet: even k at residue characteristic 2 without the
        strictly henselian flag.
      WildRamification: n shares a factor with the residue char.
    """
    if not 0 < k < gen.rank:
        raise InertiaError(f"degree must satisfy 0 < k < {gen.rank}")
    if n < 2:
        raise InertiaError("level must be >= 2")
    if n in exceptional_prime_powers(k + 1):
        raise PreconditionExcluded(
            f"level {n} is exceptional for exponent {k + 1}"
        )
    require_tame(gen.residue_char, n)
    if k % 2 == 0 and gen.residue_char == 2 and not strictly_henselian:
        raise HypothesisNotMet(
            "even degree at residue characteristic 2 needs the strictly "
            "henselian flag"
        )
    semistable = galois_criterion(gen)
    if k % 2 == 1:
        reduction_side = semistable
    else:
        quadratic_additive = is_purely_additive(gen) and semistable_after_extension(
            gen, 2
        )
        reduction_side = semistable or quadratic_additive
        if gen.potentially_good:
            identity = IntMatrix.identity(gen.rank)
            collapse = gen.matrix == identity or gen.matrix == -identity
            if reduction_side != collapse:
                raise AssertionError(
                    f"even-degree reduction side {reduction_side} but tau = +-I "
                    f"is {collapse}"
                )
    vanishing = hk_vanishing(gen, k, n)
    citation = (
        "away from exceptional levels, degree-k cohomology mod n is "
        "killed by (sigma - 1)^(k+1) iff the reduction is semistable "
        "(odd k) or semistable-or-quadratically-additive (even k)"
    )
    return Verdict(
        f"cohomology-degree-{k}", reduction_side, vanishing,
        reduction_side == vanishing, citation,
    )
