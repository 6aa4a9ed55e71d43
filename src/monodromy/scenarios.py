"""Scenario files and hypothesis-preserving instance generation.

A scenario is one generator with its context, serialized as JSON.
Loading validates everything through classify, so a scenario object in
hand is always a legal input to every criterion.

Instance generation works per instance family: block sums drawn from
the primitives listed for that family, conjugated by a random
symplectic matrix.  The hypothesis is checked once per instance, on
the conjugated matrix the verifiers receive.
"""

from __future__ import annotations

import json
import random
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .cyclotomic import is_prime
from .inertia import InertiaGenerator, classify
from .matrices import DimensionError, IntMatrix, MatrixError
from .torsion import Polarization, TorsionError


class ScenarioError(ValueError):
    pass


class Scenario(Record):
    _fields = ("dimension", "residue_char", "tau", "polarization", "level",
               "strictly_henselian", "seed")

    def __init__(self, dimension: int, residue_char: int, tau: IntMatrix,
                 polarization: Optional[Polarization] = None,
                 level: Optional[int] = None, strictly_henselian: bool = False,
                 seed: int = 0) -> None:
        put = object.__setattr__
        put(self, "dimension", dimension)
        put(self, "residue_char", residue_char)
        put(self, "tau", tau)
        put(self, "polarization", polarization)
        put(self, "level", level)
        put(self, "strictly_henselian", strictly_henselian)
        put(self, "seed", seed)

    @cached_property
    def _generator(self) -> InertiaGenerator:
        return classify(self.tau, self.residue_char)

    def generator(self) -> InertiaGenerator:
        """The classified generator, computed once per scenario and
        kept in the instance __dict__ outside the fields."""
        return self._generator

    def to_json_dict(self) -> Dict:
        out: Dict = {
            "d": self.dimension,
            "p": self.residue_char,
            "tau": self.tau.to_lists(),
            "seed": self.seed,
        }
        if self.polarization is not None:
            out["polarization"] = self.polarization.matrix.to_lists()
        if self.level is not None:
            out["n"] = self.level
        if self.strictly_henselian:
            out["flags"] = {"strictly_henselian": True}
        return out


def _require_int(obj: Dict, key: str, minimum: Optional[int] = None) -> int:
    if key not in obj:
        raise ScenarioError(f"missing required field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"field {key!r} must be >= {minimum}")
    return value


def _parse_matrix(value, key: str) -> IntMatrix:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(row, list) for row in value)
    ):
        raise ScenarioError(f"field {key!r} must be a nonempty list of rows")
    try:
        return IntMatrix(value)
    except DimensionError:
        if len({len(row) for row in value}) != 1:
            raise ScenarioError(f"field {key!r} has rows of unequal length") from None
        raise ScenarioError(f"field {key!r} must have nonempty rows") from None
    except MatrixError:
        raise ScenarioError(f"field {key!r} must contain integers only") from None


def scenario_from_dict(obj: Dict) -> Scenario:
    """Parse and validate; classify runs so an invalid tau never
    becomes a Scenario.

    Raises:
      ScenarioError: structural problems, or a polarization tau does
        not preserve, with the offending field named.
      NotSymplectic, NotQuasiUnipotent, WildRamification,
      NotPotentiallySemistable: tau fails validation for the given p.
    """
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    d = _require_int(obj, "d", 1)
    p = _require_int(obj, "p", 0)
    if p >= 2**64 or (p != 0 and not is_prime(p)):
        raise ScenarioError(f"field 'p' must be 0 or a prime below 2**64, not {p}")
    tau = _parse_matrix(obj.get("tau"), "tau") if "tau" in obj else None
    if tau is None:
        raise ScenarioError("missing required field 'tau'")
    if tau.rows != 2 * d or tau.cols != 2 * d:
        raise ScenarioError(
            f"field 'tau' must be {2 * d} x {2 * d} for d = {d}, "
            f"got {tau.rows} x {tau.cols}"
        )
    seed = _require_int(obj, "seed")
    pol = None
    if "polarization" in obj:
        mat = _parse_matrix(obj["polarization"], "polarization")
        if mat.rows != 2 * d or mat.cols != 2 * d:
            raise ScenarioError(
                f"field 'polarization' must be {2 * d} x {2 * d} for d = {d}"
            )
        try:
            pol = Polarization(mat)
        except TorsionError as exc:
            # Polarization names its subject "polarization matrix"
            raise ScenarioError(str(exc).replace(
                "polarization matrix", "field 'polarization'", 1)) from None
    level = None
    if "n" in obj:
        level = _require_int(obj, "n", 2)
    henselian = False
    if "flags" in obj:
        flags = obj["flags"]
        if not isinstance(flags, dict):
            raise ScenarioError("field 'flags' must be an object")
        unknown = set(flags) - {"strictly_henselian"}
        if unknown:
            raise ScenarioError(f"unknown flags: {sorted(unknown)}")
        henselian = flags.get("strictly_henselian", False)
        if not isinstance(henselian, bool):
            raise ScenarioError("flag 'strictly_henselian' must be a boolean")
    scenario = Scenario(d, p, tau, pol, level, henselian, seed)
    scenario.generator()
    if pol is not None and not pol.preserved_by(tau):
        raise ScenarioError("field 'polarization' must be preserved by tau: "
                            "tau^T (J P) tau must equal J P")
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(obj)


class HypothesisInstance(Record):
    """A generated generator, matrix = conjugator @ base @
    conjugator_inverse, checked to satisfy its family's entry
    hypothesis at the family's level."""

    _fields = ("family", "level", "base", "matrix", "conjugator",
               "conjugator_inverse", "residue_char")

    def __init__(self, family: str, level: int, base: IntMatrix, matrix: IntMatrix,
                 conjugator: IntMatrix, conjugator_inverse: IntMatrix,
                 residue_char: int) -> None:
        put = object.__setattr__
        put(self, "family", family)
        put(self, "level", level)
        put(self, "base", base)
        put(self, "matrix", matrix)
        put(self, "conjugator", conjugator)
        put(self, "conjugator_inverse", conjugator_inverse)
        put(self, "residue_char", residue_char)

    @cached_property
    def _generator(self) -> InertiaGenerator:
        return classify(self.matrix, self.residue_char)

    def generator(self) -> InertiaGenerator:
        """The matrix classified at residue_char, kept in the instance
        __dict__ outside the fields; generate_hypothesis_instances
        seeds it with the generator its check classified."""
        return self._generator


@lru_cache(maxsize=None)
def _families() -> Dict[str, Tuple[int, Tuple[IntMatrix, ...], Tuple[int, ...]]]:
    """Per family: its level, the blocks its block sums draw from, and
    the residue characteristics drawn.  Every block fixes a maximal
    isotropic subgroup at the level; neron4a also needs triviality on
    the two-torsion, which among finite-order primitives holds for +-I
    only.  generate_hypothesis_instances checks each instance.

    Built on first use, so loading scenarios does not load catalog.
    """
    from .catalog import (
        IDENTITY_2,
        MINUS_IDENTITY_2,
        ORDER_3,
        ORDER_3_INVERSE,
        ORDER_4,
        ORDER_4_INVERSE,
    )

    return {
        "neron2": (
            2,
            (IDENTITY_2, MINUS_IDENTITY_2, ORDER_4, ORDER_4_INVERSE),
            (0, 3, 5, 7),
        ),
        "neron3": (3, (IDENTITY_2, ORDER_3, ORDER_3_INVERSE), (0, 2, 5, 7)),
        "neron4a": (4, (IDENTITY_2, MINUS_IDENTITY_2), (0, 3, 5, 7)),
        "neron4b": (4, (IDENTITY_2, MINUS_IDENTITY_2), (0, 3, 5, 7)),
        "quartic": (
            2,
            (IDENTITY_2, MINUS_IDENTITY_2, ORDER_4, ORDER_4_INVERSE),
            (0, 3, 5, 7),
        ),
    }


def generate_hypothesis_instances(
    family: str, count: int, d_max: int, seed: int
) -> List[HypothesisInstance]:
    """Instances of one family's hypothesis class, deterministically
    from (family, count, d_max, seed).

    Every instance is classified once, at its residue characteristic
    (each family's characteristics are tame for its block orders), and
    the instance keeps that generator for the suites.  It is checked
    once, on its conjugated matrix, in every interpreter mode: it fixes
    a maximal isotropic subgroup at the level (tau - I squares to 0
    there), and for neron4a it is also trivial on the two-torsion.
    Conjugation by a unimodular matrix keeps both, so the check fails
    only on a wrong family table or a wrong conjugator pair.

    Raises:
      ScenarioError: unknown instance family.
      AssertionError: an instance misses the family's hypothesis.
    """
    from .catalog import block_sum, derive_seed, random_symplectic_conjugate

    families = _families()
    if family not in families:
        raise ScenarioError(
            f"unknown instance family {family!r}; known: {sorted(families)}"
        )
    level, blocks, chars = families[family]
    out: List[HypothesisInstance] = []
    for index in range(count):
        rng = random.Random(derive_seed(seed, index))
        d = rng.randint(1, max(1, d_max))
        base = block_sum([blocks[rng.randrange(len(blocks))] for _ in range(d)])
        p = chars[rng.randrange(len(chars))]
        matrix, u, u_inv = random_symplectic_conjugate(base, rng)
        gen = classify(matrix, p)
        if not gen.fixes_maximal_isotropic(level) or (
            family == "neron4a" and not gen.fixes_all_torsion(2)
        ):
            raise AssertionError(
                f"{family} instance {matrix.to_lists()} misses the family's "
                f"hypothesis at level {level}"
            )
        inst = HypothesisInstance(family, level, base, matrix, u, u_inv, p)
        vars(inst)["_generator"] = gen
        out.append(inst)
    return out
