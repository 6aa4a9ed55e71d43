"""Assembled per-scenario reports with a stable JSON schema.

The schema is fixed: {semistable, potentially_good, min_degree, a, u,
t, phi, phi_prime, torsion, verdicts}.  Reduction invariants are null
when the generator has infinite order; torsion holds one entry per
probed level keyed by the decimal level; verdicts concatenate every
battery that applies, in a fixed order, so identical scenarios always
serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from .inertia import (
    DegreeObstruction,
    HypothesisNotMet,
    InertiaError,
    InertiaGenerator,
    Verdict,
    WildRamification,
    elliptic_criteria,
    exceptional_criterion,
    galois_criterion,
    is_tame,
    level_structure_criterion,
    minimal_semistable_degree,
    purely_additive_criteria,
    quartic_semistability_check,
    raynaud_criterion,
)
from .neron import (
    NotPotentiallyGood,
    neron_invariants,
    neron_torsion,
    verify_neron2,
    verify_neron3,
    verify_neron4,
)
from .scenarios import Scenario

_GATES = (HypothesisNotMet, DegreeObstruction, WildRamification, NotPotentiallyGood)


def _verdict_dict(v: Verdict) -> Dict:
    return {
        "id": v.criterion,
        "hypothesis": v.hypothesis,
        "conclusion": v.conclusion,
        "agree": v.agree,
        "citation": v.citation,
    }


def _default_criterion_level(gen: InertiaGenerator) -> int:
    n = 5
    while not is_tame(gen.residue_char, n):
        n += 1
    return n


def _first_neron4(gen: InertiaGenerator, pol) -> Tuple[Verdict, ...]:
    """The four-torsion clauses under the first quartic hypothesis that
    applies; both certify the same clauses."""
    try:
        return verify_neron4(gen, "a", pol)
    except _GATES:
        return verify_neron4(gen, "b", pol)


def build_report(scenario: Scenario, level: Optional[int] = None) -> Dict:
    """The full analysis of one scenario as a plain JSON-ready dict.

    level overrides the scenario's stored level for the level-bound
    criteria; batteries whose entry hypotheses fail are left out rather
    than reported as errors.

    Raises:
      InertiaError: a level below 2.
    """
    gen = scenario.generator()
    pol = scenario.polarization
    if level is None:
        level = scenario.level
    if level is not None and level < 2:
        raise InertiaError("level must be >= 2")
    criterion_level = level if level is not None else _default_criterion_level(gen)

    report: Dict = {
        "semistable": galois_criterion(gen),
        "potentially_good": gen.potentially_good,
        "min_degree": minimal_semistable_degree(gen),
        "a": None,
        "u": None,
        "t": None,
        "phi": None,
        "phi_prime": None,
        "torsion": {},
        "verdicts": [],
    }

    if gen.potentially_good:
        inv = neron_invariants(gen)
        report["a"] = inv.abelian_rank
        report["u"] = inv.unipotent_rank
        report["t"] = inv.toric_rank
        report["phi"] = list(inv.phi)
        report["phi_prime"] = list(inv.phi_prime)

    p = gen.residue_char
    torsion_levels = sorted({2, 3, 4} | ({level} if level else set()))
    for n in torsion_levels:
        if not is_tame(p, n):
            continue
        # neron_torsion asserts the kernel-count identity against the
        # Neron invariants; with infinite order the divisors give the count
        structure = gen.fixed_structure(n)
        report["torsion"][str(n)] = {
            "fixed_order": (neron_torsion(gen, n).fixed_order if gen.potentially_good
                            else math.prod(structure)),
            "structure": list(structure),
        }

    # Each battery refuses its own entry hypothesis (a wild level, a
    # dimension, an order) by raising one of _GATES, and is then left
    # out.  The functions are looked up on every call, so a wrapper
    # installed on this module's names sees them.
    verdicts: List[Verdict] = []
    for battery, *args in (
        (raynaud_criterion, gen, 3),
        (raynaud_criterion, gen, 4),
        (level_structure_criterion, gen, criterion_level, pol),
        (exceptional_criterion, gen, criterion_level),
        (quartic_semistability_check, gen, pol),
        (elliptic_criteria, gen),
        (purely_additive_criteria, gen),
        (verify_neron2, gen, pol),
        (verify_neron3, gen, pol),
        (_first_neron4, gen, pol),
    ):
        try:
            found = battery(*args)
        except _GATES:
            continue
        verdicts.extend((found,) if isinstance(found, Verdict) else found)

    report["verdicts"] = [_verdict_dict(v) for v in verdicts]
    return report


def canonical_json(obj) -> str:
    """One canonical byte representation per value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: Dict) -> str:
    """Human-oriented rendering of a build_report dict."""
    lines = []
    lines.append(f"semistable:        {report['semistable']}")
    lines.append(f"potentially good:  {report['potentially_good']}")
    lines.append(f"minimal degree:    {report['min_degree']}")
    if report["a"] is not None:
        lines.append(
            f"ranks:             a = {report['a']}, u = {report['u']}, "
            f"t = {report['t']}"
        )
        phi = report["phi"]
        phi_str = " x ".join(f"Z/{q}" for q in phi) if phi else "trivial"
        prime = report["phi_prime"]
        prime_str = " x ".join(f"Z/{q}" for q in prime) if prime else "trivial"
        lines.append(f"components:        {phi_str}")
        lines.append(f"prime-to-p part:   {prime_str}")
    else:
        lines.append("ranks:             not potentially good")
    for n, data in sorted(report["torsion"].items(), key=lambda kv: int(kv[0])):
        structure = data["structure"]
        shape = " x ".join(f"Z/{q}" for q in structure) if structure else "trivial"
        lines.append(
            f"fixed {n}-torsion:   order {data['fixed_order']} ({shape})"
        )
    lines.append("verdicts:")
    for v in report["verdicts"]:
        mark = "ok " if v["agree"] else "DISAGREE"
        lines.append(
            f"  [{mark}] {v['id']}: hypothesis={v['hypothesis']} "
            f"conclusion={v['conclusion']}"
        )
    return "\n".join(lines) + "\n"
