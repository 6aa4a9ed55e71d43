"""Reports pinned byte for byte, and reports independent of what the
per-generator caches already hold.

golden_reports.json maps "d/index" (position in catalog_matrices(d))
to the SHA-256 of canonical_json + render_text for the scenario
(d, p = 0, tau).  It covers every d = 1 entry and every d = 2 entry
that is not semistable.  The 16 semistable d = 2 entries, which run the
exhaustive witness scan, share one digest, as do the non-semistable
d = 3 entries with conjugates with large entries.
"""

import hashlib
import json
import os
import random

import pytest

from monodromy import (
    InertiaError,
    IntMatrix,
    Polarization,
    Scenario,
    build_report,
    canonical_json,
    classify,
    galois_criterion,
    render_text,
    scenario_from_dict,
)
from monodromy.catalog import catalog_matrices, random_symplectic_conjugate

# SHA-256 over canonical_json of every non-semistable catalog_matrices(3)
# scenario at p = 0 in catalog order, each fifth one (from the first)
# followed by a random_symplectic_conjugate drawn from random.Random(3)
D3_COUNT = 1267
D3_DIGEST = "370dc662df083b8b30ab118d97adb96729a05a9559a5a51eb9298c4b3da894f5"

# SHA-256 over canonical_json + render_text of every semistable
# catalog_matrices(2) scenario at p = 0, in catalog order
D2_SEMISTABLE_COUNT = 16
D2_SEMISTABLE_DIGEST = "9d05f510edc26a90128588c0ce6129a6368e6d69ed8ab7b60b53b17f46130c53"

# Per residue characteristic p: SHA-256 over canonical_json + render_text
# of every catalog_matrices(1) scenario and every non-semistable
# catalog_matrices(2) scenario, in catalog order, each at the default
# level and then at levels 3, 4 and 6.  A scenario that is refused
# contributes "<exception class>: <message>" instead, so the digest pins
# which batteries each tame or wild level gates out as well as the
# refusals themselves.
GATED_COUNT = 116
GATED_LEVELS = (None, 3, 4, 6)
GATED_DIGESTS = {
    2: "8a178543fe2d5b45e7bc7dee19f25f644709e30c90436b21d7f9f2a544e3ec42",
    3: "80b3103db5622c1e736592beb1a99aa0c502b1b589ca567c970c3e3aeee94eb4",
    5: "e47bf84658303920a74386e01ecc3a4b608552644c4be0c0b7141869ae7e5c27",
    7: "a4e66a71d4d85555804780ba6c035835f203fffc6e8a00c516a77f82cd5d19d3",
}

# Per residue characteristic p: SHA-256 over canonical_json + render_text
# of every catalog_matrices(1) scenario under the polarizations 2I and
# 3I, each at the default level and then at level 4, followed by every
# non-semistable catalog_matrices(2) scenario under each polarization in
# POLARIZED_D2 that tau preserves, at the default level.  A refusal
# contributes "<exception class>: <message>" instead.  Degree 2 and 3
# polarizations gate the level-structure battery at even and at
# multiple-of-3 levels (p = 5 has default level 6), and the Neron
# batteries at levels 2 and 3, so gated and ungated batteries both show.
# The digests were taken with the pairing built as a Gram matrix
# J P mod n.  p = 0 and p = 7 agree: no catalog order and no probed
# level is a multiple of 7.
POLARIZED_COUNT = 255
POLARIZED_D1 = (2, 3)
POLARIZED_D2 = (
    ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),
    ((3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)),
    ((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 1, 2)),
)
POLARIZED_DIGESTS = {
    0: "8bfdfabe9b5d68d72690614dfeb653690e60005dbb37b4e23f170fec282714f3",
    5: "8810004d83e98f8b5f2323ab24935d981673959b42ea92680ddecedeb31388e8",
    7: "8bfdfabe9b5d68d72690614dfeb653690e60005dbb37b4e23f170fec282714f3",
}

with open(os.path.join(os.path.dirname(__file__), "golden_reports.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def _bytes(scenario: Scenario) -> str:
    report = build_report(scenario)
    return canonical_json(report) + render_text(report)


def _scenario(key: str) -> Scenario:
    d, index = (int(part) for part in key.split("/"))
    return Scenario(d, 0, catalog_matrices(d)[index])


def test_golden_set_covers_the_fast_catalog():
    assert sum(key.startswith("1/") for key in GOLDEN) == len(catalog_matrices(1))
    assert sum(key.startswith("2/") for key in GOLDEN) == 105


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_digest(key):
    digest = hashlib.sha256(_bytes(_scenario(key)).encode()).hexdigest()
    assert digest == GOLDEN[key]


@pytest.mark.parametrize("key", ["1/0", "1/4", "2/7", "2/9", "2/40"])
def test_cached_generator_never_changes_a_report(key):
    scenario = _scenario(key)
    first = _bytes(scenario)
    assert _bytes(scenario) == first
    fresh = scenario_from_dict(json.loads(json.dumps(scenario.to_json_dict())))
    assert fresh == scenario
    assert _bytes(fresh) == first


def test_non_semistable_d3_reports_match_golden_digest():
    rng = random.Random(3)
    digest = hashlib.sha256()
    taus = [tau for tau in catalog_matrices(3) if not galois_criterion(classify(tau))]
    assert len(taus) == D3_COUNT
    for i, tau in enumerate(taus):
        digest.update(canonical_json(build_report(Scenario(3, 0, tau))).encode())
        if i % 5 == 0:
            conjugate = random_symplectic_conjugate(tau, rng)[0]
            digest.update(canonical_json(build_report(Scenario(3, 0, conjugate))).encode())
    assert digest.hexdigest() == D3_DIGEST


def test_semistable_d2_reports_match_golden_digest():
    digest = hashlib.sha256()
    taus = [tau for tau in catalog_matrices(2) if galois_criterion(classify(tau))]
    assert len(taus) == D2_SEMISTABLE_COUNT
    for tau in taus:
        digest.update(_bytes(Scenario(2, 0, tau)).encode())
    assert digest.hexdigest() == D2_SEMISTABLE_DIGEST


@pytest.mark.parametrize("p", sorted(GATED_DIGESTS))
def test_gated_reports_at_positive_p_match_golden_digest(p):
    taus = [(1, tau) for tau in catalog_matrices(1)] + [
        (2, tau) for tau in catalog_matrices(2) if not galois_criterion(classify(tau))
    ]
    assert len(taus) == GATED_COUNT
    digest = hashlib.sha256()
    for d, tau in taus:
        for level in GATED_LEVELS:
            try:
                report = build_report(Scenario(d, p, tau), level=level)
                out = canonical_json(report) + render_text(report)
            except InertiaError as exc:
                out = f"{type(exc).__name__}: {exc}\n"
            digest.update(out.encode())
    assert digest.hexdigest() == GATED_DIGESTS[p]


@pytest.mark.parametrize("p", sorted(POLARIZED_DIGESTS))
def test_polarized_reports_match_golden_digest(p):
    cases = [
        (Scenario(1, p, tau, Polarization(k * IntMatrix.identity(2))), level)
        for tau in catalog_matrices(1) for k in POLARIZED_D1 for level in (None, 4)
    ]
    pols = [Polarization(IntMatrix(rows)) for rows in POLARIZED_D2]
    cases += [
        (Scenario(2, p, tau, pol), None)
        for tau in catalog_matrices(2) if not galois_criterion(classify(tau))
        for pol in pols if pol.preserved_by(tau)
    ]
    assert len(cases) == POLARIZED_COUNT
    digest = hashlib.sha256()
    for scenario, level in cases:
        try:
            report = build_report(scenario, level=level)
            out = canonical_json(report) + render_text(report)
        except InertiaError as exc:
            out = f"{type(exc).__name__}: {exc}\n"
        digest.update(out.encode())
    assert digest.hexdigest() == POLARIZED_DIGESTS[p]
