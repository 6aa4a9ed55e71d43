import pytest

from monodromy import (
    InertiaError,
    IntMatrix,
    Polarization,
    Scenario,
    build_report,
    canonical_json,
    render_text,
)
from monodromy.catalog import catalog_matrices

MINUS_P3 = Scenario(1, 3, IntMatrix([[-1, 0], [0, -1]]))
SHEAR_P7 = Scenario(1, 7, IntMatrix([[1, 1], [0, 1]]))


class TestBuildReport:
    def test_additive_potentially_good_scenario(self):
        r = build_report(MINUS_P3)
        assert r["semistable"] is False
        assert r["potentially_good"] is True
        assert r["min_degree"] == 2
        assert (r["a"], r["u"], r["t"]) == (0, 1, 0)
        assert r["phi"] == [2, 2]
        assert r["phi_prime"] == [2, 2]
        # level 3 is wild here and must be absent
        assert r["torsion"] == {
            "2": {"fixed_order": 4, "structure": [2, 2]},
            "4": {"fixed_order": 4, "structure": [2, 2]},
        }

    def test_verdict_battery_order(self):
        ids = [v["id"] for v in build_report(MINUS_P3)["verdicts"]]
        assert ids == [
            "raynaud-4",
            "level-structure",
            "exceptional-degree",
            "quartic-semistability",
            "elliptic-a",
            "elliptic-b",
            "elliptic-c",
            "elliptic-d",
            "elliptic-e",
            "elliptic-f",
            "purely-additive-quadratic",
            "purely-additive-cubic",
            "neron2-shape",
            "neron2-index",
            "neron2-good",
            "neron4-structure",
            "neron4-index",
            "neron4-two-torsion",
            "neron4-phi",
            "neron4-good",
            "neron4-additive",
        ]

    def test_infinite_order_nulls(self):
        r = build_report(SHEAR_P7)
        assert r["semistable"] is True
        assert r["potentially_good"] is False
        assert r["min_degree"] == 1
        assert r["a"] is None
        assert r["u"] is None
        assert r["t"] is None
        assert r["phi"] is None
        assert r["phi_prime"] is None
        # torsion still reported through the plain fixed subgroup
        assert r["torsion"]["2"] == {"fixed_order": 2, "structure": [2]}
        ids = [v["id"] for v in r["verdicts"]]
        assert ids == [
            "raynaud-3",
            "raynaud-4",
            "level-structure",
            "exceptional-degree",
            "quartic-semistability",
            "elliptic-a",
            "elliptic-b",
            "elliptic-c",
            "elliptic-d",
            "elliptic-e",
            "elliptic-f",
        ]

    def test_level_override_adds_torsion_entry(self):
        r = build_report(MINUS_P3, level=5)
        assert set(r["torsion"]) == {"2", "4", "5"}
        assert r["torsion"]["5"] == {"fixed_order": 1, "structure": []}

    @pytest.mark.parametrize("level", [1, 0, -3])
    def test_level_below_two_is_refused(self, level):
        # an explicit level, or one stored on the scenario
        with pytest.raises(InertiaError, match="level must be >= 2"):
            build_report(MINUS_P3, level=level)
        with pytest.raises(InertiaError, match="level must be >= 2"):
            build_report(Scenario(1, 3, MINUS_P3.tau, level=level))

    def test_verdict_dicts_have_no_witness_key(self):
        # witnesses are conjugation-dependent; reports stay invariant
        for v in build_report(MINUS_P3)["verdicts"]:
            assert set(v) == {"id", "hypothesis", "conclusion", "agree", "citation"}

    def test_catalog_never_disagrees(self):
        for mat in catalog_matrices(1):
            for p in (0, 5, 7):
                r = build_report(Scenario(1, p, mat))
                for v in r["verdicts"]:
                    assert v["agree"], (mat.data, p, v["id"])


class TestCanonicalJson:
    def test_stable_bytes(self):
        a = canonical_json(build_report(MINUS_P3))
        b = canonical_json(build_report(MINUS_P3))
        assert a == b

    def test_format(self):
        s = canonical_json({"b": 1, "a": [True, None]})
        assert s == '{"a":[true,null],"b":1}\n'

    def test_key_order_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})


class TestRenderText:
    def test_additive_scenario(self):
        text = render_text(build_report(MINUS_P3))
        assert "semistable:        False" in text
        assert "ranks:             a = 0, u = 1, t = 0" in text
        assert "components:        Z/2 x Z/2" in text
        assert "fixed 2-torsion:   order 4 (Z/2 x Z/2)" in text
        assert "DISAGREE" not in text
        assert text.endswith("\n")

    def test_infinite_order_scenario(self):
        text = render_text(build_report(SHEAR_P7))
        assert "ranks:             not potentially good" in text
        assert "minimal degree:    1" in text


class TestNoIsotropicSubgroupBuilt:
    def test_reports_build_no_isotropic_extension(self, monkeypatch):
        # the level-structure, quartic and Neron entry checks ask
        # whether a fixed maximal isotropic subgroup exists, and the
        # torsion table reads every order off the checked Smith form, so
        # no report builds an isotropic extension, asks for a fixed
        # subgroup or takes a Howell form outside the witness scan, with
        # or without a polarization
        import sys

        import monodromy.inertia as inertia
        import monodromy.matrices as matrices
        import monodromy.torsion as torsion

        extend = torsion.extend_to_maximal_isotropic
        howell = matrices.howell_form
        calls, howell_calls, fixed_calls, scanning = [], [], [], []

        def counted_howell(a):
            if not scanning:
                howell_calls.append(a)
            return howell(a)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("monodromy"):
                continue
            if vars(module).get("extend_to_maximal_isotropic") is extend:
                monkeypatch.setattr(module, "extend_to_maximal_isotropic",
                                    lambda s: calls.append(s) or extend(s))
            if vars(module).get("howell_form") is howell:
                monkeypatch.setattr(module, "howell_form", counted_howell)
        fixed_at_level = inertia.InertiaGenerator.fixed_at_level
        monkeypatch.setattr(inertia.InertiaGenerator, "fixed_at_level",
                            lambda g, n: fixed_calls.append(n) or fixed_at_level(g, n))
        # the exhaustive witness scan takes seconds per semistable d = 2
        # report at level 6; no verdict reads its subgroup, only whether
        # there is one, so at d = 2 the image of tau - I (the least
        # witness) stands in for it.  At d = 1 the scan itself runs.
        # Either way the Howell forms taken inside are not counted.
        scan = inertia.find_witness_subgroup

        def witness(gen, n):
            scanning.append(n)
            try:
                if gen.dimension == 1:
                    return scan(gen, n)
                if not inertia.witness_exists(gen, n):
                    return None
                image = (gen.matrix - IntMatrix.identity(gen.rank)).transpose()
                return gen.module(n).subgroup(image.reduce_mod(n).data)
            finally:
                scanning.pop()

        monkeypatch.setattr(inertia, "find_witness_subgroup", witness)
        polarizations = {
            1: Polarization(IntMatrix([[2, 0], [0, 2]])),
            2: Polarization(IntMatrix([
                [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1],
            ])),
        }
        reports = 0
        for d in (1, 2):
            pol = polarizations[d]
            for tau in catalog_matrices(d):
                assert pol.preserved_by(tau)
                for scenario in (Scenario(d, 5, tau), Scenario(d, 5, tau, pol)):
                    for level in (None, 4):
                        build_report(scenario, level)
                        reports += 1
        assert calls == [] and howell_calls == [] and fixed_calls == []
        assert reports == 4 * (len(catalog_matrices(1)) + len(catalog_matrices(2)))


def test_polarized_non_semistable_reports_build_no_module(monkeypatch):
    # with a polarization the level-structure, quartic and Neron entry
    # checks gate on gcd(deg P, n) and read one content: no module is
    # built, at p = 0 (level 5, ungated) or p = 5 (level 6, which the
    # degree 4 gates out).  The default level is 5 or more, so a
    # non-semistable report runs no witness scan
    import monodromy.torsion as torsion
    from monodromy import classify, galois_criterion

    built = []
    init = torsion.TorsionModule.__init__
    monkeypatch.setattr(torsion.TorsionModule, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    torsion.standard_module.cache_clear()
    pol = Polarization(IntMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]))
    reports = 0
    for tau in catalog_matrices(2):
        if galois_criterion(classify(tau)):
            continue
        for p in (0, 5):
            build_report(Scenario(2, p, tau, pol))
            reports += 1
    assert reports == 2 * 105 and built == []
