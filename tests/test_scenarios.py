import hashlib
import json

import pytest

from monodromy import (
    HypothesisInstance,
    IntMatrix,
    NotSymplectic,
    Polarization,
    Scenario,
    ScenarioError,
    WildRamification,
    classify,
    generate_hypothesis_instances,
    load_scenario,
    scenario_from_dict,
)
from monodromy.catalog import ORDER_3, ORDER_4, SHEARS
from monodromy.torsion import (
    extend_to_maximal_isotropic,
    fixed_subgroup,
    fixes_pointwise,
    orthogonal_complement,
    standard_module,
)

MINUS = [[-1, 0], [0, -1]]
INSTANCES_SHA256 = "111ebb3bb45f5c7116e308361632f49b0e28f300e4a58e0d19531428e685fe6a"
# symplectic, but it does not commute with P = diag(1, 2, 1, 2), so it
# does not preserve J P
NOT_PRESERVED = {
    "d": 2, "p": 0, "seed": 0, "n": 3,
    "tau": [[9, 4, 0, 8], [-12, -9, -8, 0], [0, 4, 9, -12], [-4, 0, 4, -9]],
    "polarization": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
}


def minimal(**extra):
    obj = {"d": 1, "p": 0, "tau": [[1, 0], [0, 1]], "seed": 0}
    obj.update(extra)
    return obj


class TestScenarioParsing:
    def test_minimal_round_trip(self):
        s = scenario_from_dict(minimal())
        assert s.dimension == 1
        assert s.residue_char == 0
        assert s.tau == IntMatrix.identity(2)
        assert s.polarization is None
        assert s.level is None
        assert not s.strictly_henselian
        assert scenario_from_dict(s.to_json_dict()) == s

    def test_full_round_trip(self):
        obj = minimal(
            tau=MINUS,
            p=3,
            n=5,
            polarization=[[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        )
        obj["polarization"] = [[2, 0], [0, 2]]
        obj["flags"] = {"strictly_henselian": True}
        s = scenario_from_dict(obj)
        assert s.level == 5
        assert s.polarization.degree == 4
        assert s.strictly_henselian
        assert scenario_from_dict(s.to_json_dict()) == s

    def test_generator_is_validated(self):
        with pytest.raises(NotSymplectic):
            scenario_from_dict(minimal(tau=[[2, 0], [0, 1]]))
        with pytest.raises(WildRamification):
            scenario_from_dict(minimal(tau=MINUS, p=2))

    @pytest.mark.parametrize(
        "obj,fragment",
        [
            ([1, 2], "must be a JSON object"),
            ({"p": 0, "tau": [[1, 0], [0, 1]], "seed": 0}, "missing required field 'd'"),
            (minimal(d="one"), "field 'd' must be an integer"),
            (minimal(d=True), "field 'd' must be an integer"),
            (minimal(d=0), "field 'd' must be >= 1"),
            (minimal(p=1), "must be 0 or a prime"),
            ({"d": 1, "p": 0, "seed": 0}, "missing required field 'tau'"),
            (minimal(tau=[]), "nonempty list of rows"),
            (minimal(tau=[[1, "x"], [0, 1]]), "integers only"),
            (minimal(tau=[[1, 0], [0]]), "rows of unequal length"),
            (minimal(tau=[[1]]), "must be 2 x 2 for d = 1"),
            ({"d": 1, "p": 0, "tau": [[1, 0], [0, 1]]}, "missing required field 'seed'"),
            (minimal(polarization=[[1]]), "field 'polarization' must be 2 x 2"),
            (minimal(n=0), "field 'n' must be >= 2"),
            (minimal(flags=[]), "field 'flags' must be an object"),
            (minimal(flags={"fast": True}), "unknown flags"),
            (minimal(flags={"strictly_henselian": 1}), "must be a boolean"),
            (minimal(p=4), "field 'p' must be 0 or a prime"),
            (minimal(p=91), "field 'p' must be 0 or a prime"),
            (minimal(p=2**64 + 13), "field 'p' must be 0 or a prime below 2\\*\\*64"),
            (minimal(polarization=[[0, 0], [0, 0]]), "field 'polarization' must be nonsingular"),
            (minimal(polarization=[[1, 2], [2, 4]]), "field 'polarization' must be nonsingular"),
            (minimal(polarization=[[0, 2], [-2, 0]]),
             "field 'polarization' must induce an alternating form"),
            (minimal(polarization=[[1, 1], [0, 1]]),
             "field 'polarization' must induce an alternating form"),
            (minimal(n=1), "field 'n' must be >= 2"),
            (NOT_PRESERVED, "field 'polarization' must be preserved by tau"),
            (minimal(tau=[[], [1]]), "field 'tau' has rows of unequal length"),
            (minimal(tau=[[]]), "field 'tau' must have nonempty rows"),
            (minimal(tau=[[], []]), "field 'tau' must have nonempty rows"),
            (minimal(polarization=[[]]), "field 'polarization' must have nonempty rows"),
        ],
    )
    def test_rejects_with_named_field(self, obj, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            scenario_from_dict(obj)

    def test_non_scalar_polarization_accepted(self):
        # type (1, 2) at d = 2: J P = [[0, D], [-D, 0]] with D = diag(1, 2)
        pol = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
        tau = [[int(i == j) for j in range(4)] for i in range(4)]
        s = scenario_from_dict(minimal(d=2, tau=tau, polarization=pol))
        assert s.polarization == Polarization(IntMatrix(pol))

    def test_large_prime_accepted(self):
        assert scenario_from_dict(minimal(p=2**61 - 1)).residue_char == 2**61 - 1

    def test_generator_classified_once(self, monkeypatch):
        import monodromy.scenarios as scenarios

        calls = []
        real = scenarios.classify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scenarios, "classify", counting)
        s = scenario_from_dict(minimal(tau=MINUS, p=3))
        before = (repr(s), hash(s))
        assert s.generator() is s.generator()
        assert len(calls) == 1
        assert (repr(s), hash(s)) == before
        assert s == Scenario(1, 3, IntMatrix(MINUS))

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal(tau=MINUS, p=3)))
        s = load_scenario(str(path))
        assert s.tau == IntMatrix(MINUS)

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(bad))


class TestHypothesisInstances:
    FAMILIES = ("neron2", "neron3", "neron4a", "neron4b", "quartic")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_instances_satisfy_contract(self, family):
        instances = generate_hypothesis_instances(family, 8, 2, seed=5)
        assert len(instances) == 8
        for inst in instances:
            assert inst.family == family
            assert inst.matrix == inst.conjugator @ inst.base @ inst.conjugator_inverse
            assert inst.conjugator @ inst.conjugator_inverse == IntMatrix.identity(
                inst.matrix.rows
            )
            gen = classify(inst.matrix, inst.residue_char)
            assert gen.residue_char == inst.residue_char
            assert inst.generator() == gen
            # the hypothesis by its definition: the fixed subgroup of
            # the level-n module, a kernel computed mod n, contains its
            # orthogonal complement, and then its isotropic extension
            # is a maximal isotropic subgroup fixed pointwise
            module = standard_module(inst.level, inst.matrix.rows // 2)
            fix = fixed_subgroup(inst.matrix, module)
            assert orthogonal_complement(fix).is_subgroup_of(fix)
            assert fixes_pointwise(
                inst.matrix.reduce_mod(inst.level), extend_to_maximal_isotropic(fix)
            )

    def test_instances_pinned(self):
        # SHA-256 of every instance of the five families at count 8,
        # d_max 3, seed 5: the draws from the rng and the conjugation
        # stay as they were
        digest = hashlib.sha256()
        for family in self.FAMILIES:
            for inst in generate_hypothesis_instances(family, 8, 3, seed=5):
                digest.update(repr((
                    inst.family, inst.level, inst.base.data, inst.matrix.data,
                    inst.conjugator.data, inst.conjugator_inverse.data,
                    inst.residue_char,
                )).encode())
        assert digest.hexdigest() == INSTANCES_SHA256

    @pytest.mark.parametrize("family,block", [
        ("neron2", ORDER_3), ("neron4a", ORDER_4), ("neron4a", SHEARS[0]),
    ])
    def test_instance_missing_the_hypothesis_is_refused(self, monkeypatch, family, block):
        # (tau - I)^2 is -3 tau for ORDER_3 and -2 tau for ORDER_4, so
        # neither fixes a maximal isotropic subgroup at level 2 resp. 4.
        # The shear does at level 4 ((tau - I)^2 = 0) but moves the
        # two-torsion.  The check is explicit, so it fires under
        # python -O as well.
        import monodromy.scenarios as scenarios

        families = dict(scenarios._families())
        level, _, chars = families[family]
        families[family] = (level, (block,), chars)
        monkeypatch.setattr(scenarios, "_families", lambda: families)
        with pytest.raises(AssertionError, match=f"{family} instance .* level {level}"):
            generate_hypothesis_instances(family, 3, 2, seed=0)

    def test_levels_per_family(self):
        levels = {
            f: generate_hypothesis_instances(f, 1, 1, seed=0)[0].level
            for f in self.FAMILIES
        }
        assert levels == {
            "neron2": 2,
            "neron3": 3,
            "neron4a": 4,
            "neron4b": 4,
            "quartic": 2,
        }

    def test_neron4a_trivial_on_two_torsion(self):
        for inst in generate_hypothesis_instances("neron4a", 10, 2, seed=1):
            displaced = inst.matrix - IntMatrix.identity(inst.matrix.rows)
            assert displaced.reduce_mod(2).is_zero()

    def test_deterministic(self):
        a = generate_hypothesis_instances("neron3", 5, 2, seed=9)
        b = generate_hypothesis_instances("neron3", 5, 2, seed=9)
        assert a == b
        c = generate_hypothesis_instances("neron3", 5, 2, seed=10)
        assert a != c

    def test_unknown_family(self):
        with pytest.raises(ScenarioError, match="unknown instance family"):
            generate_hypothesis_instances("neron5", 1, 1, seed=0)
