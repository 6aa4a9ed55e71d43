"""The hand-written frozen records behave like the frozen dataclasses
they replaced: every record is checked against its dataclass twin from
_oracles for equality, hashing, repr, immutability and defaults."""

import copy
import os
import pickle

import pytest

from monodromy import IntMatrix, Polarization, TorsionError, classify, standard_module
from monodromy.cohomology import CohomologyAction
from monodromy.cyclotomic import DegreeCertificate, PrimePowerSet, SweepReport
from monodromy.inertia import InertiaGenerator, Verdict
from monodromy.matrices import DimensionError, ModMatrix, SmithDecomposition
from monodromy.neron import NeronInvariants, TorsionReport
from monodromy.polynomials import IntPoly
from monodromy.scenarios import HypothesisInstance, Scenario
from monodromy.suites import SuiteReport
from monodromy.torsion import Subgroup, TorsionModule

from _oracles import RECORD_DECLARATIONS, dataclass_twin, full_subgroup

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

RECORDS = {cls.__name__: cls for cls in (
    IntPoly, SmithDecomposition, PrimePowerSet, SweepReport, DegreeCertificate,
    Subgroup, Polarization, InertiaGenerator, Verdict, NeronInvariants,
    TorsionReport, Scenario, HypothesisInstance, CohomologyAction, SuiteReport,
)}
# the three records that keep a memo in __dict__
WITH_DICT = {"InertiaGenerator", "Scenario", "HypothesisInstance"}


def _samples():
    """Positional argument tuples per record.  The first two of each
    list are equal by value (built from distinct objects where the
    fields are objects); the rest differ from them."""
    shear, shear2 = IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 1], [0, 1]])
    minus = IntMatrix([[-1, 0], [0, -1]])
    ident = IntMatrix([[1, 0], [0, 1]])
    module = standard_module(5, 1)
    full, trivial = full_subgroup(module), module.subgroup([])
    return {
        "IntPoly": [((1, 2),), ((1, 2),), ((),), ((0, 1),)],
        "SmithDecomposition": [((1, 0), shear), ((1, 0), shear2), ((2, 0), shear)],
        "PrimePowerSet": [(2, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3, 4))],
        "SweepReport": [(2, 6, 12, 40, (), ((2, 1, 2),)), (2, 6, 12, 40, (), ((2, 1, 2),)),
                        (2, 6, 12, 40, ((3, 2, 5),), ())],
        "DegreeCertificate": [(2, 3, 1000, (1, 3), 3, False), (2, 3, 1000, (1, 3), 3, False),
                              (1, 1, 1000, (), None, True)],
        "Subgroup": [(module, full.gens), (module, full.gens), (module, trivial.gens)],
        "Polarization": [(ident,), (IntMatrix.identity(2),), (2 * ident,)],
        "InertiaGenerator": [(shear, 0, 1, ((1, 2),), 1, 2, False),
                             (shear2, 0, 1, ((1, 2),), 1, 2, False),
                             (minus, 3, 1, ((2, 2),), 2, None, True)],
        "Verdict": [("raynaud-3", True, True, True, "cite"),
                    ("raynaud-3", True, True, True, "cite", None),
                    ("witness", True, None, True, "cite", full)],
        "NeronInvariants": [(1, 3, 0, 1, 0, (2,), (2,)), (1, 3, 0, 1, 0, (2,), (2,)),
                            (1, 2, 0, 1, 0, (2,), ())],
        "TorsionReport": [(5, 1, (), (), None), (5, 1, (), (), None),
                          (2, 4, (2, 2), (2,), 1)],
        "Scenario": [(1, 3, shear), (1, 3, shear2, None, None, False, 0),
                     (1, 3, shear, Polarization(ident), 5, True, 7)],
        "HypothesisInstance": [("neron2", 5, shear, shear, ident, ident, 0),
                               ("neron2", 5, shear2, shear, ident, ident, 0),
                               ("neron3", 5, shear, shear, ident, ident, 3)],
        "CohomologyAction": [(1, 0, shear, shear), (1, 0, shear2, shear2),
                             (1, 5, shear.reduce_mod(5), shear.reduce_mod(5))],
        "SuiteReport": [("neron2", 4, 1, 2, 10, 0, ()), ("neron2", 4, 1, 2, 10, 0, ()),
                        ("neron2", 4, 1, 2, 10, 1, ("x",))],
    }


SAMPLES = _samples()
NAMES = sorted(RECORDS)


def _names(declaration):
    return tuple(f if isinstance(f, str) else f[0] for f in declaration)


def test_every_record_has_a_twin_and_samples():
    assert set(RECORDS) == set(RECORD_DECLARATIONS) == set(SAMPLES)
    for name in NAMES:
        assert RECORDS[name]._fields == _names(RECORD_DECLARATIONS[name]), name


@pytest.mark.parametrize("name", NAMES)
def test_eq_hash_repr_match_the_twin(name):
    record, twin = RECORDS[name], dataclass_twin(name)
    samples = SAMPLES[name]
    assert record(*samples[0]) == record(*samples[1])
    for a in samples:
        ra, ta = record(*a), twin(*a)
        assert hash(ra) == hash(ta)
        assert repr(ra) == repr(ta)
        for b in samples:
            rb, tb = record(*b), twin(*b)
            assert (ra == rb) == (ta == tb), (a, b)
            assert (ra != rb) == (ta != tb), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_other_classes_are_never_equal(name):
    record, twin = RECORDS[name], dataclass_twin(name)
    args = SAMPLES[name][0]
    r, t = record(*args), twin(*args)
    sub = type("Sub", (record,), {})(*args)
    others = [t, sub, tuple(getattr(r, f) for f in record._fields), None, 0]
    others += [RECORDS[n](*SAMPLES[n][0]) for n in NAMES if n != name]
    for other in others:
        assert r.__eq__(other) is NotImplemented
        assert not r == other and r != other
    # the twin answers the same way against the record and its own subclass
    assert t.__eq__(r) is NotImplemented
    assert type("Sub", (twin,), {})(*args) != t


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_refused_like_the_twin(name):
    record, twin = RECORDS[name], dataclass_twin(name)
    args = SAMPLES[name][-1]
    r, t = record(*args), twin(*args)
    for attr in record._fields + ("not_a_field",):
        for action in (lambda obj: setattr(obj, attr, 1), lambda obj: delattr(obj, attr)):
            with pytest.raises(AttributeError) as got:
                action(r)
            with pytest.raises(AttributeError) as expected:
                action(t)
            assert str(got.value) == str(expected.value)
    assert record(*args) == r and repr(r) == repr(t)


@pytest.mark.parametrize("name", NAMES)
def test_defaults_and_keywords_match_the_twin(name):
    record, twin = RECORDS[name], dataclass_twin(name)
    declaration = RECORD_DECLARATIONS[name]
    required = [f for f in declaration if isinstance(f, str)]
    args = SAMPLES[name][-1]
    shortest = args[:len(required)]
    assert repr(record(*shortest)) == repr(twin(*shortest))
    kwargs = dict(zip(record._fields, args))
    assert record(**kwargs) == record(*args)
    assert repr(record(**kwargs)) == repr(twin(**kwargs))
    with pytest.raises(TypeError):
        record(*args, None)


def _clones(x):
    return (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_like_a_frozen_dataclass(name):
    # every sample, including those holding matrices, modules and subgroups
    for args in SAMPLES[name]:
        r = RECORDS[name](*args)
        for clone in _clones(r):
            assert type(clone) is type(r) and clone == r and repr(clone) == repr(r)
            assert hash(clone) == hash(r)


@pytest.mark.parametrize("value", [
    IntMatrix([[1, -2], [3, 4]]),
    IntMatrix([[7, 0, -1]]),
    ModMatrix(6, [[1, 5], [2, 3]]),
    ModMatrix(5, [], 4),
    standard_module(5, 2),
    TorsionModule(6, 1),
], ids=["int", "int-row", "mod", "mod-zero-rows", "module", "module-gram"])
def test_matrices_and_modules_copy_and_pickle(value):
    # a module's Gram matrix is rebuilt from (level, dimension)
    for clone in _clones(value):
        assert type(clone) is type(value) and clone == value
        assert hash(clone) == hash(value) and repr(clone) == repr(value)
        assert all(getattr(clone, f) == getattr(value, f) for f in type(value).__slots__)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(clone, type(value).__slots__[0], None)


def test_unpickling_goes_through_the_constructor():
    # a payload the constructor refuses is refused on load: column count 0
    payload = pickle.dumps(ModMatrix(5, [], 4), protocol=4)
    assert payload.count(b"K\x04") == 1
    forged = payload.replace(b"K\x04", b"K\x00")
    with pytest.raises(DimensionError):
        pickle.loads(forged)


@pytest.mark.parametrize("name", NAMES)
def test_slots_except_where_a_memo_lives(name):
    r = RECORDS[name](*SAMPLES[name][0])
    assert hasattr(r, "__dict__") == (name in WITH_DICT)


@pytest.mark.parametrize("matrix", [
    IntMatrix([[1, 2, 3], [4, 5, 6]]),
    IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    IntMatrix([[1]]),
    IntMatrix([[1, 2], [2, 4]]),
    IntMatrix([[1, 0], [0, 2]]),
])
def test_polarization_refusal_matches_the_twin(matrix):
    with pytest.raises(TorsionError) as got:
        Polarization(matrix)
    with pytest.raises(TorsionError) as expected:
        dataclass_twin("Polarization")(matrix)
    assert str(got.value) == str(expected.value)


def test_memos_stay_out_of_eq_hash_and_repr():
    tau = IntMatrix([[1, 1], [0, 1]])
    args = (tau, 0, 1, ((1, 2),), 1, 2, False)
    gen, twin = classify(tau), dataclass_twin("InertiaGenerator")(*args)
    gen.fixed_at_level(5)
    gen.displacement_content
    gen.displacement_divisors
    assert gen.__dict__ and gen == InertiaGenerator(*args)
    assert hash(gen) == hash(twin) and repr(gen) == repr(twin)
    scenario = Scenario(1, 0, tau)
    assert scenario.generator() == gen
    assert repr(scenario) == repr(dataclass_twin("Scenario")(1, 0, tau))
    assert scenario == Scenario(1, 0, tau)
    inst_args = ("neron2", 2, tau, tau, IntMatrix.identity(2), IntMatrix.identity(2), 3)
    inst = HypothesisInstance(*inst_args)
    assert inst.generator() == classify(tau, 3) and inst.__dict__
    twin = dataclass_twin("HypothesisInstance")(*inst_args)
    assert inst == HypothesisInstance(*inst_args)
    assert hash(inst) == hash(twin) and repr(inst) == repr(twin)


def test_no_source_file_imports_dataclasses():
    for root, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(root, fname), encoding="utf-8") as fh:
                    assert "dataclasses" not in fh.read(), fname
