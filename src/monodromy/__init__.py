"""Exact symplectic models of tame inertia on abelian-variety torsion.

The package classifies a quasi-unipotent symplectic integer matrix as
an inertia action, decides semistability and potential good reduction,
computes component-group invariants of the associated special fiber,
and checks the torsion-level criteria that tie the two together.
Everything is exact integer arithmetic; nothing here floats.

Importing the package runs no submodule.  Each exported name is
resolved from its home submodule on first access (PEP 562), and each
submodule is compiled and run only when something first reads from it,
so a command pays only for the modules it uses.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# home submodule -> the names the package exports from it
_EXPORTS = {
    "matrices": (
        "DimensionError",
        "IntMatrix",
        "MatrixError",
        "ModMatrix",
        "SmithDecomposition",
        "char_poly",
        "exterior_power",
        "howell_form",
        "kernel_mod_n",
        "smith_normal_form",
        "standard_symplectic_form",
    ),
    "polynomials": ("IntPoly", "cyclotomic_poly"),
    "cyclotomic": (
        "DegreeCertificate",
        "NonCyclotomicFactor",
        "PrimePowerSet",
        "SweepReport",
        "compute_R",
        "cyclotomic_factor",
        "euler_phi",
        "exceptional_prime_powers",
        "power_membership",
        "quasi_unipotence_sweep",
        "semistability_degree",
    ),
    "torsion": (
        "EnumerationCapError",
        "Polarization",
        "Subgroup",
        "TorsionError",
        "TorsionModule",
        "enumerate_subgroups",
        "extend_to_maximal_isotropic",
        "fixed_subgroup",
        "fixes_pointwise",
        "orthogonal_complement",
        "standard_module",
    ),
    "inertia": (
        "DegreeObstruction",
        "HypothesisNotMet",
        "InertiaError",
        "InertiaGenerator",
        "NotPotentiallySemistable",
        "NotQuasiUnipotent",
        "NotSymplectic",
        "Verdict",
        "WildRamification",
        "classify",
        "elliptic_criteria",
        "exceptional_criterion",
        "find_witness_subgroup",
        "galois_criterion",
        "is_good",
        "is_purely_additive",
        "level_structure_criterion",
        "minimal_semistable_degree",
        "purely_additive_criteria",
        "quartic_semistability_check",
        "raynaud_criterion",
        "semistable_after_extension",
        "square_zero_mod_n",
        "witness_exists",
    ),
    "neron": (
        "NeronInvariants",
        "NotPotentiallyGood",
        "TorsionReport",
        "cokernel_torsion_check",
        "neron_invariants",
        "neron_torsion",
        "verify_neron2",
        "verify_neron3",
        "verify_neron4",
    ),
    "cohomology": (
        "CohomologyAction",
        "PreconditionExcluded",
        "cohomology_action",
        "higher_cohomology_criterion",
        "hk_vanishing",
    ),
    "catalog": (
        "block_sum",
        "catalog_matrices",
        "derive_seed",
        "random_symplectic",
        "random_symplectic_conjugate",
        "symplectic_transvection",
    ),
    "scenarios": (
        "HypothesisInstance",
        "Scenario",
        "ScenarioError",
        "generate_hypothesis_instances",
        "load_scenario",
        "scenario_from_dict",
    ),
    "reports": ("build_report", "canonical_json", "render_text"),
    "suites": ("SUITE_IDS", "SuiteError", "SuiteReport", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _defer(module: str) -> None:
    # Put the submodule in sys.modules and on the package now, and run
    # its code on the first attribute read.  Code that looks a submodule
    # up in sys.modules (tracers, monkeypatching) finds it without this
    # import paying for it.
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    globals()[module] = lazy
    spec.loader.exec_module(lazy)


for _module in _EXPORTS:
    _defer(_module)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
