"""Randomized and exhaustive verification suites.

Every suite decomposes into independent work units.  Unit i draws all
of its randomness from derive_seed(seed, i), and the runner aggregates
results in unit order, so a run is reproducible byte for byte from
(suite, trials, seed, d_max).  A unit returns how many properties it
checked plus a list of human-readable failure strings; any failure
string is a bug in the library, not in the suite.
"""

import random
from typing import Callable, Dict, List, Sequence, Tuple

from ._record import Record
from .catalog import (
    FINITE_ORDER_PRIMITIVES,
    block_sum,
    catalog_matrices,
    derive_seed,
    random_symplectic_conjugate,
)
from .cohomology import hk_vanishing, higher_cohomology_criterion
from .cyclotomic import (
    exceptional_prime_powers,
    power_membership,
    quasi_unipotence_sweep,
)
from .inertia import (
    InertiaError,
    classify,
    galois_criterion,
    raynaud_criterion,
    square_zero_mod_n,
    witness_exists,
)
from .matrices import (
    IntMatrix,
    ModMatrix,
    exterior_power,
    char_poly,
    howell_form,
    kernel_mod_n,
    smith_normal_form,
)
from .neron import (
    cokernel_torsion_check,
    neron_invariants,
    neron_torsion,
    verify_neron2,
    verify_neron3,
    verify_neron4,
)
from .reports import build_report, canonical_json
from .scenarios import Scenario, generate_hypothesis_instances
from .torsion import (
    _fixed_by,
    enumerate_subgroups,
    fixed_subgroup,
    orthogonal_complement,
    standard_module,
)

__all__ = [
    "SuiteError",
    "SuiteReport",
    "SUITE_IDS",
    "run_suite",
]


class SuiteError(ValueError):
    """Unknown suite id or unusable parameters."""


class SuiteReport(Record):
    """Aggregated outcome of one suite run."""

    __slots__ = _fields = ("suite", "trials", "seed", "d_max", "checked", "violations",
                           "failures")

    def __init__(self, suite: str, trials: int, seed: int, d_max: int, checked: int,
                 violations: int, failures: Tuple[str, ...]) -> None:
        put = object.__setattr__
        put(self, "suite", suite)
        put(self, "trials", trials)
        put(self, "seed", seed)
        put(self, "d_max", d_max)
        put(self, "checked", checked)
        put(self, "violations", violations)
        put(self, "failures", failures)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "d_max": self.d_max,
            "checked": self.checked,
            "violations": self.violations,
            "failures": list(self.failures),
            "passed": self.passed,
        }


# A unit runs no randomness of its own: everything it needs is bound
# at build time, including its derived seed.
Unit = Callable[[], Tuple[int, List[str]]]
_MAX_REPORTED = 12


def _trial_suite(check: Callable[[int, int, int], Tuple[int, List[str]]]) -> Callable:
    """A suite of one unit per trial, unit i running check(i, seed, d_max)."""

    def build(trials: int, seed: int, d_max: int) -> List[Unit]:
        return [lambda index=index: check(index, seed, d_max) for index in range(trials)]

    return build


def _fmt(m: IntMatrix) -> str:
    return str([list(row) for row in m.data])


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(seed, index))


def _random_catalog_matrix(rng: random.Random, d_max: int) -> IntMatrix:
    d = rng.randint(1, d_max)
    pool = catalog_matrices(d)
    return random_symplectic_conjugate(pool[rng.randrange(len(pool))], rng)[0]


# ---------------------------------------------------------------------------
# equivalence of the integral and mod-n semistability tests


_EQUIVALENCE_LEVELS = (5, 6, 7, 9, 25)


def _check_mod_n_equivalence(tau: IntMatrix, tag: str) -> Tuple[int, List[str]]:
    gen = classify(tau)
    integral = galois_criterion(gen)
    failures = []
    for n in _EQUIVALENCE_LEVELS:
        if square_zero_mod_n(gen, n) != integral:
            failures.append(
                f"mod-{n} test disagrees with integral test on {tag} "
                f"tau={_fmt(tau)}"
            )
    return len(_EQUIVALENCE_LEVELS), failures


def _build_mod_n_equivalence(trials: int, seed: int, d_max: int) -> List[Unit]:
    units: List[Unit] = []
    for d in range(1, d_max + 1):
        for i, tau in enumerate(catalog_matrices(d)):
            units.append(
                lambda tau=tau, d=d, i=i: _check_mod_n_equivalence(
                    tau, f"catalog d={d} #{i}"
                )
            )

    def random_unit(index: int) -> Tuple[int, List[str]]:
        rng = _trial_rng(seed, index)
        tau = _random_catalog_matrix(rng, d_max)
        return _check_mod_n_equivalence(tau, f"trial {index}")

    units.extend(lambda index=index: random_unit(index) for index in range(trials))
    return units


# ---------------------------------------------------------------------------
# existence of a level-5 witness subgroup vs semistability


def _check_witness(tau: IntMatrix, pairs, tag: str) -> Tuple[int, List[str]]:
    gen = classify(tau)
    integral = galois_criterion(gen)
    fast = witness_exists(gen, 5)
    # tau - I mod 5 once per unit; the scan still tests every pair
    displacement = (tau - IntMatrix.identity(tau.rows)).reduce_mod(5)
    brute = any(
        _fixed_by(displacement, s) and _fixed_by(displacement, complement)
        for s, complement in pairs
    )
    failures = []
    if fast != brute:
        failures.append(
            f"witness shortcut {fast} but exhaustive scan {brute} on {tag} "
            f"tau={_fmt(tau)}"
        )
    if brute != integral:
        failures.append(
            f"witness existence {brute} but semistability {integral} on {tag} "
            f"tau={_fmt(tau)}"
        )
    return 2, failures


def _build_witness_equivalence(trials: int, seed: int, d_max: int) -> List[Unit]:
    # the oracle enumerates every subgroup at level 5, and the
    # enumeration refuses the d = 3 module (about 7.7e10 candidates)
    if d_max > 2:
        raise SuiteError(f"witness-equivalence needs d_max <= 2, got {d_max}")
    units: List[Unit] = []
    # complements are reused across every unit, so pay for them once
    pair_tables = {
        d: tuple(
            (s, orthogonal_complement(s))
            for s in enumerate_subgroups(standard_module(5, d))
        )
        for d in range(1, d_max + 1)
    }
    for d in range(1, d_max + 1):
        for i, tau in enumerate(catalog_matrices(d)):
            units.append(
                lambda tau=tau, d=d, i=i: _check_witness(
                    tau, pair_tables[d], f"catalog d={d} #{i}"
                )
            )

    def random_unit(index: int) -> Tuple[int, List[str]]:
        tau = _random_catalog_matrix(_trial_rng(seed, index), d_max)
        return _check_witness(tau, pair_tables[tau.rows // 2], f"trial {index}")

    units.extend(lambda index=index: random_unit(index) for index in range(trials))
    return units


# ---------------------------------------------------------------------------
# cyclotomic power membership sweep (fixed; ignores trials)


_SWEEP_BOUNDS = (4, 30, 60)
_SWEEP_BOUNDARY = ((2, 2, 4), (4, 2, 2), (3, 2, 3))


def _sweep_unit() -> Tuple[int, List[str]]:
    k_max, n_max, order_max = _SWEEP_BOUNDS
    report = quasi_unipotence_sweep(k_max, n_max, order_max)
    failures = [
        f"membership held at non-exceptional (order, k, n) = {triple}"
        for triple in report.violations
    ]
    checked = report.checked
    for order, k, n in _SWEEP_BOUNDARY:
        checked += 1
        if not power_membership(order, k, n):
            failures.append(
                f"expected boundary membership at (order, k, n) = "
                f"({order}, {k}, {n})"
            )
    return checked, failures


def _build_cyclotomic_sweep(trials: int, seed: int, d_max: int) -> List[Unit]:
    return [_sweep_unit]


# ---------------------------------------------------------------------------
# verdict batteries over generated hypothesis instances


def _verdict_failures(verdicts, tag: str) -> Tuple[int, List[str]]:
    failures = [
        f"{v.criterion} disagrees on {tag}: hypothesis={v.hypothesis} "
        f"conclusion={v.conclusion}"
        for v in verdicts
        if not v.agree
    ]
    return len(verdicts), failures


def _build_family_suite(family: str, verifier) -> Callable:
    def build(trials: int, seed: int, d_max: int) -> List[Unit]:
        instances = generate_hypothesis_instances(family, trials, d_max, seed)

        def unit(index: int) -> Tuple[int, List[str]]:
            inst = instances[index]
            tag = f"{family} instance {index} tau={_fmt(inst.matrix)}"
            gen = inst.generator()
            try:
                verdicts = verifier(gen)
            except Exception as exc:
                return 1, [f"verifier raised on {tag}: {exc}"]
            return _verdict_failures(verdicts, tag)

        return [lambda index=index: unit(index) for index in range(len(instances))]

    return build


def _build_neron4(trials: int, seed: int, d_max: int) -> List[Unit]:
    units: List[Unit] = []
    for family, mode in (("neron4a", "a"), ("neron4b", "b")):
        builder = _build_family_suite(
            family, lambda gen, mode=mode: verify_neron4(gen, mode)
        )
        units.extend(builder(trials, seed, d_max))
    return units


# ---------------------------------------------------------------------------
# cokernel torsion bound for congruences mod ell^m


_COKERNEL_BLOCKS = FINITE_ORDER_PRIMITIVES[:2] + FINITE_ORDER_PRIMITIVES[4:6]


def _build_cokernel_torsion(trials: int, seed: int, d_max: int) -> List[Unit]:
    for block in _COKERNEL_BLOCKS:
        square = (block @ block + IntMatrix.identity(2)).reduce_mod(2)
        if not (square.is_zero()
                or (block - IntMatrix.identity(2)).reduce_mod(2).is_zero()):
            raise AssertionError(
                f"cokernel block {_fmt(block)} fails the mod-2 congruence"
            )

    def unit(index: int) -> Tuple[int, List[str]]:
        rng = _trial_rng(seed, index)
        d = rng.randint(1, d_max)
        blocks = [
            _COKERNEL_BLOCKS[rng.randrange(len(_COKERNEL_BLOCKS))] for _ in range(d)
        ]
        tau = random_symplectic_conjugate(block_sum(blocks), rng)[0]
        tag = f"trial {index} tau={_fmt(tau)}"
        verdict = cokernel_torsion_check(tau, 2, 1, 2)
        failures = []
        if not verdict.hypothesis:
            failures.append(f"constructed congruence not detected on {tag}")
        if not verdict.agree:
            failures.append(f"cokernel bound violated on {tag}")
        return 2, failures

    return [lambda index=index: unit(index) for index in range(trials)]


# ---------------------------------------------------------------------------
# the kernel-count identity, exhaustively over the finite-order catalog


_IDENTITY_LEVELS = tuple(range(2, 10))


def _build_torsion_identity(trials: int, seed: int, d_max: int) -> List[Unit]:
    def unit(tau: IntMatrix, tag: str) -> Tuple[int, List[str]]:
        gen = classify(tau)
        failures = []
        for n in _IDENTITY_LEVELS:
            try:
                # neron_torsion asserts the identity internally; its
                # order and the fixed subgroup read off the Smith form
                # of tau - I are also checked against a kernel
                # computed mod n
                order = neron_torsion(gen, n).fixed_order
                fresh = fixed_subgroup(tau, gen.module(n))
                if gen.fixed_at_level(n) != fresh or order != fresh.order:
                    failures.append(f"fixed order drifted at n={n} on {tag}")
            except AssertionError:
                failures.append(f"kernel-count identity failed at n={n} on {tag}")
        return len(_IDENTITY_LEVELS), failures

    units: List[Unit] = []
    for d in range(1, d_max + 1):
        for i, tau in enumerate(catalog_matrices(d, finite_only=True)):
            units.append(
                lambda tau=tau, d=d, i=i: unit(tau, f"catalog d={d} #{i} tau={_fmt(tau)}")
            )
    return units


# ---------------------------------------------------------------------------
# degree-k cohomology vanishing vs reduction type at d = 2


_COHOMOLOGY_LEVELS = (5, 7, 8, 9)


def _cohomology_cases() -> Tuple[Tuple[int, int], ...]:
    cases = []
    for k in (1, 2, 3):
        excluded = exceptional_prime_powers(k + 1)
        cases.extend((k, n) for n in _COHOMOLOGY_LEVELS if n not in excluded)
    return tuple(cases)


def _check_cohomology(tau: IntMatrix, tag: str) -> Tuple[int, List[str]]:
    gen = classify(tau)
    cases = _cohomology_cases()
    failures = []
    for k, n in cases:
        verdict = higher_cohomology_criterion(gen, k, n)
        if not verdict.agree:
            failures.append(
                f"degree-{k} vanishing mod {n} disagrees with reduction "
                f"side on {tag} tau={_fmt(tau)}"
            )
    return len(cases), failures


def _build_higher_cohomology(trials: int, seed: int, d_max: int) -> List[Unit]:
    units: List[Unit] = [
        lambda tau=tau, i=i: _check_cohomology(tau, f"catalog d=2 #{i}")
        for i, tau in enumerate(catalog_matrices(2))
    ]

    def random_unit(index: int) -> Tuple[int, List[str]]:
        rng = _trial_rng(seed, index)
        pool = catalog_matrices(2)
        tau = random_symplectic_conjugate(pool[rng.randrange(len(pool))], rng)[0]
        return _check_cohomology(tau, f"trial {index}")

    units.extend(lambda index=index: random_unit(index) for index in range(trials))
    return units


# ---------------------------------------------------------------------------
# exact linear algebra properties on random small matrices


def _random_int_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    )


def _brute_kernel_count(m: ModMatrix) -> int:
    n = m.modulus
    count = 0
    vec = [0] * m.cols
    total = n**m.cols
    for code in range(total):
        x = code
        for j in range(m.cols):
            vec[j] = x % n
            x //= n
        if all(
            sum(m.data[i][j] * vec[j] for j in range(m.cols)) % n == 0
            for i in range(m.rows)
        ):
            count += 1
    return count


def _span_count(rows: Sequence[Sequence[int]], cols: int, n: int) -> int:
    seen = {tuple([0] * cols)}
    frontier = [tuple([0] * cols)]
    while frontier:
        base = frontier.pop()
        for row in rows:
            nxt = tuple((base[j] + row[j]) % n for j in range(cols))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def _linalg_unit(index: int, seed: int, d_max: int) -> Tuple[int, List[str]]:
    """Six properties of the normal forms on fresh random inputs.

    All inputs are drawn first, in a fixed order, and each property is
    then checked on its own: one that raises is recorded as that
    property's failure, so a fault in a shared primitive cannot hide
    the other properties."""
    rng = _trial_rng(seed, index)
    checks: List[Tuple[str, Callable[[], bool]]] = []

    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    a = _random_int_matrix(rng, rows, cols)

    def smith_holds() -> bool:
        s = smith_normal_form(a)
        av = (a @ s.v).transpose().data
        qs = s.divisors + (0,) * (a.cols - len(s.divisors))
        return (not any(x % q if q else x for q, col in zip(qs, av) for x in col)
                and abs(s.v.det()) == 1)

    checks.append((f"smith decomposition broken for {_fmt(a)}", smith_holds))

    n = rng.choice((2, 3, 4, 5, 6, 8))
    b = _random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3)).reduce_mod(n)

    def idempotent() -> bool:
        h = howell_form(b)
        return howell_form(h) == h

    checks.append((f"howell form not idempotent for {_fmt(b.lift())} mod {n}", idempotent))
    shuffled = list(b.data)
    rng.shuffle(shuffled)
    extra = []
    for i in range(b.rows):
        for k in range(b.rows):
            if rng.random() < 0.5:
                continue
            c1, c2 = rng.randint(0, n - 1), rng.randint(0, n - 1)
            extra.append(
                tuple(
                    (c1 * b.data[i][j] + c2 * b.data[k][j]) % n
                    for j in range(b.cols)
                )
            )
    same_span = ModMatrix(n, [list(r) for r in shuffled + extra], b.cols)
    checks.append((f"howell form not canonical for {_fmt(b.lift())} mod {n}",
                   lambda: howell_form(same_span) == howell_form(b)))

    size = rng.randint(2, 3)
    x = _random_int_matrix(rng, size, size)
    y = _random_int_matrix(rng, size, size)
    checks.append((
        f"exterior square not multiplicative for {_fmt(x)}, {_fmt(y)}",
        lambda: exterior_power(x @ y, 2) == exterior_power(x, 2) @ exterior_power(y, 2),
    ))

    z = _random_int_matrix(rng, size, size)

    def char_poly_holds() -> bool:
        p = char_poly(z)
        return all(p.evaluate(t) == (IntMatrix.identity(size) * t - z).det()
                   for t in (-2, 0, 1, 3))

    checks.append((f"characteristic polynomial wrong for {_fmt(z)}", char_poly_holds))

    small_n = rng.choice((2, 3, 4))
    km = _random_int_matrix(rng, 2, 2).reduce_mod(small_n)

    def kernel_holds() -> bool:
        ker = kernel_mod_n(km)
        members = not any(
            any(
                sum(km.data[i][j] * ker.data[r][j] for j in range(2)) % small_n
                for i in range(2)
            )
            for r in range(ker.rows)
        )
        return members and _span_count(ker.data, 2, small_n) == _brute_kernel_count(km)

    checks.append((f"kernel wrong for {_fmt(km.lift())} mod {small_n}", kernel_holds))

    failures = []
    for message, holds in checks:
        try:
            if not holds():
                failures.append(message)
        except Exception as exc:
            failures.append(f"{message}: raised {type(exc).__name__}: {exc}")
    return len(checks), failures


# ---------------------------------------------------------------------------
# unipotent actions kill every cohomology degree at every tame level


_VANISHING_LEVELS = tuple(range(2, 31))


def _check_unipotent_vanishing(tau: IntMatrix, tag: str) -> Tuple[int, List[str]]:
    gen = classify(tau)
    failures = []
    checked = 0
    if galois_criterion(gen):
        for k in range(1, gen.rank):
            for n in _VANISHING_LEVELS:
                checked += 1
                if not hk_vanishing(gen, k, n):
                    failures.append(
                        f"semistable action fails degree-{k} vanishing mod {n} "
                        f"on {tag}"
                    )
    return checked, failures


def _check_minus_identity_vanishing(d: int) -> Tuple[int, List[str]]:
    gen = classify(-IntMatrix.identity(2 * d))
    failures = []
    checked = 0
    for k in range(2, 2 * d, 2):
        for n in _VANISHING_LEVELS:
            checked += 1
            if not hk_vanishing(gen, k, n):
                failures.append(
                    f"-I in dimension {d} fails even-degree {k} vanishing mod {n}"
                )
    for k in range(1, 2 * d, 2):
        for n in (5, 7):
            checked += 1
            if hk_vanishing(gen, k, n):
                failures.append(
                    f"-I in dimension {d} claims odd-degree {k} vanishing mod {n}"
                )
    return checked, failures


def _build_unipotent_vanishing(trials: int, seed: int, d_max: int) -> List[Unit]:
    units: List[Unit] = []
    semistable_pools: Dict[int, List[IntMatrix]] = {}
    for d in range(1, d_max + 1):
        pool = semistable_pools[d] = []
        for i, tau in enumerate(catalog_matrices(d)):
            if galois_criterion(classify(tau)):
                pool.append(tau)
                units.append(
                    lambda tau=tau, d=d, i=i: _check_unipotent_vanishing(
                        tau, f"catalog d={d} #{i} tau={_fmt(tau)}"
                    )
                )
        units.append(lambda d=d: _check_minus_identity_vanishing(d))

    def random_unit(index: int) -> Tuple[int, List[str]]:
        rng = _trial_rng(seed, index)
        pool = semistable_pools[rng.randint(1, d_max)]
        base = pool[rng.randrange(len(pool))]
        tau = random_symplectic_conjugate(base, rng)[0]
        return _check_unipotent_vanishing(tau, f"trial {index} tau={_fmt(tau)}")

    units.extend(lambda index=index: random_unit(index) for index in range(trials))
    return units


# ---------------------------------------------------------------------------
# fixed subgroups against brute force, complements against duality


_FIXED_LEVELS = (2, 3, 4, 5)


def _fixed_complement_unit(index: int, seed: int, d_max: int) -> Tuple[int, List[str]]:
    rng = _trial_rng(seed, index)
    tau = _random_catalog_matrix(rng, d_max)
    d = tau.rows // 2
    n = _FIXED_LEVELS[rng.randrange(len(_FIXED_LEVELS))]
    fix = fixed_subgroup(tau, standard_module(n, d))
    comp = orthogonal_complement(fix)
    failures = []
    tag = f"trial {index} n={n} tau={_fmt(tau)}"
    # the fixed points are the kernel of tau - I
    if fix.order != _brute_kernel_count((tau - IntMatrix.identity(2 * d)).reduce_mod(n)):
        failures.append(f"fixed subgroup order disagrees with brute scan on {tag}")
    if fix.order * comp.order != n ** (2 * d):
        failures.append(f"complement duality order identity fails on {tag}")
    if orthogonal_complement(comp) != fix:
        failures.append(f"double complement drifts on {tag}")
    return 3, failures


# ---------------------------------------------------------------------------
# unramified torsion forces semistability; level 2 is genuinely sharp


def _shear_block(m: int, s: int) -> IntMatrix:
    return IntMatrix([[1, m * s], [0, 1]])


def _raynaud_unit(index: int, seed: int, d_max: int) -> Tuple[int, List[str]]:
    rng = _trial_rng(seed, index)
    d = rng.randint(1, d_max)
    m = rng.choice((3, 4, 5))
    blocks = [_shear_block(m, rng.randint(0, 3)) for _ in range(d)]
    tau = random_symplectic_conjugate(block_sum(blocks), rng)[0]
    verdict = raynaud_criterion(classify(tau), m)
    failures = []
    tag = f"trial {index} m={m} tau={_fmt(tau)}"
    if not (verdict.hypothesis and verdict.conclusion and verdict.agree):
        failures.append(f"unramified {m}-torsion did not force semistability on {tag}")
    return 1, failures


def _raynaud_sharpness_unit(d: int) -> Tuple[int, List[str]]:
    gen = classify(-IntMatrix.identity(2 * d))
    verdict = raynaud_criterion(gen, 2)
    failures = []
    if not (verdict.hypothesis and verdict.conclusion is None and verdict.agree):
        failures.append(f"level-2 escape clause misfired in dimension {d}")
    if galois_criterion(gen):
        failures.append(f"-I in dimension {d} wrongly semistable")
    return 2, failures


def _build_raynaud_sharpness(trials: int, seed: int, d_max: int) -> List[Unit]:
    units: List[Unit] = [
        lambda d=d: _raynaud_sharpness_unit(d) for d in range(1, d_max + 1)
    ]
    units.extend(
        lambda index=index: _raynaud_unit(index, seed, d_max)
        for index in range(trials)
    )
    return units


# ---------------------------------------------------------------------------
# rank bounds on the prime-to-p component group


def _component_bound_unit(index: int, seed: int, d_max: int) -> Tuple[int, List[str]]:
    rng = _trial_rng(seed, index)
    d = rng.randint(1, d_max)
    pool = FINITE_ORDER_PRIMITIVES
    base = block_sum([pool[rng.randrange(len(pool))] for _ in range(d)])
    tau = random_symplectic_conjugate(base, rng)[0]
    p = rng.choice((0, 5, 7))
    inv = neron_invariants(classify(tau, p))
    failures = []
    tag = f"trial {index} p={p} tau={_fmt(tau)}"
    u = inv.unipotent_rank
    if sum(1 for q in inv.phi_prime if q % 2 == 0) > 2 * u:
        failures.append(f"two-part of the component group exceeds rank 2u on {tag}")
    if sum(1 for q in inv.phi_prime if q % 3 == 0) > u:
        failures.append(f"three-part of the component group exceeds rank u on {tag}")
    # phi' = phi: classify keeps the order prime to p, and the order kills phi
    if p and any(q % p == 0 for q in inv.phi):
        failures.append(f"the component group has a p-part on {tag}")
    return 3, failures


# ---------------------------------------------------------------------------
# full reports are conjugation invariants


def _conjugation_unit(index: int, seed: int, d_max: int) -> Tuple[int, List[str]]:
    rng = _trial_rng(seed, index)
    d = rng.randint(1, d_max)
    pool = catalog_matrices(d)
    base = pool[rng.randrange(len(pool))]
    conjugate = random_symplectic_conjugate(base, rng)[0]
    p = rng.choice((0, 3, 5, 7))
    failures = []
    tag = f"trial {index} p={p} base={_fmt(base)}"
    try:
        first = build_report(Scenario(dimension=d, residue_char=p, tau=base))
    except InertiaError as exc:
        # a pair the classifier rejects (say a wild residue char) must be
        # rejected identically after conjugation
        try:
            build_report(Scenario(dimension=d, residue_char=p, tau=conjugate))
            failures.append(f"conjugate accepted but base rejected on {tag}")
        except InertiaError as conj_exc:
            if type(conj_exc) is not type(exc):
                failures.append(f"rejection type changed under conjugation on {tag}")
        return 1, failures
    second = build_report(Scenario(dimension=d, residue_char=p, tau=conjugate))
    if canonical_json(first) != canonical_json(second):
        failures.append(f"report changed under conjugation on {tag}")
    return 1, failures


# ---------------------------------------------------------------------------
# registry and runner


_BUILDERS: Dict[str, Callable[[int, int, int], List[Unit]]] = {
    "mod-n-equivalence": _build_mod_n_equivalence,
    "witness-equivalence": _build_witness_equivalence,
    "cyclotomic-sweep": _build_cyclotomic_sweep,
    "neron2": _build_family_suite("neron2", verify_neron2),
    "neron3": _build_family_suite("neron3", verify_neron3),
    "neron4": _build_neron4,
    "cokernel-torsion": _build_cokernel_torsion,
    "torsion-identity": _build_torsion_identity,
    "higher-cohomology": _build_higher_cohomology,
    "linalg-properties": _trial_suite(_linalg_unit),
    "unipotent-vanishing": _build_unipotent_vanishing,
    "fixed-complement": _trial_suite(_fixed_complement_unit),
    "raynaud-sharpness": _build_raynaud_sharpness,
    "component-bound": _trial_suite(_component_bound_unit),
    "conjugation-invariance": _trial_suite(_conjugation_unit),
}

SUITE_IDS: Tuple[str, ...] = tuple(_BUILDERS)


def _run_unit(unit: Unit) -> Tuple[int, List[str]]:
    try:
        return unit()
    except Exception as exc:
        return 1, [f"unit raised {type(exc).__name__}: {exc}"]


def run_suite(
    suite: str,
    trials: int = 200,
    seed: int = 0,
    d_max: int = 2,
) -> SuiteReport:
    """Run one suite to completion and aggregate its units in order.

    Args:
      suite: a member of SUITE_IDS.
      trials: randomized unit count; exhaustive suites ignore it.
      seed: master seed; unit i only ever sees derive_seed(seed, i).
      d_max: largest abelian-variety dimension drawn.
    """
    if suite not in _BUILDERS:
        known = ", ".join(SUITE_IDS)
        raise SuiteError(f"unknown suite '{suite}' (known: {known})")
    if trials < 1:
        raise SuiteError("trials must be >= 1")
    if d_max < 1:
        raise SuiteError("d_max must be >= 1")
    results = [_run_unit(u) for u in _BUILDERS[suite](trials, seed, d_max)]
    checked = sum(c for c, _ in results)
    failures: List[str] = []
    for _, unit_failures in results:
        failures.extend(unit_failures)
    return SuiteReport(
        suite,
        trials,
        seed,
        d_max,
        checked,
        len(failures),
        tuple(failures[:_MAX_REPORTED]),
    )
