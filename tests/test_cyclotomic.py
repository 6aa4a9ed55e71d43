import random

import pytest

from monodromy import (
    IntPoly,
    NonCyclotomicFactor,
    compute_R,
    cyclotomic_factor,
    cyclotomic_poly,
    euler_phi,
    exceptional_prime_powers,
    power_membership,
    quasi_unipotence_sweep,
    semistability_degree,
)
from monodromy.cyclotomic import (
    factorize,
    is_prime,
    prime_power_components,
)

from _oracles import naive_cyclotomic_factor, naive_semistability_degree


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(3000):
            expected = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
            assert is_prime(n) == expected, n

    def test_large_primes_and_pseudoprimes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**64 - 59)
        # strong pseudoprimes to several small bases, and a Carmichael number
        for n in (3215031751, 3825123056546413051, 561, 2**64 - 1):
            assert not is_prime(n)

    def test_range(self):
        with pytest.raises(ValueError):
            is_prime(2**64)
        with pytest.raises(ValueError):
            is_prime(-1)


class TestFactorize:
    def test_small(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(97) == ((97, 1),)

    def test_components(self):
        assert prime_power_components(1) == ()
        assert prime_power_components(12) == (4, 3)
        assert prime_power_components(30) == (2, 3, 5)


class TestEulerPhi:
    def test_values(self):
        assert [euler_phi(n) for n in (1, 2, 6, 8, 9, 12)] == [1, 1, 2, 4, 6, 4]


class TestExceptionalPrimePowers:
    # these four sets are the content of the `tables --nk 4` criterion
    def test_literal_members(self):
        assert exceptional_prime_powers(1).members == (1, 2)
        assert exceptional_prime_powers(2).members == (1, 2, 3, 4)
        assert exceptional_prime_powers(3).members == (1, 2, 3, 4, 8)
        assert exceptional_prime_powers(4).members == (1, 2, 3, 4, 5, 8, 9, 16)

    def test_membership_protocol(self):
        s = exceptional_prime_powers(3)
        assert 8 in s and 5 not in s
        # literal membership: composite numbers are never members even
        # when all their prime-power components are
        assert 6 not in exceptional_prime_powers(2)
        assert 24 not in exceptional_prime_powers(3)
        assert len(s) == 5 and list(s) == [1, 2, 3, 4, 8]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            exceptional_prime_powers(0)


class TestCyclotomicInteger:
    # elements of Z[zeta_N] are remainders modulo Phi_N in the power
    # basis, the representation power_membership decides on
    def test_root_of_unity_order(self):
        zeta = IntPoly((0, 1))
        assert zeta**5 % cyclotomic_poly(5) == IntPoly((1,))

    def test_arithmetic_reduces_mod_cyclotomic(self):
        zeta = IntPoly((0, 1))
        # 1 + z + z^2 = 0 in Z[zeta_3]
        total = IntPoly((1,)) + zeta + zeta * zeta
        assert (total % cyclotomic_poly(3)).is_zero()


class TestPowerMembership:
    def test_boundary_witnesses(self):
        # the three sharp memberships the sweep must keep reporting
        assert power_membership(2, 2, 4)
        assert power_membership(4, 2, 2)
        assert power_membership(3, 2, 3)

    def test_prime_root_witness_for_every_member(self):
        for k in (1, 2, 3, 4):
            for q in exceptional_prime_powers(k):
                if q == 1:
                    continue
                l = min(p for p, _ in factorize(q))
                assert power_membership(l, k, q), (k, q)

    def test_nonmembers_fail(self):
        assert not power_membership(5, 1, 5)
        assert not power_membership(3, 2, 2)
        assert not power_membership(7, 3, 7)
        assert not power_membership(2, 1, 4)

    def test_fast_path_matches_direct_computation(self):
        # orders below the degree bound phi(N) <= k are the only ones
        # that can pass for n >= 2; spot check around the cut
        assert power_membership(2, 1, 2)
        assert not power_membership(4, 1, 2)

    def test_trivial_modulus(self):
        assert power_membership(12, 1, 1)


class TestSweep:
    def test_small_sweep_clean(self):
        report = quasi_unipotence_sweep(2, 8, 12)
        assert report.ok and report.violations == ()
        assert report.checked > 0
        assert (2, 2, 4) in report.boundary_memberships
        assert (3, 2, 3) in report.boundary_memberships

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            quasi_unipotence_sweep(0, 5, 5)


class TestSemistabilityDegree:
    def test_compute_R_pinned_values(self):
        assert [compute_R(2, n) for n in (2, 3, 4)] == [4, 3, 2]
        assert compute_R(2, 5) == 1

    def test_unbounded_at_level_one(self):
        cert = semistability_degree(3, 1)
        assert cert.unbounded and cert.degree is None
        assert compute_R(3, 1) is None

    def test_certificates(self):
        cert = semistability_degree(2, 2)
        assert cert.admissible == (1, 2, 4)
        assert cert.degree == 4
        cert = semistability_degree(2, 3)
        assert cert.admissible == (1, 3)
        cert = semistability_degree(1, 2)
        assert cert.admissible == (1, 2) and cert.degree == 2

    def test_degree_is_lcm_of_admissible(self):
        import math

        for k in (1, 2):
            for n in (2, 3, 4, 5):
                cert = semistability_degree(k, n, bound=60)
                assert cert.degree == math.lcm(*cert.admissible)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            semistability_degree(0, 2)
        with pytest.raises(ValueError):
            semistability_degree(2, 3, bound=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_full_range_oracle(self, k):
        for n in range(1, 41):
            for bound in (1, 2, 5, 2 * k * k, 60, 1000):
                cert = semistability_degree(k, n, bound)
                expected = naive_semistability_degree(k, n, bound)
                assert (cert.k, cert.n, cert.bound) == (k, n, bound)
                if expected is None:
                    assert cert.unbounded and cert.degree is None
                    assert cert.admissible == ()
                else:
                    assert not cert.unbounded
                    assert (cert.admissible, cert.degree) == expected, (k, n, bound)

    def test_memoized(self):
        assert semistability_degree(2, 5) is semistability_degree(2, 5)


class TestCyclotomicFactor:
    def test_known_factorizations(self):
        assert cyclotomic_factor(IntPoly((1, 1, 1))) == {3: 1}
        assert cyclotomic_factor(IntPoly((1, -2, 1))) == {1: 2}
        assert cyclotomic_factor(IntPoly((1, 0, 1))) == {4: 1}
        assert cyclotomic_factor(IntPoly((1, -1, 1))) == {6: 1}
        assert cyclotomic_factor(IntPoly((-1, 1))) == {1: 1}

    def test_product_structure(self):
        # (x - 1)(x + 1)(x^2 + 1) = x^4 - 1
        p = IntPoly((-1, 0, 0, 0, 1))
        assert cyclotomic_factor(p) == {1: 1, 2: 1, 4: 1}

    def test_non_cyclotomic_rejected(self):
        with pytest.raises(NonCyclotomicFactor):
            cyclotomic_factor(IntPoly((-2, 0, 1)))  # x^2 - 2

    def test_matches_trial_division_on_intpolys(self):
        # products of cyclotomic polynomials, alone and times a random
        # monic factor, which is cyclotomic only by chance; a refusal
        # must carry the same remainder
        rng = random.Random(26)
        orders = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
        refused = 0
        for _ in range(400):
            p = IntPoly((1,))
            for _ in range(rng.randint(0, 4)):
                p = p * cyclotomic_poly(rng.choice(orders))
            if rng.random() < 0.6:
                p = p * IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
            try:
                expected = naive_cyclotomic_factor(p)
            except NonCyclotomicFactor as exc:
                refused += 1
                with pytest.raises(NonCyclotomicFactor) as caught:
                    cyclotomic_factor(p)
                assert caught.value.remainder == exc.remainder
                assert str(caught.value) == str(exc)
                continue
            assert cyclotomic_factor(p) == expected
        assert 100 < refused < 300
