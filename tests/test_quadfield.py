import cmath
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primerange
from sympy.functions.combinatorial.numbers import kronecker_symbol

from oracles import restricted_elements
from heegner_circles import quadfield
from heegner_circles.bnumbers import norm_indicator_array
from heegner_circles.circles import Radius, brute_force_matrices, enumerate_pairs, radii_up_to
from heegner_circles.halfplane import UnimodularMatrix, apply_mobius, congruence_holds, disc_map
from heegner_circles.quadfield import (CLASS_NUMBER_ONE_Q, AlgebraicInt,
                                       Discriminant, IdentityError, all_fields,
                                       b_indicator, chi, elements_of_norm,
                                       enumerate_norm, factorize, field,
                                       is_probable_prime, kronecker, omega_pair,
                                       r_count, r_star, residue_m,
                                       restricted_angles, v_k, weyl_profile)

QS = CLASS_NUMBER_ONE_Q


def brute_force_is_square(a: int, p: int) -> bool:
    a %= p
    return any((m * m - a) % p == 0 for m in range(p))


class TestField:
    def test_constants(self):
        assert [f.q for f in all_fields()] == list(QS)
        assert field(3).unit_count == 6
        assert field(4).unit_count == 4
        assert all(field(q).unit_count == 2 for q in (7, 8, 11, 19, 43, 67, 163))
        assert field(4).two_mu == field(8).two_mu == 0
        assert all(field(q).two_mu == 1 for q in QS if q % 2)

    def test_rejects_other_q(self):
        with pytest.raises(ValueError):
            field(5)

    def test_z_norm_is_integral(self):
        for f in all_fields():
            assert 4 * f.z_norm == f.q + f.two_mu
            assert abs(abs(f.z) ** 2 - f.z_norm) < 1e-12

    def test_units_have_norm_one(self):
        for f in all_fields():
            us = [AlgebraicInt(u, r, f) for u, r in quadfield._UNIT_COORDS[f.unit_count]]
            assert len(us) == f.unit_count
            assert all(u.norm() == 1 for u in us)
            assert len({(u.u, u.r) for u in us}) == f.unit_count

    def test_ramified_generator(self):
        for f in all_fields():
            assert f.ramified_generator().norm() == f.ramified_prime

    @pytest.mark.parametrize("q,two_mu,units", [(4, 1, 4), (7, 0, 2), (3, 1, 2), (163, 1, 6),
                                                (7, 2, 2), (163, -1, 2)],
                             ids=["q4-two-mu", "q7-two-mu", "q3-units", "q163-units",
                                  "q7-two-mu-2", "q163-two-mu-minus-1"])
    def test_inconsistent_constants_raise(self, q, two_mu, units):
        # q is the only argument, so a field whose constants disagree with q cannot be written
        with pytest.raises(TypeError):
            Discriminant(q, two_mu, units)

    #: q: (z_norm, imag(z) as float.hex, ramified_prime), pinned bit for bit;
    #: real(z) is two_mu / 2 exactly
    DERIVED = {3: (1, "0x1.bb67ae8584caap-1", 3), 4: (1, "0x1.0000000000000p+0", 2),
               7: (2, "0x1.52a7fa9d2f8eap+0", 7), 8: (2, "0x1.6a09e667f3bcdp+0", 2),
               11: (3, "0x1.a887293fd6f34p+0", 11), 19: (5, "0x1.16f8334644df9p+1", 19),
               43: (11, "0x1.a3ad12a1da160p+1", 43), 67: (17, "0x1.05ee68efad48bp+2", 67),
               163: (41, "0x1.988c745f88592p+2", 163)}

    @pytest.mark.parametrize("q", QS)
    def test_field_is_its_q(self, q):
        f = Discriminant(q)
        assert f == field(q)
        assert (f.two_mu, f.unit_count) == quadfield._SHAPES[q]
        z_norm, imag_hex, ramified = self.DERIVED[q]
        assert (f.z_norm, f.ramified_prime) == (z_norm, ramified)
        assert f.z.real.hex() == (f.two_mu / 2.0).hex()
        assert f.z.imag.hex() == imag_hex

    def test_checks_run_under_python_O(self):
        # ValueError, not assert: python -O (asserts stripped) still rejects
        src = os.path.dirname(os.path.dirname(quadfield.__file__))
        prog = ("from heegner_circles.quadfield import AlgebraicInt, Discriminant, field\n"
                "for make in (lambda: Discriminant(5),\n"
                "             lambda: AlgebraicInt(1, 1, field(3)) * AlgebraicInt(1, 1, field(7))):\n"
                "    try:\n"
                "        make()\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", prog], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["q=5 is not a class-number-one discriminant",
                                    "product of elements of q=3 and q=7"]


#: (call, the start of its ValueError message): each argument check of the package
#: that nothing else in the suite reaches
_BELOW = 0.5 - 1j   # a point below the real axis
ARGUMENT_CHECKS = {
    "r_count": (lambda: r_count(field(3), 0), "r_count expects M >= 1"),
    "enumerate_norm": (lambda: enumerate_norm(field(3), 0), "enumerate_norm expects M >= 1"),
    "b_indicator": (lambda: b_indicator(field(3), 0), "b_indicator expects n >= 1"),
    "omega_pair": (lambda: omega_pair(field(3), 0), "omega_pair expects M >= 1"),
    "r_star": (lambda: r_star(field(3), 0), "r_star expects M >= 1"),
    "v_k": (lambda: v_k(field(3), 0, 1), "v_k expects M >= 1"),
    "apply_mobius": (lambda: apply_mobius(UnimodularMatrix(1, 0, 0, 1), _BELOW),
                     "point must lie in the upper half-plane"),
    "disc_map": (lambda: disc_map(field(3), _BELOW), "point must lie in the upper half-plane"),
    "radii_up_to": (lambda: radii_up_to(field(3), 1.0), "x below the minimal radius"),
    "brute_force_matrices": (lambda: brute_force_matrices(Radius(field(3), 10 ** 6 + 1)),
                             "brute-force oracle capped"),
    "norm_indicator_array": (lambda: norm_indicator_array(field(3), 0), "limit >= 1 required"),
}


@pytest.mark.parametrize("name", ARGUMENT_CHECKS)
def test_argument_checks_raise(name):
    call, message = ARGUMENT_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


class TestChi:
    # Kronecker symbol table values derived by quadratic-residue brute force
    @pytest.mark.parametrize("q,n,expect", [
        (3, 3, 0), (3, 2, -1), (3, 7, 1),
        (4, 5, 1), (4, 3, -1), (4, 2, 0),
        (8, 2, 0), (8, 3, 1), (8, 5, -1), (8, 7, -1), (8, 11, 1),
        (11, 2, -1), (11, 3, 1), (11, 5, 1),
    ])
    def test_table(self, q, n, expect):
        assert chi(field(q), n) == expect

    def test_against_qr_brute_force(self):
        primes = [p for p in range(3, 200) if is_probable_prime(p)]
        for f in all_fields():
            for p in primes:
                if p == f.q:
                    assert chi(f, p) == 0
                    continue
                want = 1 if brute_force_is_square(-f.q, p) else -1
                assert chi(f, p) == want, (f.q, p)

    def test_periodicity(self):
        for f in all_fields():
            per = 8 if f.q == 8 else f.q
            for n in range(1, 3 * per):
                assert chi(f, n) == chi(f, n + per)

    @given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
    @settings(max_examples=300, deadline=None)
    def test_completely_multiplicative(self, a, b):
        for f in all_fields():
            assert chi(f, a * b) == chi(f, a) * chi(f, b)

    @given(st.integers(-10 ** 6, 10 ** 12))
    @example(0)
    @example(-1)
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy_kronecker_symbol(self, n):
        # chi reads its table modulo q for every integer n, negative and zero too
        for f in all_fields():
            assert chi(f, n) == kronecker_symbol(-f.q, n), (f.q, n)

    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4))
    @example(0, 0)
    @example(-3, 0)
    @example(-1, -4)
    @example(-5, -8)
    @example(3, -6)
    @example(4, -6)
    @settings(max_examples=1000, deadline=None)
    def test_kronecker_matches_sympy_on_signed_inputs(self, a, n):
        # both signs of a and n, zero and even n: every branch of kronecker
        assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)

    def test_kronecker_bottom_cases(self):
        assert kronecker(1, 0) == 1
        assert kronecker(2, 0) == 0
        assert kronecker(7, 1) == 1


class TestNormForm:
    def test_unit_norm(self):
        for f in all_fields():
            assert AlgebraicInt(1, 0, f).norm() == 1

    def test_examples(self):
        assert AlgebraicInt(1, 1, field(3)).norm() == 3      # 1 + 1 + 1
        assert AlgebraicInt(0, 2, field(11)).norm() == 12    # 4 * |z|^2
        assert AlgebraicInt(0, 1, field(4)).norm() == 1      # z_4 = i

    def test_product_across_fields_raises(self):
        with pytest.raises(ValueError, match="q=3 and q=7"):
            AlgebraicInt(1, 1, field(3)) * AlgebraicInt(1, 1, field(7))
        assert (AlgebraicInt(1, 1, field(7)) * AlgebraicInt(2, 0, field(7))).u == 2

    def test_norm_multiplicative(self):
        f = field(7)
        a, b = AlgebraicInt(3, 2, f), AlgebraicInt(-1, 4, f)
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.conj().norm() == a.norm()
        prod = a * a.conj()
        assert (prod.u, prod.r) == (a.norm(), 0)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_scaled_identity(self, u, r):
        for f in all_fields():
            n4 = (2 * u + f.two_mu * r) ** 2 + f.q * r * r
            assert 4 * AlgebraicInt(u, r, f).norm() == n4


class TestFactorize:
    @pytest.mark.parametrize("n,expect", [
        (1, []),
        (60, [(2, 2), (3, 1), (5, 1)]),
        (999999937, [(999999937, 1)]),   # prime per Miller-Rabin oracle
    ])
    def test_examples(self, n, expect):
        assert factorize(n) == expect

    def test_roundtrip_small(self):
        for n in range(1, 4000):
            m = 1
            for p, e in factorize(n):
                assert is_probable_prime(p)
                m *= p ** e
            assert m == n

    def test_large_semiprime(self):
        # beyond the SPF window: exercises rho and Miller-Rabin
        p, q = 1000003, 10000019
        assert factorize(p * q) == [(p, 1), (q, 1)]
        big = 2 ** 61 - 1   # Mersenne prime
        assert factorize(big) == [(big, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_psi12_is_composite(self):
        # the least strong pseudoprime to the twelve prime bases 2..37
        psi12 = 318665857834031151167461
        assert not is_probable_prime(psi12)
        assert factorize(psi12) == [(399165290221, 1), (798330580441, 1)]

    def test_miller_rabin_limit_raises(self):
        # psi13 is composite and a strong pseudoprime to all thirteen bases 2..41
        psi13 = 3317044064679887385961981
        assert is_probable_prime(psi13 - 2) == isprime(psi13 - 2)
        with pytest.raises(ValueError):
            is_probable_prime(psi13)
        with pytest.raises(ValueError):
            factorize(psi13)

    @given(st.integers(1, 10 ** 12))
    @example(2 ** 21 - 1)
    @example(2 ** 21)
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_factorint(self, n):
        assert factorize(n) == sorted(factorint(n).items())

    @given(st.integers(10 ** 7, 10 ** 9), st.integers(10 ** 7, 10 ** 9), st.integers(1, 1000))
    @settings(max_examples=8, deadline=None)
    def test_matches_sympy_factorint_in_rho_range(self, a, b, c):
        # two prime factors above 10^7, split off by rho
        n = nextprime(a) * nextprime(b) * c
        assert factorize(n) == sorted(factorint(n).items())

    @given(st.one_of(st.integers(-10, 10 ** 6), st.integers(0, 3317044064679887385961980),
                     st.integers(2, 10 ** 23).map(nextprime),
                     st.tuples(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12))
                     .map(lambda t: nextprime(t[0]) * nextprime(t[1]))))
    @example(3215031751)            # strong pseudoprime to bases 2, 3, 5, 7
    @example(3825123056546413051)   # least strong pseudoprime to bases 2..31
    @settings(max_examples=300, deadline=None)
    def test_is_probable_prime_matches_sympy_isprime(self, n):
        assert is_probable_prime(n) == isprime(n)

    @pytest.mark.parametrize("bounds", [(1000, 10 ** 5), (10 ** 5, 1000), (10 ** 8,)],
                             ids=["grow", "prefix", "capped"])
    def test_prime_table_is_exact(self, monkeypatch, bounds):
        # the primes up to min(bound, 10^7), whatever was sieved before
        monkeypatch.setattr(quadfield, "_prime_table", None)
        monkeypatch.setattr(quadfield, "_prime_table_bound", 0)
        for b in bounds:
            assert quadfield.prime_table(b).tolist() == list(primerange(2, min(b, 10 ** 7) + 1))

    def test_eratosthenes_holds_one_copy_of_the_primes(self):
        # the bool sieve and one int64 list of the pi(10^6) = 78498 primes: a
        # second copy of the list would take 10^6 + 16 pi bytes
        tracemalloc.start()
        try:
            primes = quadfield._eratosthenes(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert primes.dtype == np.int64 and len(primes) == 78498
        assert peak <= 10 ** 6 + 12 * len(primes)

    def test_spf_table_holds_the_smallest_prime_factor(self, monkeypatch):
        monkeypatch.setattr(quadfield, "_spf_table", None)
        spf = quadfield._spf((1 << 21) - 1)   # the largest n it serves: the full table
        assert spf.dtype == np.uint16 and len(spf) == 1 << 20
        n = np.arange(1, 1 << 21, 2)          # entry i stands for the odd n = 2i + 1
        for m in [*range(1, 5000, 2), 1447 ** 2, 1439 * 1447, (1 << 21) - 1]:
            assert spf[m >> 1] == (0 if m == 1 or isprime(m) else min(factorint(m))), m
        # entrywise: the least of sympy's primes that divides a composite n, in
        # ascending order, and 0 on 1 and on every odd prime
        want = np.zeros(len(n), dtype=np.int64)
        for p in primerange(3, isqrt(1 << 21) + 1):
            want[(want == 0) & (n % p == 0) & (n != p)] = p
        assert np.array_equal(spf, want)
        primes = np.zeros(1 << 21, dtype=bool)
        primes[list(primerange(3, 1 << 21))] = True
        assert np.array_equal(spf == 0, primes[n] | (n == 1))

    def test_full_spf_table_takes_two_mib(self, monkeypatch):
        # the int32 table of every n <= 2^21 took 8 MiB
        monkeypatch.setattr(quadfield, "_spf_table", None)
        assert quadfield._spf((1 << 21) - 1).nbytes <= 1 << 21

    @pytest.mark.parametrize("k", range(1, 22))
    def test_factorize_at_the_top_of_each_spf_table(self, monkeypatch, k):
        # a cold table of size s = 2^k: the largest odd square and the largest
        # odd semiprime below s, whose least prime factors sit in its top entries
        s = 1 << k
        monkeypatch.setattr(quadfield, "_spf_table", None)
        assert len(quadfield._spf(s - 1)) == s // 2
        r = isqrt(s - 1)
        square = (r if r % 2 else r - 1) ** 2
        semiprime = next((m for m in range(s - 1, 8, -2) if sum(factorint(m).values()) == 2), 1)
        for m in (square, semiprime):
            assert factorize(m) == sorted(factorint(m).items()), m
        assert len(quadfield._spf_table) == s // 2

    def test_factorize_at_each_spf_table_size(self, monkeypatch):
        # ascending n grows the table across every power of two up to its cap
        monkeypatch.setattr(quadfield, "_spf_table", None)
        for k in range(1, 22):
            for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                assert factorize(n) == sorted(factorint(n).items()), n

    def test_spf_table_grows_to_the_next_power_of_two(self, monkeypatch):
        monkeypatch.setattr(quadfield, "_spf_table", None)
        sizes, largest = [], 0
        for n in (1, 3, 2, 7, 8, 100, 64, 1000, 5000, 4096, 70000, 1 << 20, (1 << 21) - 1, 9):
            largest = max(largest, n)
            size = 2 * len(quadfield._spf(n))   # the table serves every n < size
            # a power of two above the largest n so far, at most twice it
            assert size & (size - 1) == 0 and largest < size <= min(1 << 21, 2 * largest), n
            if not sizes or sizes[-1] != size:
                sizes.append(size)
        # each build at least doubles the table, so all builds cost under twice the last
        assert sizes[-1] == 1 << 21 and sum(sizes) < 2 * sizes[-1]

    def test_spf_growth_lets_the_old_table_go_first(self, monkeypatch):
        monkeypatch.setattr(quadfield, "_spf_table", None)
        old = weakref.ref(quadfield._spf(100))
        alive_at_build = []
        sieve = quadfield._eratosthenes

        def watched(bound):
            alive_at_build.append(old() is not None)
            return sieve(bound)

        monkeypatch.setattr(quadfield, "_eratosthenes", watched)
        assert len(quadfield._spf(5000)) == 1 << 12
        assert alive_at_build == [False] and old() is None

    @pytest.mark.parametrize("n, entries", [(1 << 20, 1), (3 << 19, 2), ((1 << 21) - 2, 1 << 19)])
    def test_cold_spf_table_is_sized_by_the_odd_part(self, monkeypatch, n, entries):
        # the power of 2 is stripped before the table is read, so it sizes nothing:
        # factorize(2^20) reads no entry and used to build all 2^20 of them
        monkeypatch.setattr(quadfield, "_spf_table", None)
        assert factorize(n) == sorted(factorint(n).items())
        assert len(quadfield._spf_table) == entries

    def test_factorize_never_sieves_the_prime_table(self, monkeypatch):
        monkeypatch.setattr(quadfield, "_prime_table", None)
        monkeypatch.setattr(quadfield, "_prime_table_bound", 0)
        assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
        assert quadfield._prime_table is None

    @pytest.mark.parametrize("n", [2 ** 82, 3 * 3317044064679887385961981], ids=["2^82", "3psi13"])
    def test_rejects_psi13_and_above(self, n):
        with pytest.raises(ValueError, match="exact only below"):
            factorize(n)


class TestRCount:
    @pytest.mark.parametrize("q,M,expect", [
        (4, 1, 4),
        (11, 20, 4), (11, 9, 6),
        (3, 4, 6),       # 6 * (chi(1) + chi(2) + chi(4)) = 6 * (1 - 1 + 1)
    ])
    def test_examples(self, q, M, expect):
        assert r_count(field(q), M) == expect

    def test_matches_enumeration(self):
        for f in all_fields():
            for M in range(1, 10 ** 4 + 1):
                assert r_count(f, M) == len(enumerate_norm(f, M)), (f.q, M)

    def test_divisible_by_unit_count(self):
        for f in all_fields():
            for M in range(1, 200):
                assert r_count(f, M) % f.unit_count == 0 or r_count(f, M) == 0


class TestEnumerateNorm:
    def test_six_units(self):
        els = enumerate_norm(field(3), 1)
        assert len(els) == 6
        assert all(e.norm() == 1 for e in els)

    def test_split_two(self):
        els = enumerate_norm(field(7), 2)
        assert len(els) == 4
        assert {(e.u, e.r) for e in els} == {(0, 1), (-1, 1), (0, -1), (1, -1)}

    def test_inert_empty(self):
        assert enumerate_norm(field(4), 3) == []

    def test_deterministic_order(self):
        els = enumerate_norm(field(3), 49)
        assert [(e.r, e.u) for e in els] == sorted((e.r, e.u) for e in els)

    def test_composition_agrees(self):
        def agree(f, M):
            fast = sorted((e.r, e.u) for e in elements_of_norm(f, M))
            slow = sorted((e.r, e.u) for e in enumerate_norm(f, M))
            assert fast == slow, (f.q, M)
            assert len(fast) == len(set(fast))

        for f in all_fields():
            for M in range(1, 700):
                agree(f, M)
        for f in all_fields():
            # three or more split primes, squares and cubes, one above 700,
            # next to the ramified prime and an inert square
            split = [p for p in range(2, 2000) if is_probable_prime(p) and chi(f, p) == 1]
            inert = next(p for p in range(2, 100) if is_probable_prime(p) and chi(f, p) == -1)
            p1, p2, p3 = split[:3]
            big = next(p for p in split if p > 700)
            for M in (p1 * p2 * p3, p1 ** 2 * p2 * big, p1 ** 3 * p2 ** 2 * big,
                      f.ramified_prime * inert ** 2 * p1 * p2 * big):
                assert sum(1 for p, _ in factorize(M) if chi(f, p) == 1) >= 3
                agree(f, M)

    def test_composition_order(self):
        # units outer, composed base inner: v_k and weyl_profile sum in this order
        assert [(e.u, e.r) for e in elements_of_norm(field(3), 91)] == [
            (11, -6), (10, -1), (9, 1), (5, 6), (6, 5), (1, 9), (-1, 10), (-6, 11),
            (-5, 11), (-9, 10), (-10, 9), (-11, 5), (-11, 6), (-10, 1), (-9, -1),
            (-5, -6), (-6, -5), (-1, -9), (1, -10), (6, -11), (5, -11), (9, -10),
            (10, -9), (11, -5)]


def _split_coords_loop(f, p):
    """(u, r) of the least r >= 1 with 4p - q r^2 a square w^2 of the parity of
    two_mu r: the direct loop _split_coords ran before _quadrant, as its oracle."""
    tm = f.two_mu
    for r in range(1, isqrt(4 * p // f.q) + 1):
        d = 4 * p - f.q * r * r
        w = isqrt(d)
        if w * w == d and (w - tm * r) % 2 == 0:
            return (w - tm * r) // 2, r
    raise AssertionError(f"{p} is not split for q={f.q}")


class TestSplitCoords:
    @pytest.mark.parametrize("q", QS)
    def test_matches_the_direct_loop_below_1e5(self, q, monkeypatch):
        # the element order of every survey and circle rests on this choice
        monkeypatch.setattr(quadfield, "_split_gen_cache", {})
        f = field(q)
        split = [p for p in primerange(3, 10 ** 5) if chi(f, p) == 1]
        assert len(split) > 4000
        for p in split:
            assert quadfield._split_coords(f, p) == _split_coords_loop(f, p), p


class TestUnitBlocks:
    """The congruence condition is a choice of unit blocks; the per-element
    filter and the per-pair loop stay here as oracles."""

    @staticmethod
    def flat(blocks):
        return [el for block in blocks for el in block]

    def test_block_is_one_class(self):
        for f in all_fields():
            for M in range(1, 10 ** 4):
                blocks = quadfield._unit_blocks(f, M)
                assert len(blocks) == (f.unit_count if b_indicator(f, M) else 0), (f.q, M)
                for block in blocks:
                    for (u1, r1), (u2, r2) in itertools.combinations(block, 2):
                        assert congruence_holds(f, r1, u1, r2, u2), (f.q, M)
                        assert (2 * u1 + f.two_mu * r1 - 2 * u2 - f.two_mu * r2) % f.q == 0

    def test_block_filter_is_element_filter(self):
        for f in all_fields():
            for M in range(1, 3 * 10 ** 4):
                els = self.flat(quadfield._unit_blocks(f, M))
                m2 = 2 * residue_m(f, M) if els else 0
                kept = [(u, r) for u, r in els if (2 * u + f.two_mu * r - m2) % f.q == 0]
                assert quadfield._restricted_coords(f, M, None) == kept, (f.q, M)

    def test_block_pairs_are_element_pairs(self):
        for f in all_fields():
            for radius in radii_up_to(f, 2 * 10 ** 4):
                f_minus, f_plus = radius.factors
                seconds = self.flat(quadfield._unit_blocks(f, radius.n_minus, f_minus))
                found = [(r, u, s, t)
                         for u, r in self.flat(quadfield._unit_blocks(f, radius.n_plus, f_plus))
                         if (r, u) > (0, 0)
                         for t, s in seconds if congruence_holds(f, r, u, s, t)]
                assert [p.rust for p in enumerate_pairs(radius)] == sorted(found), radius.two_n


class TestBIndicator:
    def test_two_squares_oracle(self):
        # q = 4: sums of two squares by brute force
        f = field(4)
        for n in range(1, 500):
            brute = any(a * a + b * b == n
                        for a in range(isqrt(n) + 1)
                        for b in range(isqrt(n - a * a) + 1))
            assert b_indicator(f, n) == brute, n

    @pytest.mark.parametrize("q,n,expect", [
        (4, 5, True), (4, 3, False), (4, 9, True), (3, 2, False),
    ])
    def test_examples(self, q, n, expect):
        assert b_indicator(field(q), n) is expect

    def test_agrees_with_r_count(self):
        for f in all_fields():
            for n in range(1, 400):
                assert b_indicator(f, n) == (r_count(f, n) > 0)


class TestOmegaPair:
    def test_examples(self):
        for f in all_fields():
            assert omega_pair(f, 1) == (0, 0)
        assert omega_pair(field(4), 25) == (1, 2)
        # 21 = 3 * 7 over q = 3: the factor 3 ramifies, 7 splits
        assert omega_pair(field(3), 21) == (1, 1)

    def test_sandwich(self):
        # 2^omega <= r_count / unit_count <= 2^Omega on every norm to 1e5
        from heegner_circles.quadfield import chi as chi_fn, factorize as fz, \
            r_count_from_factors
        for f in all_fields():
            for M in range(1, 10 ** 5 + 1):
                fs = fz(M)
                rc = r_count_from_factors(f, fs)
                if rc == 0:
                    continue
                om = sum(1 for p, _ in fs if chi_fn(f, p) == 1)
                big = sum(e for p, e in fs if chi_fn(f, p) == 1)
                assert 2 ** om <= rc // f.unit_count <= 2 ** big, (f.q, M)

    def test_sandwich_via_public_ops(self):
        for f in all_fields():
            for M in range(1, 2000):
                if not b_indicator(f, M):
                    continue
                om, big = omega_pair(f, M)
                ratio = r_count(f, M) // f.unit_count
                assert 2 ** om <= ratio <= 2 ** big, (f.q, M)


class TestResidueClass:
    @pytest.mark.parametrize("q,M,expect", [
        (3, 4, 1),     # 1^2 = 4 mod 3
        (11, 11, 0),
        (8, 6, 2), (8, 14, 2), (8, 8, 0), (8, 2, 0), (8, 9, 1),
        (4, 2, 1), (4, 4, 0), (4, 5, 1),
    ])
    def test_examples(self, q, M, expect):
        assert residue_m(field(q), M) == expect

    def test_least_nonnegative_square_root(self):
        for q in (3, 7, 11, 19, 43, 67, 163):
            f = field(q)
            for M in range(1, 300):
                if not b_indicator(f, M):
                    continue
                m = residue_m(f, M)
                assert 0 <= m < q and (m * m - M) % q == 0
                assert all((k * k - M) % q != 0 for k in range(m))

    def test_non_norm_fails_odd_q(self):
        with pytest.raises(ValueError):
            residue_m(field(3), 2)


class TestRStar:
    @pytest.mark.parametrize("q,M,expect", [
        (3, 3, 6),    # gcd branch: r_star = r_count
        (3, 4, 3),    # coprime branch: half of r_count(4) = 6
        (4, 3, 0),    # not a norm
    ])
    def test_examples(self, q, M, expect):
        assert r_star(field(q), M) == expect

    def test_closed_form_vs_direct(self):
        # r_star itself checks closed-form agreement; drive it over a range
        for f in all_fields():
            for M in range(1, 3000):
                if b_indicator(f, M):
                    rs = r_star(f, M)
                    rc = r_count(f, M)
                    assert rs == (rc if gcd(M, f.q) > 1 else rc // 2)

    def test_restricted_direct_filter(self):
        # independent check against the slow enumeration path
        for f in all_fields():
            for M in range(1, 400):
                if not b_indicator(f, M):
                    continue
                m2 = 2 * residue_m(f, M)
                direct = [a for a in enumerate_norm(f, M)
                          if (a.two_re - m2) % f.q == 0]
                assert len(direct) == r_star(f, M), (f.q, M)
                assert sorted((a.r, a.u) for a in direct) == \
                    sorted((a.r, a.u) for a in restricted_elements(f, M))

    def test_restricted_angles_are_element_angles(self):
        # bit-equal, in element order, including norms with an inert square
        for f in all_fields():
            for M in list(range(1, 300)) + [f.q * 4 * 9 * 25 * 49]:
                assert restricted_angles(f, M) == \
                    [a.angle() for a in restricted_elements(f, M)], (f.q, M)

    def test_closed_form_mismatch_raises(self, monkeypatch):
        # an IdentityError, not an assert, so the check survives python -O
        original = quadfield.r_count_from_factors
        monkeypatch.setattr(quadfield, "r_count_from_factors",
                            lambda fld, fs: original(fld, fs) + 1)
        with pytest.raises(IdentityError):
            r_star(field(3), 21)   # gcd branch: closed form is r_count itself


def exp_weyl_sum(angs, k):
    """|sum of e^{ik theta}| / N with one cmath.exp per term: the oracle of the
    library's one Weyl sum, quadfield._weyl_sums, which multiplies unit phases."""
    return abs(sum(cmath.exp(1j * k * a) for a in angs)) / len(angs) if angs else 0.0


class TestWeylSums:
    def test_unit_norm_all_k(self):
        for q in (7, 11, 19, 43, 67, 163):
            f = field(q)
            assert r_star(f, 1) == 1
            for k in range(0, 13):
                assert abs(v_k(f, 1, k) - 1.0) < 1e-12

    def test_odd_k_vanishes_q4(self):
        f = field(4)
        for M in range(1, 200):
            if b_indicator(f, M):
                for k in (1, 3, 5, 7, 9):
                    assert v_k(f, M, k) <= 1e-12

    def test_k_not_multiple_of_three_vanishes_q3(self):
        f = field(3)
        for M in range(1, 200):
            if b_indicator(f, M):
                for k in (1, 2, 4, 5, 7, 8):
                    assert v_k(f, M, k) <= 1e-12

    def test_value_q3_M4_k3(self):
        # three elements at arguments pi/3, -pi/3, pi
        assert abs(v_k(field(3), 4, 3) - 1.0) < 1e-12

    def test_symmetric_in_k(self):
        for q in (3, 8, 11):
            f = field(q)
            for M in (4, 9, 12, 25):
                if b_indicator(f, M):
                    for k in range(1, 8):
                        assert abs(v_k(f, M, k) - v_k(f, M, -k)) < 1e-12

    def test_in_unit_interval(self):
        for f in all_fields():
            for M in range(1, 120):
                if b_indicator(f, M):
                    for k in range(1, 9):
                        assert -1e-12 <= v_k(f, M, k) <= 1 + 1e-12

    def test_multiplicative_on_coprime_norms(self):
        for f in all_fields():
            norms = [M for M in range(1, 160) if b_indicator(f, M)]
            pairs = [(a, b) for a in norms for b in norms if a < b and gcd(a, b) == 1]
            for M1, M2 in pairs[::7]:
                for k in range(1, 13):
                    lhs = v_k(f, M1 * M2, k)
                    rhs = v_k(f, M1, k) * v_k(f, M2, k)
                    assert abs(lhs - rhs) <= 1e-9, (f.q, M1, M2, k)

    def test_ramified_power_stability(self):
        # exponents >= 1: stable for every k; including the empty power
        # only when the full unit group acts trivially on e^{ik theta}
        for f in all_fields():
            p0 = f.ramified_prime
            for k in range(1, 13):
                vals = [v_k(f, p0 ** a, k) for a in (1, 2, 3)]
                assert max(vals) - min(vals) <= 1e-12, (f.q, k, vals)
                if k % f.unit_count == 0:
                    assert abs(v_k(f, 1, k) - vals[0]) <= 1e-12

    def test_profile_matches_single_queries(self):
        # each entry of the composed profile against its own exponential sum
        worst = 0.0
        for f in all_fields():
            for M in range(1, 300):
                angs = restricted_angles(f, M)
                prof = weyl_profile(f, M, 24)
                assert len(prof) == 24
                for k in range(1, 25):
                    worst = max(worst, abs(prof[k - 1] - exp_weyl_sum(angs, k)))
        assert worst < 1e-12

    def test_v_k_reads_the_profile(self):
        # one Weyl sum: v_k is the profile's last entry, bit for bit
        for f in all_fields():
            for M in range(1, 300):
                prof = weyl_profile(f, M, 24)
                for k in range(1, 25):
                    assert v_k(f, M, k) == prof[k - 1], (f.q, M, k)
                    assert v_k(f, M, -k) == prof[k - 1], (f.q, M, -k)

    def test_v_0_is_the_norm_indicator(self):
        for f in all_fields():
            for M in range(1, 120):
                assert v_k(f, M, 0) == (1.0 if b_indicator(f, M) else 0.0), (f.q, M)

    def test_off_a_norm(self):
        # 3 is inert in Z[i]: no element, so every sum is zero by definition
        f = field(4)
        assert restricted_angles(f, 3) == []
        for k in (1, 2, 5, -3):
            assert v_k(f, 3, k) == 0.0
        assert weyl_profile(f, 3, 6) == [0.0] * 6
