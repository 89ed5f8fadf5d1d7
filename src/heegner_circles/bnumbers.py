"""Norm indicators at scale and shifted-pair counting.

A number is a "norm value" for the field when every inert prime divides
it to even order.  This module computes the indicator over ranges with a
segmented sieve, counts shifted pairs (n, n + h) of norm values, builds
the arithmetic progressions that force both members of a pair into the
all-split regime, and evaluates the sifted counts that split such a
progression by the number of large inert prime factors.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .quadfield import (Discriminant, IdentityError, b_indicator, chi,
                        chi_period, chi_table, factorize, _ext_gcd,
                        _primes_up_to)

_SEGMENT = 1 << 20


class Classification(enum.Enum):
    """Multiplicative type of an integer's prime support."""

    ALL_SPLIT = "all-split"
    ALL_INERT = "all-inert"
    MIXED = "mixed"
    UNIT = "unit"   # n = 1: vacuously in both classes, zero inert primes


def classify(fld: Discriminant, n: int) -> Classification:
    """Classify n by its prime divisors; ramified divisors force MIXED."""
    if n < 1:
        raise ValueError("classify expects n >= 1")
    if n == 1:
        return Classification.UNIT
    vals = {chi(fld, p) for p, _ in factorize(n)}
    if vals == {1}:
        return Classification.ALL_SPLIT
    if vals == {-1}:
        return Classification.ALL_INERT
    return Classification.MIXED


def norm_indicator_array(fld: Discriminant, limit: int) -> np.ndarray:
    """Boolean array ind[0..limit]: ind[n] iff n >= 1 is a norm value.

    Segmented: each block tracks the parity of inert-prime valuations by
    toggling multiples of successive prime powers, divides out every small
    prime to expose the (at most one) prime factor above sqrt(limit), and
    classifies that remainder by a character table lookup.
    """
    if limit < 1:
        raise ValueError("limit >= 1 required")
    small = _primes_up_to(isqrt(limit))
    per = chi_period(fld)
    table = chi_table(fld)
    ind = np.ones(limit + 1, dtype=bool)
    ind[0] = False
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        rem = np.arange(lo, hi, dtype=np.int64)
        if lo == 0:
            rem[0] = 1
        block_ok = np.ones(hi - lo, dtype=bool)
        for p in small:
            p = int(p)
            inert = chi(fld, p) == -1
            if inert:
                parity = np.zeros(hi - lo, dtype=bool)
                pj = p
                while pj < hi:
                    start = (-lo) % pj
                    parity[start::pj] ^= True
                    pj *= p
                block_ok &= ~parity
            pj = p
            while pj < hi:
                start = (-lo) % pj
                rem[start::pj] //= p
                pj *= p
        big = rem > 1
        block_ok &= ~(big & (table[rem % per] == -1))
        ind[lo:hi] &= block_ok
    return ind


def shifted_count(fld: Discriminant, x: float, h: int) -> int:
    """Number of n <= x with both n and n + h norm values (n, n + h >= 1)."""
    if x < 1:
        raise ValueError("x >= 1 required")
    X = int(math.floor(x))
    ind = norm_indicator_array(fld, X + max(h, 0))
    lo = max(1, 1 - h)
    return int(np.count_nonzero(ind[lo:X + 1] & ind[lo + h:X + 1 + h]))


# ---------------------------------------------------------------------------
# Arithmetic progressions forcing pairs into the all-split regime

@dataclass(frozen=True)
class ProgressionSpec:
    """n = n1 * j + n0 such that n(n + h)/(4^sigma q) is odd, coprime to q,
    and a norm value exactly when both n and n + h are."""

    field: Discriminant
    h_original: int
    h_normalized: int
    sigma: int
    n0: int
    n1: int
    negated: bool

    @property
    def denominator(self) -> int:
        return 4 ** self.sigma * self.field.q

    def term(self, j: int) -> tuple[int, int, int]:
        """(n, m1, m2) at index j, with m1 * m2 = n (n + h) / denominator."""
        n = self.n1 * j + self.n0
        m2 = n + self.h_normalized
        assert n % self.denominator == 0
        return n, n // self.denominator, m2


def _is_square_mod(a: int, q: int) -> bool:
    a %= q
    return any((m * m - a) % q == 0 for m in range(q))


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    g, p, _ = _ext_gcd(m1, m2)
    assert g == 1
    return (r1 + (r2 - r1) * p % m2 * m1) % (m1 * m2)


def build_progression(fld: Discriminant, h: int) -> ProgressionSpec:
    """Normalize the shift and solve the congruences for (n0, n1).

    Powers of the ramified prime are stripped from h (shifting by them is
    absorbed by scaling n), the sign is flipped if needed to make the
    normalized shift a square residue, and n0 is the least positive
    solution of:  q odd: n = q (mod q^2 |h|), plus n = 4 (mod 8) when h is
    odd;  q even: n = 4q (mod 4 q^2 |h|).
    """
    if h == 0:
        raise ValueError("shift h must be nonzero")
    q = fld.q
    ram = fld.ramified_prime
    h_orig = h
    while h % ram == 0:
        h //= ram
    negated = False
    if q % 2 == 1:
        if not _is_square_mod(h, q):
            h = -h
            negated = True
        assert _is_square_mod(h, q)
        sigma = 1 if h % 2 else 0
        base_mod = q * q * abs(h)
        if sigma:
            n1 = 8 * base_mod
            n0 = _crt(q % base_mod, base_mod, 4, 8)
        else:
            n1 = base_mod
            n0 = q   # q < q^2 |h| always
    else:
        good = (lambda v: v % 4 == 1) if q == 4 else (lambda v: v % 8 in (1, 3))
        if not good(h):
            h = -h
            negated = True
        assert good(h), (q, h_orig)
        sigma = 1
        n1 = 4 * q * q * abs(h)
        n0 = (4 * q) % n1
    spec = ProgressionSpec(fld, h_orig, h, sigma, n0, n1, negated)
    _check_progression(spec)
    return spec


def _check_progression(spec: ProgressionSpec, terms: int = 100) -> None:
    # defining property on the first terms: the pair indicator collapses to
    # a single indicator of the reduced product
    fld = spec.field
    for j in range(1, terms + 1):
        n, m1, m2 = spec.term(j)
        assert gcd(n, n + spec.h_normalized) == 1, (spec, j)
        assert (m1 * m2) % 2 == 1, (spec, j)
        lhs = b_indicator(fld, n) and b_indicator(fld, n + spec.h_normalized)
        rhs = b_indicator(fld, m1 * m2)
        assert lhs == rhs, (spec, j)


@dataclass(frozen=True)
class SieveWindow:
    """The inert primes below z (support of the sifting product)."""

    z: float
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        assert all(p < self.z for p in self.primes)


def sieve_window(fld: Discriminant, z: float) -> SieveWindow:
    if z <= 2:
        raise ValueError("z > 2 required")
    ps = tuple(int(p) for p in _primes_up_to(int(math.ceil(z)))
               if p < z and chi(fld, int(p)) == -1)
    return SieveWindow(z, ps)


@dataclass(frozen=True)
class SiftedDecomposition:
    sifted: int            # terms with no inert prime below z
    all_split: int         # terms with no inert prime at all
    two_large_inert: int   # exactly 2 inert primes, all above z
    four_large_inert: int  # exactly 4 inert primes, all above z
    deeper: int            # 6 or more (expected 0 at tested scales)

    @property
    def exact(self) -> bool:
        return self.sifted == self.all_split + self.two_large_inert + self.four_large_inert


def _sift(fld: Discriminant, spec: ProgressionSpec, y: float, z: float) -> SiftedDecomposition:
    """One pass over the terms j <= y, each factorized once.

    Inert primes enter each factor of the reduced product in pairs (both
    factors have character value +1 along the progression), so every term
    carries 0, 2, 4, ... inert primes with multiplicity; an odd count
    raises IdentityError.  all_split does not depend on z.
    """
    sifted = all_split = two = four = deeper = 0
    for j in range(1, int(math.floor(y)) + 1):
        _, m1, m2 = spec.term(j)
        inert = [p for m in (m1, m2) for p, e in factorize(m)
                 if chi(fld, p) == -1 for _ in range(e)]
        if len(inert) % 2:
            raise IdentityError(f"q={fld.q} h={spec.h_original} j={j}: "
                                f"odd number of inert primes {inert}")
        if any(p < z for p in inert):
            continue
        sifted += 1
        if not inert:
            all_split += 1
        elif len(inert) == 2:
            two += 1
        elif len(inert) == 4:
            four += 1
        else:
            deeper += 1
    return SiftedDecomposition(sifted, all_split, two, four, deeper)


def b_star_count(fld: Discriminant, spec: ProgressionSpec, y: float) -> int:
    """Indices j <= y whose reduced product has all prime factors split."""
    if y < 1:
        return 0
    return _sift(fld, spec, y, math.inf).all_split


def sifted_count(fld: Discriminant, spec: ProgressionSpec, y: float, z: float) -> int:
    """Indices j <= y whose reduced product has no inert prime below z."""
    if z <= 2:
        raise ValueError("z > 2 required")
    return _sift(fld, spec, y, z).sifted


def sifted_decomposition(fld: Discriminant, spec: ProgressionSpec,
                         y: float, s: float) -> SiftedDecomposition:
    """Split the sifted count at z = y^(1/s) by the number of inert primes."""
    return _sift(fld, spec, y, y ** (1.0 / s))
