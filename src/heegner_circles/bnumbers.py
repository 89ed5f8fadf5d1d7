"""Norm indicators at scale and shifted-pair counting.

A number is a "norm value" for the field when every inert prime divides
it to even order.  This module computes the indicator over ranges, counts
shifted pairs (n, n + h) of norm values, builds the arithmetic
progressions that force both members of a pair into the all-split regime,
and evaluates the sifted counts that split such a progression by the
number of large inert prime factors.

The indicator, r(m) and the sifted counts come from one numpy block sieve over
a linear form a*j + b (`_LinearForm`), with no per-term factorization: the root
of a*j + b = 0 is solved once per prime, modulo its largest power <= top, and the
terms each power divides are a strided slice; `_pair_blocks` walks integer ranges.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

# read prime_table through the module: bench/tracer.py times its build there
from . import quadfield
from .quadfield import Discriminant, IdentityError, chi, chi_table, factorize

#: Integers per block of `_pair_blocks`: on 2 x86-64 vCPUs `count --q 163 --x 10000`
#: peaks at 33.7 MB (39.3 MB at 2^20); the 10^7 curve sieves in 0.04-0.06 s (0.04-0.05 s).
_BLOCK = 1 << 18
#: Terms per block of `_sift`, which tests the roots of up to 6.6*10^5 primes a block:
#: `bnumbers --q 7 --x 1e7 --h 3 --s 2.5` takes 1.2-1.6 s, 46 MB (2.4-4.0 s, 36 MB at 2^18).
_SIFT_BLOCK = 1 << 20


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


class _LinearForm:
    """The terms a*j + b, sieved block by block by a fixed set of primes.

    Two int64 arrays: the primes p <= top that do not divide a (with gcd(a, b)
    = 1 those divide no term), and for each the root r of a*j + b = 0 modulo
    its largest power P <= top.  The root modulo each smaller power p^k is
    r mod p^k, and the terms p^k divides are the strided slice j = r, r + p^k, ...
    """

    def __init__(self, a: int, b: int, primes, top: int) -> None:
        if gcd(a, b) != 1:
            raise IdentityError(f"linear form {a}*j + {b} has a common factor")
        self.a, self.b, self.top = a, b, top
        primes = np.asarray(primes, dtype=np.int64)
        self.primes = primes[(primes <= top) & (a % primes != 0)]
        powers, room = self.primes.copy(), top // self.primes
        while (grow := powers <= room).any():   # P * p itself may pass 2^63
            powers[grow] *= self.primes[grow]
        self.roots = np.fromiter((-b * pow(a, -1, P) % P for P in powers.tolist()),
                                 np.int64, len(powers))

    def values(self, lo: int, n: int) -> np.ndarray:
        """The terms at j = lo, ..., lo + n - 1: int32 when the last is below 2^31, else int64."""
        first = self.a * lo + self.b
        lane = np.int32 if first + self.a * (n - 1) < 1 << 31 else np.int64
        return np.arange(first, first + self.a * n, self.a, dtype=lane)

    def hits(self, lo: int, n: int, keep=True):
        """(p, [(start, p^k), ...]) for each prime of primes[keep] dividing a
        term of the block j in [lo, lo + n): p^k divides exactly the terms at
        offsets start, start + p^k, ... in the block, and the list stops at the
        first power that divides none.  One vectorized test picks the primes
        with a start below n, and only those walk their powers."""
        starts = (self.roots - lo) % self.primes
        hit = (starts < n) & keep
        for p, r, start in zip(self.primes[hit].tolist(), self.roots[hit].tolist(),
                               starts[hit].tolist()):
            slices = [(start, p)]
            pk = p * p
            while pk <= self.top and (start := (r - lo) % pk) < n:
                slices.append((start, pk))
                pk *= p
            yield p, slices


def _odd_exponent(odd: np.ndarray, slices: list[tuple[int, int]], n: int) -> None:
    """Mark in odd the terms of a block of n that one prime divides to odd
    order, from its hits slices [(first, p), (start, p^2), ...]: the parity
    is 1 on each multiple of p and toggled by each higher power."""
    first, p = slices[0]
    if len(slices) == 1:   # p^2 divides no term of the block
        odd[first::p] = True
        return
    parity = np.ones(len(range(first, n, p)), dtype=bool)
    for start, pk in slices[1:]:
        parity[(start - first) // p::pk // p] ^= True
    odd[first::p] |= parity


def _sieving_primes(top: int) -> np.ndarray:
    """The primes up to sqrt(top), for a form over terms <= top.  The table stops at 10^7,
    so past 10^14 a composite cofactor would read as a prime: ValueError instead."""
    if top > quadfield._PRIME_TABLE_LIMIT ** 2:
        raise ValueError(f"largest sieved term {top} exceeds the sieve cap 10^14")
    return quadfield.prime_table(isqrt(top))


def integers_form(top: int) -> _LinearForm:
    """The form m = 1*j + 0 over every prime up to sqrt(top): it sieves any
    block of integers m <= top completely, for the kernels of _pair_blocks."""
    return _LinearForm(1, 0, _sieving_primes(top), top)


def _check_window(kernel: str, form: _LinearForm, lo: int, n: int) -> None:
    if lo < 1 or lo + n - 1 > form.top:
        raise ValueError(f"{kernel} sieves 1 <= m <= {form.top}, not m in [{lo}, {lo + n - 1}]")


def _indicator_block(fld: Discriminant, form: _LinearForm, lo: int, n: int) -> np.ndarray:
    """ind[i] iff lo + i is a norm value, for i < n, in one bool array of
    length n; form is integers_form(top), 1 <= lo and lo + n - 1 <= top.

    Each inert prime p <= sqrt(top) writes the parity of its valuation on its
    multiples.  Write m = l^v c, l the ramified prime, l not dividing c.  As
    m <= top, c has at most one prime P > sqrt(top), to the first power.  (When
    l > sqrt(top), as for q = 43, 67, 163 at tops below q^2, l is no sieving
    prime; if l divides m, then v = 1 and c = m/l < sqrt(top) is fully sieved.)
    So once every small inert exponent is even, chi(c) = chi(P) (chi is
    completely multiplicative), -1 exactly when P exists and is inert.
    chi's period D is 4, 8 or q, a power of l: for b prime to l,
    m = l^v b (mod l^v D) holds exactly when l^v || m and c = b (mod D).  So
    the m with chi(c) = -1 are the disjoint slices m = l^v b (mod l^v D), one
    per level l^v <= lo + n - 1 and residue b with chi(b) = -1: no int64 is built.
    """
    _check_window("_indicator_block", form, lo, n)
    table, odd = chi_table(fld), np.zeros(n, dtype=bool)
    for _, slices in form.hits(lo, n, table[form.primes % len(table)] == -1):
        _odd_exponent(odd, slices, n)
    inert, level = np.flatnonzero(table == -1).tolist(), 1
    while level < lo + n:
        for b in inert:
            odd[(level * b - lo) % (level * len(table))::level * len(table)] = True
        level *= fld.ramified_prime
    return np.logical_not(odd, out=odd)


def _pair_blocks(fld: Discriminant, kernel, lo: int, hi: int, h: int):
    """(start, kernel(m) * kernel(m + h)) for m = start + i in [lo, hi), block by
    block, kernel being _indicator_block or r_count_array, with lo + min(h, 0) >= 1.
    Each integer is sieved once, in blocks of _BLOCK on one integers_form, and
    the last |h| values are carried into the next block: memory is
    O(_BLOCK + |h|) if the consumer drops each block before the next."""
    d, s, top = abs(h), lo + min(h, 0), hi + max(h, 0) - 1
    form = integers_form(top)
    window = np.zeros(0, dtype=bool)   # kernel's values on [s, s + len)
    for b in range(s, top + 1, _BLOCK):
        window = np.concatenate((window, kernel(fld, form, b, min(_BLOCK, top + 1 - b))))
        k = len(window) - d   # the pairs (s + i, s + i + d), i < k, are complete
        if k > 0:
            # the product is symmetric: h < 0 moves only the start, to the larger m
            yield s + d * (h < 0), window[:k] * window[d:]
            window, s = window[k:].copy(), s + k   # the copy lets the block go


def norm_indicator_array(fld: Discriminant, limit: int) -> np.ndarray:
    """Boolean array ind[0..limit]: ind[n] iff n >= 1 is a norm value; the
    walker at shift 0 over the whole range, for tests and the benchmark."""
    if limit < 1:
        raise ValueError("limit >= 1 required")
    blocks = _pair_blocks(fld, _indicator_block, 1, limit + 1, 0)
    return np.concatenate([[False], *(ind for _, ind in blocks)])


def r_count_array(fld: Discriminant, form: _LinearForm, lo: int, n: int) -> np.ndarray:
    """r(m), the number of algebraic integers of norm m, for m = lo, ...,
    lo + n - 1 (lo >= 1), in the dtype of form.values: int32 when m < 2^31;
    form is integers_form(top) with top >= lo + n - 1.

    r(m) = unit_count * prod over split p^e || m of (e + 1), and 0 when an
    inert prime divides m to odd order.  Every prime p <= sqrt(top) is
    divided out exactly; a split one multiplies its multiples by e + 1,
    an inert one marks its odd exponents.  What is left of m is 1 or a
    single prime c > sqrt(top), read by the character: split c gives
    2 = 1 + chi(c), inert c gives 0, ramified c gives 1.

    int32 holds it: below 2^31 the divisor count d(m) is at most 1600 (at
    m = 2095133040), so every partial product here is at most
    unit_count * d(m) <= 9600, the walker's r(m) * r(m + h) <= 9600^2 < 2^31,
    and numpy sums int32 in int64.
    """
    _check_window("r_count_array", form, lo, n)
    table = chi_table(fld)
    rem = form.values(lo, n)
    count = np.full(n, fld.unit_count, dtype=rem.dtype)
    odd = np.zeros(n, dtype=bool)
    for p, slices in form.hits(lo, n):
        for start, pk in slices:
            rem[start::pk] //= p
        c = table[p % len(table)]
        if c == 1:
            # p's factor e + 1: 2 on its multiples, then k -> k + 1 on those of p^k
            count[slices[0][0]::p] *= 2
            for k, (start, pk) in enumerate(slices[1:], start=2):
                count[start::pk] //= k
                count[start::pk] *= k + 1
        elif c == -1:
            _odd_exponent(odd, slices, n)
    big = rem > 1
    factor = table[np.remainder(rem, len(table), out=rem)]   # in place: one temporary
    factor *= big
    factor += 1
    count *= factor
    count[odd] = 0
    return count


def shifted_count(fld: Discriminant, x: float, h: int) -> int:
    """Number of n <= x with both n and n + h norm values (n, n + h >= 1)."""
    return _shifted_counts(fld, [x], h)[0]


def _shifted_counts(fld: Discriminant, xs: list[float], h: int) -> list[int]:
    """shifted_count at every x of xs, from one pass of the pair sieve."""
    if not all(1 <= x < math.inf for x in xs):
        raise ValueError("finite x >= 1 required")
    counts = [0] * len(xs)
    blocks = _pair_blocks(fld, _indicator_block, max(1, 1 - h), math.floor(max(xs)) + 1, h)
    for start, pair in blocks:
        for i, x in enumerate(xs):
            counts[i] += int(np.count_nonzero(pair[:max(math.floor(x) + 1 - start, 0)]))
        del pair   # freed before the next block is sieved
    return counts


# ---------------------------------------------------------------------------
# Arithmetic progressions forcing pairs into the all-split regime

@dataclass(frozen=True)
class ProgressionSpec:
    """n = n1 * j + n0 such that n(n + h)/(4^sigma q) is odd, coprime to q,
    and a norm value exactly when both n and n + h are.

    Construction checks, in O(1), that b(n) b(n + h) = b(m1 m2) on every
    term j >= 1, so every spec, however built, is valid.  With d = 4^sigma q,
    m1 = n/d and m2 = n + h, chi(h) = 1 and seven conditions give, for every
    j: d | n; m1 odd (n1/d even, n0/d odd); m2 odd (n1 even, n0 + h odd); and
    gcd(n, n + h) = gcd(n0, h) = 1 (h | n1).  So m1 and m2 are coprime and
    b(m1 m2) = b(m1) b(m2), b being a condition on each prime's exponent;
    and n = 4^sigma q m1 adds to m1 only the ramified prime and an even power
    of 2, so b(n) = b(m1).  Reading b off the sieve forms term by term
    instead would compare b(m1) b(m2) with itself.
    """

    field: Discriminant
    h_original: int
    h_normalized: int
    sigma: int
    n0: int
    n1: int
    negated: bool

    def __post_init__(self) -> None:
        d, h, n0, n1 = self.denominator, self.h_normalized, self.n0, self.n1
        prefix = f"q={self.field.q} h={self.h_original}: "
        if chi(self.field, h) != 1:   # chi(0) = 0: h = 0 stops here, before n1 % h
            raise IdentityError(f"{prefix}chi of the normalized shift {h} is not 1")
        for holds, failure in ((n0 % d == 0, f"{d} does not divide n0={n0}"),
                               (n1 % d == 0, f"{d} does not divide n1={n1}"),
                               (n1 // d % 2 == 0, f"n1/{d} = {n1 // d} is odd"),
                               (n1 % h == 0, f"h={h} does not divide n1={n1}"),
                               (gcd(n0, h) == 1, f"n0={n0} and h={h} share a factor"),
                               (n0 // d % 2 == 1, f"n0/{d} = {n0 // d} is even"),
                               ((n0 + h) % 2 == 1, f"n0 + h = {n0 + h} is even")):
            if not holds:
                raise IdentityError(prefix + failure)

    @property
    def denominator(self) -> int:
        return 4 ** self.sigma * self.field.q

    def term(self, j: int) -> tuple[int, int, int]:
        """(n, m1, m2) at index j, with m1 * m2 = n (n + h) / denominator."""
        n = self.n1 * j + self.n0
        return n, n // self.denominator, n + self.h_normalized


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    p = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * p % m2 * m1) % (m1 * m2)


def build_progression(fld: Discriminant, h: int) -> ProgressionSpec:
    """Normalize the shift and solve the congruences for (n0, n1).

    Powers of the ramified prime are stripped from h (shifting by them is
    absorbed by scaling n), and the sign is flipped when chi(h) = -1, which
    makes chi(h) = +1 since chi(-1) = -1 in every field (for q = 4 and 8 that
    keeps the odd h = 1 mod 4, and h = 1, 3 mod 8).  n0 is the least positive
    solution of:  q odd: n = q (mod q^2 |h|), plus n = 4 (mod 8) when h is
    odd;  q even: n = 4q (mod 4 q^2 |h|).
    """
    if h == 0:
        raise ValueError("shift h must be nonzero")
    q = fld.q
    h_orig = h
    while h % fld.ramified_prime == 0:
        h //= fld.ramified_prime
    negated = chi(fld, h) == -1
    if negated:
        h = -h
    base_mod = q * q * abs(h)
    if q % 2 == 0:
        sigma, n1, n0 = 1, 4 * base_mod, 4 * q   # 4q < 4 q^2 |h| always
    elif h % 2:
        sigma, n1, n0 = 1, 8 * base_mod, _crt(q, base_mod, 4, 8)
    else:
        sigma, n1, n0 = 0, base_mod, q   # q < q^2 |h| always
    return ProgressionSpec(fld, h_orig, h, sigma, n0, n1, negated)


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
    """One block sieve over the terms j <= y of both factors of the reduced
    product: m1 = (n1/4^sigma q) j + n0/4^sigma q and m2 = n1 j + n0 + h.

    Every prime up to sqrt of the top term is divided out exactly, and each
    inert prime power it takes off adds one to the term's inert count; the
    cofactor left in m1 or m2 is 1 or a prime, read by the character table.
    Inert primes enter each factor in pairs (both factors have character
    value +1 along the progression), so every term carries 0, 2, 4, ...
    inert primes with multiplicity; an odd count raises IdentityError.
    The count fits int8: below the cap 10^14 < 2^47 each factor has at most
    46 prime factors, so a term has at most 92 < 127.
    all_split does not depend on z.  fld must be spec's own field.
    """
    if fld != spec.field:
        raise ValueError(f"progression of q={spec.field.q} sifted in q={fld.q}")
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, not {y}")
    Y = int(math.floor(y))
    if Y < 1:
        return SiftedDecomposition(0, 0, 0, 0, 0)
    d = spec.denominator
    top = spec.n1 * Y + spec.n0 + abs(spec.h_normalized)
    primes = _sieving_primes(top)
    table = chi_table(fld)
    forms = (_LinearForm(spec.n1 // d, spec.n0 // d, primes, top),
             _LinearForm(spec.n1, spec.n0 + spec.h_normalized, primes, top))
    counts = np.zeros(7, dtype=np.int64)   # sifted terms by inert count 0..6+
    for lo in range(1, Y + 1, _SIFT_BLOCK):
        n = min(_SIFT_BLOCK, Y + 1 - lo)
        count = np.zeros(n, dtype=np.int8)    # inert primes with multiplicity
        below_z = np.zeros(n, dtype=bool)     # some inert prime < z
        for form in forms:
            rem = form.values(lo, n)
            for p, slices in form.hits(lo, n):
                for start, pk in slices:
                    rem[start::pk] //= p
                if table[p % len(table)] == -1:
                    for start, pk in slices:
                        count[start::pk] += 1
                    if p < z:
                        below_z[slices[0][0]::p] = True
            big, small = rem > 1, rem < z   # read before rem is reduced in place
            big &= table[np.remainder(rem, len(table), out=rem)] == -1
            count += big
            below_z |= big & small
            del rem, big, small   # freed before the next form's terms are built
        odd = np.flatnonzero(count % 2)
        if odd.size:
            j = lo + int(odd[0])
            raise IdentityError(f"q={fld.q} h={spec.h_original} j={j}: "
                                f"odd number of inert primes ({count[odd[0]]})")
        counts += np.bincount(np.minimum(count[~below_z], 6), minlength=7)
    all_split, _, two, _, four, _, deeper = (int(c) for c in counts)
    return SiftedDecomposition(int(counts.sum()), all_split, two, four, deeper)


def b_star_count(fld: Discriminant, spec: ProgressionSpec, y: float) -> int:
    """Indices j <= y whose reduced product has all prime factors split."""
    return _sift(fld, spec, y, math.inf).all_split


def sifted_count(fld: Discriminant, spec: ProgressionSpec, y: float, z: float) -> int:
    """Indices j <= y whose reduced product has no inert prime below z."""
    if not z > 2:   # NaN fails every comparison
        raise ValueError("z > 2 required")
    return _sift(fld, spec, y, z).sifted


def sifted_decomposition(fld: Discriminant, spec: ProgressionSpec,
                         y: float, s: float) -> SiftedDecomposition:
    """Split the sifted count at z = y^(1/s) by the number of inert primes;
    the cut needs 1 < s < inf."""
    if not 1 < s < math.inf:   # NaN fails every comparison
        raise ValueError("1 < s < inf required")
    return _sift(fld, spec, y, y ** (1.0 / s))
