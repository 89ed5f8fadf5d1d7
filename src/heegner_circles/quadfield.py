"""Exact arithmetic in the nine imaginary quadratic fields of class number one.

A field is identified by the positive integer q with discriminant -q,
q in {3, 4, 7, 8, 11, 19, 43, 67, 163}.  Its Heegner point is
z_q = mu + i*lambda with mu = 0 (q = 4, 8) or 1/2 (q odd) and
lambda = sqrt(q)/2.  {1, z_q} is an integral basis of the ring of
integers, and every formula here is arranged around the integer identity

    4*N(u + r*z_q) = (2u + two_mu*r)^2 + q*r^2,

so that no rational or floating arithmetic is ever needed for norms,
representation counts, or congruence conditions.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from math import gcd, isqrt

import numpy as np

#: Each field's shape, q: (two_mu, unit_count), read by Discriminant.
_SHAPES = {3: (1, 6), 4: (0, 4), 7: (1, 2), 8: (0, 2), 11: (1, 2), 19: (1, 2),
           43: (1, 2), 67: (1, 2), 163: (1, 2)}
CLASS_NUMBER_ONE_Q = tuple(_SHAPES)


class IdentityError(ArithmeticError):
    """An exact identity the package checks at run time does not hold.

    Raised instead of asserting, so the check still runs under python -O.
    """


@dataclass(frozen=True)
class Discriminant:
    """One of the nine fields: q > 0 with field discriminant -q, which fixes the rest."""

    q: int
    two_mu: int = dc_field(init=False)       # 2*mu, so 0 for q = 4, 8 and 1 otherwise
    unit_count: int = dc_field(init=False)   # number of units in the ring of integers
    z_norm: int = dc_field(init=False)       # |z_q|^2, always an integer: (q + two_mu)/4
    z: complex = dc_field(init=False)        # the Heegner point z_q as binary64 complex
    ramified_prime: int = dc_field(init=False)

    def __post_init__(self) -> None:
        q = self.q
        if q not in CLASS_NUMBER_ONE_Q:
            raise ValueError(f"q={q} is not a class-number-one discriminant")
        two_mu, units = _SHAPES[q]
        object.__setattr__(self, "two_mu", two_mu)
        object.__setattr__(self, "unit_count", units)
        object.__setattr__(self, "z_norm", (q + two_mu) // 4)
        object.__setattr__(self, "z", complex(two_mu / 2.0, math.sqrt(q) / 2.0))
        object.__setattr__(self, "ramified_prime", 2 if q % 2 == 0 else q)

    def ramified_generator(self) -> "AlgebraicInt":
        """An element of norm equal to the ramified prime."""
        if self.q % 2 == 1:
            return AlgebraicInt(-1, 2, self)   # i*sqrt(q) = 2 z_q - 1
        if self.q == 4:
            return AlgebraicInt(1, 1, self)    # 1 + i
        return AlgebraicInt(0, 1, self)        # i*sqrt(2) = z_8


#: (u, r) of the units, keyed by their number, in the order compositions use.
_UNIT_COORDS = {6: ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
                4: ((1, 0), (0, 1), (-1, 0), (0, -1)),
                2: ((1, 0), (-1, 0))}

_FIELDS = {q: Discriminant(q) for q in _SHAPES}


def field(q: int) -> Discriminant:
    try:
        return _FIELDS[q]
    except KeyError:
        raise ValueError(f"q={q} is not one of {CLASS_NUMBER_ONE_Q}") from None


def all_fields() -> list[Discriminant]:
    return [_FIELDS[q] for q in CLASS_NUMBER_ONE_Q]


@dataclass(frozen=True)
class AlgebraicInt:
    """u + r*z_q in the basis {1, z_q} of the ring of integers."""

    u: int
    r: int
    field: Discriminant

    def norm(self) -> int:
        u, r, f = self.u, self.r, self.field
        return u * u + f.two_mu * u * r + f.z_norm * r * r

    def conj(self) -> "AlgebraicInt":
        return AlgebraicInt(self.u + self.field.two_mu * self.r, -self.r, self.field)

    def __mul__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        f = self.field
        if f is not other.field and f != other.field:
            raise ValueError(f"product of elements of q={f.q} and q={other.field.q}")
        return AlgebraicInt(*_mul((self.u, self.r), (other.u, other.r), f.z_norm, f.two_mu), f)

    @property
    def two_re(self) -> int:
        """2 * Re(u + r z_q), an exact integer."""
        return 2 * self.u + self.field.two_mu * self.r

    def angle(self) -> float:
        """Principal argument of the element as a point of the complex plane."""
        return math.atan2(self.r * math.sqrt(self.field.q), self.two_re)


def _mul(a: tuple[int, int], b: tuple[int, int], zn: int, tm: int) -> tuple[int, int]:
    """(u, r) of the product of u1 + r1 z and u2 + r2 z, with z^2 = tm*z - zn."""
    return (a[0] * b[0] - a[1] * b[1] * zn, a[0] * b[1] + b[0] * a[1] + tm * a[1] * b[1])


# ---------------------------------------------------------------------------
# Kronecker symbol and the field character chi_q = (-q / .)

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def chi(fld: Discriminant, n: int) -> int:
    """The real character of the field: +1 split, -1 inert, 0 ramified.
    -q is a fundamental discriminant, so (-q / n) is periodic modulo q on
    all integers n and a lookup in its table of length q is exact."""
    t = _CHI_TABLES[fld.q]
    return t[n % len(t)]


_CHI_TABLES = {f.q: tuple(kronecker(-f.q, i) for i in range(f.q)) for f in _FIELDS.values()}


def chi_table(fld: Discriminant) -> np.ndarray:
    """chi on residues modulo its period, as int8, for vectorized lookups."""
    return np.array(_CHI_TABLES[fld.q], dtype=np.int8)


# ---------------------------------------------------------------------------
# Factorization: a smallest-prime-factor (SPF) table of odd n below 2^21 (uint16,
# 0 for a prime, 2 MiB at 2^21); above it, Pollard rho splits n until each part
# is below 2^21 (read off the table) or passes Miller-Rabin, exact below psi_13.
# prime_table serves the block sieves of bnumbers; factorize never reads it.

_PRIME_TABLE_LIMIT = 10 ** 7
_SPF_LIMIT = 1 << 21

_prime_table: np.ndarray | None = None
_prime_table_bound = 0   # _prime_table holds every prime up to this
_spf_table: np.ndarray | None = None


def _eratosthenes(bound: int) -> np.ndarray:
    """The primes up to bound, ascending, as int64."""
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def prime_table(bound: int) -> np.ndarray:
    """The primes up to min(bound, 10^7), ascending, as int64.

    Sieved to the largest bound asked for so far; a smaller bound reads a
    prefix of that table.  The result is shared: do not write to it.
    """
    global _prime_table, _prime_table_bound
    bound = min(bound, _PRIME_TABLE_LIMIT)
    if _prime_table is None or _prime_table_bound < bound:
        _prime_table = _eratosthenes(bound)
        _prime_table_bound = bound
    return _prime_table[:np.searchsorted(_prime_table, bound, side="right")]


def _spf(n: int) -> np.ndarray:
    """The odd SPF table through n < 2^21: entry i is the least prime factor of a composite
    2i + 1, 0 for 1 or a prime; sized to the next power of two above the largest n so far.
    A growth at least doubles the table, so all builds cost under twice the last."""
    global _spf_table
    if _spf_table is None or 2 * len(_spf_table) <= n:
        size = min(_SPF_LIMIT, 1 << int(n).bit_length())
        _spf_table = None   # let the old table go before the new one is built
        # each odd prime p <= sqrt(size) < 2^11 claims its odd multiples from
        # p^2 on, the largest first, so the smallest prime factor writes last
        spf = np.zeros(size // 2, dtype=np.uint16)
        for p in _eratosthenes(isqrt(size))[:0:-1].tolist():
            spf[p * p // 2::p] = p
        _spf_table = spf
    return _spf_table


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981   # psi_13 (Sorenson-Webster 2017)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41: exact below psi_13,
    the least composite passing all 13, and a ValueError at or above it."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_probable_prime is exact only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _spf_factors(n: int) -> list[tuple[int, int]]:
    """factorize(n) for 1 <= n < 2^21, by the odd SPF table sized to n's odd part."""
    twos = (n & -n).bit_length() - 1
    n >>= twos
    spf = _spf(n)
    out = [(2, twos)] if twos else []
    while n > 1:
        p = int(spf[n >> 1]) or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n < psi_13 as (prime, exponent) pairs,
    ascending.  n >= psi_13, where the Miller-Rabin test that proves each
    part prime is no longer exact, raises ValueError."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if n < _SPF_LIMIT:
        return _spf_factors(n)
    if n >= _MR_LIMIT:
        raise ValueError(f"factorize is exact only below {_MR_LIMIT}")
    found: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _SPF_LIMIT:
            parts = _spf_factors(m)
        elif is_probable_prime(m):
            parts = [(m, 1)]
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
            continue
        for p, e in parts:
            found[p] = found.get(p, 0) + e
    return sorted(found.items())


# ---------------------------------------------------------------------------
# Representation counts and element enumeration

def r_count_from_factors(fld: Discriminant, factors: list[tuple[int, int]]) -> int:
    """unit_count * sum of chi over divisors, from a factorization."""
    tot = 1
    for p, e in factors:
        c = chi(fld, p)
        if c == 1:
            tot *= e + 1
        elif c == -1 and e % 2 == 1:
            return 0
    return fld.unit_count * tot


def r_count(fld: Discriminant, M: int) -> int:
    """Number of algebraic integers of norm M (M >= 1)."""
    if M < 1:
        raise ValueError("r_count expects M >= 1")
    return r_count_from_factors(fld, factorize(M))


def _quadrant(q: int, N: int) -> Iterator[tuple[int, int]]:
    """(y, x) with x^2 + q y^2 = N and x, y >= 0, y ascending: the direct solve of
    both 4*N(u + r z_q) = (2u + two_mu r)^2 + q r^2 and q h^2 + Y^2 = two_n^2 - q^2."""
    for y in range(isqrt(N // q) + 1):
        d = N - q * y * y
        x = isqrt(d)
        if x * x == d:
            yield y, x


def enumerate_norm(fld: Discriminant, M: int) -> list[AlgebraicInt]:
    """All u + r z_q of norm M by direct solve of the quadratic in u.

    Deterministic order: r ascending, then u ascending.  This is the
    slow, assumption-free path, kept as the test suite's oracle for
    _unit_blocks, the multiplicative path the library uses.
    """
    if M < 1:
        raise ValueError("enumerate_norm expects M >= 1")
    tm = fld.two_mu
    return sorted((AlgebraicInt((w - tm * r) // 2, r, fld)
                   for y, x in _quadrant(fld.q, 4 * M)
                   for r in {y, -y} for w in {x, -x} if (w - tm * r) % 2 == 0),
                  key=lambda a: (a.r, a.u))


_split_gen_cache: dict[tuple[int, int], tuple[int, int]] = {}


def _split_coords(fld: Discriminant, p: int) -> tuple[int, int]:
    """(u, r) of one element of norm p for a split prime p: _quadrant's first with r >= 1."""
    key = (fld.q, p)
    if (hit := _split_gen_cache.get(key)) is not None:
        return hit
    tm = fld.two_mu
    for r, w in _quadrant(fld.q, 4 * p):
        if r and (w - tm * r) % 2 == 0:
            return _split_gen_cache.setdefault(key, ((w - tm * r) // 2, r))
    raise IdentityError(f"chi calls {p} split for q={fld.q}, but no element has norm {p}")


def _norm_base(fld: Discriminant, factors: list[tuple[int, int]]) -> tuple[list, int]:
    """(base, s) of the norm with these factors, whose elements are the units times the inert
    part s times the base, composed as AlgebraicInt.__mul__; ([], 0) if it is not a norm."""
    zn, tm = fld.z_norm, fld.two_mu
    base = [(1, 0)]
    scalar = 1
    for p, e in factors:
        c = chi(fld, p)
        if c == -1:
            if e % 2:
                return [], 0
            scalar *= p ** (e // 2)
        elif c == 0:
            g = fld.ramified_generator()
            for _ in range(e):
                base = [_mul(b, (g.u, g.r), zn, tm) for b in base]
        else:
            pi = _split_coords(fld, p)
            pic = (pi[0] + tm * pi[1], -pi[1])
            facs = [pic, pi]   # pi^j conj(pi)^(e - j), j ascending
            for _ in range(e - 1):
                facs = [_mul(f, pic, zn, tm) for f in facs] + [_mul(facs[-1], pi, zn, tm)]
            base = [(bu * fu - br * fr * zn, bu * fr + fu * br + tm * br * fr)
                    for bu, br in base for fu, fr in facs]   # _mul written out
    return base, scalar


def _unit_blocks(fld: Discriminant, M: int,
                 factors: list[tuple[int, int]] | None = None) -> list[list[tuple[int, int]]]:
    """(u, r) of every element of norm M, one block per unit: that unit times
    the inert scalar times each _norm_base element, products as
    AlgebraicInt.__mul__; [] when M is not a norm.  Unique factorization makes
    the blocks hold each of the r_count(M) elements once, at O(r_count(M)) cost.

    The congruence condition keeps or drops whole blocks.  Let a = (sqrt(-q)):
    p, p^2, p^3 for odd q, q = 4, q = 8 (p the ramified prime ideal).
    1. gamma - conj(gamma) = r sqrt(-q) is in a for gamma = u + r z_q, so conj(pi) = pi
       (mod a), and a base element prod pi^j conj(pi)^(e-j) g^k s (g the ramified generator,
       s the inert part) is prod pi^e g^k s (mod a): a block lies in one class mod a.
    2. 2 Re(sqrt(-q) gamma) = sqrt(-q) (gamma - conj(gamma)) = -q r, so elements congruent
       mod a have equal 2 Re mod q, and 2 Re = 2m (mod q) keeps or drops a whole block.
    3. halfplane.congruence_holds(r, u, s, t) says u + r z_q = t + s z_q (mod a),
       so it holds on two blocks' pairs or none.
    """
    base, scalar = _norm_base(fld, factorize(M) if factors is None else factors)
    return _compose(fld, base, scalar, _UNIT_COORDS[fld.unit_count] if base else ())


def _compose(fld: Discriminant, base: list, scalar: int, units) -> list[list[tuple[int, int]]]:
    """The block of each unit: (u, r) of that unit times scalar times each base element."""
    zn, tm = fld.z_norm, fld.two_mu
    # _mul written out: this is the one loop that runs once per element
    return [[((uu * bu - ur * br * zn) * scalar, (uu * br + bu * ur + tm * ur * br) * scalar)
             for bu, br in base] for uu, ur in units]


def _kept_units(fld: Discriminant, M: int, base: list, scalar: int) -> list[tuple[int, int]]:
    """The units whose blocks of the norm M, with this _norm_base, are restricted, 2*Re = 2m
    (mod q): a block lies in one class (_unit_blocks), so its first element decides it."""
    if not base:
        return []
    m2, tm = 2 * residue_m(fld, M), fld.two_mu
    bu, br = base[0][0] * scalar, base[0][1] * scalar   # the first element b
    # 2 Re is linear: 2 Re((uu + ur z_q) b) = uu 2 Re(b) + ur 2 Re(z_q b)
    re_b, re_zb = 2 * bu + tm * br, tm * bu + (tm * tm - 2 * fld.z_norm) * br
    return [(uu, ur) for uu, ur in _UNIT_COORDS[fld.unit_count]
            if (uu * re_b + ur * re_zb - m2) % fld.q == 0]


def elements_of_norm(fld: Discriminant, M: int) -> list[AlgebraicInt]:
    """All elements of norm M, in the order of _unit_blocks."""
    return [AlgebraicInt(u, r, fld) for block in _unit_blocks(fld, M) for u, r in block]


def b_indicator(fld: Discriminant, n: int) -> bool:
    """True iff n is a norm: every inert prime divides n to even order."""
    if n < 1:
        raise ValueError("b_indicator expects n >= 1")
    return all(e % 2 == 0 for p, e in factorize(n) if chi(fld, p) == -1)


def omega_pair(fld: Discriminant, M: int) -> tuple[int, int]:
    """(distinct, with-multiplicity) counts of split primes dividing M."""
    if M < 1:
        raise ValueError("omega_pair expects M >= 1")
    om = big = 0
    for p, e in factorize(M):
        if chi(fld, p) == 1:
            om += 1
            big += e
    return om, big


def residue_m(fld: Discriminant, M: int) -> int:
    """The residue class m fixing the congruence 2y = 2m (mod q).

    q odd: least m >= 0 with m^2 = M (mod q).  q = 8: m = 1 for odd M,
    m = 0 for M = 0, 2 (mod 8), m = 2 for M = 4, 6 (mod 8).  q = 4: only
    the parity of m matters; M = 2 (mod 4) has no square root mod 4 but
    every element of such norm has odd y, so m = 1 there (m = 0 only
    when 4 | M).
    """
    m = _RESIDUE_M[fld.q].get(M % fld.q)
    if m is None:
        raise ValueError(f"M={M} is not a square modulo {fld.q}; not a norm")
    return m


#: residue_m by M mod q: the least square root for odd q (the least of m and q - m is at most
#: q // 2, and the dict keeps its last write), the rule above for q = 4 and 8.
_RESIDUE_M = {q: {m * m % q: m for m in range(q // 2, -1, -1)} for q in _SHAPES if q % 2} | {
    4: dict(enumerate((0, 1, 1, 1))), 8: dict(enumerate((0, 1, 0, 1, 2, 1, 2, 1)))}


def _restricted_coords(fld: Discriminant, M: int,
                       factors: list[tuple[int, int]] | None) -> list[tuple[int, int]]:
    """(u, r) of the elements of norm M with 2*Re = 2m (mod q): the kept unit blocks, composed."""
    base, scalar = _norm_base(fld, factorize(M) if factors is None else factors)
    return [el for b in _compose(fld, base, scalar, _kept_units(fld, M, base, scalar)) for el in b]


def restricted_angles(fld: Discriminant, M: int,
                      factors: list[tuple[int, int]] | None = None) -> list[float]:
    """AlgebraicInt.angle() of each restricted element, in element order."""
    sq, tm = math.sqrt(fld.q), fld.two_mu
    return [math.atan2(r * sq, 2 * u + tm * r) for u, r in _restricted_coords(fld, M, factors)]


def r_star(fld: Discriminant, M: int) -> int:
    """Congruence-restricted representation count.

    Counted as kept unit blocks times their size, composing no element, and
    checked against the closed form: r_count(M) when gcd(M, q) > 1, half otherwise.
    """
    if M < 1:
        raise ValueError("r_star expects M >= 1")
    factors = factorize(M)
    base, scalar = _norm_base(fld, factors)
    direct = len(base) * len(_kept_units(fld, M, base, scalar))
    rc = r_count_from_factors(fld, factors)
    closed = rc if gcd(M, fld.q) > 1 else rc // 2
    if direct != closed:
        raise IdentityError(f"r_star q={fld.q} M={M}: {direct} restricted elements, "
                            f"closed form {closed}")
    return direct


def v_k(fld: Discriminant, M: int, k: int) -> float:
    """Normalized absolute Weyl sum of order k over restricted elements:
    weyl_profile(fld, M, |k|)[-1] bit for bit (v_{-k} = v_k, v_0 = 1), at |k|
    complex products per element.  Zero when the restricted count is zero.
    Each phase e^{ik theta} is a k-fold binary64 product of unit phases, so
    the error grows about linearly in k: under 1e-14 for k <= 24.
    """
    if M < 1:
        raise ValueError("v_k expects M >= 1")
    angs = restricted_angles(fld, M)
    if not angs:
        return 0.0
    return _weyl_sums(angs, abs(k))[-1] if k else 1.0


def weyl_profile(fld: Discriminant, M: int, K: int) -> list[float]:
    """[v_1(M), ..., v_K(M)] from a single element enumeration."""
    return _weyl_sums(restricted_angles(fld, M), K)


def _weyl_sums(angs: list[float], K: int) -> list[float]:
    """[v_1, ..., v_K] of restricted-element angles given in element order."""
    if not angs:
        return [0.0] * K
    phases = [cmath.exp(1j * a) for a in angs]
    out = []
    powers = list(phases)
    for _ in range(K):
        out.append(abs(sum(powers)) / len(angs))
        powers = [p * ph for p, ph in zip(powers, phases)]
    return out
