"""Lattice points on a fixed hyperbolic circle around a Heegner point.

Three descriptions of the same finite set:

  * pairs of algebraic integers of norms (two_n +- q)/2 subject to the
    congruence system (the library path; bijective with the matrices);
  * matrices gamma with arithmetic radius two_n (the brute-force oracle: one
    walk over bottom rows and the interval of top rows the radius bounds);
  * integer points (h, Y) on q h^2 + Y^2 = two_n^2 - q^2 with
    Y = two_n (mod q) (the point set, read off the pairs with each point
    hit unit_count/2 times; the _solve_circle oracle solves it directly).

verify and the tests compare the oracles against the pair path.
equidist.circle_problem_sum checks its sum at x <= 10^3 against
direct_cosh_count, which adds up the lengths of the walk's row intervals.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from .bnumbers import _indicator_block, _pair_blocks
from .halfplane import (UnimodularMatrix, arithmetic_radius, congruence_holds,
                        coords_from_split, matrix_from_split, _radius16)
from .quadfield import (AlgebraicInt, Discriminant, IdentityError, factorize,
                        r_count_from_factors, _quadrant, _unit_blocks)


@dataclass(frozen=True)
class Radius:
    """A scaled arithmetic radius two_n = 2R >= q with its derived constants."""

    field: Discriminant
    two_n: int
    n_plus: int = dc_field(init=False)
    n_minus: int = dc_field(init=False)
    c4: int = dc_field(init=False)   # 4 * c_n, in {1, 2}

    def __post_init__(self) -> None:
        q = self.field.q
        if self.two_n < q or (self.two_n - q) % 2:
            raise ValueError(f"two_n={self.two_n} invalid for q={q}")
        object.__setattr__(self, "n_plus", (self.two_n + q) // 2)
        object.__setattr__(self, "n_minus", (self.two_n - q) // 2)
        object.__setattr__(self, "c4", 2 if self.n_minus % self.field.ramified_prime == 0 else 1)

    @property
    def norm_product(self) -> int:
        """n_plus * n_minus = n^2 - 4 lambda^4, the point-set norm."""
        return self.n_plus * self.n_minus

    @cached_property
    def factors(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(factorize(n_minus), factorize(n_plus)), computed once."""
        return factorize(self.n_minus), factorize(self.n_plus)

    @cached_property
    def norm_factors(self) -> list[tuple[int, int]]:
        """The two factor lists merged, ascending: factorize(norm_product)."""
        merged: dict[int, int] = {}
        for p, e in self.factors[0] + self.factors[1]:
            merged[p] = merged.get(p, 0) + e
        return sorted(merged.items())

    @cached_property
    def pairs(self) -> list[SplitPair]:
        """enumerate_pairs(self), computed once."""
        return enumerate_pairs(self)

    @cached_property
    def pairs_by_point(self) -> dict[tuple[int, int], list[SplitPair]]:
        """pairs grouped by their point (h, Y), pair order kept; computed once
        and checked as lattice_points documents."""
        fld = self.field
        pairs_to_matrices(self, self.pairs)   # the whole circle's matrix checks
        groups: dict[tuple[int, int], list[SplitPair]] = {}
        for p in self.pairs:
            groups.setdefault(coords_from_split(fld, *p.rust), []).append(p)
        mult = fld.unit_count // 2
        if any(len(ps) != mult for ps in groups.values()):
            raise IdentityError(f"q={fld.q} two_n={self.two_n}: a point is not hit "
                                f"{mult} times by the pairs")
        expected2 = self.c4 * r_count_from_factors(fld, self.norm_factors)
        if 2 * len(groups) != expected2:
            raise IdentityError(f"q={fld.q} two_n={self.two_n}: {len(groups)} points, "
                                f"(c4/2) r(n_plus n_minus) = {expected2 / 2}")
        return groups


@dataclass(frozen=True)
class CirclePoint:
    """Integer point (h, Y) = (x/lambda, 2y) of the circle of radius two_n."""

    h: int
    Y: int
    field: Discriminant
    two_n: int

    def __post_init__(self) -> None:
        q = self.field.q
        if (q * self.h * self.h + self.Y * self.Y != self.two_n ** 2 - q * q
                or (self.Y - self.two_n) % q):
            raise IdentityError(f"q={q} two_n={self.two_n}: ({self.h}, {self.Y}) is off "
                                "the circle or breaks Y = two_n (mod q)")

    def xy(self) -> tuple[float, float]:
        return (self.h * math.sqrt(self.field.q) / 2.0, self.Y / 2.0)

    def display_angle(self) -> float:
        """arg(x + iy) of the plotted point."""
        return math.atan2(self.Y, self.h * math.sqrt(self.field.q)) % (2 * math.pi)


@dataclass(frozen=True)
class SplitPair:
    """Canonical (u + r z_q, t + s z_q) with norms (n_plus, n_minus).

    Quotient by simultaneous sign flip: the first nonzero coordinate of
    (r, u, s, t) is positive.
    """

    first: AlgebraicInt
    second: AlgebraicInt

    @property
    def rust(self) -> tuple[int, int, int, int]:
        return (self.first.r, self.first.u, self.second.r, self.second.u)


def radii_up_to(fld: Discriminant, x: float) -> list[Radius]:
    """All radii with 2R <= 2x whose circle is nonempty, ascending."""
    return list(iter_radii(fld, x))


def iter_radii(fld: Discriminant, x: float) -> Iterator[Radius]:
    """radii_up_to, one radius at a time; x must be finite and >= q/2.

    A candidate two_n = 2m + q carries points iff n_minus = m and
    n_plus = m + q are both norms; the bnumbers walker at shift q answers
    that for every candidate, block by block.
    """
    q = fld.q
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, not {x}")
    if x < q / 2:
        raise ValueError("x below the minimal radius q/2")
    top = (int(2 * x) - q) // 2   # the largest n_minus
    for start, pair in _pair_blocks(fld, _indicator_block, 1, top + 1, q):
        ms = (np.flatnonzero(pair) + start).tolist()
        del pair   # freed before the next block is sieved
        yield from (Radius(fld, 2 * m + q) for m in ms)


def enumerate_pairs(radius: Radius) -> list[SplitPair]:
    """Norm pairs passing the congruence, one per sign class, tested per pair of unit blocks."""
    if radius.two_n <= radius.field.q:
        raise ValueError("two_n = q is the circle centre; no pairs")
    fld = radius.field
    f_minus, f_plus = radius.factors
    seconds = _unit_blocks(fld, radius.n_minus, f_minus)
    found = []
    for block in _unit_blocks(fld, radius.n_plus, f_plus):
        # n_plus >= 1: (r, u) alone fixes the sign class
        canonical = [(r, u) for u, r in block if (r, u) > (0, 0)]
        for other in seconds if canonical else ():
            if congruence_holds(fld, block[0][1], block[0][0], other[0][1], other[0][0]):
                found += [(r, u, s, t) for r, u in canonical for t, s in other]
    out = [SplitPair(AlgebraicInt(u, r, fld), AlgebraicInt(t, s, fld))
           for (r, u, s, t) in sorted(found)]
    for p in out:
        if p.first.norm() != radius.n_plus or p.second.norm() != radius.n_minus:
            raise IdentityError(f"q={fld.q} two_n={radius.two_n}: pair {p.rust} "
                                "has the wrong norms")
    return out


def pairs_to_matrices(radius: Radius, pairs: list[SplitPair]) -> list[UnimodularMatrix]:
    """Map pairs through the inverse transform; exact bijection onto the circle.

    A pair with no matrix means the congruence filter is broken: IdentityError.
    """
    fld = radius.field
    out = []
    for p in pairs:
        try:
            g = matrix_from_split(fld, *p.rust)
        except ValueError as exc:   # from matrix_from_split or UnimodularMatrix
            raise IdentityError(f"q={fld.q} two_n={radius.two_n}: pair {p.rust} "
                                f"has no matrix: {exc}") from exc
        two_n = arithmetic_radius(fld, g)
        if two_n != radius.two_n:
            raise IdentityError(f"q={fld.q} two_n={radius.two_n}: pair {p.rust} "
                                f"maps to radius {two_n}")
        out.append(g)
    if len(set(out)) != len(out):
        raise IdentityError(f"q={fld.q} two_n={radius.two_n}: two pairs map "
                            "to the same matrix")
    return sorted(out)


def lattice_points(radius: Radius) -> list[CirclePoint]:
    """The circle's integer points, read off the congruence-filtered pairs.

    Each pair maps to (h, Y) through the product identity
    y + ix = (u + r z)(t + s z-bar).  The pairs must map through
    pairs_to_matrices onto distinct matrices of the radius, every point must
    be hit exactly unit_count/2 times, and the point count must equal
    (c4/2) * r_count(n_plus * n_minus); each failure raises IdentityError.
    """
    return [CirclePoint(h, Y, radius.field, radius.two_n)
            for (h, Y) in sorted(radius.pairs_by_point)]


def angles(radius: Radius) -> list[float]:
    """Sorted principal arguments arg(x + iy) of the circle points, in [0, 2pi)."""
    return sorted(p.display_angle() for p in lattice_points(radius))


# ---------------------------------------------------------------------------
# Oracles: the direct point solve and the brute-force matrix walk

def _solve_circle(fld: Discriminant, two_n: int) -> list[tuple[int, int]]:
    """Points (h, Y) of the circle by direct solve, O(two_n / sqrt(q)), unordered."""
    q = fld.q
    return [(h, Y) for y, x in _quadrant(q, two_n * two_n - q * q)
            for h in {y, -y} for Y in {x, -x} if (Y - two_n) % q == 0]


def _rows(fld: Discriminant, max_two_n: int):
    """Yield ((a0, b0, c, d), (A, B, C), (lo, hi)) for each coprime bottom row (c, d) with
    16R <= 8 max_two_n at some real t: 16R(a0 + tc, b0 + td, c, d) = A t^2 + B t + C, and
    the integer t with 16R <= 8 max_two_n are exactly lo..hi (lo = hi + 1 when none is).

    The rows come from 2 lambda^2 N(d + c z_q) = n - y <= n + sqrt(n^2 - 4 lambda^4):
    scaled, q * N(d + c z_q) <= two_n + sqrt(two_n^2 - q^2) < 2 * two_n.  A = 4 ((2d +
    two_mu c)^2 + q c^2) > 0, so for D = B^2 - 4 A (C - 8 max_two_n) >= 0 the t fill the
    real interval [(-B - sqrt D) / 2A, (-B + sqrt D) / 2A], and lo, hi are its ends rounded
    inwards.  isqrt rounds them exactly: floor((m + isqrt D) / k) = floor((m + sqrt D) / k)
    for all integers m and k > 0.  isqrt D <= sqrt D gives <=; for >=, j = floor((m +
    sqrt D) / k) has the integer j k - m <= sqrt D, so j k - m <= isqrt D.
    lo = -floor((B + sqrt D) / 2A) takes m = B, and hi = floor((sqrt D - B) / 2A) m = -B.
    """
    tm = fld.two_mu
    q = fld.q
    target = 8 * max_two_n
    lim4 = 4 * (max_two_n + isqrt(max(0, max_two_n ** 2 - q * q))) // q + 5
    for c in range(0, isqrt(lim4 // q) + 2):
        rem = lim4 - q * c * c
        if rem < 0:
            continue
        w = isqrt(rem)
        for d in range((-w - tm * c) // 2 - 1, (w - tm * c) // 2 + 2):
            if gcd(c, d) != 1 or c == 0 and d != 1:
                continue
            a0 = pow(d, -1, c) if c else 1   # the c = 0 row is the identity's
            b0 = (a0 * d - 1) // c if c else 0
            f0 = _radius16(fld, a0, b0, c, d)
            f1 = _radius16(fld, a0 + c, b0 + d, c, d)
            fm1 = _radius16(fld, a0 - c, b0 - d, c, d)
            A, B = (f1 + fm1 - 2 * f0) // 2, (f1 - fm1) // 2
            disc = B * B - 4 * A * (f0 - target)
            if disc >= 0:
                w = isqrt(disc)
                yield (a0, b0, c, d), (A, B, f0), (-((B + w) // (2 * A)), (w - B) // (2 * A))


def _row_walk(fld: Discriminant, max_two_n: int) -> Iterator[tuple[int, UnimodularMatrix]]:
    """Yield (two_n, gamma) for every matrix of radius <= max_two_n: each t of each row."""
    for (a0, b0, c, d), (A, B, C), (lo, hi) in _rows(fld, max_two_n):
        for t in range(lo, hi + 1):
            v = A * t * t + B * t + C
            if v % 8:
                raise IdentityError(f"q={fld.q}: 16R = {v} at row {(c, d)}, t={t} "
                                    "is not divisible by 8")
            yield v // 8, UnimodularMatrix(a0 + t * c, b0 + t * d, c, d)


def brute_force_matrices(radius: Radius) -> list[UnimodularMatrix]:
    """The matrices of radius two_n (at two_n = q, the Heegner point's stabilizer): the row
    walk up to two_n, kept to two_n as it runs, each radius checked by arithmetic_radius."""
    fld = radius.field
    if radius.two_n > 10 ** 6:
        raise ValueError("brute-force oracle capped at two_n <= 10^6")
    out = []
    for two_n, g in _row_walk(fld, radius.two_n):
        if two_n == radius.two_n:
            if arithmetic_radius(fld, g) != two_n:
                raise IdentityError(f"q={fld.q} two_n={two_n}: the row walk "
                                    f"gave {g.entries()} of another radius")
            out.append(g)
    return sorted(out)


def brute_force_by_radius(fld: Discriminant, max_two_n: int) -> dict[int, list[UnimodularMatrix]]:
    """All matrices with radius <= max_two_n: one row walk, bucketed by two_n."""
    buckets: dict[int, list[UnimodularMatrix]] = {}
    for two_n, g in _row_walk(fld, max_two_n):
        buckets.setdefault(two_n, []).append(g)
    return {tn: sorted(ms) for tn, ms in sorted(buckets.items())}


def stabilizer_size(fld: Discriminant) -> int:
    """Matrices fixing the Heegner point: half the unit count."""
    return fld.unit_count // 2
