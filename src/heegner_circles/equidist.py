"""Angular statistics of circle point sets: discrepancy, explicit
Erdos-Turan bounds through the Weyl sums v_k, density surveys over all
radii up to a height, and the exact convolution-sum form of the
hyperbolic circle count.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bnumbers import _pair_blocks, r_count_array
from .circles import Radius, iter_radii, pairs_to_matrices, stabilizer_size, _rows
from .halfplane import apply_mobius, disc_map
# factorize is not called here; bench/test_bench.py checks that the tracer
# rewraps it in this namespace too
from .quadfield import (Discriminant, IdentityError, chi, factorize, r_count_from_factors,
                        residue_m, restricted_angles, weyl_profile, _UNIT_COORDS,
                        _norm_base, _weyl_sums)

#: Exponent from the equidistribution rate: log(pi/2)/log 2.
RATE_EXPONENT = math.log(math.pi / 2) / math.log(2)


def circle_discrepancy(angles: list[float]) -> float:
    """Supremum over circular arcs of |empirical mass - arc length / 2pi|.

    The angles may come in any order and from any turn of the circle: they
    are reduced mod 2pi and sorted here, once.  Exact O(N) form on the
    sorted normalized points x_0 <= ... <= x_{N-1}:
    max(i/N - x_i) - min(i/N - x_i) + 1/N (Kuipers & Niederreiter,
    Uniform Distribution of Sequences, 1974, ch. 2).  Its O(N^2) reference,
    the scan over arc endpoints, is _discrepancy_pairs in tests/oracles.py.
    """
    n = len(angles)
    if n == 0:
        raise ValueError("discrepancy of an empty angle set")
    ph = _normalized(angles)
    us = [m / n - ph[m] for m in range(n)]
    return max(us) - min(us) + 1.0 / n


def _normalized(angles_seq: list[float]) -> list[float]:
    # a just below 0 has a % 2pi == 2pi; the final % 1.0 maps its phase to 0.0
    return sorted(a % (2 * math.pi) / (2 * math.pi) % 1.0 for a in angles_seq)


def default_harmonic_cutoff(two_n: int) -> int:
    return max(1, math.ceil(math.log(two_n)))


def et_bound(radius: Radius, K: int | None = None) -> float:
    """Explicit Erdos-Turan discrepancy bound 1/(K+1) + 3 sum v_k/k.

    The constant pair (1, 3) makes the bound a true inequality against
    circle_discrepancy, which the tests assert radius by radius.
    """
    return _et_bound(_radius_angles(radius), radius.two_n, K)


def _et_bound(angs: list[float], two_n: int, K: int | None) -> float:
    """et_bound from the radius's restricted angles, in element order."""
    if K is None:
        K = default_harmonic_cutoff(two_n)
    if K < 1:
        raise ValueError("K >= 1 required")
    prof = _weyl_sums(angs, K)
    return 1.0 / (K + 1) + 3.0 * sum(v / k for k, v in enumerate(prof, start=1))


def _radius_angles(radius: Radius) -> list[float]:
    """restricted_angles of the radius's norm, from its own factor lists."""
    return restricted_angles(radius.field, radius.norm_product, radius.norm_factors)


@dataclass(frozen=True)
class DiscrepancyReport:
    two_n: int
    point_count: int
    discrepancy: float
    et_bound: float
    gamma_count: int

    def __post_init__(self) -> None:
        d = self.discrepancy
        if not (0.0 <= d <= 1.0 and d <= self.et_bound + 1e-12):
            raise IdentityError(f"two_n={self.two_n}: discrepancy {d} outside "
                                f"[0, min(1, Erdos-Turan bound {self.et_bound})]")


def gamma_count(radius: Radius) -> int:
    """|matrices of this radius| = (c4/4) r(n_minus) r(n_plus), exact."""
    fld = radius.field
    f_minus, f_plus = radius.factors
    g4 = radius.c4 * r_count_from_factors(fld, f_minus) * r_count_from_factors(fld, f_plus)
    if g4 % 4:
        raise IdentityError(f"q={fld.q} two_n={radius.two_n}: c4 r(n_minus) r(n_plus) "
                            f"= {g4} is not divisible by 4")
    return g4 // 4


def discrepancy_report(radius: Radius, K: int | None = None) -> DiscrepancyReport:
    angs = _radius_angles(radius)
    return DiscrepancyReport(radius.two_n, len(angs), circle_discrepancy(angs),
                             _et_bound(angs, radius.two_n, K), gamma_count(radius))


# ---------------------------------------------------------------------------
# Survey over all radii up to a height

@dataclass(frozen=True)
class SurveyRow:
    two_n: int
    omega: int
    Omega: int
    in_B_flat: bool
    log2_r_star: float
    point_count: int
    gamma_count: int
    discrepancy: float


@dataclass(frozen=True)
class SurveySummary:
    q: int
    X: float
    count: int
    count_logx_over_2x: float
    omega_quantiles: tuple[float, float, float]       # of omega / loglog X
    log2_rstar_quantiles: tuple[float, float, float]  # of log2 r* / loglog M
    omega_outlier_fraction: float   # omega outside (1 +- 0.5) loglog X
    frac_fast_eps01: float   # share with D_n <= gamma^{-(C - 0.1)}
    frac_fast_eps02: float   # share with D_n <= gamma^{-(C - 0.2)}
    degenerate: bool         # too few rows for the quantiles to mean much


def _quantiles(vals) -> tuple[float, float, float]:
    s = sorted(vals)
    n = len(s)
    return (s[n // 4], s[n // 2], s[(3 * n) // 4])


#: A survey batch closes at this many elements; its arrays add 84 traced bytes a row.
_BATCH_ELEMENTS = 1024


class SurveyStream:
    """The survey of all radii n <= X, one row at a time: iterating yields
    each SurveyRow as it is made and keeps only what the summary needs, two
    float columns and three counts; .summary is set once the rows run out."""

    def __init__(self, fld: Discriminant, X: float) -> None:
        if X < fld.q / 2:
            raise ValueError("X below the minimal radius")
        self.fld, self.X, self.summary = fld, X, None

    def _batches(self) -> Iterator[tuple[list[Radius], list[tuple[int, list, int]]]]:
        """The realized radii in batches, each with (its norm, *its norm's _norm_base)."""
        radii, norms, size = [], [], 0
        for radius in iter_radii(self.fld, self.X):
            radii.append(radius)
            norms.append((radius.norm_product, *_norm_base(self.fld, radius.norm_factors)))
            size += len(norms[-1][1]) * self.fld.unit_count
            if size >= _BATCH_ELEMENTS:
                yield radii, norms
                radii, norms, size = [], [], 0
        if radii:
            yield radii, norms

    def __iter__(self) -> Iterator[SurveyRow]:
        fld, X = self.fld, self.X
        llx = math.log(math.log(X)) if X > math.e else float("nan")
        om_col, rs_col = array("d"), array("d")
        outliers = fast1 = fast2 = 0
        for radii, norms in self._batches():   # point counts and discrepancies by batch
            for radius, n, disc in zip(radii, *_batch_discrepancies(fld, norms)):
                split = [e for p, e in radius.norm_factors if chi(fld, p) == 1]
                row = SurveyRow(radius.two_n, len(split), sum(split), radius.c4 == 1,
                                math.log2(n), n, gamma_count(radius), disc)
                om_col.append(row.omega)
                if radius.norm_product > 15:
                    rs_col.append(row.log2_r_star / math.log(math.log(radius.norm_product)))
                outliers += not (0.5 * llx <= row.omega <= 1.5 * llx)
                fast1 += row.discrepancy <= row.gamma_count ** (-(RATE_EXPONENT - 0.1))
                fast2 += row.discrepancy <= row.gamma_count ** (-(RATE_EXPONENT - 0.2))
                yield row
        count = len(om_col)
        degenerate = count < 8 or not (llx > 0)
        om_q = rs_q = (0.0, 0.0, 0.0)
        outlier = 0.0
        if not degenerate:
            # x -> x / llx is monotone, so the quantiles of omega / llx are omega's over llx
            om_q = tuple(v / llx for v in _quantiles(om_col))
            rs_q, outlier = _quantiles(rs_col), outliers / count
        f1, f2 = (fast1 / count, fast2 / count) if count else (0.0, 0.0)
        ratio = count * math.log(X) / (2 * X) if X > 1 else float("nan")
        self.summary = SurveySummary(fld.q, X, count, ratio, om_q, rs_q, outlier,
                                     f1, f2, degenerate)


def _batch_discrepancies(fld: Discriminant, norms: list[tuple[int, list, int]]
                         ) -> tuple[list[int], list[float]]:
    """len(restricted_angles(fld, M)) and circle_discrepancy of them, bit for bit, for each
    (M, *_norm_base) of a batch in one numpy pass; only kept (norm, unit) blocks are composed,
    the angles are math.atan2's (np.arctan2 can differ in the last bit).  Survey caps x at
    10^7: |u|, |r| < 2 * 10^7, far inside int64.  A norm keeps half its blocks or all (r_star),
    so only a radius with no element, which raises, could leave a reduceat segment empty."""
    q, tm, zn = fld.q, fld.two_mu, fld.z_norm
    sizes = np.array([len(b) for _, b, _ in norms], dtype=np.int64)
    if not sizes.all():
        raise ValueError("survey of a radius with no restricted element")
    seg = np.repeat(np.arange(len(norms)), sizes)
    coords = np.fromiter(chain.from_iterable(c for _, b, _ in norms for c in b), np.int64)
    bu, br = (coords.reshape(-1, 2) * np.repeat([s for _, _, s in norms], sizes)[:, None]).T
    uu, ur = np.array(_UNIT_COORDS[fld.unit_count]).T[:, :, None]   # (unit, 1) columns
    fu, fr = bu[np.cumsum(sizes) - sizes], br[np.cumsum(sizes) - sizes]
    m2 = np.array([2 * residue_m(fld, M) for M, _, _ in norms], dtype=np.int64)
    keep = (2 * (uu * fu - ur * fr * zn) + tm * (uu * fr + fu * ur + tm * ur * fr) - m2) % q == 0
    counts = keep.sum(axis=0) * sizes
    j, i = np.nonzero(keep[:, seg])   # the unit and the base element of each kept element
    seg, uu, ur, u, r = seg[i], uu[j, 0], ur[j, 0], bu[i], br[i]
    x, r = 2 * (uu * u - ur * r * zn), uu * r + u * ur + tm * ur * r
    x = (x + tm * r).astype(np.float64)   # 2 Re of the unit times the base element
    del coords, bu, br, j, i, uu, ur, u   # lean before the two float lists
    ph = np.fromiter(map(math.atan2, (r * math.sqrt(q)).tolist(), x.tolist()), np.float64, len(x))
    ph = np.remainder(np.remainder(ph, 2 * math.pi) / (2 * math.pi), 1.0)
    ph = ph[np.lexsort((ph, seg))]
    starts = np.cumsum(counts) - counts
    us = (np.arange(len(ph)) - np.repeat(starts, counts)) / np.repeat(counts, counts) - ph
    discs = np.maximum.reduceat(us, starts) - np.minimum.reduceat(us, starts) + 1.0 / counts
    return counts.tolist(), discs.tolist()


def survey(fld: Discriminant, X: float, threads: int | None = None
           ) -> tuple[list[SurveyRow], SurveySummary]:
    """SurveyStream's rows over all radii n <= X, as a list, and its summary.
    The survey runs serially; threads is ignored, kept for existing callers."""
    stream = SurveyStream(fld, X)
    return list(stream), stream.summary


# ---------------------------------------------------------------------------
# The sharp-set factorization of v_k (radii whose two_n shares a factor with q)

#: |lhs - rhs| read as equality: v_k is a binary64 mean of unit-modulus terms.
_SHARP_TOL = 1e-9


def in_sharp_set(radius: Radius) -> bool:
    """The ramified prime divides n_minus: q | two_n for odd q, 4 | two_n
    for even q."""
    return radius.c4 == 2


def sharp_factorization_check(radius: Radius, k: int) -> bool:
    """One rule for all nine fields and every k: with M = n_plus n_minus,
    v_k(M) = v_k(n_plus) v_k(n_minus); for odd k both sides vanish.

    Proof.  The ramified prime l divides n_minus, n_plus = n_minus + q and
    M, so all their elements are restricted: sets closed under -1, so odd k
    cancels.  Let n_minus = l^a b, n_plus = l^c d, l not dividing bd; then
    gcd(b, d) = 1, as it divides q, a power of l.  The elements of norm l^a b
    are g^a times those of norm b (g the ramified generator): v_k(n_minus) =
    W(b), the mean of e^{ik theta} over all of norm b, v_k(n_plus) = W(d),
    and v_k(M) = W(bd) = W(b) W(d), as the products of norms b and d hit
    each of norm bd unit_count times.  Stripping l first changes nothing:
    v_k(l m) = v_k(m) for even k (m even if q = 4).  l | m: both sets are
    whole, g apart.  Else, q != 4: all of norm lm are restricted, g times
    those of norm m, one of each +-beta of which is, and e^{ik(t + pi)} =
    e^{ikt}.  q = 4, odd m: i folds k = 2 (mod 4) to 0 (v_2(5) = 0.6,
    v_2(10) = 0), but odd n_plus / 2, n_minus / 2 differ by 2, so one is
    3 (mod 4), no norm, and both products are 0.
    """
    if not in_sharp_set(radius):
        raise ValueError("radius is not in the sharp set")
    return not _product_rule_misses(radius.field, radius.n_plus, radius.n_minus, abs(k))


def _product_rule_misses(fld: Discriminant, m1: int, m2: int, K: int) -> list[int]:
    """The k <= K where |v_k(m1 m2) - v_k(m1) v_k(m2)| <= _SHARP_TOL fails, NaN too."""
    lhs, v1, v2 = (weyl_profile(fld, M, K) for M in (m1 * m2, m1, m2))
    return [k + 1 for k in range(K) if not abs(lhs[k] - v1[k] * v2[k]) <= _SHARP_TOL]


# ---------------------------------------------------------------------------
# Hyperbolic circle problem as a convolution sum

@dataclass(frozen=True)
class CircleSumResult:
    q: int
    x: float
    total: int              # centre term + convolution sum
    convolution_part: int   # sum over radii q < two_n <= q*x
    centre_term: int        # matrices at distance zero (the stabilizer)
    direct_count: int | None  # the count by bottom rows, when computed


_DIRECT_X_LIMIT = 10 ** 3   # the largest x direct_cosh_count counts


def _max_two_n(q: int, x: float) -> int:
    """floor(q x) of the exact x: cosh <= x iff two_n <= floor(q x)."""
    num, den = x.as_integer_ratio()
    return q * num // den


def circle_problem_sum(fld: Discriminant, x: float) -> CircleSumResult:
    """Count matrices with cosh(distance) <= x as a sum of r_count products.

    The convolution sum runs over two_n = 2m + q in (q, q*x], that is over
    n_minus = m >= 1 with n_plus = m + q; the distance-zero matrices (the
    stabilizer, unit_count/2 of them) are counted separately since the
    sum's natural two_n = q term would need a norm-zero factor.  The
    summand is (c4/4) r(m) r(m + q), with c4 = 2 exactly when the ramified
    prime divides m (q | two_n for odd q, 4 | two_n for even q) and 1
    otherwise.  r comes off the bnumbers walker at shift q, so memory does
    not grow with x.  The total times 4 is accumulated and checked
    divisible.  At x <= 10^3 the total is also checked against
    direct_cosh_count, the count by bottom rows.
    """
    if not 1 <= x < math.inf:
        raise ValueError("finite x >= 1 required")
    q = fld.q
    top = (_max_two_n(q, x) - q) // 2   # the largest n_minus
    ram = fld.ramified_prime
    tot4 = 0
    for start, prod in _pair_blocks(fld, r_count_array, 1, top + 1, q):
        tot4 += int(prod.sum()) + int(prod[-start % ram::ram].sum())
        del prod   # freed before the next block is sieved
    if tot4 % 4:
        raise IdentityError(f"q={q} x={x}: 4 * convolution sum = {tot4} "
                            "is not divisible by 4")
    conv = tot4 // 4
    centre = stabilizer_size(fld)
    direct = direct_cosh_count(fld, x) if x <= _DIRECT_X_LIMIT else None
    if direct is not None and conv + centre != direct:
        raise IdentityError(f"q={q} x={x}: convolution sum {conv} + centre "
                            f"{centre} != direct count {direct}")
    return CircleSumResult(q, x, conv + centre, conv, centre, direct)


def direct_cosh_count(fld: Discriminant, x: float) -> int:
    """Matrices with cosh(distance to z_q) <= x, counted by bottom rows: the lengths of
    their t-intervals, with no matrix built."""
    if x > _DIRECT_X_LIMIT:
        raise ValueError("direct count capped at x <= 10^3")
    return sum(hi - lo + 1 for _, _, (lo, hi) in _rows(fld, _max_two_n(fld.q, x)))


def matrix_angle_discrepancy(radius: Radius) -> float:
    """Discrepancy of the matrix-side angles, via the conformal disc map.

    Every matrix of the radius is pushed through the Mobius action and the
    disc map in binary64, an entirely separate path from the integer point
    coordinates; each point angle then appears unit_count/2 times, which
    leaves the discrepancy unchanged.  The suite asserts agreement with the
    point-side value.
    """
    fld = radius.field
    mats = pairs_to_matrices(radius, radius.pairs)
    ws = [disc_map(fld, apply_mobius(g, fld.z)) for g in mats]
    return circle_discrepancy([math.atan2(w.imag, w.real) for w in ws])
