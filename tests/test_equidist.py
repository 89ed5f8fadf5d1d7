import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import radii_within
from oracles import _discrepancy_pairs, restricted_elements
from heegner_circles import bnumbers, equidist, quadfield
from heegner_circles.circles import (Radius, angles, brute_force_by_radius, iter_radii,
                                     lattice_points, radii_up_to, stabilizer_size)
from heegner_circles.equidist import (RATE_EXPONENT, circle_discrepancy,
                                      circle_problem_sum, default_harmonic_cutoff,
                                      direct_cosh_count, discrepancy_report,
                                      et_bound, gamma_count, in_sharp_set,
                                      matrix_angle_discrepancy,
                                      sharp_factorization_check, survey)
from heegner_circles.quadfield import (IdentityError, all_fields, factorize,
                                       field, r_count_from_factors, v_k, weyl_profile)


class TestDiscrepancy:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 40, 64])
    def test_equally_spaced(self, m):
        angs = [2 * math.pi * i / m for i in range(m)]
        assert abs(circle_discrepancy(angs) - 1.0 / m) < 1e-12

    def test_single_angle(self):
        assert circle_discrepancy([2.0]) == 1.0

    def test_q3_example(self):
        got = circle_discrepancy(angles(Radius(field(3), 5)))
        assert abs(got - 1.0 / 3) < 1e-12

    def test_angle_just_below_zero_is_phase_zero(self):
        # -1e-20 % 2pi rounds to 2pi; its phase must be 0.0 like +0.0's, not 1.0
        rest = [0.3, 2.0, 4.1, 5.9]
        assert circle_discrepancy([-1e-20, *rest]) == circle_discrepancy([0.0, *rest])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circle_discrepancy([])

    @given(st.lists(st.floats(0, 2 * math.pi - 1e-9), min_size=1, max_size=40),
           st.integers(0, 6))
    @settings(max_examples=400, deadline=None)
    def test_pairwise_equals_fast(self, angs, dups):
        # duplicate a prefix to exercise tied angles
        angs = angs + angs[:dups]
        d1 = _discrepancy_pairs(angs)
        d2 = circle_discrepancy(angs)
        assert abs(d1 - d2) < 1e-12
        assert 0 <= d1 <= 1 + 1e-12

    @given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=60)
           .flatmap(lambda angs: st.tuples(st.just(angs), st.permutations(angs))))
    @settings(max_examples=300, deadline=None)
    def test_order_of_input_does_not_matter(self, lists):
        # circle_discrepancy reduces and sorts its own input: any order of
        # the same angles, on any turn of the circle, gives the same bits
        angs, shuffled = lists
        assert circle_discrepancy(shuffled) == circle_discrepancy(angs)

    def test_presorting_changes_no_bit(self):
        # the survey and the reports pass the restricted angles in element
        # order; sorting them mod 2 pi first gives the same float
        for f in all_fields():
            for radius in radii_within(f, 300):
                angs = equidist._radius_angles(radius)
                presorted = sorted(a % (2 * math.pi) for a in angs)
                assert circle_discrepancy(angs) == circle_discrepancy(presorted), \
                    (f.q, radius.two_n)

    def test_large_input_uses_fast_path(self):
        n = 1000
        angs = [2 * math.pi * i / n for i in range(n)]
        assert abs(circle_discrepancy(angs) - 1.0 / n) < 1e-12

    def test_matches_pairs_oracle_on_realized_radii(self):
        # the angle sets the survey feeds in: restricted elements of norm
        # n_plus * n_minus, every realized radius up to two_n = 3000
        checked = 0
        for f in all_fields():
            for radius in radii_within(f, 1500):
                angs = sorted(a.angle() % (2 * math.pi)
                              for a in restricted_elements(f, radius.norm_product))
                assert abs(circle_discrepancy(angs) - _discrepancy_pairs(angs)) < 1e-12, \
                    (f.q, radius.two_n)
                checked += 1
        assert checked > 1000


class TestEtBound:
    def test_all_vanishing_gives_floor(self):
        # q = 3, K = 2: v_1 = v_2 = 0
        f = field(3)
        assert abs(et_bound(Radius(f, 5), K=2) - 1.0 / 3) < 1e-12

    def test_q3_example(self):
        # 1/4 + 3 * v_3(4)/3 = 1/4 + 1
        f = field(3)
        assert abs(et_bound(Radius(f, 5), K=3) - 1.25) < 1e-12

    def test_default_cutoff(self):
        assert default_harmonic_cutoff(5) == 2
        assert default_harmonic_cutoff(2000) == 8

    def test_dominates_discrepancy(self):
        for f in all_fields():
            for radius in radii_within(f, 150):
                rep = discrepancy_report(radius)
                assert rep.discrepancy <= rep.et_bound + 1e-12

    def test_report_composes_once(self, monkeypatch):
        # one restricted_angles list feeds both the discrepancy and the bound
        calls = []
        original = equidist.restricted_angles

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(equidist, "restricted_angles", counted)
        f = field(7)
        radius = radii_within(f, 200)[-1]
        rep = discrepancy_report(radius, K=6)
        assert calls == [radius.norm_product]
        assert rep.et_bound == et_bound(radius, K=6)

    @pytest.mark.parametrize("d,bound", [(0.5, 0.4), (-0.1, 1.0), (1.5, 2.0)])
    def test_report_outside_its_bound_raises(self, d, bound):
        with pytest.raises(IdentityError, match="outside"):
            equidist.DiscrepancyReport(5, 3, d, bound, 9)

    def test_gamma_count_matches_pairs(self):
        from heegner_circles.circles import enumerate_pairs
        for f in all_fields():
            for radius in radii_within(f, 60):
                assert gamma_count(radius) == len(enumerate_pairs(radius))


class TestCor27:
    def test_matrix_vs_point_side(self):
        for f in all_fields():
            for radius in radii_within(f, 60):
                dm = matrix_angle_discrepancy(radius)
                dp = circle_discrepancy(angles(radius))
                assert abs(dm - dp) < 1e-9, (f.q, radius.two_n)


class TestSharpFactorization:
    def test_first_sharp_radius_q11(self):
        f = field(11)
        radius = next(r for r in radii_within(f, 200) if in_sharp_set(r))
        assert radius.two_n == 77
        for k in range(1, 11):
            assert sharp_factorization_check(radius, k)

    def test_even_k_identity_odd_q(self):
        for q in (3, 7, 19):
            f = field(q)
            sharp = [r for r in radii_within(f, 400) if in_sharp_set(r)][:6]
            for radius in sharp:
                for k in (2, 4, 6, 8):
                    lhs = v_k(f, radius.norm_product, k)
                    rhs = (v_k(f, radius.n_plus // q, k)
                           * v_k(f, radius.n_minus // q, k))
                    assert abs(lhs - rhs) <= 1e-9

    def test_odd_k_left_side_vanishes(self):
        # the first five sharp radii of each of the nine fields
        for f in all_fields():
            sharp = list(itertools.islice(
                (r for r in iter_radii(f, 10 ** 5) if in_sharp_set(r)), 5))
            assert len(sharp) == 5, f.q
            for radius in sharp:
                for k in (1, 3, 5, 7, 9, 11):
                    assert v_k(f, radius.norm_product, k) <= 1e-12, (f.q, radius.two_n, k)

    def test_even_k_identity_even_q(self):
        # every sharp radius with two_n <= 3000 of q = 4 and 8, for k <= 12:
        # n_plus/2 and n_minus/2 stay even, and v_k factors through l = 2
        for q in (4, 8):
            f = field(q)
            sharp = [r for r in radii_within(f, 1500) if in_sharp_set(r)]
            assert len(sharp) > 20, q
            for radius in sharp:
                assert radius.n_plus % 4 == radius.n_minus % 4 == 0, radius.two_n
                lhs = weyl_profile(f, radius.norm_product, 12)
                for k in range(2, 13, 2):
                    rhs = v_k(f, radius.n_plus // 2, k) * v_k(f, radius.n_minus // 2, k)
                    assert abs(lhs[k - 1] - rhs) <= 1e-9, (q, radius.two_n, k)
                for k in range(1, 13):
                    assert sharp_factorization_check(radius, k), (q, radius.two_n, k)

    @pytest.mark.parametrize("q", [4, 11])
    def test_perturbed_left_side_fails(self, monkeypatch, q):
        # the check compares both sides: moving v_k(n_plus n_minus) alone by
        # 1e-6 fails it for every k, odd and even
        f = field(q)
        radius = next(r for r in radii_within(f, 200) if in_sharp_set(r))
        monkeypatch.setattr(equidist, "weyl_profile", lambda fld, M, K: [
            v + (1e-6 if M == radius.norm_product else 0.0) for v in weyl_profile(fld, M, K)])
        assert not any(sharp_factorization_check(radius, k) for k in range(1, 9))

    @pytest.mark.parametrize("q", quadfield.CLASS_NUMBER_ONE_Q)
    def test_same_verdict_as_three_v_k_calls(self, q):
        # one weyl_profile per norm decides as v_k(n_plus n_minus), v_k(n_plus)
        # and v_k(n_minus) did, k by k: every sharp radius with two_n <= 2000,
        # and at least the first five (q = 67 and 163 have none that low)
        f = field(q)
        sharp = (r for r in iter_radii(f, 10 ** 5) if in_sharp_set(r))
        sharp = [r for _, r in itertools.takewhile(lambda ir: ir[0] < 5 or ir[1].two_n <= 2000,
                                                   enumerate(sharp))]
        assert len(sharp) >= 5
        for radius in sharp:
            for k in range(-8, 9):
                old = abs(v_k(f, radius.norm_product, k)
                          - v_k(f, radius.n_plus, k) * v_k(f, radius.n_minus, k)) <= 1e-9
                assert sharp_factorization_check(radius, k) == old, (radius.two_n, k)

    def test_reads_c4_as_the_ramified_test(self):
        # c4 = 2, in_sharp_set and the spelled-out ramified test agree on
        # every candidate radius up to two_n = 2000
        for f in all_fields():
            q = f.q
            for two_n in range(q, 2001, 2):
                radius = Radius(f, two_n)
                old = two_n % q == 0 if q % 2 else math.gcd(two_n // 2, q) > 1
                assert in_sharp_set(radius) == old, (q, two_n)
                assert radius.c4 == (2 if old else 1), (q, two_n)

    @pytest.mark.parametrize("q", quadfield.CLASS_NUMBER_ONE_Q)
    def test_even_k_reads_through_the_ramified_prime(self, q):
        # v_k(l m) = v_k(m) for even k, so stripping l from n_plus and n_minus
        # would change nothing: every norm m < 3000 (even m for q = 4)
        f = field(q)
        ell = f.ramified_prime
        norms = [m for m in range(1, 3000)
                 if quadfield.b_indicator(f, m) and (q != 4 or m % 2 == 0)]
        assert len(norms) > 100
        for m in norms:
            for k in range(2, 13, 2):
                assert abs(v_k(f, ell * m, k) - v_k(f, m, k)) <= 1e-12, (m, k)

    def test_q4_odd_m_is_the_exception(self):
        # the units +-i fold k = 2 (mod 4) to zero on the whole set of norm 2m
        f = field(4)
        assert abs(v_k(f, 5, 2) - 0.6) < 1e-12
        assert v_k(f, 10, 2) < 1e-12

    def test_non_sharp_rejected(self):
        f = field(3)
        radius = Radius(f, 5)
        assert not in_sharp_set(radius)
        with pytest.raises(ValueError):
            sharp_factorization_check(radius, 2)


class TestCircleProblemSum:
    def test_degenerate_centre(self):
        res = circle_problem_sum(field(3), 1.01)
        assert res.direct_count == 3
        assert res.total == 3 and res.convolution_part == 0

    def test_exact_small(self):
        for q in (3, 4, 7):
            f = field(q)
            for x in (2, 10, 50):
                res = circle_problem_sum(f, x)
                assert res.direct_count is not None
                assert res.total == res.direct_count

    def test_direct_count_up_to_one_thousand(self):
        # the brute-force oracle checks every total at x <= 10^3, none above
        f = field(163)
        at = circle_problem_sum(f, 1000)
        assert at.direct_count == at.total
        assert circle_problem_sum(f, 1000.5).direct_count is None

    @pytest.mark.parametrize("q,x,want", [(4, 242.9999999999, 1498),
                                          (7, 2991 / 7 - 1e-10, 2544)])
    def test_counts_no_radius_past_x(self, q, x, want):
        # x just below a radius: cosh = two_n / q <= x is compared exactly on
        # every matrix of the brute-force sweep up to the next radius
        f = field(q)
        buckets = brute_force_by_radius(f, math.ceil(q * x))
        brute = sum(len(ms) for two_n, ms in buckets.items() if Fraction(two_n, q) <= x)
        res = circle_problem_sum(f, x)
        assert res.total == res.direct_count == brute == want
        assert direct_cosh_count(f, x) == want

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf, 0.5])
    def test_rejects_x_not_finite_and_at_least_one(self, x):
        with pytest.raises(ValueError, match="finite x >= 1"):
            circle_problem_sum(field(3), x)

    def test_summand_integrality(self):
        res = circle_problem_sum(field(3), 60)
        assert isinstance(res.convolution_part, int)

    def test_direct_count_cap(self):
        with pytest.raises(ValueError):
            direct_cosh_count(field(3), 2000)

    def test_direct_mismatch_raises(self, monkeypatch):
        # an IdentityError, not an assert, so the check survives python -O
        original = equidist.direct_cosh_count
        monkeypatch.setattr(equidist, "direct_cosh_count",
                            lambda fld, x: original(fld, x) + 1)
        with pytest.raises(IdentityError):
            circle_problem_sum(field(3), 50)

    def test_sum_not_divisible_by_four_raises(self, monkeypatch):
        # an IdentityError, not an assert, so the check survives python -O;
        # r = 1 everywhere gives 4 * sum = 13 + 4 at q = 3, x = 10
        monkeypatch.setattr(equidist, "r_count_array",
                            lambda fld, form, lo, n: np.ones(n, dtype=np.int64))
        with pytest.raises(IdentityError, match="= 17 is not divisible by 4"):
            circle_problem_sum(field(3), 10)

    @pytest.mark.parametrize("q,x", [(3, 2000), (163, 2000), (163, 4000)],
                             ids=["3", "163", "163-seam"])
    def test_matches_per_candidate_sum(self, q, x):
        # the oracle walks every candidate two_n in (q, q x] and factorizes
        # both norms; circle_problem_sum reads r off the block sieve.  At
        # q = 163, x = 4000 the range of n_minus crosses the first block seam.
        f = field(q)
        lim = int(math.floor(q * x + 1e-9))
        tot4 = 0
        for two_n in range(q + 2, lim + 1, 2):
            r1 = r_count_from_factors(f, factorize((two_n - q) // 2))
            if r1:
                r2 = r_count_from_factors(f, factorize((two_n + q) // 2))
                tot4 += Radius(f, two_n).c4 * r1 * r2
        res = circle_problem_sum(f, x)
        assert res.convolution_part == tot4 // 4
        assert res.total == tot4 // 4 + stabilizer_size(f)
        if x == 4000:
            assert (lim - q) // 2 > bnumbers._BLOCK

    @pytest.mark.parametrize("block", [97, 1000])
    def test_block_length_does_not_change_the_sum(self, monkeypatch, block):
        # the walker's block, shared by the sum, the radii and the pair counts;
        # at 97 the carried window of q = 163 values is longer than a block
        f163 = field(163)

        def walks():
            return ({f.q: circle_problem_sum(f, 300) for f in all_fields()},
                    [r.two_n for r in radii_up_to(f163, 20000)],
                    [bnumbers.shifted_count(f163, 5000, h) for h in (1, 163, -200)])

        want = walks()
        monkeypatch.setattr(bnumbers, "_BLOCK", block)
        assert walks() == want

    def test_memory_does_not_grow_with_x(self):
        # tracemalloc sees numpy's buffers: the walker holds O(block + q) bytes,
        # 3.0 MB in int32 (6.9 MB in int64); x = 10^4 and 3*10^4 at q = 163 are
        # about 3 and 9 blocks of 2^18
        f = field(163)
        circle_problem_sum(f, 2000)   # build the small prime table first
        peaks = []
        for x in (10 ** 4, 3 * 10 ** 4):
            tracemalloc.start()
            try:
                circle_problem_sum(f, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 10 ** 6 and peaks[1] < 4 * 10 ** 6, peaks

    def test_factorizes_nothing(self, monkeypatch):
        f = field(163)
        want = circle_problem_sum(f, 2000)

        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(quadfield, "factorize", refuse)
        monkeypatch.setattr(equidist, "factorize", refuse)
        assert circle_problem_sum(f, 2000) == want

    def test_builds_no_spf_table(self):
        # in a fresh process: the count path never builds the 2^21 SPF table
        src = os.path.dirname(os.path.dirname(quadfield.__file__))
        prog = ("from heegner_circles import quadfield\n"
                "from heegner_circles.equidist import circle_problem_sum\n"
                "print(circle_problem_sum(quadfield.field(163), 1e4).total,"
                " quadfield._spf_table is None)\n")
        out = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        assert out == "60042 True\n"


class TestGammaCount:
    def test_odd_r_count_raises(self, monkeypatch):
        # an IdentityError, not an assert, so the check survives python -O
        monkeypatch.setattr(equidist, "r_count_from_factors", lambda fld, fs: 3)
        for tn in (5, 9):   # c4 = 1 and c4 = 2
            with pytest.raises(IdentityError):
                gamma_count(Radius(field(3), tn))


class TestSurvey:
    def test_small_input(self):
        f = field(4)
        rows, summary = survey(f, f.q / 2 + 1)
        assert summary.degenerate
        assert summary.count == len(rows)

    def test_rows_and_flags(self):
        f = field(3)
        rows, summary = survey(f, 100)
        assert summary.count == len(rows) > 0
        for r in rows:
            assert r.in_B_flat == (r.two_n % 3 != 0)
            assert 0 <= r.discrepancy <= 1
            assert r.point_count == round(2 ** r.log2_r_star)

    def test_even_q_flat_flag(self):
        rows, _ = survey(field(4), 60)
        for r in rows:
            assert r.in_B_flat == ((r.two_n // 2) % 2 == 1)

    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_rows_match_point_path(self, q):
        # the survey works on restricted elements of norm n_plus * n_minus;
        # each row must agree with the circle's own points and matrix count
        f = field(q)
        rows, _ = survey(f, 300)
        assert rows
        for r in rows:
            radius = Radius(f, r.two_n)
            assert abs(r.discrepancy - circle_discrepancy(angles(radius))) < 1e-12
            assert r.point_count == len(lattice_points(radius))
            assert r.gamma_count == gamma_count(radius)
            assert r.in_B_flat == (math.gcd(r.two_n // (2 - q % 2), q) == 1)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_x(self, x):
        # -inf stops at the constructor's minimal-radius check, inf and NaN at iter_radii
        with pytest.raises(ValueError, match=r"(?i)\bx\b"):
            list(equidist.SurveyStream(field(3), x))

    @pytest.fixture(scope="class")
    def per_radius_rows(self):
        # (q, two_n, point count, discrepancy as hex) of every radius with
        # X <= 3e4 in all nine fields, by restricted_angles and circle_discrepancy
        return [(f.q, radius.two_n, len(angs), circle_discrepancy(angs).hex())
                for f in all_fields() for radius in iter_radii(f, 30000)
                for angs in [equidist._radius_angles(radius)]]

    @pytest.mark.parametrize("bound", [None, 1, 13])
    def test_batch_path_is_the_per_radius_path_bit_for_bit(self, per_radius_rows, bound,
                                                           monkeypatch):
        # at the default batch bound, at one radius a batch, and at a small
        # prime that breaks the batches at many places
        if bound is not None:
            monkeypatch.setattr(equidist, "_BATCH_ELEMENTS", bound)
        got = [(f.q, row.two_n, row.point_count, row.discrepancy.hex())
               for f in all_fields() for row in equidist.SurveyStream(f, 30000)]
        assert len(got) == len(per_radius_rows) > 10000
        assert got == per_radius_rows

    def test_a_radius_without_restricted_elements_raises(self):
        # 2 is inert for q = 3, so the radius of norm 2 has no element at all;
        # reduceat over its empty segment would return a wrong value, not raise
        f = field(3)

        def batch(*norms):
            return [(M, *quadfield._norm_base(f, factorize(M))) for M in norms]
        assert equidist._batch_discrepancies(f, batch(7)) == \
            ([6], [circle_discrepancy(quadfield.restricted_angles(f, 7))])
        with pytest.raises(ValueError):   # the per-radius path
            circle_discrepancy(quadfield.restricted_angles(f, 2))
        for norms in [(2,), (7, 2), (2, 7), (7, 2, 7)]:
            with pytest.raises(ValueError, match="no restricted element"):
                equidist._batch_discrepancies(f, batch(*norms))

    def test_stream_holds_no_rows(self):
        # past the first rows a stream's traced memory grows by its two summary
        # columns (16 bytes a row); holding the rows costs about 250 bytes a row
        f = field(3)
        for _ in equidist.SurveyStream(f, 20000):   # warm the caches and the SPF table
            pass
        tracemalloc.start()
        try:
            for i, _row in enumerate(equidist.SurveyStream(f, 20000), start=1):
                if i == 100:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert i > 1000 and growth / (i - 100) < 100

    def test_float_verdicts_hold_at_40_digits(self):
        # survey counts D <= |Gamma|^-(C - eps) by binary64 comparisons; with
        # D and the threshold recomputed at 40 digits, every verdict is the
        # exact one and none lies within 1e-12 of its threshold (the least
        # margin, 3.8e-8, is at q = 11, two_n = 6397, eps = 0.1)
        radii = 0
        with mpmath.workdps(40):
            C = mpmath.log(mpmath.pi / 2) / mpmath.log(2)
            for f in all_fields():
                stream = equidist.SurveyStream(f, 5000)
                sq, fast = mpmath.sqrt(f.q), {0.1: 0, 0.2: 0}
                for row in stream:
                    els = restricted_elements(f, Radius(f, row.two_n).norm_product)
                    ph = sorted(mpmath.atan2(a.r * sq, 2 * a.u + f.two_mu * a.r)
                                / (2 * mpmath.pi) % 1 for a in els)
                    us = [mpmath.mpf(i) / len(ph) - x for i, x in enumerate(ph)]
                    d = max(us) - min(us) + mpmath.mpf(1) / len(ph)
                    for eps in fast:
                        bound = mpmath.mpf(row.gamma_count) ** -(C - mpmath.mpf(str(eps)))
                        bound_float = row.gamma_count ** (-(RATE_EXPONENT - eps))
                        at = (f.q, row.two_n, eps)
                        assert (row.discrepancy <= bound_float) == (d <= bound), at
                        assert (abs(d - bound) >= 1e-12
                                or d == bound and row.discrepancy == bound_float), at
                        fast[eps] += d <= bound
                s = stream.summary
                radii += s.count
                assert (s.frac_fast_eps01, s.frac_fast_eps02) == (fast[0.1] / s.count,
                                                                  fast[0.2] / s.count), f.q
        assert radii == 3418

    def test_rate_exponent_value(self):
        assert abs(RATE_EXPONENT - math.log(math.pi / 2) / math.log(2)) < 1e-15
        assert abs(RATE_EXPONENT - 0.6515) < 5e-4


class TestSurveyFloatForms:
    """The numpy forms of the survey's batch path equal circle_discrepancy's
    Python forms bit for bit; np.arctan2 is not among them, as it can differ
    from math.atan2 in the last bit."""

    TAU = 2 * math.pi

    def test_phase_normalization(self):
        # a just below 0 has a % 2pi == 2pi, and the final % 1.0 maps it to 0.0
        rng = np.random.default_rng(33)
        angs = np.concatenate([[-0.0, 0.0, math.pi, -math.pi, -5e-324, 5e-324, -self.TAU],
                               -rng.random(10_000) * 1e-17,
                               rng.uniform(-4 * math.pi, 4 * math.pi, 100_000)])
        got = np.remainder(np.remainder(angs, self.TAU) / self.TAU, 1.0)
        want = np.array([a % self.TAU / self.TAU % 1.0 for a in angs.tolist()])
        assert got.tobytes() == want.tobytes()
        assert got[:6].tolist() == [0.0, 0.0, 0.5, 0.5, 0.0, 5e-324 / self.TAU]

    def test_segmented_rank_over_count_and_extremes(self):
        rng = np.random.default_rng(34)
        counts = rng.integers(1, 300, 400)
        phs = [np.sort(np.concatenate([[0.0], rng.random(n - 1)])) for n in counts]
        ph = np.concatenate(phs)
        starts = np.cumsum(counts) - counts
        us = (np.arange(len(ph)) - np.repeat(starts, counts)) / np.repeat(counts, counts) - ph
        want = [m / int(n) - x for n, seg in zip(counts, phs) for m, x in enumerate(seg.tolist())]
        assert us.tobytes() == np.array(want).tobytes()
        discs = np.maximum.reduceat(us, starts) - np.minimum.reduceat(us, starts) + 1.0 / counts
        for d, seg, n in zip(discs.tolist(), phs, counts.tolist()):
            u = [m / n - x for m, x in enumerate(seg.tolist())]
            assert d.hex() == (max(u) - min(u) + 1.0 / n).hex()

