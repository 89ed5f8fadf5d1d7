import dataclasses
import math
import random
import re
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, nextprime
from sympy.functions.combinatorial.numbers import kronecker_symbol

from heegner_circles import bnumbers, quadfield
from heegner_circles.bnumbers import (Classification, SiftedDecomposition,
                                      _sift, build_progression, b_star_count,
                                      classify, integers_form,
                                      norm_indicator_array, r_count_array,
                                      shifted_count, sifted_count,
                                      sifted_decomposition)
from heegner_circles.cli import main
from heegner_circles.quadfield import (IdentityError, all_fields, b_indicator,
                                       chi, factorize, field, r_count)


class TestClassify:
    @pytest.mark.parametrize("q,n,expect", [
        (4, 65, Classification.ALL_SPLIT),    # 5 * 13
        (4, 21, Classification.ALL_INERT),    # 3 * 7
        (4, 15, Classification.MIXED),
        (4, 1, Classification.UNIT),
        (3, 3, Classification.MIXED),         # ramified divisor
    ])
    def test_examples(self, q, n, expect):
        assert classify(field(q), n) is expect

    def test_split_closed_under_product(self):
        f = field(7)
        splits = [n for n in range(2, 300)
                  if classify(f, n) is Classification.ALL_SPLIT]
        for a in splits[:15]:
            for b in splits[:15]:
                assert classify(f, a * b) is Classification.ALL_SPLIT

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify(field(3), 0)


class TestNormIndicatorArray:
    def test_against_factorization(self):
        for f in all_fields():
            ind = norm_indicator_array(f, 3000)
            assert not ind[0]   # 0 is no norm value
            for n in range(1, 3001):
                assert bool(ind[n]) == b_indicator(f, n), (f.q, n)

    def test_segment_boundaries(self):
        # limit above two segments so both block seams are exercised
        for f in all_fields():
            ind = norm_indicator_array(f, (2 << 20) + 500)
            for seam in (1 << 20, 2 << 20):
                for n in range(seam - 300, seam + 300):
                    assert bool(ind[n]) == b_indicator(f, n), (f.q, n)

    def test_composite_structure(self):
        # n is a norm value iff it factors as (all-split part) * (even inert
        # powers) * (ramified powers); checked both ways to 1e4 for every field
        from heegner_circles.quadfield import factorize
        for f in all_fields():
            ind = norm_indicator_array(f, 10 ** 4)
            for n in range(1, 10 ** 4 + 1):
                fs = factorize(n)
                structured = all(e % 2 == 0 for p, e in fs if chi(f, p) == -1)
                assert bool(ind[n]) == structured, (f.q, n)


class TestShiftedCount:
    def test_q4_example(self):
        # pairs n, n+1 both sums of two squares below 20: {1,4,8,9,16,17}
        assert shifted_count(field(4), 20, 1) == 6

    def test_q3_example(self):
        assert shifted_count(field(3), 10, 1) == 1

    def test_zero_shift_is_plain_count(self):
        f = field(8)
        ind = norm_indicator_array(f, 500)
        assert shifted_count(f, 500, 0) == int(np.count_nonzero(ind[1:]))

    def test_negative_shift_matches_positive(self):
        # B(x, -h) counts the pairs (n - h, n) with 1 + h <= n <= x, exactly
        f, h, x = field(7), 3, 4000
        ind = norm_indicator_array(f, x)
        want = sum(1 for n in range(1 + h, x + 1) if ind[n] and ind[n - h])
        assert shifted_count(f, x, -h) == want

    @pytest.mark.parametrize("q", [3, 4, 7, 8, 11, 19, 43, 67, 163])
    def test_streamed_pairs_match_whole_array_across_seams(self, q):
        # x on both sides of the first two block seams; the shift S + 7 is
        # longer than a block, so the carried window spans a whole block
        f, S = field(q), bnumbers._BLOCK
        xs = [S - 300, S + 300, 2 * S - 300, 2 * S + 300]
        ind = norm_indicator_array(f, xs[-1] + S + 7)
        for h in (1, 3, -5, q, S + 7):
            lo = max(1, 1 - h)
            for x in xs:
                want = int(np.count_nonzero(ind[lo:x + 1] & ind[lo + h:x + 1 + h]))
                assert shifted_count(f, x, h) == want, (q, x, h)

    @pytest.mark.parametrize("q,x,h", [(4, 2_500_000, -5), (4, 2_500_000, -1000),
                                       (7, 123_456, 3), (163, 54_321, 1)])
    def test_one_pass_counts_match_separate_calls(self, q, x, h):
        # the decades of the curve plus checkpoints inside blocks, off every seam
        f = field(q)
        xs = [v for v in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6) if v < x]
        xs += list(range(x // 7, x + 1, x // 7))
        assert bnumbers._shifted_counts(f, xs, h) == [shifted_count(f, v, h) for v in xs]

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_rejects_a_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite x >= 1"):
            shifted_count(field(4), x, 1)

    def test_memory_does_not_grow_with_x(self):
        # tracemalloc sees numpy's buffers: the sieve holds O(block) bytes
        f = field(4)
        shifted_count(f, 10 ** 4, 1)   # build the small prime table first
        peaks = []
        for x in (2 * 10 ** 6, 6 * 10 ** 6):
            tracemalloc.start()
            try:
                shifted_count(f, x, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 10 ** 6 and peaks[1] < 16 * 10 ** 6, peaks


class TestBuildProgression:
    def test_q3_h1(self):
        sp = build_progression(field(3), 1)
        assert (sp.n0, sp.n1, sp.sigma) == (12, 72, 1)
        assert not sp.negated

    def test_q4_h5(self):
        sp = build_progression(field(4), 5)
        assert (sp.n0, sp.n1) == (16, 320)

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            build_progression(field(3), 0)

    def test_negation_when_nonresidue(self):
        sp = build_progression(field(3), 2)   # 2 is not a square mod 3
        assert sp.negated and sp.h_normalized == -2

    def test_ramified_powers_stripped(self):
        sp = build_progression(field(3), 9)
        assert sp.h_normalized in (1, -1)
        sp = build_progression(field(4), 2)
        assert sp.h_normalized % 2 == 1

    @pytest.mark.parametrize("q,h", [
        (3, 1), (3, -1), (3, 2), (3, 5), (4, 1), (4, 5), (4, -3),
        (7, 1), (7, 2), (8, 1), (8, 3), (11, 2), (19, 1),
        (7, -3), (8, -1), (11, -1), (19, -2), (43, 1), (43, -6),
        (67, 2), (67, -5), (163, 1), (163, -10),
    ])
    def test_indicator_identity_on_terms(self, q, h):
        # the per-term oracle of what ProgressionSpec's construction proves for every j
        f = field(q)
        sp = build_progression(f, h)
        for j in range(1, 101):
            n, m1, m2 = sp.term(j)
            lhs = b_indicator(f, n) and b_indicator(f, n + sp.h_normalized)
            assert lhs == b_indicator(f, m1 * m2), j
            assert (m1 * m2) % 2 == 1 and math.gcd(m1, m2) == 1, j

    def test_sign_rule_and_congruences_written_out_per_q(self):
        # every field and 1 <= |h| <= 3000 against the rule spelled out per q:
        # h keeps its sign when it is a square mod q (q odd), 1 mod 4 (q = 4)
        # or 1, 3 mod 8 (q = 8), and is negated otherwise
        for f in all_fields():
            q = f.q
            ram = 2 if q % 2 == 0 else q
            for h in (*range(-3000, 0), *range(1, 3001)):
                hn = h
                while hn % ram == 0:
                    hn //= ram
                if q == 4:
                    keep = hn % 4 == 1
                elif q == 8:
                    keep = hn % 8 in (1, 3)
                else:
                    keep = pow(hn % q, (q - 1) // 2, q) == 1
                hn = hn if keep else -hn
                base = q * q * abs(hn)
                if q % 2 == 0:
                    want = (hn, not keep, 1, 4 * q, 4 * base)
                elif hn % 2:
                    n0 = next(n for n in range(q, 8 * base, base) if n % 8 == 4)
                    want = (hn, not keep, 1, n0, 8 * base)
                else:
                    want = (hn, not keep, 0, q, base)
                sp = build_progression(f, h)
                assert (sp.h_normalized, sp.negated, sp.sigma, sp.n0, sp.n1) == want, (q, h)

    #: (sigma, n0, n1) for q = 3 and h = -5, each breaking one condition;
    #: build_progression(field(3), 5) is (1, 228, 360)
    BROKEN = {"12 does not divide n0": (1, 232, 360),
              "12 does not divide n1": (1, 228, 365),
              "n1/12 = 15 is odd": (1, 228, 180),
              "h=-5 does not divide n1": (1, 228, 24),
              "share a factor": (1, 60, 360),
              "n0/12 = 2 is even": (1, 24, 360),
              "n0 + h = -2 is even": (0, 3, 30)}

    @pytest.mark.parametrize("message", list(BROKEN))
    def test_each_broken_condition_raises(self, message):
        f, h = field(3), -5
        sigma, n0, n1 = self.BROKEN[message]
        d = 4 ** sigma * 3
        held = [n0 % d == 0, n1 % d == 0, n1 // d % 2 == 0, n1 % h == 0,
                math.gcd(n0, h) == 1, n0 // d % 2 == 1, (n0 + h) % 2 == 1]
        assert held.count(False) == 1, held   # the spec breaks exactly one
        # a spec is checked when it is built, so no invalid spec reaches _sift
        with pytest.raises(IdentityError, match=re.escape(message)):
            bnumbers.ProgressionSpec(f, 5, h, sigma, n0, n1, True)
        sp = build_progression(f, 5)
        with pytest.raises(IdentityError, match=re.escape(message)):
            dataclasses.replace(sp, sigma=sigma, n0=n0, n1=n1)

    def test_indivisible_term_raises(self):
        sp = build_progression(field(3), 1)
        with pytest.raises(IdentityError, match="does not divide n0"):
            dataclasses.replace(sp, n0=sp.n0 + 1)

    @pytest.mark.parametrize("h", [5, 0])
    def test_shift_with_chi_not_one_raises(self, h):
        # chi(5) = -1 for q = 3, which build_progression negates away; chi(0) = 0
        sp = build_progression(field(3), 5)
        assert sp.h_normalized == -5
        with pytest.raises(IdentityError, match=f"chi of the normalized shift {h} is not 1"):
            dataclasses.replace(sp, h_normalized=h)

    def test_odd_inert_count_raises(self, monkeypatch):
        # inert primes enter each term in pairs; reading the split class 1 (mod 3)
        # as inert breaks the pairing on the first term a prime 1 (mod 3) divides oddly
        f = field(3)
        table = quadfield.chi_table(f)
        assert table[1] == 1
        table[1] = -1
        monkeypatch.setattr(bnumbers, "chi_table", lambda fld: table)
        with pytest.raises(IdentityError, match="odd number of inert primes"):
            _sift(f, build_progression(f, 1), 100, 50)


class TestBStarCount:
    def test_below_one(self):
        sp = build_progression(field(3), 1)
        assert b_star_count(field(3), sp, 0.5) == 0

    def test_golden_values(self):
        # frozen from the first run of the per-term factorization
        f = field(3)
        sp = build_progression(f, 1)
        assert b_star_count(f, sp, 100) == 37
        assert b_star_count(f, sp, 500) == 166

    def test_monotone(self):
        f = field(3)
        sp = build_progression(f, 1)
        vals = [b_star_count(f, sp, y) for y in (50, 100, 200)]
        assert vals == sorted(vals)

    def test_dominated_by_shifted_count(self):
        f = field(3)
        sp = build_progression(f, 1)
        y = 150
        bstar = b_star_count(f, sp, y)
        x = sp.n1 * y + sp.n0 + abs(sp.h_normalized)
        assert bstar <= shifted_count(f, x, sp.h_normalized if sp.h_normalized > 0
                                      else -sp.h_normalized)


#: The three public sieve entry points, each as count(fld, spec, y).
SIFT_ENTRY_POINTS = pytest.mark.parametrize(
    "count", [b_star_count, lambda f, sp, y: sifted_count(f, sp, y, 2.5),
              lambda f, sp, y: sifted_decomposition(f, sp, y, 2.5)],
    ids=["b_star_count", "sifted_count", "sifted_decomposition"])


class TestSiftedCount:
    def test_empty_sieve_counts_everything(self):
        f = field(4)
        sp = build_progression(f, 1)
        assert sifted_count(f, sp, 40, 2.5) == 40   # no inert prime below 2.5

    def test_nonincreasing_in_z(self):
        f = field(3)
        sp = build_progression(f, 1)
        vals = [sifted_count(f, sp, 120, z) for z in (3.0, 10.0, 30.0, 100.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("s", [math.inf, math.nan, 0.5, 1.0, -2.0])
    def test_decomposition_rejects_cut_outside_one_to_inf(self, s):
        f = field(3)
        with pytest.raises(ValueError, match="1 < s < inf"):
            sifted_decomposition(f, build_progression(f, 1), 100, s)

    @pytest.mark.parametrize("q", [3, 11, 163, 4])
    @SIFT_ENTRY_POINTS
    def test_rejects_a_field_not_the_progressions_own(self, count, q):
        sp = build_progression(field(7), 3)
        with pytest.raises(ValueError, match=f"progression of q=7 sifted in q={q}"):
            count(field(q), sp, 300)

    @pytest.mark.parametrize("z", [math.nan, 2, -math.inf])
    def test_sifted_count_rejects_a_cut_not_above_two(self, z):
        f = field(7)
        with pytest.raises(ValueError, match="z > 2"):
            sifted_count(f, build_progression(f, 3), 100, z)

    def test_sifted_count_at_infinite_z_counts_the_all_split_terms(self):
        f = field(7)
        sp = build_progression(f, 3)
        assert sifted_count(f, sp, 100, math.inf) == b_star_count(f, sp, 100)

    @pytest.mark.parametrize("y", [math.inf, math.nan, -math.inf])
    @SIFT_ENTRY_POINTS
    def test_rejects_a_non_finite_y(self, count, y):
        f = field(7)
        with pytest.raises(ValueError, match="y must be finite"):
            count(f, build_progression(f, 3), y)

    def test_decomposition_small(self):
        f = field(3)
        sp = build_progression(f, 1)
        dec = sifted_decomposition(f, sp, 300, 2.2)
        assert dec.exact and dec.deeper == 0
        assert dec.sifted == sifted_count(f, sp, 300, 300 ** (1 / 2.2))
        assert dec.all_split == b_star_count(f, sp, 300)


def _inert_primes_per_term(fld, spec, y):
    """The per-term loop: the inert primes, with multiplicity, of both
    factors of each reduced product j <= y, each factor factorized."""
    out = []
    for j in range(1, int(math.floor(y)) + 1):
        _, m1, m2 = spec.term(j)
        out.append([p for m in (m1, m2) for p, e in factorize(m)
                    if chi(fld, p) == -1 for _ in range(e)])
    return out


def _sift_oracle(per_term, z):
    """SiftedDecomposition of the terms whose inert primes are per_term."""
    sifted = all_split = two = four = deeper = 0
    for inert in per_term:
        assert len(inert) % 2 == 0, inert
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


class TestSift:
    @pytest.mark.parametrize("h", [1, -1, 2, 3, 5, 6, 12])
    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_matches_per_term_factorization(self, q, h):
        # z = y^(1/1.2) lies above the sieve bound sqrt(top) for the smaller
        # progressions, where the cofactor left after sieving can lie below z
        f = field(q)
        sp = build_progression(f, h)
        per_term = _inert_primes_per_term(f, sp, 2000)
        for y in (1, 2, 500, 2000):
            for z in (2.5, 50, y ** (1 / 2.5), y ** (1 / 1.2), math.inf):
                assert _sift(f, sp, y, z) == _sift_oracle(per_term[:y], z), (y, z)

    def test_matches_per_term_factorization_with_the_factors_in_two_lanes(self):
        # at y = 200 m1 = 6000006 j + 750001 stays below 2^31 and m2 = 72000072 j
        # + 8000011 passes it at j = 30: one block, m1 in int32 and m2 in int64
        f = field(3)
        sp = build_progression(f, 1000001)
        per_term = _inert_primes_per_term(f, sp, 200)
        for z in (2.5, 50, math.inf):
            assert _sift(f, sp, 200, z) == _sift_oracle(per_term, z), z

    def test_row_across_the_int32_lane_is_pinned(self, monkeypatch):
        # m2 = 1176 j + 1033 passes 2^31 in the second block of 2^20 terms, so one
        # row sieves m2 first in int32, then in int64; frozen from the int64 sieve
        f = field(7)
        sp = build_progression(f, 3)
        values, lanes = bnumbers._LinearForm.values, []

        def spy(form, lo, n):
            terms = values(form, lo, n)
            lanes.append((form.a, terms.dtype.name))
            return terms

        monkeypatch.setattr(bnumbers._LinearForm, "values", spy)
        assert sifted_decomposition(f, sp, 2 * 10 ** 6, 2.5) == SiftedDecomposition(
            463139, 302048, 144497, 16594, 0)
        assert lanes == [(42, "int32"), (1176, "int32"), (42, "int32"), (1176, "int64")]
        assert _sift(f, sp, 2 * 10 ** 6, 50) == SiftedDecomposition(
            682966, 302048, 305143, 75548, 227)

    def test_cli_sieves_past_psi13(self, capsys):
        # m1*m2 reaches 3.4e24 at j = 24, past where factorize is exact, but the
        # top term 3.9e12 is under the sieve's 10^14 cap, so the view sieves;
        # the oracle factorizes m1 and m2 separately
        f = field(7)
        dec = _sift_oracle(_inert_primes_per_term(f, build_progression(f, 1000000003), 10),
                           10 ** (1 / 2.5))
        code = main(["bnumbers", "--q", "7", "--x", "10", "--h", "1000000003", "--s", "2.5"])
        y, _, *counts = capsys.readouterr().out.splitlines()[2].split(",")
        assert (code, y, counts) == (0, "10", [str(c) for c in (dec.sifted, dec.all_split,
                                                                 dec.two_large_inert,
                                                                 dec.four_large_inert)])

    def test_top_term_cap(self, monkeypatch):
        # the largest y whose top term n1*y + n0 + |h| is at most 10^14 reaches
        # the sieve (stopped at its first step here); one more is refused
        f = field(163)
        sp = build_progression(f, 53)
        y = (10 ** 14 - sp.n0 - abs(sp.h_normalized)) // sp.n1

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(bnumbers, "_LinearForm", reached)
        with pytest.raises(Reached):
            _sift(f, sp, y, 50)
        with pytest.raises(ValueError, match="10\\^14"):
            _sift(f, sp, y + 1, 50)


class TestSieveReach:
    @pytest.mark.parametrize("top", [10 ** 14 + 1, 100000037 * 100000049])
    def test_integers_form_refuses_a_top_past_the_cap(self, top):
        # the prime table stops at 10^7, so past 10^14 a cofactor can be a product
        # of two primes above it: m = 100000037 * 100000049 would read as one
        # split prime, r(m) = 8 where r_count gives 16
        with pytest.raises(ValueError, match="exceeds the sieve cap 10\\^14"):
            integers_form(top)

    def test_integers_form_reaches_a_top_of_exactly_the_cap(self, monkeypatch):
        # stopped at the form: no 10^7 prime table is built here
        asked = []

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(quadfield, "prime_table",
                            lambda bound: asked.append(bound) or np.zeros(0, np.int64))
        monkeypatch.setattr(bnumbers, "_LinearForm", reached)
        with pytest.raises(Reached):
            integers_form(10 ** 14)
        assert asked == [10 ** 7]


def _hits_oracle(a, b, primes, top, lo, n):
    """hits(lo, n) by direct divisibility of the block's terms a*j + b: per
    prime, the powers p^k <= top that divide some term, up to the first
    that divides none."""
    out = []
    for p in primes:
        slices, pk = [], p
        while pk <= top:
            offsets = [i for i in range(n) if (a * (lo + i) + b) % pk == 0]
            if not offsets:
                break
            assert offsets == list(range(offsets[0], n, pk))
            slices.append((offsets[0], pk))
            pk *= p
        if slices:
            out.append((p, slices))
    return out


class TestLinearForm:
    PRIMES = quadfield.prime_table(1000).tolist()

    @pytest.mark.parametrize("top", [3 ** 5, 3 ** 5 - 1, 2 ** 10, 2 ** 10 - 1,
                                     997, 996, 10 ** 6, 10 ** 14])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("shared", [False, True], ids=["coprime", "shares-primes"])
    def test_hits_match_direct_divisibility(self, top, n, shared):
        # a sharing primes with the list drops them: they divide no term
        rng = random.Random(f"{top} {n} {shared}")
        for _ in range(4):
            a = rng.randint(1, 10 ** 6) * (2 * 3 * 5 * 7 * 11 if shared else 1)
            b = rng.randint(-10 ** 6, 10 ** 6)
            while math.gcd(a, b) != 1:
                b += 1
            lo = rng.randint(0, 10 ** 9)
            form = bnumbers._LinearForm(a, b, self.PRIMES, top)
            got = list(form.hits(lo, n))
            assert got == _hits_oracle(a, b, self.PRIMES, top, lo, n), (a, b, lo)
            if n == 1:
                term = a * lo + b
                assert [p for p, _ in got] == [p for p in self.PRIMES
                                               if p <= top and term % p == 0]

    @pytest.mark.parametrize("a,b", [(1, 0), (3, 2), (1176, 1033), (72000072, -991)])
    @pytest.mark.parametrize("n", [1, 5])
    def test_values_are_int32_exactly_when_the_last_term_is_below_2_31(self, a, b, n):
        # k is the last index whose term a*k + b is below 2^31
        k = ((1 << 31) - 1 - b) // a
        form = bnumbers._LinearForm(a, b, self.PRIMES, 1 << 40)
        for last, lane in ((k, np.int32), (k + 1, np.int64)):
            got = form.values(last - n + 1, n)
            assert got.dtype == lane, (a, b, last)
            assert got.tolist() == [a * j + b for j in range(last - n + 1, last + 1)]

    def test_common_factor_raises(self):
        # gcd(a, b) > 1 leaves primes that divide every term off the sieve
        with pytest.raises(IdentityError, match=re.escape("linear form 6*j + 4 has a common factor")):
            bnumbers._LinearForm(6, 4, self.PRIMES, 1000)

    def test_forms_for_a_large_shift_hold_no_object_per_prime(self, monkeypatch):
        # q = 163, h = 400001 sieves by the ~7.3e4 primes up to sqrt(top)
        # even at y = 10: each form holds two int64 arrays over them
        f = field(163)
        sp = build_progression(f, 400001)
        quadfield.prime_table(isqrt(sp.n1 * 10 + sp.n0 + abs(sp.h_normalized)))
        forms = []

        class Kept(bnumbers._LinearForm):
            def __init__(self, *args):
                super().__init__(*args)
                forms.append(self)

        monkeypatch.setattr(bnumbers, "_LinearForm", Kept)
        tracemalloc.start()
        try:
            _sift(f, sp, 10, 50)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(forms) == 2 and len(forms[0].primes) > 7 * 10 ** 4
        assert held <= 5 * 10 ** 6, held


class TestIndicatorBlock:
    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    @pytest.mark.parametrize("top", [10 ** 6, 10 ** 9, 10 ** 12])
    def test_matches_b_indicator_around_every_power_of_the_ramified_prime(self, q, top):
        # chi of the cofactor is read per level l^v <= top, so the windows sit on
        # l^v * b for b = 1, the least and the largest residue with chi(b) = -1
        # and the least inert and split primes above sqrt(top), the cofactors
        # no sieving prime sees, each as a block of 7 and as a block of 1;
        # b_indicator factorizes m
        f, form = field(q), integers_form(top)
        inert = np.flatnonzero(quadfield.chi_table(f) == -1).tolist()
        large = {}
        p = isqrt(top)
        while len(large) < 2:
            p = nextprime(p)
            large.setdefault(chi(f, p), p)
        windows, level = [(1, 50), (top - 49, 50)], 1
        while level <= top:
            for m in (level, level * inert[0], level * inert[-1],
                      level * large[-1], level * large[1]):
                lo = max(1, m - 3)
                if m <= top:
                    windows += [(m, 1), (lo, min(7, top + 1 - lo))]
            level *= f.ramified_prime
        for lo, n in windows:
            got = bnumbers._indicator_block(f, form, lo, n).tolist()
            assert got == [b_indicator(f, m) for m in range(lo, lo + n)], (q, top, lo)

    @pytest.mark.parametrize("lo,n", [(200, 20), (0, 5), (95, 7)])
    def test_rejects_m_outside_the_form(self, lo, n):
        # the form over tops <= 100 sieves by the primes <= 10 only, so
        # 209 = 11 * 19, both inert, would read as a norm value
        assert not b_indicator(field(4), 209)
        with pytest.raises(ValueError, match="sieves 1 <= m <= 100"):
            bnumbers._indicator_block(field(4), integers_form(100), lo, n)

    def test_builds_no_int64_array_per_integer(self):
        # one bool array and the parity arrays of the small inert primes
        f, S = field(4), 1 << 18
        form = integers_form(10 ** 7)
        tracemalloc.start()
        try:
            bnumbers._indicator_block(f, form, 10 ** 7 - S, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * S, peak / S


class TestRCountArray:
    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_matches_r_count_across_block_seams(self, q):
        # windows k*block +- (q + 300) around the convolution sum's seams
        f = field(q)
        half = q + 300
        form = integers_form(2 * bnumbers._BLOCK + half)
        for k in (1, 2):
            lo = k * bnumbers._BLOCK - half
            got = r_count_array(f, form, lo, 2 * half).tolist()
            assert got == [r_count(f, m) for m in range(lo, lo + 2 * half)], k

    @pytest.mark.parametrize("lo,n", [(0, 5), (7, 5)])
    def test_rejects_m_outside_the_form(self, lo, n):
        with pytest.raises(ValueError, match="sieves 1 <= m <= 10"):
            r_count_array(field(3), integers_form(10), lo, n)

    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_matches_r_count_at_the_int32_lane_boundary(self, q):
        # windows of 64 ending at 2^31 - 1, in the int32 lane, and at 2^31 and
        # 2^31 + 40, in the int64 lane
        f, n = field(q), 64
        form = integers_form((1 << 31) + 40)
        for last, lane in (((1 << 31) - 1, np.int32), (1 << 31, np.int64),
                           ((1 << 31) + 40, np.int64)):
            got = r_count_array(f, form, last - n + 1, n)
            assert got.dtype == lane, last
            assert got.tolist() == [r_count(f, m) for m in range(last - n + 1, last + 1)], last

    def test_peaks_under_12_bytes_per_integer_below_2_31(self):
        # the terms (reduced in place) and the counts in int32, the odd and
        # cofactor marks in bool and chi of the cofactor in int8: 11 B an integer
        f, S = field(3), 1 << 18
        form = integers_form((1 << 31) - 1)
        tracemalloc.start()
        try:
            r_count_array(f, form, (1 << 31) - S, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * S, peak / S

    @given(st.sampled_from([f.q for f in all_fields()]), st.integers(1, 10 ** 9))
    @example(4, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_factorint(self, q, lo):
        _check_r_count_array_by_factorint(q, lo)

    @given(st.sampled_from([f.q for f in all_fields()]), st.integers(1 << 31, 10 ** 11))
    @example(4, 1 << 31)
    @settings(max_examples=30, deadline=None)
    def test_matches_sympy_factorint_in_the_int64_lane(self, q, lo):
        _check_r_count_array_by_factorint(q, lo)


def _check_r_count_array_by_factorint(q, lo):
    """r(m) = unit_count * prod (e + 1) over split p^e, 0 on an odd inert
    exponent, for the 64 m from lo, with factorint and sympy's Kronecker
    symbol as the oracle."""
    f = field(q)
    n = 64
    got = r_count_array(f, integers_form(lo + n - 1), lo, n).tolist()
    for m, r in zip(range(lo, lo + n), got):
        want = f.unit_count
        for p, e in factorint(m).items():
            c = kronecker_symbol(-q, p)
            if c == 1:
                want *= e + 1
            elif c == -1 and e % 2:
                want = 0
        assert r == want, m


class TestPairBlocks:
    @pytest.mark.parametrize("kernel,value", [(bnumbers._indicator_block, b_indicator),
                                              (r_count_array, r_count)],
                             ids=["indicator", "r_count"])
    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_blocks_are_per_m_products_across_the_seam(self, q, kernel, value):
        # m runs over [lo, BLOCK + 400), so the first block seam falls inside
        # it; the blocks tile the range from lo, and around the first m and
        # the seam each value is kernel(m) * kernel(m + h), read per m
        f, S = field(q), bnumbers._BLOCK
        for h in (-q, -5, 0, 3, q):
            lo, hi = max(1, 1 - h), S + 400
            checked = [*range(lo, lo + 100), *range(S - 400, hi)]
            end, values = lo, {}
            for start, prod in bnumbers._pair_blocks(f, kernel, lo, hi, h):
                assert start == end and (start == lo or S - 400 <= start), (q, h, start)
                end = start + len(prod)
                values.update((m, int(prod[m - start])) for m in checked if start <= m < end)
            assert end == hi and len(values) == len(checked), (q, h)
            for m, got in values.items():
                assert got == int(value(f, m)) * int(value(f, m + h)), (q, h, m)
