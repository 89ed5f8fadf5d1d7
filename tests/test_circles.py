import cmath
import math

import pytest

from conftest import radii_within
from heegner_circles import circles
from heegner_circles.bnumbers import _BLOCK
from heegner_circles.circles import (CirclePoint, Radius, angles,
                                     brute_force_by_radius,
                                     brute_force_matrices, enumerate_pairs,
                                     lattice_points, pairs_to_matrices,
                                     radii_up_to, stabilizer_size)
from heegner_circles.halfplane import arithmetic_radius, congruence_holds, split_coordinates
from heegner_circles.quadfield import (AlgebraicInt, IdentityError, all_fields, b_indicator,
                                       factorize, field, r_count, r_star, v_k,
                                       _unit_blocks)


def per_candidate_radii(f, lo_two_n, hi_two_n):
    """two_n in [lo, hi] of the right parity with n_plus and n_minus both norms."""
    q = f.q
    return [tn for tn in range(lo_two_n, hi_two_n + 1, 2)
            if b_indicator(f, (tn + q) // 2) and b_indicator(f, (tn - q) // 2)]


def every_block_pair(radius):
    """enumerate_pairs' (r, u, s, t), sorted, with every pair of unit blocks tested."""
    f = radius.field
    f_minus, f_plus = radius.factors
    out = []
    for block in _unit_blocks(f, radius.n_plus, f_plus):
        for other in _unit_blocks(f, radius.n_minus, f_minus):
            if congruence_holds(f, block[0][1], block[0][0], other[0][1], other[0][0]):
                out += [(r, u, s, t) for u, r in block if (r, u) > (0, 0) for t, s in other]
    return sorted(out)


class TestRadius:
    def test_derived_constants(self):
        r = Radius(field(3), 5)
        assert (r.n_plus, r.n_minus, r.c4) == (4, 1, 1)
        r = Radius(field(3), 9)      # q | two_n
        assert r.c4 == 2
        r = Radius(field(4), 8)      # q even, 4 | two_n
        assert r.c4 == 2
        r = Radius(field(4), 6)
        assert r.c4 == 1

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            Radius(field(3), 6)
        with pytest.raises(ValueError):
            Radius(field(4), 3)

    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_factor_lists_match_factorize(self, q):
        # every realized radius to two_n = 3000, plus realized radii near 4e6
        # whose products lie above the SPF table (trial division + rho there)
        f = field(q)
        lo = 4_000_000 + q % 2
        far = [Radius(f, tn) for tn in per_candidate_radii(f, lo, lo + 600)[:3]]
        assert far and all(r.norm_product >= 1 << 21 for r in far)
        for r in radii_up_to(f, 1500) + far:
            assert r.factors == (factorize(r.n_minus), factorize(r.n_plus)), r.two_n
            assert r.norm_factors == factorize(r.norm_product), r.two_n
            assert r.factors is r.factors and r.norm_factors is r.norm_factors

    def test_centre_allowed_but_empty(self):
        r = Radius(field(3), 3)
        with pytest.raises(ValueError):
            enumerate_pairs(r)
        with pytest.raises(ValueError):
            lattice_points(r)


class TestRadiiUpTo:
    def test_q3_small(self):
        assert [r.two_n for r in radii_up_to(field(3), 3)] == [5]

    def test_q4_small(self):
        assert [r.two_n for r in radii_up_to(field(4), 3)] == [6]

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_x(self, x):
        with pytest.raises(ValueError, match="x must be finite"):
            radii_up_to(field(3), x)

    def test_matches_brute_force_nonemptiness(self):
        for f in all_fields():
            if f.q > 200:
                continue
            fast = {r.two_n for r in radii_up_to(f, 100)}
            oracle = {tn for tn, ms in brute_force_by_radius(f, 200).items()
                      if ms and tn > f.q}
            assert fast == oracle, f.q

    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_matches_per_candidate_definition(self, q):
        f = field(q)
        for x in (q / 2, q / 2 + 1, 57.5, 1500):
            if x < q / 2:
                continue
            got = [r.two_n for r in radii_up_to(f, x)]
            assert got == per_candidate_radii(f, q + 2, int(2 * x)), x

    @pytest.mark.parametrize("q", [3, 163])
    def test_window_across_sieve_segment_boundary(self, q):
        # n_minus and n_plus = n_minus + q both cross the sieve's first block
        # edge inside the window; only the window is checked against b_indicator
        f = field(q)
        lo_m, hi_m = _BLOCK - 300, _BLOCK + 300
        got = [r.two_n for r in radii_up_to(f, hi_m + q / 2) if r.n_minus >= lo_m]
        want = per_candidate_radii(f, 2 * lo_m + q, 2 * hi_m + q)
        assert want and got == want


class TestPairCounts:
    @pytest.mark.parametrize("q,two_n,expect", [
        (11, 29, 6),    # figure: 6 points at radius 29/2
        (11, 61, 9),    # figure: 9 points at radius 61/2
        (3, 5, 9),
    ])
    def test_counts(self, q, two_n, expect):
        assert len(enumerate_pairs(Radius(field(q), two_n))) == expect

    def test_count_formula(self):
        for f in all_fields():
            for radius in radii_within(f, 90):
                pairs = enumerate_pairs(radius)
                expect4 = radius.c4 * r_count(f, radius.n_minus) * r_count(f, radius.n_plus)
                assert expect4 % 4 == 0
                assert len(pairs) == expect4 // 4, (f.q, radius.two_n)

    def test_congruence_tested_once_per_unit_block_pair(self, monkeypatch):
        calls = []
        original = circles.congruence_holds

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(circles, "congruence_holds", counted)
        for q, two_n in ((3, 4000931), (3, 4000949), (4, 1002766), (8, 1000720), (163, 1001595)):
            f = field(q)
            radius = Radius(f, two_n)
            calls.clear()
            pairs = enumerate_pairs(radius)
            assert pairs and len(pairs) == len({p.rust for p in pairs}), two_n
            assert len(calls) <= f.unit_count ** 2, (q, two_n, len(calls))

    def test_congruence_skips_blocks_without_canonical_elements(self, monkeypatch):
        calls = []
        original = circles.congruence_holds

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(circles, "congruence_holds", counted)
        enumerate_pairs(Radius(field(3), 5))
        # six plus-side blocks of one element each, three of them canonical
        assert len(calls) == 18
        for f in all_fields():
            calls.clear()
            radii = radii_within(f, 100)
            got = [[p.rust for p in enumerate_pairs(r)] for r in radii]
            assert len(calls) <= f.unit_count ** 2 * len(radii), f.q
            assert got == [every_block_pair(r) for r in radii], f.q

    def test_pair_of_the_wrong_norm_raises(self, monkeypatch):
        # every pair is built from the unit blocks' tuples, then checked as elements
        monkeypatch.setattr(circles, "AlgebraicInt", lambda u, r, fld: AlgebraicInt(u + 1, r, fld))
        with pytest.raises(IdentityError, match="has the wrong norms"):
            enumerate_pairs(Radius(field(3), 5))

    def test_canonical_sign(self):
        for p in enumerate_pairs(Radius(field(3), 5)):
            rust = p.rust
            lead = next(x for x in rust if x != 0)
            assert lead > 0


class TestPairsToMatrices:
    def test_known_matrix(self):
        f = field(3)
        radius = Radius(f, 5)
        pairs = enumerate_pairs(radius)
        mats = pairs_to_matrices(radius, pairs)
        assert any(m.entries() == (1, 1, 0, 1) for m in mats)
        for m in mats:
            assert arithmetic_radius(f, m) == 5

    def test_roundtrip_split_coordinates(self):
        for f in all_fields():
            for radius in radii_within(f, 60):
                pairs = enumerate_pairs(radius)
                rusts = {p.rust for p in pairs}
                mats = pairs_to_matrices(radius, pairs)
                back = set()
                for m in mats:
                    r, u, s, t = split_coordinates(f, m)
                    lead = next((x for x in (r, u, s, t) if x != 0), 0)
                    if lead < 0:
                        r, u, s, t = -r, -u, -s, -t
                    back.add((r, u, s, t))
                assert back == rusts, (f.q, radius.two_n)


    def test_pair_of_another_radius_raises(self):
        f = field(3)
        with pytest.raises(IdentityError, match="maps to radius 11"):
            pairs_to_matrices(Radius(f, 5), Radius(f, 11).pairs)

    def test_duplicate_pair_raises(self):
        radius = Radius(field(3), 5)
        pairs = radius.pairs
        with pytest.raises(IdentityError, match="to the same matrix"):
            pairs_to_matrices(radius, pairs + pairs[:1])


class TestBruteForce:
    def test_stabilizer_at_centre(self):
        assert len(brute_force_matrices(Radius(field(3), 3))) == 3
        assert len(brute_force_matrices(Radius(field(4), 4))) == 2
        assert len(brute_force_matrices(Radius(field(7), 7))) == 1
        for f in all_fields():
            assert stabilizer_size(f) == f.unit_count // 2

    def test_q4_example(self):
        assert len(brute_force_matrices(Radius(field(4), 6))) == 8

    def test_oracle_equivalence_small(self):
        for f in all_fields():
            sweep = brute_force_by_radius(f, 120)
            for radius in radii_within(f, 60):
                pairs = enumerate_pairs(radius)
                fast = pairs_to_matrices(radius, pairs)
                assert fast == sweep.get(radius.two_n, []), (f.q, radius.two_n)
                assert fast == brute_force_matrices(radius)

    def test_sweep_consistent_with_single_calls(self):
        f = field(8)
        sweep = brute_force_by_radius(f, 40)
        for tn, ms in sweep.items():
            assert ms == brute_force_matrices(Radius(f, tn))

    def test_matrix_off_its_radius_raises(self, monkeypatch):
        # an IdentityError, not an assert, so the check survives python -O
        monkeypatch.setattr(circles, "arithmetic_radius", lambda fld, g: -1)
        with pytest.raises(IdentityError, match="of another radius"):
            brute_force_matrices(Radius(field(4), 6))

    def test_sweep_value_off_the_lattice_raises(self, monkeypatch):
        # 16R must be a multiple of 8 on every row the sweep walks
        original = circles._radius16
        monkeypatch.setattr(circles, "_radius16", lambda *args: original(*args) + 1)
        with pytest.raises(IdentityError, match="is not divisible by 8"):
            brute_force_by_radius(field(3), 40)

    def test_row_ends_are_exact(self):
        # lo..hi are exactly the t with 16R <= 8 max_two_n: the bound holds on the
        # whole interval and fails just past each end, on the empty rows too
        empty = {}
        for f in all_fields():
            for max_two_n in (f.q + 2, 400, 2000):
                target = 8 * max_two_n
                empty[f.q, max_two_n] = 0
                for _, (A, B, C), (lo, hi) in circles._rows(f, max_two_n):
                    values = [A * t * t + B * t + C for t in range(lo - 1, hi + 2)]
                    assert values[0] > target and values[-1] > target, (f.q, max_two_n, lo, hi)
                    assert max(values[1:-1], default=target) <= target, (f.q, max_two_n, lo, hi)
                    empty[f.q, max_two_n] += lo == hi + 1
        assert empty[3, 2000] == 144


class TestLatticePoints:
    def test_q3_two_n_5(self):
        pts = lattice_points(Radius(field(3), 5))
        assert {(p.h, p.Y) for p in pts} == {(2, 2), (-2, 2), (0, -4)}

    def test_q11_figure_count(self):
        assert len(lattice_points(Radius(field(11), 29))) == 6

    def test_multiplicity(self):
        for f in all_fields():
            for radius in radii_within(f, 50):
                pairs = enumerate_pairs(radius)
                pts = lattice_points(radius)
                assert len(pairs) == len(pts) * f.unit_count // 2

    def test_count_formulas(self):
        for f in all_fields():
            for radius in radii_within(f, 80):
                pts = lattice_points(radius)
                expect2 = radius.c4 * r_count(f, radius.norm_product)
                assert len(pts) == expect2 // 2
                assert len(pts) == r_star(f, radius.norm_product)

    def test_point_invariants(self):
        f = field(19)
        for radius in radii_within(f, 60):
            for p in lattice_points(radius):
                assert f.q * p.h ** 2 + p.Y ** 2 == radius.two_n ** 2 - f.q ** 2
                assert (p.Y - radius.two_n) % f.q == 0

    def test_reflection_symmetry(self):
        # (h, Y) -> (-h, Y) preserves the defining conditions
        for radius in radii_up_to(field(7), 40):
            pts = {(p.h, p.Y) for p in lattice_points(radius)}
            assert {(-h, Y) for (h, Y) in pts} == pts

    def test_point_hit_off_its_multiplicity_raises(self, monkeypatch):
        # one pair moved onto another pair's point: the point count still
        # matches the closed form, only the multiplicity check sees it
        original = circles.coords_from_split
        first, done = [], []

        def moved(fld, *rust):
            pt = original(fld, *rust)
            if not first:
                first.append(pt)
            elif pt != first[0] and not done:
                done.append(pt)
                return first[0]
            return pt

        monkeypatch.setattr(circles, "coords_from_split", moved)
        with pytest.raises(IdentityError, match="is not hit 3 times"):
            Radius(field(3), 5).pairs_by_point

    def test_invalid_point_rejected(self):
        with pytest.raises(IdentityError):
            CirclePoint(1, 1, field(3), 5)


class TestAngles:
    def test_q3_two_n_5(self):
        got = angles(Radius(field(3), 5))
        want = [math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2]
        assert len(got) == 3
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))

    def test_sorted_in_range(self):
        for radius in radii_up_to(field(8), 60):
            got = angles(radius)
            assert got == sorted(got)
            assert all(0 <= a < 2 * math.pi for a in got)

    def test_weyl_sum_identity(self):
        # |sum over points of e^{ik theta(y+ix)}| = r_star * v_k, k <= 20
        for f in all_fields():
            for radius in radii_within(f, 60):
                M = radius.norm_product
                ws = [math.atan2(p.h * math.sqrt(f.q), p.Y) for p in lattice_points(radius)]
                for k in range(1, 21):
                    s = abs(sum(cmath.exp(1j * k * a) for a in ws))
                    assert abs(s - r_star(f, M) * v_k(f, M, k)) < 1e-9

    def test_count_equals_point_count(self):
        radius = Radius(field(11), 61)
        assert len(angles(radius)) == 9


class TestRealizedRadii:
    def test_every_brute_force_radius_has_b_condition(self):
        for f in all_fields():
            sweep = brute_force_by_radius(f, 150)
            for tn, ms in sweep.items():
                if tn <= f.q:
                    continue
                got = b_indicator(f, ((tn + f.q) // 2) * ((tn - f.q) // 2))
                assert got == bool(ms), (f.q, tn)
