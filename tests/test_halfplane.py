import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegner_circles.halfplane import (UnimodularMatrix, apply_mobius,
                                       arithmetic_radius, congruence_holds,
                                       congruence_holds_full, coords_from_split,
                                       cosh_distance, disc_map, integer_coords,
                                       matrix_from_split, split_coordinates)
from heegner_circles import halfplane
from heegner_circles.quadfield import AlgebraicInt, IdentityError, all_fields, field
from oracles import ext_gcd


def random_matrices(seed, count, bound=40):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if math.gcd(c, d) != 1:
            continue
        # extend (c, d) to a unimodular matrix, then shear
        g, x, y = ext_gcd(d, -c)
        t = rng.randint(-4, 4)
        out.append(UnimodularMatrix(x + t * c, y + t * d, c, d))
    return out


class TestMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 1, 1, 1)

    def test_sign_canonicalization(self):
        assert UnimodularMatrix(-1, 0, 0, -1) == UnimodularMatrix.identity()
        g = UnimodularMatrix(-1, -1, 0, -1)
        assert g.entries() == (1, 1, 0, 1)
        h = UnimodularMatrix(0, 1, -1, 0)
        assert h.c > 0

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_canonical_rep_is_stable(self, c, d, t):
        if math.gcd(c, d) != 1:
            return
        g, x, y = ext_gcd(d, -c)
        m = UnimodularMatrix(x + t * c, y + t * d, c, d)
        flipped = UnimodularMatrix(-m.a, -m.b, -m.c, -m.d)
        assert m == flipped


class TestCoshDistance:
    def test_same_point(self):
        assert cosh_distance(1j, 1j) == 1.0

    def test_examples(self):
        assert abs(cosh_distance(1j, 2j) - 1.25) < 1e-15
        assert abs(cosh_distance(1j, 1 + 1j) - 1.5) < 1e-15

    def test_symmetric(self):
        z, w = 0.3 + 0.9j, -1.2 + 2.4j
        assert cosh_distance(z, w) == cosh_distance(w, z)

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            cosh_distance(1j, 1 - 1j)


class TestArithmeticRadius:
    def test_identity_matrix(self):
        for f in all_fields():
            assert arithmetic_radius(f, UnimodularMatrix.identity()) == f.q

    def test_translation_examples(self):
        g = UnimodularMatrix(1, 1, 0, 1)
        assert arithmetic_radius(field(3), g) == 5
        assert arithmetic_radius(field(4), g) == 6

    def test_parity(self):
        for f in all_fields():
            for g in random_matrices(f.q, 200):
                assert arithmetic_radius(f, g) % 2 == f.q % 2

    def test_matches_cosh_distance(self):
        for f in all_fields():
            for g in random_matrices(100 + f.q, 300):
                two_n = arithmetic_radius(f, g)
                ch = cosh_distance(f.z, apply_mobius(g, f.z))
                assert abs(ch - two_n / f.q) <= 1e-6 * max(1.0, two_n / f.q)

    @pytest.mark.parametrize("q,v", [(3, 8 * 7 + 4), (3, 8 * 6), (4, 8 * 5)],
                             ids=["not-a-multiple-of-8", "odd-q-even-radius",
                                  "even-q-odd-radius"])
    def test_off_lattice_radius_raises(self, monkeypatch, q, v):
        # an IdentityError, not an assert, so the check survives python -O
        monkeypatch.setattr(halfplane, "_radius16", lambda fld, a, b, c, d: v)
        with pytest.raises(IdentityError, match=f"16R = {v}"):
            arithmetic_radius(field(q), UnimodularMatrix.identity())


class TestMobius:
    def test_identity(self):
        z = 0.7 + 1.3j
        assert apply_mobius(UnimodularMatrix.identity(), z) == z

    def test_inversion_fixes_i(self):
        g = UnimodularMatrix(0, -1, 1, 0)
        assert abs(apply_mobius(g, 1j) - 1j) < 1e-15

    def test_translation(self):
        g = UnimodularMatrix(1, 1, 0, 1)
        assert apply_mobius(g, 1j) == 1 + 1j

    def test_imaginary_part_formula(self):
        g = UnimodularMatrix(2, 1, 3, 2)
        z = 0.25 + 2.0j
        w = apply_mobius(g, z)
        assert abs(w.imag - z.imag / abs(3 * z + 2) ** 2) < 1e-15


class TestDiscMap:
    def test_centre_to_origin(self):
        for f in all_fields():
            assert abs(disc_map(f, f.z)) < 1e-15

    def test_q4_example(self):
        # f(2i) = i(2i - i)/(2i + i) = i/3
        assert abs(disc_map(field(4), 2j) - 1j / 3) < 1e-15

    def test_modulus_formula(self):
        # |f(w)|^2 = (cosh - 1)/(cosh + 1)
        rng = random.Random(5)
        for f in all_fields():
            for _ in range(50):
                w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5))
                ch = cosh_distance(f.z, w)
                assert abs(abs(disc_map(f, w)) ** 2 - (ch - 1) / (ch + 1)) < 1e-12

    def test_inside_unit_disc(self):
        f = field(7)
        for w in (0.1 + 0.2j, 5 + 0.01j, -3 + 40j):
            assert abs(disc_map(f, w)) < 1.0


class TestIntegerCoords:
    def test_identity_maps_to_origin(self):
        for f in all_fields():
            assert integer_coords(f, UnimodularMatrix.identity()) == (0, 0)

    def test_q3_translation(self):
        # (h, Y) = (2, 2): the point (sqrt(3), 1)
        assert integer_coords(field(3), UnimodularMatrix(1, 1, 0, 1)) == (2, 2)

    def test_norm_identity_exact(self):
        for f in all_fields():
            for g in random_matrices(7 * f.q + 1, 400):
                h, Y = integer_coords(f, g)
                two_n = arithmetic_radius(f, g)
                assert f.q * h * h + Y * Y == two_n * two_n - f.q ** 2

    def test_disc_map_identity(self):
        for f in all_fields():
            for g in random_matrices(11 * f.q + 2, 100):
                h, Y = integer_coords(f, g)
                two_n = arithmetic_radius(f, g)
                n_plus = (two_n + f.q) // 2
                w = disc_map(f, apply_mobius(g, f.z))
                target = complex(h * math.sqrt(f.q) / 2, Y / 2)
                assert abs(n_plus * w - target) <= 1e-6 * n_plus


class TestSplitCoordinates:
    def test_q3_translation(self):
        f = field(3)
        r, u, s, t = split_coordinates(f, UnimodularMatrix(1, 1, 0, 1))
        assert (r, u, s, t) == (2, 0, 0, 1)
        assert AlgebraicInt(u, r, f).norm() == 4
        assert AlgebraicInt(t, s, f).norm() == 1

    def test_identity_matrix(self):
        for f in all_fields():
            r, u, s, t = split_coordinates(f, UnimodularMatrix.identity())
            assert (r, s, t) == (2, 0, 0)
            assert u == -f.two_mu
            assert AlgebraicInt(t, s, f).norm() == 0
            assert AlgebraicInt(u, r, f).norm() == f.q

    def test_norms(self):
        for f in all_fields():
            for g in random_matrices(13 * f.q + 3, 300):
                r, u, s, t = split_coordinates(f, g)
                two_n = arithmetic_radius(f, g)
                assert AlgebraicInt(u, r, f).norm() == (two_n + f.q) // 2
                assert AlgebraicInt(t, s, f).norm() == (two_n - f.q) // 2

    def test_product_identity(self):
        # Y + i*sqrt(q)*h = doubled (u + r z)(t + s z-bar)
        for f in all_fields():
            for g in random_matrices(17 * f.q + 4, 300):
                rust = split_coordinates(f, g)
                assert coords_from_split(f, *rust) == integer_coords(f, g)

    def test_roundtrip(self):
        for f in all_fields():
            for g in random_matrices(19 * f.q + 5, 300):
                assert matrix_from_split(f, *split_coordinates(f, g)) == g

    def test_matrix_coords_satisfy_congruence(self):
        for f in all_fields():
            for g in random_matrices(23 * f.q + 6, 300):
                assert congruence_holds(f, *split_coordinates(f, g))

    def test_reconstruction_rejects_bad_quadruple(self):
        f = field(3)
        # r + 2u != s + 2t (mod 3)
        assert not congruence_holds(f, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            matrix_from_split(f, 1, 0, 0, 0)


class TestCongruenceSystem:
    @given(st.tuples(st.integers(-60, 60), st.integers(-60, 60),
                     st.integers(-60, 60), st.integers(-60, 60)))
    @settings(max_examples=500, deadline=None)
    def test_reduced_equals_full(self, v):
        for f in all_fields():
            assert congruence_holds(f, *v) == congruence_holds_full(f, *v)

    def test_q8_shape(self):
        f = field(8)
        assert congruence_holds(f, 1, 4, 3, 0)
        assert not congruence_holds(f, 1, 4, 3, 2)
        assert not congruence_holds(f, 1, 4, 2, 4)

    @pytest.mark.parametrize("q", [f.q for f in all_fields()])
    def test_closed_form_matches_the_4x4_rows(self, q):
        # the integer matrix T with q (a, b, c, d) = T (r, u, s, t), written out
        # as the reference the closed-form inverse and the full check must match
        f = field(q)
        tm, z2 = f.two_mu, f.z_norm
        T = [[2 * z2 - tm, -tm, 2 * z2, tm],
             [tm * z2, 2 * z2, -tm * z2, 2 * z2 - tm],
             [-tm, -2, tm, 2],
             [2 * z2, tm, -2 * z2, -tm]]
        # [-6, 6]^4 reaches u - t and r - s only in [-12, 12]; (b, a, 0, 0) covers
        # every residue class of both modulo q
        every_class = ((b, a, 0, 0) for a in range(q) for b in range(q))
        for v in itertools.chain(itertools.product(range(-6, 7), repeat=4), every_class):
            nums = [sum(x * y for x, y in zip(row, v)) for row in T]
            integral = all(n % q == 0 for n in nums)
            assert congruence_holds_full(f, *v) == integral, v
            assert congruence_holds(f, *v) == integral, v
            if not integral:
                with pytest.raises(ValueError, match="congruence"):
                    matrix_from_split(f, *v)
                continue
            a, b, c, d = (n // q for n in nums)
            if a * d - b * c == 1:
                assert matrix_from_split(f, *v) == UnimodularMatrix(a, b, c, d), v
            else:
                with pytest.raises(ValueError, match="determinant"):
                    matrix_from_split(f, *v)
