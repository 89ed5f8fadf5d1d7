"""Hyperbolic geometry of the upper half-plane over the modular group.

Distances, the integer-valued scaled radius 2R attached to a matrix and a
Heegner point, the conformal map onto the unit disc, and the exact integer
coordinate systems (h, Y) and (r, u, s, t) that tie matrices to algebraic
integers.  Scale conventions, used throughout the package:

    two_n = 2R = q * cosh(distance)     (integer; parity == parity of q)
    h     = x / lambda                  (integer)
    Y     = 2 y                         (integer;  q h^2 + Y^2 = two_n^2 - q^2)
"""
from __future__ import annotations

from dataclasses import dataclass

from .quadfield import AlgebraicInt, Discriminant, IdentityError


@dataclass(frozen=True, order=True)
class UnimodularMatrix:
    """Element of PSL(2, Z): det = 1, sign canonicalized at construction.

    The representative of {gamma, -gamma} is the one with c > 0, or c = 0
    and d > 0, so tuple comparison of instances is comparison in PSL(2, Z).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {(self.a, self.b, self.c, self.d)} is not 1")
        if not (self.c > 0 or (self.c == 0 and self.d > 0)):
            for k in "abcd":
                object.__setattr__(self, k, -getattr(self, k))

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def cosh_distance(z: complex, w: complex) -> float:
    """cosh of the hyperbolic distance between two upper half-plane points."""
    if z.imag <= 0 or w.imag <= 0:
        raise ValueError("points must lie in the upper half-plane")
    return 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)


def apply_mobius(gamma: UnimodularMatrix, z: complex) -> complex:
    """(az + b) / (cz + d)."""
    if z.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    return (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)


def _radius16(fld: Discriminant, a: int, b: int, c: int, d: int) -> int:
    # 16 * R(a,b,c,d; z_q), exact; P = 4 |z_q|^2
    tm = fld.two_mu
    P = fld.q + tm
    return (4 * a * a * P + 16 * b * b + c * c * P * P + 4 * d * d * P
            + 4 * tm * (a - d) * (4 * b - c * P) - 8 * tm * (a * d + b * c))


def arithmetic_radius(fld: Discriminant, gamma: UnimodularMatrix) -> int:
    """two_n = 2R(gamma; z_q) = q * cosh(rho(z_q, gamma z_q)), exact."""
    v = _radius16(fld, *gamma.entries())
    if v % 16 != 8 * (fld.q % 2):
        raise IdentityError(f"q={fld.q} gamma={gamma.entries()}: 16R = {v} is not "
                            "8 times an integer of the parity of q")
    return v // 8


def disc_map(fld: Discriminant, w: complex) -> complex:
    """Conformal map of the half-plane onto the unit disc sending z_q to 0."""
    if w.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    z = fld.z
    return 1j * (w - z) / (w - z.conjugate())


def integer_coords(fld: Discriminant, gamma: UnimodularMatrix) -> tuple[int, int]:
    """(h, Y): scaled disc-image coordinates of gamma, exact integers.

    The image of gamma z_q under disc_map, multiplied by (two_n + q)/2,
    is (h*sqrt(q) + i Y)/2.  Satisfies q h^2 + Y^2 = two_n^2 - q^2.
    """
    a, b, c, d = gamma.entries()
    tm = fld.two_mu
    two_n = arithmetic_radius(fld, gamma)
    ncd = AlgebraicInt(d, c, fld).norm()
    Y = two_n - fld.q * ncd
    h = 2 * fld.z_norm * a * c + 2 * b * d + tm * (a * d + b * c) - tm * ncd
    return h, Y


def split_coordinates(fld: Discriminant, gamma: UnimodularMatrix) -> tuple[int, int, int, int]:
    """(r, u, s, t): the algebraic-integer coordinates of gamma.

    u + r z_q has norm (two_n + q)/2 and t + s z_q has norm (two_n - q)/2.
    All four are plain integers: |z_q|^2 = (q + two_mu)/4 is integral for
    every class-number-one q.
    """
    a, b, c, d = gamma.entries()
    tm = fld.two_mu
    z2 = fld.z_norm
    return (a + d, b - z2 * c - tm * d, a - d - tm * c, b + z2 * c)


def coords_from_split(fld: Discriminant, r: int, u: int, s: int, t: int) -> tuple[int, int]:
    """(h, Y) from (r,u,s,t) via the product identity y + ix = (u+rz)(t+s z-bar)."""
    tm = fld.two_mu
    h = r * t - u * s
    return h, 2 * fld.z_norm * r * s + 2 * u * t + tm * (r * t + u * s)


def congruence_holds(fld: Discriminant, r: int, u: int, s: int, t: int) -> bool:
    """The integrality condition on (r,u,s,t), reduced: u + r z_q = t + s z_q
    (mod sqrt(-q)), as quadfield._unit_blocks shows.  With a = u - t, b = r - s and
    conj(sqrt(-q)) = two_mu - 2 z_q of norm q, that is q | (a + b z_q) conj(sqrt(-q)),
    whose coordinates are two_mu a + 2|z_q|^2 b and -(2a + two_mu b)."""
    a, b, tm = u - t, r - s, fld.two_mu
    return (2 * a + tm * b) % fld.q == 0 and (tm * a + 2 * fld.z_norm * b) % fld.q == 0


def congruence_holds_full(fld: Discriminant, r: int, u: int, s: int, t: int) -> bool:
    """The unreduced form of the integrality condition (test oracle): q times
    (a, b, c, d) is the integer matrix below applied to (r, u, s, t)."""
    tm, z2 = fld.two_mu, fld.z_norm
    rows = ((2 * z2 - tm, -tm, 2 * z2, tm),
            (tm * z2, 2 * z2, -tm * z2, 2 * z2 - tm),
            (-tm, -2, tm, 2),
            (2 * z2, tm, -2 * z2, -tm))
    return all((x * r + y * u + z * s + w * t) % fld.q == 0 for x, y, z, w in rows)


def matrix_from_split(fld: Discriminant, r: int, u: int, s: int, t: int) -> UnimodularMatrix:
    """Invert split_coordinates.  Raises if the congruence filter was violated.

    t - u = 2|z_q|^2 c + two_mu d and r - s = 2d + two_mu c, and
    4|z_q|^2 - two_mu^2 = q, so q c = 2(t - u) - two_mu (r - s); then
    a = (r + s + two_mu c)/2, b = t - |z_q|^2 c and d = r - a.
    """
    c, qc_rem = divmod(2 * (t - u) - fld.two_mu * (r - s), fld.q)
    two_a = r + s + fld.two_mu * c
    if qc_rem or two_a % 2:
        raise ValueError(f"(r,u,s,t)={(r, u, s, t)} does not satisfy the congruence "
                         f"system for q={fld.q}")
    return UnimodularMatrix(two_a // 2, t - fld.z_norm * c, c, r - two_a // 2)
