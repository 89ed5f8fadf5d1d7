"""Reference implementations that only the tests call: each is the slow,
direct form of a library path, kept here so that src/ holds what the CLI,
a public name or the benchmark reaches."""
from heegner_circles.equidist import _normalized
from heegner_circles.quadfield import AlgebraicInt, Discriminant, _restricted_coords


def _discrepancy_pairs(angles_seq: list[float]) -> float:
    """The sup over arcs with endpoints at data angles, taken closed
    (point-heavy side) or open (length-heavy side); O(N^2), test oracle."""
    ph_all = _normalized(angles_seq)
    n = len(ph_all)
    # compress ties (repeated angles from the unit action) into multiplicities
    ph: list[float] = []
    cnt: list[int] = []
    for a in ph_all:
        if ph and a == ph[-1]:
            cnt[-1] += 1
        else:
            ph.append(a)
            cnt.append(1)
    m = len(ph)
    cum = [0]
    for c in cnt:
        cum.append(cum[-1] + c)
    best = 0.0
    for i in range(m):
        for j in range(m):
            if i <= j:
                closed = cum[j + 1] - cum[i]
                inner = max(0, cum[j] - cum[i + 1])
            else:
                closed = n - (cum[i] - cum[j + 1])
                inner = n - cum[i + 1] + cum[j]
            ln = (ph[j] - ph[i]) % 1.0 if i != j else 0.0
            # closed arc [ph_i, ph_j] versus its length
            best = max(best, closed / n - ln)
            # open arc (ph_i, ph_j): i == j degenerates to the punctured circle
            if i == j:
                best = max(best, 1.0 - (n - cnt[i]) / n)
            else:
                best = max(best, ln - inner / n)
    return best


def restricted_elements(fld: Discriminant, M: int) -> list[AlgebraicInt]:
    """Elements of norm M satisfying 2*Re = 2m (mod q)."""
    return [AlgebraicInt(u, r, fld) for u, r in _restricted_coords(fld, M, None)]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, by Euclid."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
