"""Command-line surface: identity verification, circle dumps, radius
surveys, circle-problem counts, shifted-pair curves, and SVG figures.

Every command is deterministic: identical flags produce byte-identical
output.  verify checks every field and prints one FAIL line per failing
check, with its first witness.  Exit codes: 0 success, 1 a verified
identity failed, 2 usage, 141 (128 + SIGPIPE) stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import operator
import os
import random
import sys

from . import bnumbers, circles, equidist, halfplane, quadfield
from .circles import Radius
from .halfplane import UnimodularMatrix
from .quadfield import CLASS_NUMBER_ONE_Q, Discriminant, field

SCHEMA_VERSION = "1"

PALETTE = ("#e858a2", "#a8653a", "#3c6fd1", "#3ba05d", "#8458c9",
           "#d98032", "#4fa3b8", "#b8485d", "#7a7a32")


# ---------------------------------------------------------------------------
# Output plumbing

def _opened(out: str | None):
    if out is None or out == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:   # a usage error (exit 2), not an identity failure (exit 1)
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    with _opened(out) as f:
        f.write(text)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def _emit_table(args, schema: str, q, header: list[str], rows, meta=None,
                trailer: list[str] | None = None) -> None:
    """Write one table in args.format to args.out.

    JSON: {"meta": {q, command, version, **meta}, "rows": [...]}.  CSV: the
    schema comment, the header and the rows, each row written as it is
    read, then one "# " comment line per trailer entry; the trailer defaults
    to meta as "key: value" lines.  rows is any iterable of sequences; meta
    is a dict, or a function returning one that is called after the rows.
    """
    if args.format == "json":
        rows = [dict(zip(header, row)) for row in rows]   # before meta: it may need every row
        meta = (meta() if callable(meta) else meta) or {}
        doc = {"meta": {"q": q, "command": schema, "version": SCHEMA_VERSION, **meta}, "rows": rows}
        _emit(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n",
              args.out)
        return
    with _opened(args.out) as f:
        f.write(f"# schema: {schema} v{SCHEMA_VERSION}\n" + ",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\n")
        meta = (meta() if callable(meta) else meta) or {}
        if trailer is None:
            trailer = [f"{k}: {_cell(v)}" for k, v in meta.items()]
        f.write("".join(f"# {line}\n" for line in trailer))


def _selected_fields(qflag: str) -> list[Discriminant]:
    if qflag == "all":
        return quadfield.all_fields()
    return [field(int(qflag))]


# ---------------------------------------------------------------------------
# verify: the cross-module identity suite

def _random_matrices(rng: random.Random, count: int, bound: int) -> list[UnimodularMatrix]:
    """count matrices, (c, d) uniform on the coprime pairs in [-bound, bound]^2, t on [-3, 3]."""
    cds = []
    while len(cds) < count:
        draws = rng.choices(range(-bound, bound + 1), k=4 * (count - len(cds)))
        cds += [(c, d) for c, d in zip(draws[::2], draws[1::2]) if math.gcd(c, d) == 1]
    out = []
    for (c, d), t in zip(cds[:count], rng.choices(range(-3, 4), k=count)):
        a0 = pow(d, -1, abs(c)) if c else d
        b0 = (a0 * d - 1) // c if c else 0
        out.append(UnimodularMatrix(a0 + t * c, b0 + t * d, c, d))
    return out


def _verify_field(fld: Discriminant, max_two_n: int, report: list[str],
                  failures: dict[tuple[int, str], str]) -> None:
    """Run every identity check of one field: report gets the ok line of each group whose checks
    all held, failures each failing check's first witness by (q, name).  An IdentityError or
    ValueError (a call refusing what a failed check left) ends its group."""
    rng = random.Random(20260808 + fld.q)
    q = fld.q
    failed: list[str] = []   # the failing checks of the running group

    def check(name: str, ok: bool, witness) -> None:
        if not ok:   # the witness reads the loop's current values, so only now
            failed.append(name)
            failures.setdefault((q, name), f"{name} q={q} {witness()}")

    @contextlib.contextmanager
    def group(ok_line: str):
        failed.clear()
        try:
            yield
        except (quadfield.IdentityError, ValueError) as exc:
            failed.append("identity")
            failures.setdefault((q, "identity"), f"identity q={q}: {exc}")
        if not failed:
            report.append(f"q={q}: {ok_line}")

    gamma = lambda: f"gamma={g.entries()}"
    at = lambda: f"two_n={radius.two_n}"
    mats = _random_matrices(rng, 400, 60)
    with group(f"distance/coordinate/product identities + roundtrip on {len(mats)} matrices ok"):
        for g in mats:
            two_n = halfplane.arithmetic_radius(fld, g)
            gz = halfplane.apply_mobius(g, fld.z)
            ch = halfplane.cosh_distance(fld.z, gz)
            check("radius-vs-cosh", abs(ch - two_n / q) <= 1e-6 * max(1.0, two_n / q), gamma)
            h, Y = halfplane.integer_coords(fld, g)
            check("coordinate-norm-identity", q * h * h + Y * Y == two_n * two_n - q * q, gamma)
            w = halfplane.disc_map(fld, gz)
            n_plus = (two_n + q) // 2
            check("disc-map-image",
                  abs(n_plus * w - complex(h * math.sqrt(q) / 2, Y / 2)) <= 1e-6 * n_plus, gamma)
            r, u, s, t = halfplane.split_coordinates(fld, g)
            check("split-norms", quadfield.AlgebraicInt(u, r, fld).norm() == n_plus
                  and quadfield.AlgebraicInt(t, s, fld).norm() == (two_n - q) // 2, gamma)
            check("congruence-of-matrix", halfplane.congruence_holds(fld, r, u, s, t), gamma)
            check("split-product-identity",
                  halfplane.coords_from_split(fld, r, u, s, t) == (h, Y), gamma)
            check("split-roundtrip", halfplane.matrix_from_split(fld, r, u, s, t) == g, gamma)

    with group("reduced congruence system matches 4x4 form ok"):
        vs = zip(*[iter(rng.choices(range(-50, 51), k=8000))] * 4)   # 2000 vectors
        wrong = [v for v in vs if halfplane.congruence_holds(fld, *v)
                 != halfplane.congruence_holds_full(fld, *v)]
        check("congruence-reduction", not wrong, lambda: f"v={wrong[0]}")

    if max_two_n < q:
        report.append(f"q={q}: no radii below two_n={max_two_n}; geometry checks only")
        return
    oracle = circles.brute_force_by_radius(fld, max_two_n)
    radii = circles.radii_up_to(fld, max_two_n / 2)   # an IdentityError here ends the field
    seen_two_n = {r.two_n for r in radii}
    with group(f"pair/matrix/point correspondences on {len(radii)} radii up to "
               f"two_n={max_two_n} ok"):
        missing = [tn for tn, ms in oracle.items() if tn > q and tn not in seen_two_n and ms]
        check("radius-set", not missing, lambda: f"two_n={missing[0]} missing from radii_up_to")
        for radius in radii:
            check("pair-count-formula", len(radius.pairs) == equidist.gamma_count(radius), at)
            check("oracle-equivalence", circles.pairs_to_matrices(radius, radius.pairs)
                  == oracle.get(radius.two_n, []), at)
            pts = circles.lattice_points(radius)
            check("point-set-equality", [(p.h, p.Y) for p in pts]
                  == sorted(circles._solve_circle(fld, radius.two_n)), at)
            check("point-count-vs-restricted",
                  len(pts) == quadfield.r_star(fld, radius.norm_product), at)

    with group("restricted count closed form ok"):
        for M in range(1, min(max_two_n * 4, 4000)):
            quadfield.r_star(fld, M)   # raises IdentityError off the closed form

    with group("v_k multiplicativity + ramified stability ok"):
        norms = [M for M in range(1, 200) if quadfield.b_indicator(fld, M)]
        for _ in range(60):
            m1, m2 = rng.choice(norms), rng.choice(norms)
            if math.gcd(m1, m2) == 1:
                misses = equidist._product_rule_misses(fld, m1, m2, 8)
                check("vk-multiplicativity", not misses, lambda: f"M1={m1} M2={m2} k={misses[0]}")
        profiles = [quadfield.weyl_profile(fld, fld.ramified_prime ** a, 8) for a in (1, 2, 3)]
        for k, vals in enumerate(zip(*profiles), start=1):
            check("vk-ramified-stability", len({round(v, 12) for v in vals}) == 1, lambda: f"k={k}")

    with group("discrepancy bounds + sharp factorization ok"):
        for radius in radii[:min(len(radii), 40)]:
            equidist.discrepancy_report(radius)   # raises IdentityError above the bound
            check("matrix-vs-point-discrepancy", abs(equidist.matrix_angle_discrepancy(radius)
                  - equidist.circle_discrepancy(circles.angles(radius))) <= 1e-9, at)
        for radius in [r for r in radii if equidist.in_sharp_set(r)][:5]:
            misses = equidist._product_rule_misses(fld, radius.n_plus, radius.n_minus, 6)
            check("sharp-factorization", not misses, lambda: f"{at()} k={misses[0]}")


def cmd_verify(args) -> int:
    if args.max_two_n > 10 ** 4:
        raise ValueError("--max-two-n capped at 10^4")
    report: list[str] = []
    failures: dict[tuple[int, str], str] = {}
    for fld in _selected_fields(args.q):
        try:
            _verify_field(fld, args.max_two_n, report, failures)
        except quadfield.IdentityError as exc:
            failures.setdefault((fld.q, "identity"), f"identity q={fld.q}: {exc}")
    report += [f"FAIL {line}" for line in failures.values()] or ["all identities verified"]
    _emit("\n".join(report) + "\n", args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# circle: dump one circle

def cmd_circle(args) -> int:
    fld = field(int(args.q))
    if max(args.two_n, default=0) > 10 ** 9:
        raise ValueError("--two-n capped at 10^9")
    if args.k is not None and args.k > 10 ** 4:
        raise ValueError("--k capped at 10^4")
    notes, rows, bounds = [], [], []
    for two_n in args.two_n:
        if (two_n - fld.q) % 2:
            raise ValueError(f"two_n={two_n} has wrong parity for q={fld.q}")
        if two_n <= fld.q:
            notes.append(f"two_n={two_n} at or below the centre: empty circle")
            continue
        radius = Radius(fld, two_n)
        if not radius.pairs:   # empty exactly when n_plus or n_minus is not a norm
            notes.append(f"two_n={two_n} is not a realized radius: empty circle")
            continue
        for pt in circles.lattice_points(radius):
            for p in radius.pairs_by_point[(pt.h, pt.Y)]:
                a, b, c, d = circles.pairs_to_matrices(radius, [p])[0].entries()
                r, u, s, t = p.rust
                rows.append([two_n, pt.h, pt.Y, f"{pt.display_angle():.12f}",
                             a, b, c, d, r, u, s, t])
        if args.k is not None:
            rep = equidist.discrepancy_report(radius, K=args.k)
            bounds.append({"two_n": two_n, "K": args.k,
                           "discrepancy": rep.discrepancy,
                           "et_bound": rep.et_bound})
    header = ["two_n", "h", "Y", "angle", "a", "b", "c", "d", "r", "u", "s", "t"]
    meta = {"two_n": args.two_n, "notes": notes}
    if bounds:
        meta["discrepancy_bounds"] = bounds
    trailer = [f"note: {note}" for note in notes] + [
        f"discrepancy two_n={bd['two_n']} K={bd['K']}: "
        f"{_cell(bd['discrepancy'])} <= et {_cell(bd['et_bound'])}" for bd in bounds]
    _emit_table(args, "circle", fld.q, header, rows, meta, trailer)
    return 0


# ---------------------------------------------------------------------------
# survey

def cmd_survey(args) -> int:
    if args.x > 10 ** 7:
        raise ValueError("--x capped at 10^7")
    fld = field(int(args.q))
    stream = equidist.SurveyStream(fld, args.x)
    header = [f.name for f in dataclasses.fields(equidist.SurveyRow)]

    def meta() -> dict:   # the summary's fields but q and X, its tuples as lists
        return {"x": args.x, **{k: list(v) if isinstance(v, tuple) else v
                                for k, v in vars(stream.summary).items() if k not in ("q", "X")}}

    rows = map(operator.attrgetter(*header), stream)
    _emit_table(args, "survey", fld.q, header, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# count: hyperbolic circle problem

def cmd_count(args) -> int:
    if args.x > 10 ** 6:
        raise ValueError("--x capped at 10^6")
    fld = field(int(args.q))
    res = equidist.circle_problem_sum(fld, args.x)
    header = ["x", "sum", "convolution_part", "centre_term", "direct_count", "six_x"]
    row = [res.x, res.total, res.convolution_part, res.centre_term,
           res.direct_count if res.direct_count is not None else "",
           6 * res.x if fld.q == 3 else ""]
    _emit_table(args, "count", fld.q, header, [row])
    return 0


# ---------------------------------------------------------------------------
# bnumbers: shifted-pair curve

def cmd_bnumbers(args) -> int:
    fld = field(int(args.q))
    if args.s is not None or args.z is not None:
        return _bnumbers_sieve_table(args, fld)
    if args.x > 10 ** 9:
        raise ValueError("--x capped at 10^9 in the curve view")
    if abs(args.h) > 10 ** 7:
        raise ValueError("--h capped at 10^7 in the curve view")
    if args.x < 1:   # before int(), which -inf overflows
        raise ValueError("finite x >= 1 required")
    x = int(args.x)
    xs = [10 ** k for k in range(3, 10) if 10 ** k < x] + [x]
    counts = bnumbers._shifted_counts(fld, xs, args.h)
    rows = [[xv, args.h, b, b * math.log(xv) / xv] for xv, b in zip(xs, counts)]
    header = ["x", "h", "count", "count_logx_over_x"]
    _emit_table(args, "bnumbers", fld.q, header, rows)
    return 0


def _bnumbers_sieve_table(args, fld: Discriminant) -> int:
    """Progression sieve view: --x is the index bound y; --s (or --z) sets
    the sifting cut z = y^(1/s) (or z directly), not both."""
    if args.s is not None and args.z is not None:
        raise ValueError("--s and --z are exclusive")
    y = args.x
    if y > 10 ** 7:
        raise ValueError("--x capped at 10^7 in the sieve view")
    if y < 1:
        raise ValueError("--x must be at least 1 in the sieve view")
    spec = bnumbers.build_progression(fld, args.h)
    if args.z is not None:
        z = args.z
        if not z > 2:   # NaN fails every comparison
            raise ValueError("--z must exceed 2")
        dec = bnumbers._sift(fld, spec, y, z)
        row = [y, z, dec.sifted, dec.all_split, "", ""]
    else:
        if not args.s > 1:   # NaN fails every comparison
            raise ValueError("--s must exceed 1")
        if math.isinf(args.s):
            raise ValueError("--s must be finite")
        dec = bnumbers.sifted_decomposition(fld, spec, y, args.s)
        z = y ** (1.0 / args.s)
        row = [y, z, dec.sifted, dec.all_split,
               dec.two_large_inert, dec.four_large_inert]
    header = ["y", "z", "sifted", "all_split", "two_large_inert", "four_large_inert"]
    meta = {"h": args.h, "h_normalized": spec.h_normalized,
            "n0": spec.n0, "n1": spec.n1, "sigma": spec.sigma}
    _emit_table(args, "bnumbers-sieve", fld.q, header, [row], meta)
    return 0


# ---------------------------------------------------------------------------
# plot: SVG of half-plane circles and the unit-disc image

def _svg_header(w: int, h: int) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n')


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _circle(cx: float, cy: float, r: str, attrs: str) -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" {attrs}/>\n'


def cmd_plot(args) -> int:
    fld = field(int(args.q))
    q = fld.q
    if max(args.two_n, default=0) > 10 ** 9:
        raise ValueError("--two-n capped at 10^9")
    radii = []
    for tn in args.two_n:
        if (tn - q) % 2 or tn <= q:
            raise ValueError(f"invalid two_n={tn} for q={q}")
        radii.append(Radius(fld, tn))
    # half-plane pane: 1000x500, x in [-5,5], y in [0,5], 100 px per unit
    HW, HH, SC = 1000, 500, 100.0
    # disc pane: 500x500, 200 px per unit, centred
    DW, DC, DS = 500, 250.0, 200.0
    parts = [_svg_header(HW + DW, max(HH, 500))]
    parts.append(f'<rect width="{HW + DW}" height="{max(HH, 500)}" fill="#ffffff"/>\n')
    parts.append(f'<line x1="0" y1="{HH - 1}" x2="{HW}" y2="{HH - 1}" '
                 f'stroke="#222222" stroke-width="1"/>\n')
    zq = fld.z
    parts.append(_circle(HW / 2 + zq.real * SC, HH - zq.imag * SC, "3",
                         'fill="#222222" class="centre-point"'))
    lam = math.sqrt(q) / 2.0
    for i, radius in enumerate(radii):
        color = PALETTE[i % len(PALETTE)]
        ch = radius.two_n / q
        cy = lam * ch
        rad = lam * math.sqrt(max(0.0, ch * ch - 1.0))
        parts.append(_circle(HW / 2 + zq.real * SC, HH - cy * SC, _fmt(rad * SC), f'fill="none" '
                             f'stroke="{color}" stroke-width="1" class="geodesic-circle"'))
        # one matrix per point (h, Y): the least of its pair group's matrices
        for g in sorted(circles.pairs_to_matrices(radius, ps)[0]
                        for ps in radius.pairs_by_point.values()):
            w = halfplane.apply_mobius(g, zq)
            px, py = HW / 2 + w.real * SC, HH - w.imag * SC
            if -10 <= px <= HW + 10 and -10 <= py <= HH + 10:
                parts.append(_circle(px, py, "2.5", f'fill="{color}" class="halfplane-point"'))
    # disc pane
    ox = HW
    parts.append(_circle(ox + DC, DC, _fmt(DS), 'fill="none" stroke="#222222" stroke-width="1"'))
    parts.append(_circle(ox + DC, DC, "2", 'fill="#222222" class="centre-point"'))
    for i, radius in enumerate(radii):
        color = PALETTE[i % len(PALETTE)]
        rim = math.sqrt((radius.two_n - q) / (radius.two_n + q))
        parts.append(_circle(ox + DC, DC, _fmt(rim * DS), f'fill="none" stroke="{color}" '
                             'stroke-width="0.75" class="image-circle"'))
        for pt in circles.lattice_points(radius):
            x, y = pt.xy()
            px, py = ox + DC + (x / radius.n_plus) * DS, DC - (y / radius.n_plus) * DS
            parts.append(_circle(px, py, "3", f'fill="{color}" class="disc-point"'))
    parts.append("</svg>\n")
    _emit("".join(parts), args.out)
    return 0


# ---------------------------------------------------------------------------

def _parse_two_n_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heegner-circles",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    qchoices = [str(v) for v in CLASS_NUMBER_ONE_Q]

    def command(name: str, fn, help: str, **q) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--q", **(q or {"choices": qchoices, "required": True}))
        p.set_defaults(fn=fn)
        return p

    p = command("verify", cmd_verify, "run the identity suite",
                choices=qchoices + ["all"], default="all")
    p.add_argument("--max-two-n", type=int, default=200, dest="max_two_n")

    p = command("circle", cmd_circle, "dump points/matrices of circles")
    p.add_argument("--two-n", type=_parse_two_n_list, required=True, dest="two_n")
    p.add_argument("--k", type=int, default=None,
                   help="also report discrepancy and its harmonic bound at cutoff K")

    for p in (command("survey", cmd_survey, "per-radius statistics up to a height"),
              command("count", cmd_count, "hyperbolic circle problem count"),
              command("bnumbers", cmd_bnumbers, "shifted norm-pair counting curve")):
        p.add_argument("--x", type=float, required=True)
    p.add_argument("--h", type=int, required=True)   # p is bnumbers
    p.add_argument("--z", type=float, default=None,
                   help="progression sieve view with this sifting cut")
    p.add_argument("--s", type=float, default=None,
                   help="progression sieve view with cut z = x^(1/s)")

    p = command("plot", cmd_plot, "SVG of circles in half-plane and disc")
    p.add_argument("--two-n", type=_parse_two_n_list, required=True, dest="two_n")

    for name, p in sub.choices.items():   # every command ends with its output flags
        if name not in ("verify", "plot"):
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if math.isnan(getattr(args, "x", 0.0)):   # NaN passes every cap unseen
            raise ValueError("--x must be a number")
        code = args.fn(args)
        sys.stdout.flush()   # a reader that has gone shows here at the latest
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except quadfield.IdentityError as exc:
        print(f"{args.command}: identity failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
