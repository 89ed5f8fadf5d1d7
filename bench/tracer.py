"""Run one heegner-circles CLI command with the library's layers traced.

    python3 bench/tracer.py TRACE.json <heegner-circles arguments>

Every public function of quadfield, halfplane, circles, equidist and
bnumbers, and cli.main, is replaced by a wrapper in every namespace that
bound it (the package, each module that imported it by name), so calls
through any of those names are seen.  A wrapper opens a span on entry and
closes it on return.  Each thread keeps its own stack of open spans; a span
opened with an empty stack in a worker thread is a child of the span open
in the main thread, which is what started the worker.  A span's self time
is its duration minus the part of it covered by child spans.  Private
helpers have no span, so their time counts toward their public caller.

Spans are aggregated in memory per (parent, name) and per thread, together
with per-function counters, and written to TRACE.json once the command has
returned.  Stdout is the command's own output, unchanged.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
import types

LIBRARY_MODULES = ("quadfield", "halfplane", "circles", "equidist", "bnumbers")
PACKAGE = "heegner_circles"
LARGE_N = 1 << 21


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class _Frame:
    __slots__ = ("name", "start", "child_ns", "cross")

    def __init__(self, name: str, start: int) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.cross: list[tuple[int, int]] | None = None


class Tracer:
    """Per-thread span stacks with in-memory aggregation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list[_Frame]] = {}
        self._threads: list[tuple[dict, dict]] = []   # (spans, counters) per thread
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            stack: list[_Frame] = []
            spans: dict[tuple[str, str], list[int]] = {}
            counters: dict[str, float] = {}
            st = (stack, spans, counters)
            self._local.state = st
            with self._lock:
                self._stacks[threading.get_ident()] = stack
                self._threads.append((spans, counters))
        return st

    def wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counters = self._state()
            cross_parent = None
            if stack:
                parent = stack[-1].name
            else:
                main_stack = self._stacks.get(self._main)
                if threading.get_ident() != self._main and main_stack:
                    cross_parent = main_stack[-1]
                    parent = cross_parent.name
                else:
                    parent = ""
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                covered = frame.child_ns
                if frame.cross:
                    covered += _union_ns(frame.cross)
                rec = spans.get((parent, name))
                if rec is None:
                    rec = spans[(parent, name)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += max(0, dur - covered)
                if stack:
                    stack[-1].child_ns += dur
                elif cross_parent is not None:
                    with self._lock:
                        if cross_parent.cross is None:
                            cross_parent.cross = []
                        cross_parent.cross.append((frame.start, end))
            if hook is not None:
                hook(counters, name, args, kwargs, result, parent)
            return result

        return traced

    def report(self) -> dict:
        spans: dict[tuple[str, str], list[int]] = {}
        counters: dict[str, float] = {}
        for t_spans, t_counters in self._threads:
            for key, rec in t_spans.items():
                acc = spans.setdefault(key, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
            for key, val in t_counters.items():
                counters[key] = counters.get(key, 0) + val
        return {"spans": [[p, n, c, tot, own] for (p, n), (c, tot, own) in sorted(spans.items())],
                "counters": counters}


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries (work done, useful outcomes)

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _add(counters, key, val) -> None:
    counters[key] = counters.get(key, 0) + val


def _factorize(c, name, args, kwargs, result, parent):
    if _arg(args, kwargs, 0, "n") >= LARGE_N:
        _add(c, name + ".large_calls", 1)


def _nonzero(c, name, args, kwargs, result, parent):
    if result:
        _add(c, name + ".nonzero", 1)


def _elements(c, name, args, kwargs, result, parent):
    _add(c, name + ".elements", len(result))
    if parent == "quadfield.restricted_elements":
        _add(c, "quadfield.restricted_elements.candidates", len(result))


def _kept(c, name, args, kwargs, result, parent):
    _add(c, name + ".kept", len(result))


def _true(c, name, args, kwargs, result, parent):
    if result:
        _add(c, name + ".true", 1)


def _length(key):
    def hook(c, name, args, kwargs, result, parent):
        _add(c, f"{name}.{key}", len(result))
    return hook


def _discrepancy(c, name, args, kwargs, result, parent):
    n = len(_arg(args, kwargs, 0, "angles_sorted"))
    _add(c, name + ".points", n)
    if n <= 512:
        _add(c, name + ".quadratic", 1)


def _survey(c, name, args, kwargs, result, parent):
    fld, x = _arg(args, kwargs, 0, "fld"), _arg(args, kwargs, 1, "X")
    _add(c, name + ".rows", len(result[0]))
    _add(c, name + ".candidates", len(range(fld.q + 2, int(2 * x) + 1, 2)))


def _indicator(c, name, args, kwargs, result, parent):
    n = _arg(args, kwargs, 1, "limit") + 1
    _add(c, name + ".integers", n)
    # the bool result, plus per segment an int64 remainder and two bool masks
    _add(c, name + ".bytes_computed", n * (1 + 8 + 1 + 1))


def _terms(c, name, args, kwargs, result, parent):
    _add(c, name + ".terms", max(0, math.floor(_arg(args, kwargs, 2, "y"))))
    if name.endswith("sifted_decomposition"):
        _add(c, name + ".survivors", result.sifted)


HOOKS = {
    "quadfield.factorize": _factorize,
    "quadfield.r_count_from_factors": _nonzero,
    "quadfield.elements_of_norm": _elements,
    "quadfield.restricted_elements": _kept,
    "halfplane.congruence_holds": _true,
    "circles.lattice_points": _length("points"),
    "circles.enumerate_pairs": _length("pairs"),
    "equidist.circle_discrepancy": _discrepancy,
    "equidist.survey": _survey,
    "bnumbers.norm_indicator_array": _indicator,
    "bnumbers.sifted_decomposition": _terms,
    "bnumbers.sifted_count": _terms,
    "bnumbers.b_star_count": _terms,
}


def _time_table_builds(tracer: Tracer, quadfield) -> None:
    """Time the SPF and prime-table builds (cold: the process is fresh)."""
    build_lock = threading.Lock()
    for fn_name, attr in (("_spf", "_spf_table"), ("prime_table", "_prime_table")):
        original = getattr(quadfield, fn_name)

        @functools.wraps(original)
        def timed(*args, _fn=original, _attr=attr, **kwargs):
            if getattr(quadfield, _attr) is not None:
                return _fn(*args, **kwargs)
            with build_lock:   # a thread that waits for another's build is not timed
                if getattr(quadfield, _attr) is not None:
                    return _fn(*args, **kwargs)
                t0 = time.perf_counter_ns()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    _add(tracer._state()[2], "quadfield.tables.build_ns",
                         time.perf_counter_ns() - t0)

        setattr(quadfield, fn_name, timed)


def install(tracer: Tracer):
    """Wrap the traced functions in every namespace; return the cli module."""
    package = importlib.import_module(PACKAGE)
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LIBRARY_MODULES}
    cli = importlib.import_module(f"{PACKAGE}.cli")
    _time_table_builds(tracer, modules["quadfield"])
    wrappers: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
    wrappers[id(cli.main)] = (cli.main, tracer.wrap("cli.main", cli.main))
    for mod in (package, cli, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return cli


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
