"""End-to-end benchmark of the heegner-circles CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a session of CLI
commands (see workloads.py).  Load is a closed loop with one client: one
command in flight, each in a fresh interpreter with PYTHONPATH=src, so every
module cache starts cold, as it does for a user.  Every command's stdout is
checked against the digest recorded in reference.json; a non-zero exit or
a digest mismatch is a failed command and its session is not timed.

--trace 0 measures the end-to-end metrics: the session wall time, the
import time of heegner_circles.cli, the largest per-command peak RSS, and
the share of commands that succeeded.  --trace 1 runs untraced and traced
sessions in turn (tracer.py) and reports the per-layer metrics, the CPU
time of the untraced session and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "heegner_circles")
TMP = os.path.join(ROOT, ".bench_tmp")
TRACER = os.path.join(BENCH, "tracer.py")
REFERENCE = os.path.join(BENCH, "reference.json")

sys.path.insert(0, BENCH)
import workloads  # noqa: E402

#: Same as the installed `heegner-circles` console script.
ENTRY = "import sys; from heegner_circles.cli import main; sys.exit(main())"
IMPORT_TIMER = ("import time; t = time.perf_counter(); import heegner_circles.cli as m; "
                "print(time.perf_counter() - t); print(m.__file__)")
IMPORTS_PER_RUN = 9
#: The speed probe, run as a fresh process's main module.  Its four loops
#: stand for the four kinds of work in the workloads: bytecode arithmetic,
#: small tuples, lists and dicts, random reads of an 8 MB numpy table, and
#: isqrt on 40-bit integers.  It is the benchmark's own code, so no change to
#: the program can move it.
PROBE = """
import time
from math import isqrt
import numpy as np
t = time.perf_counter()
x = 0
for i in range(1_000_000):
    x += i * i % 7
acc = {}
for n in range(2, 18_000):
    m, fs, p = n, [], 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        p += 1
    if m > 1:
        fs.append((m, 1))
    key = tuple(sorted(fs))
    acc[key] = acc.get(key, 0) + len(key)
n = 1 << 21
spf = np.zeros(n + 1, dtype=np.int32)
for p in range(2, isqrt(n) + 1):
    if spf[p] == 0:
        s = spf[p * p::p]
        s[s == 0] = p
        spf[p * p::p] = s
k = 12345
for i in range(150_000):
    k = (k * 1103515245 + 12345) % 2097143
    x += int(spf[k])
for h in range(200_000):
    d = 4_000_000_000_000 - 3 * h * h
    w = isqrt(d)
    x += w * w == d
print(time.perf_counter() - t)
"""
#: The probe's time at the reference speed that normalized times are given at.
PROBE_REF_S = 0.7
#: A run is cut short, with its commands killed, this long after it started.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # numpy's BLAS pool would add threads the workloads never use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def rescaled(t: float, before: float, after: float) -> float:
    """A time at the reference speed, from the probes taken around it."""
    return t * 2 * PROBE_REF_S / (before + after)


class Runner:
    """Runs CLI commands one at a time and checks their output."""

    def __init__(self, reference: dict[str, str], deadline: float) -> None:
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_probe = 0.0

    def _spawn(self, argv: list[str]):
        """Run argv to completion; return (exit code, stdout, rusage, wall)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with tempfile.TemporaryFile(dir=TMP) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return proc.returncode, out, usage, wall

    def command(self, args: list[str], trace_path: str | None = None) -> dict:
        if trace_path is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, TRACER, trace_path, *args]
        code, out, usage, wall = self._spawn(argv)
        key = workloads.command_key(args)
        digest = hashlib.sha256(out).hexdigest()
        ok = code == 0 and self.reference.get(key) == digest
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{key}: exit {code}, digest {digest[:16]}")
        return {"ok": ok, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime, "out_bytes": len(out)}

    def probe(self) -> float:
        """Seconds a fresh interpreter takes for a fixed loop (see PROBE).

        The CPU speed of a shared machine drifts by up to 1.8x over minutes
        and the CLI's user time drifts with it, so timed steps are bracketed
        by probes and rescaled to the speed at which a probe takes PROBE_REF_S.
        """
        code, out, _, _ = self._spawn([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError("the speed probe failed")
        return float(out)

    def session(self, cmds: list[list[str]], trace_dir: str | None = None) -> dict:
        """One pass over the workload's commands, with a speed probe after it.

        Sessions follow each other, so a session's probes are the one after
        the previous session (or the set-up's last) and its own.
        """
        results = []
        for i, args in enumerate(cmds):
            path = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
            results.append(self.command(args, path))
        wall = sum(r["wall"] for r in results)
        before = self.last_probe
        self.last_probe = self.probe()
        return {"ok": all(r["ok"] for r in results), "raw_wall": wall,
                "wall": rescaled(wall, before, self.last_probe),
                "probe": self.last_probe,
                "rss_mb": max(r["rss_mb"] for r in results),
                "cpu_s": sum(r["cpu_s"] for r in results),
                "out_bytes": sum(r["out_bytes"] for r in results)}

    def import_time(self) -> float:
        code, out, _, _ = self._spawn([sys.executable, "-c", IMPORT_TIMER])
        lines = out.decode().split()
        if code != 0 or len(lines) != 2:
            raise RuntimeError("importing heegner_circles.cli failed")
        if os.path.dirname(os.path.realpath(lines[1])) != os.path.realpath(PACKAGE_DIR):
            raise RuntimeError(f"imported heegner_circles from {lines[1]}, not {PACKAGE_DIR}")
        return float(lines[0])


def repeat(step, seconds: float, deadline: float) -> list:
    """Call step until the next call would end past `seconds`; at least once."""
    t0 = time.perf_counter()
    out = [step()]
    while True:
        elapsed = time.perf_counter() - t0
        per_step = elapsed / len(out)
        if elapsed + per_step > seconds or time.monotonic() + per_step > deadline:
            return out
        out.append(step())


def end_to_end(runner: Runner, cmds, seconds: float) -> dict:
    runner.import_time()    # first import compiles the .pyc files; not timed
    before = runner.probe()
    raw_imports = [runner.import_time() for _ in range(IMPORTS_PER_RUN)]
    runner.last_probe = runner.probe()
    imports = [rescaled(t, before, runner.last_probe) for t in raw_imports]
    sessions = repeat(lambda: runner.session(cmds), seconds, runner.deadline)
    timed = [s for s in sessions if s["ok"]] or sessions
    return {
        "wall_s": ("s", statistics.median(s["wall"] for s in timed)),
        "setup_s": ("s", statistics.median(imports)),
        "peak_rss_mb": ("MB", statistics.median(s["rss_mb"] for s in sessions)),
        "success_rate": ("ratio", 1.0 - runner.failed / runner.attempted),
    }, {"sessions_raw_wall": [round(s["raw_wall"], 4) for s in sessions],
        "sessions_wall": [round(s["wall"], 4) for s in sessions],
        "imports": [round(t, 4) for t in imports],
        "probes": [round(p, 4) for p in (before, *(s["probe"] for s in sessions))]}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced sessions

LAYER_SPANS = {
    "quadfield.factorize": ("calls", "self_s"),
    "quadfield.chi": ("calls", "self_s"),
    "quadfield.kronecker": ("calls", "self_s"),
    "quadfield.r_count_from_factors": ("calls", "self_s"),
    "quadfield.elements_of_norm": ("calls", "self_s"),
    "quadfield.enumerate_norm": ("calls", "self_s"),
    "quadfield.r_count": ("calls", "self_s"),
    "quadfield.r_star": ("calls", "self_s"),
    "quadfield.weyl_profile": ("self_s",),
    "quadfield.v_k": ("self_s",),
    "halfplane.matrix_from_split": ("calls", "self_s"),
    "halfplane.coords_from_split": ("calls", "self_s"),
    "halfplane.integer_coords": ("calls", "self_s"),
    "halfplane.arithmetic_radius": ("calls", "self_s"),
    "halfplane.congruence_holds_full": ("calls", "self_s"),
    "halfplane.congruence_holds": ("calls",),
    "circles.lattice_points": ("calls", "self_s"),
    "circles.enumerate_pairs": ("calls", "self_s"),
    "circles.pairs_to_matrices": ("self_s",),
    "circles.brute_force_by_radius": ("self_s",),
    "circles.radii_up_to": ("self_s",),
    "equidist.circle_discrepancy": ("calls", "self_s"),
    "equidist.survey": ("self_s",),
    "equidist.circle_problem_sum": ("self_s",),
    "equidist.discrepancy_report": ("self_s",),
    "equidist.matrix_angle_discrepancy": ("self_s",),
    "bnumbers.norm_indicator_array": ("calls", "self_s"),
    "bnumbers.shifted_count": ("self_s",),
    "bnumbers.build_progression": ("self_s",),
    "bnumbers.sifted_decomposition": ("self_s",),
    "bnumbers.sifted_count": ("self_s",),
    "bnumbers.b_star_count": ("self_s",),
    "cli.main": ("self_s",),
}


#: Counters the tracer records, reported as they are.
COUNTERS = {
    "quadfield.factorize.large_calls": "count",
    "quadfield.elements_of_norm.elements": "count",
    "circles.lattice_points.points": "count",
    "circles.enumerate_pairs.pairs": "count",
    "equidist.circle_discrepancy.points": "count",
    "bnumbers.norm_indicator_array.integers": "count",
    "bnumbers.norm_indicator_array.bytes_computed": "bytes",
    "bnumbers.sifted_decomposition.terms": "count",
    "bnumbers.sifted_count.terms": "count",
    "bnumbers.b_star_count.terms": "count",
}
#: Ratios of useful outcomes to attempts: metric -> (numerator, denominator).
RATIOS = {
    "quadfield.r_count_from_factors.nonzero_ratio": (
        "quadfield.r_count_from_factors.nonzero", "quadfield.r_count_from_factors.calls"),
    "quadfield.restricted_elements.kept_ratio": (
        "quadfield.restricted_elements.kept", "quadfield.restricted_elements.candidates"),
    "halfplane.congruence_holds.true_ratio": (
        "halfplane.congruence_holds.true", "halfplane.congruence_holds.calls"),
    "equidist.circle_discrepancy.quadratic_share": (
        "equidist.circle_discrepancy.quadratic", "equidist.circle_discrepancy.calls"),
    "equidist.survey.realized_ratio": ("equidist.survey.rows", "equidist.survey.candidates"),
    "bnumbers.sifted_decomposition.survivor_ratio": (
        "bnumbers.sifted_decomposition.survivors", "bnumbers.sifted_decomposition.terms"),
}


def layer_metrics(trace: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced session (spans summed over its commands)."""
    counts = dict(trace["counters"])
    own: dict[str, float] = {}
    for _parent, name, n, _total, self_ns in trace["spans"]:
        counts[name + ".calls"] = counts.get(name + ".calls", 0) + n
        own[name] = own.get(name, 0.0) + self_ns / 1e9
    m: dict[str, tuple[str, float]] = {}
    for name, quantities in LAYER_SPANS.items():
        if "calls" in quantities:
            m[name + ".calls"] = ("count", counts.get(name + ".calls", 0))
        if "self_s" in quantities:
            m[name + ".self_s"] = ("s", own.get(name, 0.0))
    for name, unit in COUNTERS.items():
        m[name] = (unit, counts.get(name, 0))
    for name, (num, den) in RATIOS.items():
        m[name] = ("ratio", counts.get(num, 0) / counts[den] if counts.get(den) else 0.0)
    m["quadfield.tables.build_s"] = ("s", counts.get("quadfield.tables.build_ns", 0) / 1e9)
    m["cli.output_bytes"] = ("bytes", out_bytes)
    return m


def merge_traces(paths: list[str]) -> dict:
    spans: list = []
    counters: dict[str, float] = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            t = json.load(f)
        spans.extend(t["spans"])
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": spans, "counters": counters}


def per_layer(runner: Runner, cmds, seconds: float) -> tuple[dict, dict]:
    plain: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    trace_root = tempfile.mkdtemp(dir=TMP)
    runner.last_probe = runner.probe()

    def pair():
        plain.append(runner.session(cmds))
        trace_dir = tempfile.mkdtemp(dir=trace_root)
        s = runner.session(cmds, trace_dir)
        paths = [os.path.join(trace_dir, f"{i}.json") for i in range(len(cmds))]
        if all(os.path.exists(p) for p in paths):
            traced.append((s, merge_traces(paths)))

    try:
        repeat(pair, seconds, runner.deadline)
    finally:
        shutil.rmtree(trace_root, ignore_errors=True)
    if not traced:
        raise RuntimeError("no traced session completed")
    per_session = [layer_metrics(t, s["out_bytes"]) for s, t in traced]
    m = {k: (u, statistics.median_low(ms[k][1] for ms in per_session))
         for k, (u, _) in per_session[0].items()}
    plain_wall = statistics.median(s["wall"] for s in plain)
    traced_wall = statistics.median(s["wall"] for s, _ in traced)
    m["cli.cpu_s"] = ("s", statistics.median(s["cpu_s"] for s in plain))
    m["trace.overhead_s"] = ("s", traced_wall - plain_wall)
    spans: dict[str, list] = {}
    for p, n, c, _, own in traced[0][1]["spans"]:
        acc = spans.setdefault(f"{p}>{n}", [0, 0.0])
        acc[0] += c
        acc[1] = round(acc[1] + own / 1e9, 6)
    return m, {"untraced_wall": [round(s["wall"], 4) for s in plain],
               "traced_wall": [round(s["wall"], 4) for s, _ in traced], "spans": spans}


# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _cache_sizes() -> dict[str, int | None]:
    sizes: dict[str, int | None] = {"L2": None, "L3": None}
    if shutil.which("getconf") is None:
        return sizes
    res = subprocess.run(["getconf", "-a"], capture_output=True, text=True)
    for line in res.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            sizes["L" + parts[0][5]] = int(parts[1])
    return sizes


def run_record(args, cmds, numpy: str | None) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "variant": workloads.variant(args.workload, args.seed),
        "commands": [workloads.command_key(c) for c in cmds],
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy,
        "cache_bytes": _cache_sizes(),   # L2 per core, L3 shared
    }


def numpy_version(env: dict[str, str]) -> str | None:
    res = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                         capture_output=True, text=True, env=env)
    return res.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.VARIANTS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "cli.py")):
        print(f"bench: no heegner_circles source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)["digests"]
    os.makedirs(TMP, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(reference, deadline)
    cmds = workloads.commands(args.workload, args.seed)
    try:
        if args.trace:
            metrics, detail = per_layer(runner, cmds, args.seconds)
        else:
            metrics, detail = end_to_end(runner, cmds, args.seconds)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record = run_record(args, cmds, numpy_version(runner.env))
    record.update(detail, failures=runner.failures)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
