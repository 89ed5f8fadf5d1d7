"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They check that seeds map to inputs deterministically and with a fixed
amount of work, that the tracer's wrappers return exactly what the
wrapped functions return and attribute spans correctly, and that the
recorded reference digests match the program at this commit.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _py(code: str, **env) -> str:
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=run.ROOT, env=dict(run.child_env(), **env), check=True)
    return res.stdout


# ---------------------------------------------------------------------------
# Seeds

def test_seed_maps_to_same_commands_in_any_process():
    code = (f"import sys; sys.path.insert(0, {BENCH!r}); import workloads, json; "
            "print(json.dumps({w: [workloads.commands(w, s) for s in range(20)] "
            "for w in workloads.VARIANTS}))")
    a = json.loads(_py(code, PYTHONHASHSEED="1"))
    b = json.loads(_py(code, PYTHONHASHSEED="2"))
    assert a == b
    assert a == {w: [workloads.commands(w, s) for s in range(20)] for w in workloads.VARIANTS}


def test_held_out_seed_selects_other_inputs():
    for w in workloads.VARIANTS:
        assert (workloads.commands(w, workloads.DEFAULT_SEED)
                != workloads.commands(w, workloads.HELD_OUT_SEED))


def _shape(cmds):
    return [[a if a.startswith("--") or a.isalpha() else "#" for a in c] for c in cmds]


def test_variants_keep_the_commands_and_work_size_fixed():
    for w, make in workloads.VARIANTS.items():
        shapes = {json.dumps(_shape(make(i))) for i in range(workloads.WINDOW)}
        assert len(shapes) == 1, w
    xs = [float(workloads._survey(i)[0][4]) for i in range(workloads.WINDOW)]
    assert max(xs) / min(xs) < 1.01
    xs = [float(workloads._count(i)[0][4]) for i in range(workloads.WINDOW)]
    assert max(xs) / min(xs) < 1.01
    for i in range(workloads.WINDOW):
        big, s_view, z_view = workloads._bnumbers(i)
        assert 0.99 * 10 ** 7 < float(big[4]) <= 10 ** 7
        assert s_view[4] == z_view[4] and 10 ** 4 <= float(s_view[4]) < 1.02 * 10 ** 4


def test_geometry_radii_are_realized_with_equal_point_counts():
    code = textwrap.dedent(f"""
        import sys; sys.path.insert(0, {BENCH!r})
        import workloads
        from heegner_circles.circles import Radius
        from heegner_circles.quadfield import b_indicator, field, r_count
        f = field(3)
        for tn in workloads.GEOMETRY_RADII:
            r = Radius(f, tn)
            assert b_indicator(f, r.n_plus) and b_indicator(f, r.n_minus), tn
            print(r.c4 * r_count(f, r.norm_product) // 2)
    """)
    counts = set(_py(code).split())
    assert counts == {"24"}
    assert len(set(workloads.GEOMETRY_RADII)) == 2 * workloads.WINDOW


# ---------------------------------------------------------------------------
# Tracer

def test_union_of_intervals():
    assert tracer._union_ns([]) == 0
    assert tracer._union_ns([(5, 8), (0, 2), (1, 3), (7, 10)]) == 3 + 5


def test_spans_nest_per_thread_and_worker_spans_belong_to_the_main_span():
    t = tracer.Tracer()
    leaf = t.wrap("m.leaf", lambda d: time.sleep(d) or d)
    calls = {"mid": 0}

    def mid():
        calls["mid"] += 1
        return leaf(0.01)

    mid = t.wrap("m.mid", mid)

    def outer():
        threads = [threading.Thread(target=mid) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
        return mid()

    assert t.wrap("m.outer", outer)() == 0.01
    spans = {(p, n): (c, total, own) for p, n, c, total, own in t.report()["spans"]}
    assert set(spans) == {("", "m.outer"), ("m.outer", "m.mid"), ("m.mid", "m.leaf")}
    assert spans[("m.outer", "m.mid")][0] == 3
    assert spans[("m.mid", "m.leaf")][0] == 3
    # the two worker spans overlap in time; only their union leaves outer
    outer_total, outer_self = spans[("", "m.outer")][1:]
    assert 0 <= outer_self < outer_total - 0.015e9


WRAP_CHECK = textwrap.dedent("""
    import sys; sys.path.insert(0, {bench!r})
    import tracer
    from heegner_circles import bnumbers, circles, equidist, quadfield
    from heegner_circles.quadfield import field

    def results():
        f3, f7 = field(3), field(7)
        spec = bnumbers.build_progression(f7, 3)
        r = circles.Radius(f3, 4000931)
        return [
            quadfield.factorize(2 ** 22 + 3), quadfield.factorize(720720),
            quadfield.elements_of_norm(f7, 2 * 11 * 23), quadfield.r_star(f3, 91),
            circles.radii_up_to(f7, 60), circles.lattice_points(r),
            circles.pairs_to_matrices(r, circles.enumerate_pairs(r)),
            equidist.survey(f3, 300, threads=2), equidist.discrepancy_report(r, K=8),
            equidist.circle_problem_sum(f3, 40),
            bnumbers.norm_indicator_array(f7, 3000).tolist(),
            bnumbers.shifted_count(field(4), 5000, 1),
            bnumbers.sifted_decomposition(f7, spec, 300, 2.5),
            bnumbers.sifted_count(f7, spec, 300, 50), bnumbers.b_star_count(f7, spec, 300),
        ]

    before = results()
    t = tracer.Tracer()
    tracer.install(t)
    assert equidist.factorize is circles.factorize is quadfield.factorize
    assert bnumbers.factorize is quadfield.factorize
    assert hasattr(quadfield.factorize, "__wrapped__")
    after = results()
    assert before == after
    names = {{n for _, n, *_ in t.report()["spans"]}}
    print(sorted(names))
""")


def test_wrapped_functions_return_what_unwrapped_ones_return():
    names = _py(WRAP_CHECK.format(bench=BENCH))
    for layer in ("quadfield.factorize", "circles.lattice_points", "equidist.survey",
                  "bnumbers.norm_indicator_array", "halfplane.matrix_from_split"):
        assert f"'{layer}'" in names


def test_traced_command_prints_the_untraced_bytes(tmp_path):
    args = ["circle", "--q", "11", "--two-n", "29,61", "--k", "4"]
    env = run.child_env()
    plain = subprocess.run([sys.executable, "-c", run.ENTRY, *args], cwd=run.ROOT,
                           env=env, capture_output=True, check=True).stdout
    out = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, run.TRACER, str(out), *args], cwd=run.ROOT,
                            env=env, capture_output=True, check=True).stdout
    assert traced == plain
    metrics = run.layer_metrics(json.loads(out.read_text()), len(traced))
    assert metrics["circles.lattice_points.calls"][1] == 2
    assert metrics["quadfield.factorize.calls"][1] > 0


# ---------------------------------------------------------------------------
# Reference digests and the result contract

@pytest.mark.parametrize("workload", sorted(workloads.VARIANTS))
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
def test_reference_digests_match_at_this_commit(workload, seed):
    with open(run.REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)["digests"]
    os.makedirs(run.TMP, exist_ok=True)
    runner = run.Runner(reference, time.monotonic() + 170)
    session = runner.session(workloads.commands(workload, seed))
    assert session["ok"], runner.failures
    assert runner.failed == 0 and runner.attempted == len(workloads.commands(workload, seed))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.VARIANTS)
    fake = {"spans": [], "counters": {}}
    layer = set(run.layer_metrics(fake, 0)) | {"cli.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "success_rate"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "count", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
