import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import heegner_circles
from heegner_circles import bnumbers, circles, cli, equidist, halfplane, quadfield
from heegner_circles.cli import build_parser, main

SCHEMAS = json.loads(
    resources.files("heegner_circles").joinpath("schemas.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate_json(doc, row_schema_name):
    jsonschema.validate(doc, SCHEMAS)
    row_schema = SCHEMAS["$defs"][row_schema_name]
    for row in doc["rows"]:
        jsonschema.validate(row, row_schema)


def _call_two_split_for_q3(monkeypatch):
    original = quadfield.chi
    monkeypatch.setattr(quadfield, "chi",
                        lambda fld, n: 1 if (fld.q, n) == (3, 2) else original(fld, n))


class TestVerify:
    def test_smoke_all_fields(self, capsys):
        code, out = run(capsys, "verify", "--q", "all", "--max-two-n", "50")
        assert code == 0
        assert out.endswith("all identities verified\n")

    def test_deterministic_bytes(self, capsys):
        code1, out1 = run(capsys, "verify", "--q", "3", "--max-two-n", "80")
        code2, out2 = run(capsys, "verify", "--q", "3", "--max-two-n", "80")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_range_cap(self, capsys):
        code, _ = run(capsys, "verify", "--q", "3", "--max-two-n", "20000")
        assert code == 2

    def test_mutated_count_constant_is_caught(self, capsys, monkeypatch):
        # negative control: corrupt the c4 case split and expect the suite
        # to fail naming the pair-count identity
        original = circles.Radius.__post_init__

        def corrupted(self):
            original(self)
            object.__setattr__(self, "c4", 3 - self.c4)   # swap 1 <-> 2

        monkeypatch.setattr(circles.Radius, "__post_init__", corrupted)
        code, out = run(capsys, "verify", "--q", "3", "--max-two-n", "60")
        assert code == 1
        assert "FAIL pair-count-formula" in out

    def test_identity_error_becomes_fail_line(self, capsys, monkeypatch):
        # an off-by-one point count raises IdentityError inside lattice_points
        monkeypatch.setattr(circles, "r_count_from_factors",
                            lambda fld, fs: quadfield.r_count_from_factors(fld, fs) + 1)
        code, out = run(capsys, "verify", "--q", "3", "--max-two-n", "60")
        assert code == 1
        assert "\nFAIL identity q=3: " in out

    def test_pair_without_matrix_is_a_fail_line(self, capsys, monkeypatch):
        # inverted congruence filter: the pairs kept have no integer matrix
        original = circles.congruence_holds
        monkeypatch.setattr(circles, "congruence_holds", lambda *a: not original(*a))
        code, out = run(capsys, "verify", "--q", "7", "--max-two-n", "40")
        assert code == 1
        assert "\nFAIL identity q=7: q=7 two_n=9: pair (1, -3, 0, -1) has no matrix" in out

    def test_inert_prime_called_split_is_a_fail_line(self, capsys, monkeypatch):
        _call_two_split_for_q3(monkeypatch)
        code, out = run(capsys, "verify", "--q", "3", "--max-two-n", "40")
        assert code == 1
        assert out.endswith("\nFAIL identity q=3: chi calls 2 split for q=3, "
                            "but no element has norm 2\n")

    def test_chi_fault_output_is_pinned(self, capsys, monkeypatch):
        # every group from the radii on raises the same identity failure: one
        # FAIL line, and none of those groups reports ok
        _call_two_split_for_q3(monkeypatch)
        code, out = run(capsys, "verify", "--q", "3", "--max-two-n", "40")
        assert code == 1
        assert out == ("q=3: distance/coordinate/product identities + roundtrip on 400 matrices ok\n"
                       "q=3: reduced congruence system matches 4x4 form ok\n"
                       "FAIL identity q=3: chi calls 2 split for q=3, but no element has norm 2\n")

    def test_two_faults_in_two_fields_are_both_reported(self, capsys, monkeypatch):
        # every field is checked past a fault: only the two failing groups
        # lose their ok lines, and each failing check prints its first witness
        code, clean = run(capsys, "verify", "--q", "all", "--max-two-n", "60")
        assert code == 0
        gamma_count, weyl_profile = equidist.gamma_count, quadfield.weyl_profile
        monkeypatch.setattr(equidist, "gamma_count", lambda r: gamma_count(r) + (r.field.q == 7))
        monkeypatch.setattr(quadfield, "weyl_profile", lambda fld, M, K: [
            v + 1e-6 * ((fld.q, M) == (11, 121)) for v in weyl_profile(fld, M, K)])
        code, out = run(capsys, "verify", "--q", "all", "--max-two-n", "60")
        assert code == 1
        failed_groups = ("q=7: pair/matrix/point correspondences", "q=11: v_k multiplicativity")
        kept = [line for line in clean.splitlines()[:-1] if not line.startswith(failed_groups)]
        assert len(kept) == len(clean.splitlines()) - 3
        assert out.splitlines() == kept + ["FAIL pair-count-formula q=7 two_n=9",
                                           "FAIL vk-ramified-stability q=11 k=1"]

    def test_a_call_refusing_a_failed_check_is_a_fail_line(self, capsys, monkeypatch):
        # the checks after a failing one still run: off the congruence,
        # matrix_from_split raises ValueError, an identity failure (exit 1), not
        # a usage error (exit 2), and the fields after q = 7 are still checked
        split = halfplane.split_coordinates
        monkeypatch.setattr(halfplane, "split_coordinates", lambda fld, g: tuple(
            x + (fld.q == 7 and i == 1) for i, x in enumerate(split(fld, g))))
        code, out = run(capsys, "verify", "--q", "all", "--max-two-n", "40")
        assert code == 1
        assert [line.split(" gamma=")[0] for line in out.splitlines()[-4:-1]] == [
            "FAIL split-norms q=7", "FAIL congruence-of-matrix q=7", "FAIL split-product-identity q=7"]
        assert out.splitlines()[-1].startswith("FAIL identity q=7: (r,u,s,t)=")
        assert "does not satisfy the congruence system for q=7" in out
        assert "q=163: reduced congruence system matches 4x4 form ok" in out

    def test_a_sweep_failure_ends_only_its_field(self, capsys, monkeypatch):
        # the walk runs outside the check groups: its IdentityError ends q = 7
        # after its two geometry groups, and the other fields are all checked
        code, clean = run(capsys, "verify", "--q", "all", "--max-two-n", "40")
        assert code == 0
        sweep = circles.brute_force_by_radius

        def failing(fld, max_two_n):
            if fld.q == 7:
                raise quadfield.IdentityError("the walk failed")
            return sweep(fld, max_two_n)

        monkeypatch.setattr(circles, "brute_force_by_radius", failing)
        code, out = run(capsys, "verify", "--q", "all", "--max-two-n", "40")
        assert code == 1
        q7 = [line for line in clean.splitlines() if line.startswith("q=7: ")]
        assert len(q7) > 2
        assert out.splitlines() == [line for line in clean.splitlines()[:-1]
                                    if line not in q7[2:]] + ["FAIL identity q=7: the walk failed"]

    def test_a_row_yielded_twice_fails_the_count_and_the_oracle(self, capsys, monkeypatch):
        # the oracles keep every matrix the walk yields, so a row that comes out twice
        # shows in the direct count and in the walk's buckets alike; a set would hide it
        original = circles._rows

        def twice(fld, max_two_n):
            rows = list(original(fld, max_two_n))
            return rows + [row for row in rows if row[0][2] >= 1 and row[2][0] <= row[2][1]][:1]

        for namespace in (circles, equidist):
            monkeypatch.setattr(namespace, "_rows", twice)
        for f in quadfield.all_fields():
            with pytest.raises(quadfield.IdentityError, match="direct count"):
                equidist.circle_problem_sum(f, 200)
        code, out = run(capsys, "verify", "--max-two-n", "200")
        assert code == 1
        assert any(line.startswith("FAIL oracle-equivalence") for line in out.splitlines())

    def test_same_bytes_under_python_O(self):
        # every check raises IdentityError, so -O (asserts stripped) changes nothing;
        # check=True makes each run exit 0
        src = os.path.dirname(os.path.dirname(heegner_circles.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        for command, tail in ((["verify", "--q", "all", "--max-two-n", "60"],
                               b"all identities verified\n"),
                              (["circle", "--q", "3", "--two-n", "5", "--k", "4"],
                               b"# discrepancy two_n=5 K=4: 0.333333333333 <= et 1.2\n"),
                              (["survey", "--q", "3", "--x", "3000"], b"# degenerate: 0\n"),
                              (["survey", "--q", "3", "--x", "3000", "--format", "json"],
                               b"]}\n")):
            plain, optimized = (
                subprocess.run([sys.executable, *flags, "-m", "heegner_circles.cli", *command],
                               env=env, capture_output=True, check=True).stdout
                for flags in ([], ["-O"]))
            assert plain.endswith(tail), command
            assert optimized == plain, command


class TestCircle:
    def test_csv_schema_and_rows(self, capsys):
        code, out = run(capsys, "circle", "--q", "11", "--two-n", "29")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema: circle v1"
        assert lines[1].startswith("two_n,h,Y,angle,")
        assert len(lines) == 2 + 6

    def test_multiple_radii_and_k_flag(self, capsys):
        code, out = run(capsys, "circle", "--q", "3", "--two-n", "5,9", "--k", "3")
        assert code == 0
        assert "# note: two_n=9" in out
        assert "# discrepancy two_n=5 K=3:" in out

    def test_sieve_view(self, capsys):
        code, out = run(capsys, "bnumbers", "--q", "3", "--x", "300",
                        "--h", "1", "--s", "2.2")
        assert code == 0
        assert out.startswith("# schema: bnumbers-sieve v1\n")
        row = out.splitlines()[2].split(",")
        assert int(row[2]) == int(row[3]) + int(row[4]) + int(row[5])

    def test_centre_yields_zero_rows_with_note(self, capsys):
        code, out = run(capsys, "circle", "--q", "3", "--two-n", "3")
        assert code == 0
        assert "# note:" in out
        assert len([l for l in out.splitlines()
                    if not l.startswith(("#", "two_n,"))]) == 0

    def test_json_roundtrip(self, capsys):
        code, out = run(capsys, "circle", "--q", "3", "--two-n", "5",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["q"] == 3 and doc["meta"]["command"] == "circle"
        assert len(doc["rows"]) == 9
        assert {r["h"] for r in doc["rows"]} == {-2, 0, 2}
        validate_json(doc, "circle_row")

    def test_json_documents_validate_against_shipped_schema(self, capsys):
        cases = [
            (["circle", "--q", "11", "--two-n", "29", "--format", "json"], "circle_row"),
            (["survey", "--q", "4", "--x", "60", "--format", "json"], "survey_row"),
            (["count", "--q", "3", "--x", "50", "--format", "json"], "count_row"),
            (["bnumbers", "--q", "4", "--x", "1000", "--h", "1",
              "--format", "json"], "bnumbers_row"),
            (["bnumbers", "--q", "3", "--x", "200", "--h", "1", "--s", "2.2",
              "--format", "json"], "bnumbers_sieve_row"),
        ]
        for argv, row_schema in cases:
            code, out = run(capsys, *argv)
            assert code == 0, argv
            validate_json(json.loads(out), row_schema)

    def test_bad_parity_is_usage_error(self, capsys):
        code, _ = run(capsys, "circle", "--q", "3", "--two-n", "6")
        assert code == 2

    def test_identity_error_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(circles, "r_count_from_factors",
                            lambda fld, fs: quadfield.r_count_from_factors(fld, fs) + 1)
        assert run(capsys, "circle", "--q", "11", "--two-n", "29")[0] == 1

    def test_input_caps(self, capsys):
        assert run(capsys, "circle", "--q", "3", "--two-n", str(10 ** 9 + 2))[0] == 2
        assert run(capsys, "circle", "--q", "3", "--two-n", "5",
                   "--k", str(10 ** 4 + 1))[0] == 2

    def test_factorizes_each_radius_once(self, capsys, monkeypatch):
        # n_minus and n_plus of each radius, never their product (>= 2^21 here)
        calls = []
        original = quadfield.factorize

        def counted(n):
            calls.append(n)
            return original(n)

        for mod in (quadfield, circles, equidist, bnumbers):
            monkeypatch.setattr(mod, "factorize", counted)
        code, _ = run(capsys, "circle", "--q", "3", "--two-n", "4000931,4000949", "--k", "8")
        assert code == 0
        assert sorted(calls) == sorted(n for tn in (4000931, 4000949)
                                       for n in ((tn - 3) // 2, (tn + 3) // 2))
        assert max(calls) < 1 << 21

    def test_unrealized_radius_zero_rows(self, capsys):
        # q=3, two_n=7: n_plus=5 has chi(5) = -1 to odd order
        code, out = run(capsys, "circle", "--q", "3", "--two-n", "7")
        assert code == 0
        assert "not a realized radius" in out


class TestSurveyCounts:
    def test_survey_csv(self, capsys):
        code, out = run(capsys, "survey", "--q", "4", "--x", "60")
        assert code == 0
        assert out.startswith("# schema: survey v1\n")
        assert "# count:" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_survey_prints_the_list_path(self, capsys, fmt):
        # the list path: every row held, the summary, then the whole table at once
        header = ["two_n", "omega", "Omega", "in_B_flat", "log2_r_star",
                  "point_count", "gamma_count", "discrepancy"]
        for f in quadfield.all_fields():
            code, out = run(capsys, "survey", "--q", str(f.q), "--x", "3000", "--format", fmt)
            rows, s = equidist.survey(f, 3000.0)
            table = [[getattr(r, col) for col in header] for r in rows]
            meta = {"x": 3000.0, "count": s.count, "count_logx_over_2x": s.count_logx_over_2x,
                    "omega_quantiles": list(s.omega_quantiles),
                    "log2_rstar_quantiles": list(s.log2_rstar_quantiles),
                    "omega_outlier_fraction": s.omega_outlier_fraction,
                    "frac_fast_eps01": s.frac_fast_eps01, "frac_fast_eps02": s.frac_fast_eps02,
                    "degenerate": s.degenerate}
            if fmt == "json":
                doc = {"meta": {"q": f.q, "command": "survey", "version": "1", **meta},
                       "rows": [dict(zip(header, row)) for row in table]}
                want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            else:
                lines = ["# schema: survey v1", ",".join(header)]
                lines += [",".join(cli._cell(v) for v in row) for row in table]
                lines += [f"# {k}: {cli._cell(v)}" for k, v in meta.items()]
                want = "".join(line + "\n" for line in lines)
            assert code == 0 and len(rows) > 8 and out == want, f.q

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_survey_identity_error_mid_stream_exits_one(self, capsys, monkeypatch, fmt):
        original, seen = equidist.gamma_count, []

        def fails_on_the_fifth(radius):
            seen.append(radius)
            if len(seen) == 5:
                raise quadfield.IdentityError("injected")
            return original(radius)

        monkeypatch.setattr(equidist, "gamma_count", fails_on_the_fifth)
        code = main(["survey", "--q", "3", "--x", "3000", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "survey: identity failed: injected\n")
        # CSV has written the schema, the header and the four rows before it;
        # JSON writes nothing before the summary
        assert len(out.splitlines()) == (6 if fmt == "csv" else 0)
        assert "# count:" not in out

    @pytest.mark.parametrize("x", ["2e7", "10"])
    def test_survey_usage_error_writes_no_out_file(self, capsys, tmp_path, x):
        path = tmp_path / "rows.csv"
        assert run(capsys, "survey", "--q", "163", "--x", x, "--out", str(path))[0] == 2
        assert not path.exists()

    def test_survey_sizes_the_spf_table_to_its_norms(self):
        # in a fresh process: n_plus <= 30002 needs the odd n below 2^15, 2^14 entries
        src = os.path.dirname(os.path.dirname(heegner_circles.__file__))
        prog = ("import contextlib, io\n"
                "from heegner_circles import cli, quadfield\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(['survey', '--q', '3', '--x', '3e4'])\n"
                "print(code, len(quadfield._spf_table))\n")
        out = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout.split()
        assert out[0] == "0" and int(out[1]) == 1 << 14

    def test_count_exact(self, capsys):
        code, out = run(capsys, "count", "--q", "3", "--x", "100")
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert row[1] == row[4]     # sum == direct count
        assert row[5] == "600"      # 6x column for q=3

    def test_count_identity_error_exits_one(self, capsys, monkeypatch):
        original = equidist.direct_cosh_count
        monkeypatch.setattr(equidist, "direct_cosh_count",
                            lambda fld, x: original(fld, x) + 1)
        assert run(capsys, "count", "--q", "3", "--x", "50")[0] == 1

    def test_bnumbers_rows(self, capsys):
        code, out = run(capsys, "bnumbers", "--q", "4", "--x", "1000", "--h", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("1000,1,")

    @pytest.mark.parametrize("x,last", [("1000.5", "1000"), ("10000.7", "10000"),
                                        ("2500.5", "2500")])
    def test_bnumbers_fractional_x_prints_each_row_once(self, capsys, x, last):
        code, out = run(capsys, "bnumbers", "--q", "4", "--x", x, "--h", "1")
        xs = [line.split(",")[0] for line in out.strip().splitlines()[2:]]
        assert code == 0
        assert xs[-1] == last and len(xs) == len(set(xs))

    def test_bnumbers_curve_runs_past_ten_million(self, capsys):
        # the curve view's cap is 10^9; the rows are the decades, then x
        code, out = run(capsys, "bnumbers", "--q", "163", "--x", "10000001", "--h", "1")
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert code == 0
        assert [int(r[0]) for r in rows] == [10 ** k for k in range(3, 8)] + [10 ** 7 + 1]
        assert int(rows[-1][2]) == bnumbers.shifted_count(quadfield.field(163), 10 ** 7 + 1, 1)

    def test_bnumbers_sieve_infinite_z_is_the_all_split_count(self, capsys):
        code, out = run(capsys, "bnumbers", "--q", "3", "--x", "100", "--h", "1",
                        "--z", "inf")
        spec = bnumbers.build_progression(quadfield.field(3), 1)
        all_split = bnumbers.b_star_count(quadfield.field(3), spec, 100)
        assert code == 0
        assert out.splitlines()[2] == f"100,inf,{all_split},{all_split},,"

    def test_bnumbers_sieve_infinite_z_is_not_json(self, capsys):
        # RFC 8259 has no Infinity: the JSON view refuses --z inf and prints nothing
        code = main(["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--z", "inf",
                     "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        # Python 3.13 appends the value to the message
        assert err.startswith("bnumbers: Out of range float values are not JSON compliant")

    def test_out_of_range_caps(self, capsys):
        assert run(capsys, "survey", "--q", "3", "--x", "2e7")[0] == 2
        assert run(capsys, "count", "--q", "3", "--x", "2e6")[0] == 2
        assert run(capsys, "bnumbers", "--q", "3", "--x", "2e9", "--h", "1")[0] == 2

    def test_precondition_violations_are_usage_errors(self, capsys):
        assert run(capsys, "survey", "--q", "163", "--x", "10")[0] == 2
        assert run(capsys, "count", "--q", "3", "--x", "0.5")[0] == 2
        assert run(capsys, "bnumbers", "--q", "3", "--x", "100", "--h", "0",
                   "--s", "2.2")[0] == 2

    def test_bnumbers_sieve_top_term_cap(self, capsys):
        # q = 163, h = 53: n1 = 11265256, so y = 8876851 puts the top term
        # n1*y + n0 + |h| just above 10^14
        spec = bnumbers.build_progression(quadfield.field(163), 53)
        y = (10 ** 14 - spec.n0 - 53) // spec.n1 + 1
        for view in (["--s", "2.5"], ["--z", "50"]):
            code = main(["bnumbers", "--q", "163", "--x", str(y), "--h", "53", *view])
            err = capsys.readouterr().err
            assert code == 2
            assert "exceeds the sieve cap 10^14" in err

    @pytest.mark.parametrize("x", ["-5", "0.5"])
    @pytest.mark.parametrize("view", [["--s", "2.5"], ["--z", "50"]], ids=["s", "z"])
    def test_bnumbers_sieve_rejects_x_below_one(self, capsys, x, view):
        code = main(["bnumbers", "--q", "3", "--x", x, "--h", "1", *view])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--x must be at least 1" in err

    def test_bnumbers_progression_identity_error_exits_one(self, capsys, monkeypatch):
        # n0 moved off its congruence: 12 no longer divides n0 = 16
        original = bnumbers._crt
        monkeypatch.setattr(bnumbers, "_crt", lambda *args: original(*args) + 4)
        code, out = run(capsys, "bnumbers", "--q", "3", "--x", "100", "--h", "1",
                        "--s", "2.2")
        assert code == 1 and out == ""

    def test_survey_never_takes_the_per_radius_path(self, capsys, monkeypatch):
        # the rows come from the batch path alone: with the per-radius
        # composition and discrepancy refused, stdout keeps its golden digests
        def refuse(*args):
            raise AssertionError("per-radius path called")
        for module, name in [(equidist, "circle_discrepancy"), (equidist, "restricted_angles"),
                             (quadfield, "restricted_angles"), (quadfield, "_unit_blocks"),
                             (quadfield, "_restricted_coords")]:
            monkeypatch.setattr(module, name, refuse)
        goldens = dict((" ".join(argv), digest) for argv, digest in GOLDEN_STDOUT)
        for key in ["survey --q 3 --x 3000", "survey --q 4 --x 3000", "survey --q 7 --x 80"]:
            code, out = run(capsys, *key.split())
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == goldens[key], key

    def test_bnumbers_sieve_view_never_factorizes(self):
        # the bench bnumbers workload's --s and --z commands, in a fresh process
        # whose factorize raises: stdout keeps its reference digest, and the
        # SPF table is never built
        root = pathlib.Path(__file__).resolve().parents[1]
        digests = json.loads((root / "bench" / "reference.json").read_text())["digests"]
        keys = ["bnumbers --q 7 --x 10000 --h 3 --s 2.5", "bnumbers --q 7 --x 10000 --h 3 --z 50"]
        prog = ("import contextlib, hashlib, io, sys\n"
                "from heegner_circles import bnumbers, cli, quadfield\n"
                "def refuse(n):\n"
                "    raise AssertionError('factorize called')\n"
                "quadfield.factorize = bnumbers.factorize = refuse\n"
                "for key in sys.argv[1:]:\n"
                "    buf = io.StringIO()\n"
                "    with contextlib.redirect_stdout(buf):\n"
                "        code = cli.main(key.split())\n"
                "    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())\n"
                "print(quadfield._spf_table is None)\n")
        src = os.path.dirname(os.path.dirname(heegner_circles.__file__))
        out = subprocess.run([sys.executable, "-c", prog, *keys],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout.splitlines()
        assert out == [f"0 {digests[key]}" for key in keys] + ["True"]


class TestPlot:
    def test_figure_counts(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code = main(["plot", "--q", "11", "--two-n", "29,61", "--out", str(out_path)])
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("disc-point") == 6 + 9
        assert svg.count("geodesic-circle") == 2

    def test_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", "--q", "3", "--two-n", "5,9", "--out", str(p1)])
        main(["plot", "--q", "3", "--two-n", "5,9", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_radius_usage_error(self, capsys):
        code, _ = run(capsys, "plot", "--q", "11", "--two-n", "3")
        assert code == 2

    def test_radius_cap(self, capsys):
        code, _ = run(capsys, "plot", "--q", "11", "--two-n", f"29,{10 ** 9 + 1}")
        assert code == 2

    def test_pair_without_matrix_exits_1(self, capsys, monkeypatch):
        original = circles.congruence_holds
        monkeypatch.setattr(circles, "congruence_holds", lambda *a: not original(*a))
        code = main(["plot", "--q", "7", "--two-n", "9"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("plot: identity failed: q=7 two_n=9: pair (1, -3, 0, -1) "
                              "has no matrix: ")

    def test_colors_fixed_palette(self, capsys, tmp_path):
        out_path = tmp_path / "c.svg"
        main(["plot", "--q", "11", "--two-n", "29,61", "--out", str(out_path)])
        svg = out_path.read_text()
        used = set(re.findall(r'fill="(#[0-9a-f]{6})"', svg))
        assert cli.PALETTE[0] in used and cli.PALETTE[1] in used


@pytest.mark.parametrize("argv", [["circle", "--q", "3", "--two-n", "11"],
                                  ["survey", "--q", "3", "--x", "20"]], ids=["circle", "survey"])
def test_inert_prime_called_split_exits_1(capsys, monkeypatch, argv):
    # n_minus = 4 at two_n = 11: chi(2) = 1 sends the inert 2 to _split_coords
    _call_two_split_for_q3(monkeypatch)
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (1, f"{argv[0]}: identity failed: chi calls 2 split for q=3, "
                              "but no element has norm 2\n")


@pytest.mark.parametrize("command", ["circle", "plot"])
def test_two_pairs_on_one_matrix_exit_1(capsys, monkeypatch, command):
    # every pair of a radius sent to its first matrix: the whole-circle check
    # fails before a row or a point is written, though each pair alone maps
    original, first = circles.matrix_from_split, {}

    def collapsed(fld, *rust):
        g = original(fld, *rust)
        return first.setdefault(halfplane.arithmetic_radius(fld, g), g)

    monkeypatch.setattr(circles, "matrix_from_split", collapsed)
    code = main([command, "--q", "11", "--two-n", "29"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"{command}: identity failed: q=11 two_n=29: "
                                       "two pairs map to the same matrix\n")


class TestClosedStdout:
    @pytest.mark.parametrize("command", [
        ["survey", "--q", "3", "--x", "3000"],   # breaks while the rows are written
        ["count", "--q", "3", "--x", "100"],     # short: breaks on main's final flush
        ["verify", "--q", "3", "--max-two-n", "40"],
    ], ids=["survey", "count", "verify"])
    def test_reader_gone_before_the_first_write(self, command):
        # as with `| head -0`: no traceback, nothing on stderr, 128 + SIGPIPE;
        # stdout block-buffered, as by default on a pipe
        src = os.path.dirname(os.path.dirname(heegner_circles.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "heegner_circles.cli", *command],
                                  env=dict(env, PYTHONPATH=path), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 141


class TestParser:
    def test_unknown_q_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["circle", "--q", "5", "--two-n", "7"])
        assert exc.value.code == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2


def _plot_all(q: int, max_two_n: int = 600) -> list[str]:
    """plot argv for every realized radius of field q with two_n <= max_two_n."""
    radii = circles.radii_up_to(quadfield.field(q), max_two_n / 2)
    return ["plot", "--q", str(q), "--two-n", ",".join(str(r.two_n) for r in radii)]


# sha256 of stdout, recorded while the library still ran the direct point
# solve and the O(N^2) discrepancy scan; the printed bytes must not drift
GOLDEN_STDOUT = [
    (["survey", "--q", "7", "--x", "80"],
     "ba46ec4688ccb044d13bfd085db875d81b16a02cec7eceb2cf038c44758d5dc8"),
    (["circle", "--q", "11", "--two-n", "29,61", "--k", "4"],
     "06d2f1dc2e885f0d99a73d4d1bea93df82d015679cabd77ed105bbb728e68801"),
    (["count", "--q", "3", "--x", "100"],
     "41d0d3d2fbd4b8748fddf5226fe123cd6bf3b2c1df699931d26a09ee29e82851"),
    (["bnumbers", "--q", "7", "--x", "300", "--h", "3", "--z", "50"],
     "e89f3bce835518fac0afb0392aff93f24c2cb6f11bdf46a0f8a0043546454477"),
    (["bnumbers", "--q", "7", "--x", "300", "--h", "3", "--s", "2.5"],
     "b5a8971269d620f7a07963c58fb5d576d3a35bfd6afdf81abd3b497474459527"),
    # nine blocks of the pair walker at the top row
    (["bnumbers", "--q", "19", "--x", "2200000", "--h", "2"],
     "88ba87fc016930f444e8e43183c1fe8893ca4608c5a53b7ef9103b93575613b5"),
    # element composition, congruence filter and angles on many radii
    (["survey", "--q", "3", "--x", "3000"],
     "a8b3f4af2a06c9816ebe2894cf3e536214ce6fc527521a4c06d4ce47c5135bc5"),
    (["survey", "--q", "4", "--x", "3000"],
     "d382b5028317cee3465f9ed7aed78bc5ec0b74d86d45b3889b201617853c185e"),
    # pairs at two_n ~ 4e6 and the Erdos-Turan bound summed in element order
    (["circle", "--q", "3", "--two-n", "4000931,4000949", "--k", "8"],
     "217845766af7579400785a77a8d003c91827584b9721c291a92c28b112dac500"),
    (["verify", "--q", "all", "--max-two-n", "200"],
     "5e111740fedc813771a9242c70d58b8a86e6f0b84e7014ac8d1fb6ae58f1f491"),
    # the sharp-set check on seven fields (at 200 q = 43, 67, 163 reach no
    # sharp radius), recorded while it still divided n_plus, n_minus by l
    (["verify", "--q", "all", "--max-two-n", "2000"],
     "adce6f2e72385584fa8c27bcfa4434f81142128ab2bf961b5d8326a7f8945583"),
    # notes (centre and unrealized radii) before the discrepancy lines
    (["circle", "--q", "3", "--two-n", "3,5,7,13", "--k", "3"],
     "e9e00f3c167d46ecb439d71d3e3845be95063fcdf624159d501dde0075a879c5"),
    # JSON documents, recorded before the commands shared one table writer
    (["survey", "--q", "7", "--x", "80", "--format", "json"],
     "277cb1ac968aa16f44277554335a68be2ed406659b066b53b4e5344a8d58eb39"),
    (["count", "--q", "3", "--x", "100", "--format", "json"],
     "44250fa78e4c7ba4b11888345adf19a4fd318c00419a9eec079e470297181203"),
    (["bnumbers", "--q", "4", "--x", "1000", "--h", "1", "--format", "json"],
     "53f22fba03edc5da91e1ae05ee3a77df99dc7fee6f98c642b466bfc82be04149"),
    (["bnumbers", "--q", "7", "--x", "300", "--h", "3", "--s", "2.5", "--format", "json"],
     "14a756a8cc363cffe3b6caa7ad6866be54e70a991417f10c43ba3d7980654d76"),
    (["bnumbers", "--q", "7", "--x", "300", "--h", "3", "--z", "50", "--format", "json"],
     "941354259801227e5cddc5b371df9008871db4ec5458dd27713653b609d16d17"),
    (["circle", "--q", "3", "--two-n", "3,5,7,13", "--k", "3", "--format", "json"],
     "cd8031d881061f45628c271b5328c45c7f0b8134a8c9f0574e0957dfa3aa3a98"),
    # the convolution sum over about 31 blocks of the r(m) sieve, recorded
    # when count still factorized every realized radius
    (["count", "--q", "163", "--x", "1e5"],
     "d8499aa06694323cab06557d3ba606e3b8a0b5b4c82ed49e0a9bb0fe37f52451"),
    # radii whose walker blocks and survey batches both split, recorded while
    # survey still composed and measured each radius on its own
    (["survey", "--q", "3", "--x", "3e5"],
     "722b998d5006476fdccb8a429842bc1ca885502952907d18ed24ebe0b216b958"),
    (["survey", "--q", "163", "--x", "3e5"],
     "880c84a31b4f20bfdf88e07f3457b0d3a53a254c27e9fb5037f5f7731f276665"),
    # SVGs, recorded while plot still told points apart by rounded floats:
    # the README example, then every realized radius with two_n <= 600
    (["plot", "--q", "11", "--two-n", "29,61"],
     "b653f2b92cd5d5f2846f6c892cf8f11d610c6777beb5c7c8a289382bf69abfd8"),
    (_plot_all(3), "f43cd30648af22de71a6294883a46fe623efa1c972a026f7aff6b3c086c3a98d"),
    (_plot_all(4), "ae1f02a58cf4e2f93c36b63d20e4000c0171be6fb6101d73b2d02c7ed4f21c8a"),
    (_plot_all(7), "6063d5f7d7c68d3a7946ee74f75b8314dfe9c5f0719641a3ca4007694340ea92"),
    (_plot_all(8), "af903a8cdbf6c903460c99997314122dc49c314727593049d9e27053fb21cf86"),
    (_plot_all(11), "797790df4fc0105562e0f7d0feb32e95b4ca6b65a47b6ef28a1da66e184cfe48"),
    (_plot_all(19), "8c415039df657e6316b7a23dabd4c5a4628352ef107bc3526d537c85ce596b94"),
    (_plot_all(43), "a2f629e677ebfa2b6709ce5267f6e86fc965fd6ac2913a35c12bbe31ce2ef5fc"),
    (_plot_all(67), "b3a40e4ac3098a79fea53195aa8141cdef4defa6e3966cde5c9beae23d23b2c4"),
    (_plot_all(163), "7c399dc63a1b3730b66498523b6554eb8828362d2e7de735684b636b80051804"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=["survey", "circle", "count", "bnumbers-z", "bnumbers-s",
                              "bnumbers-curve", "survey-q3-3000", "survey-q4-3000",
                              "circle-4e6-k8", "verify-all-200", "verify-all-2000",
                              "circle-notes-k3",
                              "survey-json", "count-json", "bnumbers-curve-json",
                              "bnumbers-s-json", "bnumbers-z-json", "circle-notes-k3-json",
                              "count-q163-1e5", "survey-q3-3e5", "survey-q163-3e5",
                              "plot-readme"]
                         + [f"plot-q{q}-600" for q in quadfield.CLASS_NUMBER_ONE_Q])
def test_golden_stdout(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# every usage error a command detects itself: one stderr line
# "<command>: <message>", nothing on stdout, exit 2
USAGE_ERRORS = [
    (["verify", "--q", "3", "--max-two-n", "20000"], "verify: --max-two-n capped at 10^4"),
    (["circle", "--q", "3", "--two-n", str(10 ** 9 + 2)], "circle: --two-n capped at 10^9"),
    (["circle", "--q", "3", "--two-n", "5", "--k", str(10 ** 4 + 1)],
     "circle: --k capped at 10^4"),
    (["circle", "--q", "3", "--two-n", "5,6"], "circle: two_n=6 has wrong parity for q=3"),
    (["circle", "--q", "11", "--two-n", "29", "--k", "0"], "circle: K >= 1 required"),
    (["survey", "--q", "3", "--x", "2e7"], "survey: --x capped at 10^7"),
    (["count", "--q", "3", "--x", "2e6"], "count: --x capped at 10^6"),
    (["bnumbers", "--q", "3", "--x", "2e9", "--h", "1"],
     "bnumbers: --x capped at 10^9 in the curve view"),
    (["bnumbers", "--q", "3", "--x", "2e7", "--h", "1", "--s", "2.5"],
     "bnumbers: --x capped at 10^7 in the sieve view"),
    (["bnumbers", "--q", "4", "--x", "1000", "--h", str(10 ** 14)],
     "bnumbers: --h capped at 10^7 in the curve view"),
    (["bnumbers", "--q", "4", "--x", "1000", f"--h=-{10 ** 7 + 1}"],
     "bnumbers: --h capped at 10^7 in the curve view"),
    (["bnumbers", "--q", "3", "--x", "0.5", "--h", "1", "--s", "2.5"],
     "bnumbers: --x must be at least 1 in the sieve view"),
    (["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--z", "2"],
     "bnumbers: --z must exceed 2"),
    (["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--s", "1"],
     "bnumbers: --s must exceed 1"),
    (["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--z", "nan"],
     "bnumbers: --z must exceed 2"),
    (["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--s", "nan"],
     "bnumbers: --s must exceed 1"),
    (["bnumbers", "--q", "3", "--x", "100", "--h", "1", "--s", "inf"],
     "bnumbers: --s must be finite"),
    (["bnumbers", "--q", "3", "--x", "5", "--h", "1", "--s", "2.5", "--z", "3"],
     "bnumbers: --s and --z are exclusive"),
    (["survey", "--q", "3", "--x", "nan"], "survey: --x must be a number"),
    (["count", "--q", "3", "--x", "nan"], "count: --x must be a number"),
    (["bnumbers", "--q", "3", "--x", "nan", "--h", "1"], "bnumbers: --x must be a number"),
    (["bnumbers", "--q", "4", "--x=-inf", "--h", "1"], "bnumbers: finite x >= 1 required"),
    (["plot", "--q", "11", "--two-n", f"29,{10 ** 9 + 1}"], "plot: --two-n capped at 10^9"),
    (["plot", "--q", "11", "--two-n", "3"], "plot: invalid two_n=3 for q=11"),
    # <tmp> is the test's empty temporary directory
    (["count", "--q", "3", "--x", "10", "--out", "<tmp>/missing/x.csv"],
     "count: cannot write --out <tmp>/missing/x.csv: No such file or directory"),
    (["count", "--q", "3", "--x", "10", "--format", "json", "--out", "<tmp>/missing/x.json"],
     "count: cannot write --out <tmp>/missing/x.json: No such file or directory"),
    (["survey", "--q", "3", "--x", "100", "--out", "<tmp>"],
     "survey: cannot write --out <tmp>: Is a directory"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=["verify-cap", "circle-two-n-cap", "circle-k-cap",
                              "circle-parity", "circle-k-zero", "survey-cap", "count-cap",
                              "bnumbers-cap", "sieve-x-cap", "bnumbers-h-cap",
                              "bnumbers-negative-h-cap",
                              "sieve-x-below-1", "sieve-z", "sieve-s", "sieve-z-nan",
                              "sieve-s-nan", "sieve-s-inf", "sieve-s-and-z", "survey-x-nan",
                              "count-x-nan", "bnumbers-x-nan", "bnumbers-x-minus-inf",
                              "plot-cap", "plot-invalid", "out-missing-dir",
                              "out-missing-dir-json", "out-is-dir"])
def test_usage_error(capsys, tmp_path, argv, message):
    code = main([a.replace("<tmp>", str(tmp_path)) for a in argv])
    message = message.replace("<tmp>", str(tmp_path))
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", message + "\n")


def _readme_block(heading, lang):
    """The first code block under a README heading."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    return text.split(f"## {heading}\n\n```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # every example line of the README's CLI block exits 0; its figure is the plot golden
    lines = [shlex.split(line, comments=True) for line in _readme_block("CLI", "sh").splitlines()]
    assert lines and all(argv[0] == "heegner-circles" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    digests = {tuple(argv): digest for argv, digest in GOLDEN_STDOUT}
    figure = hashlib.sha256((tmp_path / "figure.svg").read_bytes()).hexdigest()
    assert figure == digests[("plot", "--q", "11", "--two-n", "29,61")]


def test_readme_library_sketch_runs():
    # the sketch runs against the package's API and gives what its comments say
    names = {}
    exec(_readme_block("Library sketch", "python"), names)
    assert names["radius"].factors == ([(3, 2)], [(2, 2), (5, 1)])
    assert len(names["pts"]) == 6
    assert names["res"].total == names["res"].direct_count
