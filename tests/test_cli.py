"""End-to-end tests of the command line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import shelyap
from shelyap.cli import SUITES, _row_pieces, dumps_json, format_float, main
from shelyap.errors import NonFiniteResult
from shelyap.quadrature import heat_kernel
from shelyap.solvers import VariationalSolution
from test_cluster_equivalence import optimal_paths

PAIR = ["--t", "1", "--x", "0,0.5", "--m", "1,1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_report_exit_zero(capsys):
    code, out, err = run(capsys, ["gamma", *PAIR])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["gamma1"] == pytest.approx(-0.0625)
    assert doc["gamma2"] == pytest.approx(-0.0625)
    assert doc["gamma3"] == pytest.approx(-0.0625)
    assert doc["max_dev"] <= 1e-12
    assert doc["partition"] == [[1, 2]]
    assert doc["a"] == pytest.approx([0.25, -0.75])
    assert doc["b"] == pytest.approx([0.25, -0.75])
    assert doc["structure_ok"] is True


def test_gamma_report_json_keys(capsys):
    code, out, _ = run(capsys, ["gamma", *PAIR])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == [
        "a", "b", "gamma1", "gamma2", "gamma3", "max_dev", "partition",
        "structure_ok",
    ]
    assert doc["partition"] == [[1, 2]]
    assert doc["structure_ok"] is True


@pytest.mark.parametrize("argv,code,holds", [
    (["gamma", *PAIR], 0, lambda doc: doc["partition"] == [[1, 2]]),
    (["clusters", "--t", "1", "--x=-2,-1.5,-1,0,1e-300,3", "--m", "1,2,3,1,2,5"], 0,
     lambda doc: len(doc["events"]) > 1),
    (["clusters", "--t", "1", "--x", "0", "--m", "2"], 0, lambda doc: doc["events"] == []),
    (["moments", *PAIR, "--T", "2"], 0, lambda doc: len(doc["offsets"]) == 2),
    (["sweep", *PAIR, "--param", "x2", "--grid", "0.5:5:3", "--format", "json"], 0,
     lambda doc: doc[-1]["s0"] is None),
    (["gamma", "--t", "0", "--x", "0", "--m", "1"], 1,
     lambda doc: doc["error"] == "NonPositiveTime"),
    (["gamma", "--frobnicate"], 1, lambda doc: doc["error"] == "UsageError"),
], ids=["gamma", "clusters", "clusters-no-events", "moments", "sweep", "typed-error",
        "usage-error"])
def test_json_reserializes_byte_identically(capsys, argv, code, holds):
    # every document, and the stderr error object, follows dumps_json's layout
    got, out, err = run(capsys, argv)
    text = out if code == 0 else err
    assert got == code
    assert holds(json.loads(text))
    assert dumps_json(json.loads(text)) + "\n" == text


def test_gamma_impossible_tolerance_exits_two(capsys):
    # the routes differ here by a few ulps, so no tolerance but 0 is missed
    argv = ["gamma", "--t", "2", "--x=-1.5,-0.2,0.4,2.5", "--m", "2,1,3,1"]
    code, out, err = run(capsys, [*argv, "--tolerance", "0"])
    assert code == 2
    assert json.loads(out)["max_dev"] > 0.0
    assert run(capsys, [*argv, "--tolerance", "inf"])[0] == 0


@pytest.mark.parametrize("tolerance", ["-1", "nan", "-inf"])
def test_gamma_invalid_tolerance_exits_one(capsys, tolerance):
    code, out, err = run(capsys, ["gamma", *PAIR, f"--tolerance={tolerance}"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ShelyapError"


@pytest.mark.parametrize("m", ["1.5,2.9", "1,inf", "1,nan", "1,1e400"])
def test_gamma_non_integer_multiplicity_exits_one(capsys, m):
    code, out, err = run(capsys, ["gamma", "--t", "1", "--x", "0,1", "--m", m])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonPositiveMultiplicity"


@pytest.mark.parametrize("x,m", [
    ("0", "1000000000000000000000000000000"),
    ("0,1", "5000000000000000000,5000000000000000000"),
    ("0", "100000000000000"),
])
def test_gamma_multiplicity_beyond_int64_exits_one(capsys, x, m):
    # nu must be an int64 array length for the flattened coordinates, and
    # those must fit in memory; 10^14 float64 values exceed any address space
    code, out, err = run(capsys, ["gamma", "--t", "1", "--x", x, "--m", m])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "NonPositiveMultiplicity"


def test_gamma_multiplicity_beyond_the_flatten_cap_exits_one(capsys):
    # 2e9 flat coordinates: each of route 1's arrays alone may be granted
    # memory that together they exceed, and the process be killed; flatten
    # refuses any nu above 2^24 before it allocates
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["gamma", "--t", "1", "--x", "0,1",
                                      "--m", "1000000000,1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "NonPositiveMultiplicity",
        "message": "total multiplicity 2000000000 exceeds the 16777216 coordinates flatten takes"}
    assert peak < 2**20


@pytest.mark.parametrize("m", ["[1, 1e400]", "[1, NaN]"])
def test_gamma_file_non_integer_multiplicity_exits_one(tmp_path, capsys, m):
    path = tmp_path / "inst.json"
    path.write_text('{"t": 1.0, "x": [0.0, 1.0], "m": %s}' % m)
    code, out, err = run(capsys, ["gamma", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonPositiveMultiplicity"


def test_gamma_invalid_instance_exits_one(capsys):
    code, out, err = run(capsys, ["gamma", "--t", "0", "--x", "0", "--m", "1"])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "NonPositiveTime"
    assert doc["message"]


def test_gamma_unsorted_locations_exits_one(capsys):
    code, _, err = run(capsys, ["gamma", "--t", "1", "--x", "1,0", "--m", "1,1"])
    assert code == 1
    assert json.loads(err)["error"] == "UnsortedLocations"


def test_gamma_reads_instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"t": 1.0, "x": [0.0, 0.5], "m": [1, 1]}))
    code, out, _ = run(capsys, ["gamma", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["gamma3"] == pytest.approx(-0.0625)


@pytest.mark.parametrize("m", ["9007199254740993,1", "2.0,1e3"])
def test_inline_multiplicities_print_as_from_a_file(tmp_path, capsys, m):
    # 2^53 + 1 is no double: read as a float it rounds to 2^53, and the
    # block's mass prints as 2^53, not as 2^53 + 2
    path = tmp_path / "inst.json"
    path.write_text(f'{{"t": 1, "x": [0, 1], "m": [{m}]}}')
    inline = run(capsys, ["clusters", "--t", "1", "--x", "0,1", "--m", m])
    assert inline == run(capsys, ["clusters", "--input", str(path)])
    assert (inline[0], inline[2]) == (0, "")
    assert json.loads(inline[1])["cluster_masses"] == [sum(json.loads(f"[{m}]"))]


def test_multiplicity_past_the_int_digit_limit_fails_alike_inline_and_from_a_file(
        tmp_path, capsys):
    # 5000 digits pass Python's 4300-digit limit for int(); read as a float
    # the literal would be inf and fail under another name
    m = "1" * 5000 + ",1"
    path = tmp_path / "inst.json"
    path.write_text(f'{{"t": 1, "x": [0, 1], "m": [{m}]}}')
    inline = run(capsys, ["gamma", "--t", "1", "--x", "0,1", "--m", m])
    from_file = run(capsys, ["gamma", "--input", str(path)])
    assert inline[:2] == from_file[:2] == (1, "")
    assert json.loads(inline[2]) == json.loads(from_file[2])
    assert json.loads(inline[2])["error"] == "ValueError"


def test_gamma_rejects_file_plus_inline(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"t": 1.0, "x": [0.0], "m": [1]}))
    code, _, err = run(capsys, ["gamma", "--input", str(path), "--t", "1"])
    assert code == 1
    assert json.loads(err)["error"] == "ShelyapError"


def test_gamma_missing_file_key_exits_one(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"t": 1.0, "x": [0.0]}))
    code, _, err = run(capsys, ["gamma", "--input", str(path)])
    assert code == 1
    assert "m" in json.loads(err)["message"]


def test_gamma_writes_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, ["gamma", *PAIR, "--output", str(dest)])
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["gamma3"] == pytest.approx(-0.0625)


def test_clusters_csv_output_file_matches_stdout(tmp_path, capsys):
    argv = ["clusters", "--t", "1", "--x", "0,1.5,3,4.5,6", "--m", "2,1,1,2,2",
            "--format", "csv"]
    _, out, _ = run(capsys, argv)
    dest = tmp_path / "paths.csv"
    code, to_stdout, err = run(capsys, [*argv, "--output", str(dest)])
    assert (code, to_stdout, err) == (0, "", "")
    assert dest.read_bytes() == out.encode()


def test_clusters_csv_layout(capsys):
    code, out, _ = run(capsys, ["clusters", *PAIR, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "s", "zeta", "xi"]
    # two indices on the grid {0, merge, t}
    assert len(rows) == 1 + 2 * 3
    first = rows[1]
    assert first[0] == "1"
    assert float(first[1]) == 0.0
    assert float(first[2]) == 0.0
    # xi returns to zero at s = t for every index
    terminal = [r for r in rows[1:] if float(r[1]) == 1.0]
    assert len(terminal) == 2
    assert all(abs(float(r[3])) <= 1e-12 for r in terminal)


def test_clusters_json_two_blocks(capsys):
    code, out, _ = run(
        capsys,
        ["clusters", "--t", "1", "--x", "0,0.3,0.6,3.0,3.3", "--m", "1,1,1,1,1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q_hat"] == 2
    assert doc["partition"] == [[1, 2, 3], [4, 5]]
    assert doc["cluster_masses"] == [3, 2]
    assert len(doc["events"]) == 2
    assert doc["breakpoints"][0] == 0
    assert doc["breakpoints"][-1] == 1
    assert len(doc["zeta"]) == 5
    assert len(doc["xi"]) == 5


def test_verify_passes_small_count(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "0", "--count", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "VERIFY PASS"
    names = [ln.split(":")[0] for ln in lines[:-1]]
    assert names == ["triple", "oracle", "structure", "recursion",
                     "physics", "quadrature"]
    for ln in lines[:-1]:
        counts = ln.split(":")[1].strip().split(" ")[0]
        passed, total = counts.split("/")
        assert passed == total


def test_verify_zero_count_is_vacuous(capsys):
    code, out, _ = run(capsys, ["verify", "--count", "0", "--suites", "triple"])
    assert code == 0
    assert out == "triple: 0/0 pass\nVERIFY PASS\n"


@pytest.mark.parametrize("suite", ["triple", "oracle"])
def test_verify_negative_count_exits_one(capsys, suite):
    code, out, err = run(capsys, ["verify", "--count", "-1", "--suites", suite])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ShelyapError"


def test_verify_negative_seed_exits_one(capsys):
    # rejected before any suite draws, as a negative count is
    code, out, err = run(capsys, ["verify", "--seed", "-1"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ShelyapError",
                               "message": "seed -1 must be >= 0"}


def test_verify_suite_subset(capsys):
    code, out, _ = run(
        capsys, ["verify", "--count", "4", "--suites", "physics,triple"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("physics: 4/4")
    assert lines[1].startswith("triple: 4/4")


@pytest.mark.parametrize("results,line,code", [
    ([True, None, True], "structure: 2/2 pass (1 boundary skipped)", 0),
    ([None, False, None], "structure: 0/1 pass (2 boundary skipped)", 2),
], ids=["pass", "fail"])
def test_verify_leaves_boundary_skips_out_of_the_total(capsys, monkeypatch,
                                                       results, line, code):
    def suite(rng, count):
        # each suite draws from default_rng([seed, its position in SUITES])
        assert rng.random() == np.random.default_rng([3, 2]).random()
        return results

    monkeypatch.setitem(SUITES, "structure", suite)
    got, out, _ = run(capsys, ["verify", "--seed", "3", "--suites", "structure"])
    verdict = "VERIFY PASS" if code == 0 else "VERIFY FAIL"
    assert (got, out) == (code, f"{line}\n{verdict}\n")


def test_verify_unknown_suite_exits_one(capsys):
    # a list naming no suite would check nothing and pass, and one naming a
    # suite twice would print its line twice
    for suites in ("nope", ",", "triple,triple,physics"):
        code, out, err = run(capsys, ["verify", "--suites", suites])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ShelyapError"


def test_moments_single_coordinate_matches_kernel(capsys):
    code, out, _ = run(
        capsys, ["moments", "--t", "1", "--x", "0.5", "--m", "1", "--T", "4"]
    )
    assert code == 0
    doc = json.loads(out)
    expect = heat_kernel(4.0, 2.0)
    assert doc["moment"] == pytest.approx(expect, rel=1e-8)
    assert doc["rate"] == pytest.approx(math.log(doc["moment"]) / 4.0)
    assert doc["gap"] == pytest.approx(doc["rate"] - doc["gamma"])
    assert doc["imag_residual"] <= 1e-8
    assert doc["points"] == 200
    assert len(doc["offsets"]) == 1


def test_moments_custom_offsets_and_rule(capsys):
    code, out, _ = run(
        capsys,
        ["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2",
         "--offsets", "1.0,-1.0", "--rule", "trapezoid", "--points", "300"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["offsets"] == [1.0, -1.0]
    assert doc["points"] == 300
    code2, out2, _ = run(
        capsys, ["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2"]
    )
    assert json.loads(out2)["moment"] == pytest.approx(doc["moment"], rel=1e-8)


def test_moments_nu_cap_exits_one(capsys):
    # the cap is checked before the coordinates are flattened, so a total too
    # large for memory is NuTooLarge as well
    for m in ("4", "100000000000000"):
        code, _, err = run(
            capsys, ["moments", "--t", "1", "--x", "0", "--m", m, "--T", "1"]
        )
        assert code == 1
        assert json.loads(err)["error"] == "NuTooLarge"


def test_sweep_t_grid_csv(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0,1", "--m", "1,1",
         "--param", "t", "--grid", "0.5:1.5:3"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["parameter", "gamma", "q_hat", "s0"]
    assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 1.5]
    # the pair merges once t reaches the gap over the closing speed
    assert [r[2] for r in rows[1:]] == ["2", "1", "1"]
    assert rows[1][3] == ""
    assert float(rows[2][3]) == pytest.approx(1.0)
    assert float(rows[3][3]) == pytest.approx(1.0)


def test_sweep_location_grid_json(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0,2", "--m", "1,1",
         "--param", "x2", "--grid", "0.5:2.5:2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert [d["parameter"] for d in doc] == [0.5, 2.5]
    assert doc[0]["q_hat"] == 1
    assert doc[1]["q_hat"] == 2
    assert doc[1]["s0"] is None
    assert doc[0]["gamma"] == pytest.approx(-0.0625)


def test_sweep_empty_grid(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0", "--m", "1",
         "--param", "t", "--grid", "1:2:0"],
    )
    assert code == 0
    assert out == "parameter,gamma,q_hat,s0\n"


def test_sweep_malformed_grid_exits_one(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0", "--m", "1",
         "--param", "t", "--grid", "1:2"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ShelyapError"


def test_sweep_grid_hitting_invalid_instance_exits_one(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0,1", "--m", "1,1",
         "--param", "x2", "--grid=-1:-1:1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "UnsortedLocations"


def test_sweep_unknown_param_exits_one(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--t", "1", "--x", "0", "--m", "1",
         "--param", "x7", "--grid", "0:1:2"],
    )
    assert code == 1
    assert "out of range" in json.loads(err)["message"]


@pytest.mark.parametrize("param", ["x", "y1", "x\u00b2", "x\u0661"])
def test_sweep_malformed_param_exits_one(capsys, param):
    # a superscript two passes str.isdigit, an Arabic-Indic one passes int()
    code, out, err = run(
        capsys, ["sweep", *PAIR, "--param", param, "--grid", "0:1:2"]
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ShelyapError",
        "message": f"param {param!r} must be 't' or 'x<i>'",
    }


@pytest.mark.parametrize("argv,message", [
    (["sweep", *PAIR, "--param", "t", "--grid", "1:x:3"], "malformed grid '1:x:3': "),
    (["sweep", *PAIR, "--param", "t", "--grid", "1:2:-1"], "grid count -1 must be >= 0"),
    (["gamma", "--t", "1", "--x", "0"], "need --input FILE or all of --t/--x/--m"),
], ids=["grid-not-a-number", "grid-negative-count", "instance-without-m"])
def test_malformed_grid_or_partial_instance_exits_one(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "ShelyapError"
    assert doc["message"].startswith(message)


def test_closed_pipe_is_not_an_error():
    # the reader takes one line of a 556 kB CSV and closes the pipe
    x = ",".join(repr(0.37 * i + 0.011 * (i % 7)) for i in range(1, 301))
    m = ",".join(str(1 + i % 5) for i in range(1, 301))
    env = dict(os.environ, PYTHONPATH=str(Path(shelyap.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "shelyap.cli", "clusters", "--t", "2", "--x", x,
         "--m", m, "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"index,s,zeta,xi\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (code, err) == (0, b"")


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, ["gamma", "--bogus"])
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"
    code2, _, err2 = run(capsys, [])
    assert code2 == 1
    assert json.loads(err2)["error"] == "UsageError"


def test_repeat_invocations_are_byte_identical(capsys):
    argv = ["verify", "--seed", "7", "--count", "5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["sweep", "--t", "1", "--x", "0,1", "--m", "2,1",
            "--param", "t", "--grid", "0.2:2:7"]
    _, a, _ = run(capsys, argv)
    _, b, _ = run(capsys, argv)
    assert a == b


@pytest.mark.parametrize("argv,flag,value", [
    (["gamma", "--t", "1", "--m", "1,1"], "--x", "-1,0"),
    (["sweep", "--t", "1", "--x", "0,1", "--m", "1,1", "--param", "x1"],
     "--grid", "-2:0.5:3"),
    (["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2"],
     "--offsets", "-0.4,-1.6"),
])
def test_inline_value_may_start_with_minus(capsys, argv, flag, value):
    cmd, *rest = argv
    code, out, err = run(capsys, [cmd, flag, value, *rest])
    assert (code, err) == (0, "")
    assert run(capsys, [cmd, f"{flag}={value}", *rest]) == (code, out, err)


@pytest.mark.parametrize("offsets", [[], ["--offsets", "1.0,-1.0"]])
def test_moments_zero_points_exits_one(capsys, offsets):
    code, out, err = run(
        capsys,
        ["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2",
         "--points", "0", *offsets],
    )
    assert code == 1
    assert out == ""
    assert "points 0" in json.loads(err)["message"]


@pytest.mark.parametrize("setting", [
    ["--points", "3"], ["--truncation-sigmas", "0"], ["--truncation-sigmas", "nan"],
])
def test_moments_invalid_contour_setting_is_typed(capsys, setting):
    code, out, err = run(
        capsys, ["moments", "--t", "1", "--x", "0", "--m", "1", "--T", "2", *setting]
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "InvalidContour"


@pytest.mark.parametrize("argv,error", [
    (["gamma", "--t", "1", "--m", "1,1", "--x", "-inf,0"], "UnsortedLocations"),
    (["gamma", "--t", "1", "--m", "1,1", "--x", "-nan,0"], "UnsortedLocations"),
    (["gamma", *PAIR, "--tolerance", "-inf"], "ShelyapError"),
    (["gamma", *PAIR, "--tolerance", "-nan"], "ShelyapError"),
    (["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2", "--offsets",
      "-Infinity,1"], "InvalidContour"),
    (["gamma", "--x=0,1", "--m", "1,1", "--t", "inf"], "NonPositiveTime"),
])
def test_inline_minus_inf_and_nan_reach_validation(capsys, argv, error):
    # the value is the last token; its --flag=value form must agree
    *rest, flag, value = argv
    for form in ([*rest, flag, value], [*rest, f"{flag}={value}"]):
        code, out, err = run(capsys, form)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error


@pytest.mark.parametrize("doc,error", [
    ({"t": "1", "x": [0, 1], "m": [1, 1]}, "NonPositiveTime"),
    ({"t": True, "x": [0, 1], "m": [1, 1]}, "NonPositiveTime"),
    ({"t": None, "x": [0, 1], "m": [1, 1]}, "NonPositiveTime"),
    ({"t": 1, "x": ["0", "1"], "m": [1, 1]}, "UnsortedLocations"),
    ({"t": 1, "x": [False, True], "m": [1, 1]}, "UnsortedLocations"),
    ({"t": "1", "x": ["0", "1"], "m": [1, 1]}, "UnsortedLocations"),
    ({"t": 10**400, "x": [0], "m": [1]}, "NonPositiveTime"),
    ({"t": 1, "x": [0, 10**400], "m": [1, 1]}, "UnsortedLocations"),
    # JSON reads a float literal past the range as inf
    ('{"t": 1e400, "x": [0, 1], "m": [1, 1]}', "NonPositiveTime"),
    ('{"t": 1, "x": [0, 1e400], "m": [1, 1]}', "UnsortedLocations"),
])
def test_file_instance_rejects_non_numbers(tmp_path, capsys, doc, error):
    path = tmp_path / "inst.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, ["gamma", "--input", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("doc", [
    5, "t", [1.0, [0.0], [1]],
    {"t": 1, "x": 0.5, "m": [1]},
    {"t": 1, "x": [0.5], "m": 1},
])
def test_file_instance_of_wrong_shape_exits_one(tmp_path, capsys, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["gamma", "--input", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "ShelyapError"


@pytest.mark.parametrize("argv,error", [
    (["gamma", "--t", "1", "--x", "0,abc", "--m", "1,1"], "UnsortedLocations"),
    (["gamma", "--t", "abc", "--x", "0,1", "--m", "1,1"], "NonPositiveTime"),
    (["gamma", "--t", "1", "--x", "0,1", "--m", "1,x"], "NonPositiveMultiplicity"),
    (["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2", "--offsets",
      "1,abc"], "InvalidContour"),
    # an empty field is not skipped: "1,,1" is not the list (1, 1)
    (["gamma", "--t", "1", "--x", "0,1", "--m", "1,,1"], "NonPositiveMultiplicity"),
    (["gamma", "--t", "1", "--x", ",0,1", "--m", "1,1"], "UnsortedLocations"),
    (["gamma", "--t", "1", "--x", "0,1,", "--m", "1,1"], "UnsortedLocations"),
    (["gamma", "--t", "1", "--x", "0, ,1", "--m", "1,1"], "UnsortedLocations"),
    (["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "2", "--offsets",
      "1,,-1"], "InvalidContour"),
    (["gamma", "--t", "1", "--x", "0,1", "--m", "1.5,1"], "NonPositiveMultiplicity"),
    (["gamma", "--t", "1", "--x", "0,1", "--m", "1,nan"], "NonPositiveMultiplicity"),
])
def test_malformed_inline_number_exits_one(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("offsets", [[], ["--offsets", "1.0,-1.0"]])
def test_moments_solves_route_one_once(monkeypatch, capsys, offsets):
    calls = []

    def counted(*args):
        calls.append(1)
        return shelyap.solve_gamma1(*args)

    monkeypatch.setattr("shelyap.cli.solve_gamma1", counted)
    code, _, _ = run(capsys, ["moments", "--t", "1", "--x", "0", "--m", "2",
                              "--T", "2", *offsets])
    assert code == 0
    assert len(calls) == 1

    # the default contour's centre comes from the instance, not from PAVA
    def refuse(*args):
        raise AssertionError("default_contour_config ran PAVA")

    monkeypatch.setattr("shelyap.solvers.isotonic_nonincreasing", refuse)
    inst = shelyap.validate_instance(0.8, [-0.5, 0.5], [2, 1])
    cfg = shelyap.default_contour_config(2.0, inst)
    assert cfg.offsets == (1.5416666666666665, 0.20833333333333334, -1.125)


def fresh_run(capsys, argv):
    """run() with a parser built for this call alone."""
    shelyap.cli.build_parser.cache_clear()
    return run(capsys, argv)


@pytest.mark.parametrize("first, second", [
    (["gamma", "--t", "2", "--x=-1.5,-0.2,0.4,2.5", "--m", "2,1,3,1", "--tolerance", "0"],
     ["gamma", "--t", "2", "--x=-1.5,-0.2,0.4,2.5", "--m", "2,1,3,1"]),
    (["clusters", *PAIR, "--format", "csv"], ["clusters", *PAIR]),
    (["gamma", "--frobnicate"], ["gamma", *PAIR]),
], ids=["tolerance-then-default", "csv-then-default", "usage-error-then-valid"])
def test_shared_parser_leaks_no_state_between_calls(capsys, first, second):
    # main builds its parser once per process; each call must still give
    # the exit code and bytes that a parser built for it alone gives
    want = [fresh_run(capsys, argv) for argv in (first, second)]
    shelyap.cli.build_parser.cache_clear()
    got = [run(capsys, argv) for argv in (first, second)]
    assert got == want
    assert got[0] != got[1]


def test_only_clusters_builds_the_merge_log(monkeypatch, capsys):
    # gamma, sweep and every verify suite read the merge forest; only
    # clusters asks for the MergeEvent log. The parser is built once
    class Built(Exception):
        pass

    def refuse(*args):
        raise Built("a MergeEvent was built")

    monkeypatch.setattr("shelyap.clusters.MergeEvent", refuse)
    shelyap.cli.build_parser.cache_clear()
    cascade = ["--t", "1", "--x=-2,-1.5,-1,0,1e-300,3", "--m", "1,2,3,1,2,5"]
    for argv in (["gamma", *cascade],
                 ["sweep", *cascade, "--param", "t", "--grid", "0.5:2:4"],
                 ["sweep", *cascade, "--param", "x2", "--grid=-1.9:-1.2:3", "--format", "json"],
                 ["verify", "--seed", "0", "--count", "5"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
    assert out.endswith("VERIFY PASS\n") and out.count("5/5") >= 4
    with pytest.raises(Built):
        main(["clusters", *cascade])
    assert shelyap.cli.build_parser.cache_info().misses == 1


def test_moments_given_offsets_build_no_default_contour(capsys):
    # the default centre -sum(u)/(nu t) = -8.5e307 would lose its gap in
    # float64, but the user gave offsets, so only the moment itself fails
    code, out, err = run(capsys, ["moments", "--t", "1", "--x", "1e200,1.7e308", "--m", "1,1",
                                  "--T", "1e-300", "--offsets", "1,-1"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "NonPositiveMoment"


def test_moments_default_centre_too_large_for_the_gap_exits_one(capsys):
    # centre -2 / (2 * 1e-17) = -1e17, where a float64 step is 16 > 1 + 1/nu
    code, out, err = run(capsys, ["moments", "--t", "1e-17", "--x", "1", "--m", "2",
                                  "--T", "1e17"])
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "InvalidContour"
    assert "-sum(u)/(nu t) = -1e+17" in doc["message"]
    assert "gap 1 + 1/nu = 1.5" in doc["message"]


def test_gamma_flattens_once(monkeypatch, capsys):
    calls = []

    def counted(inst):
        calls.append(1)
        return shelyap.flatten(inst)

    for module in ("instance", "solvers", "quadrature"):
        monkeypatch.setattr(f"shelyap.{module}.flatten", counted)
    code, _, _ = run(capsys, ["gamma", "--t", "1", "--x", "0,1,3",
                              "--m", "2,3,1"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    # 10^19 grid values and the 10^15 x 10^15 matrix the Gauss rule builds
    # lie past the 64-bit address space, so the request fails at once
    ["sweep", *PAIR, "--param", "t", "--grid", "1:2:10000000000000000000"],
    ["moments", "--t", "1", "--x", "0", "--m", "3", "--T", "1",
     "--points", "1000000000000000"],
    # a point count past the index range overflows before any allocation
    ["moments", "--t", "1", "--x", "0", "--m", "1", "--T", "1",
     "--points", "100000000000000000000000"],
])
def test_impossible_allocation_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert set(json.loads(err)) == {"error", "message"}


def _formatter_corpus(rng):
    bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=10_000, dtype=np.uint64).view(np.float64)
    big = sys.float_info.max
    special = np.array([0.0, -0.0, big, -big, 5e-324, -5e-324, 2.2250738585072014e-308])
    near_2_53 = (2.0**53 + np.arange(-2000, 2000)).astype(float)
    # k / 10^d: the doubles nearest short decimals such as 0.1 or -12.345
    decimals = rng.integers(-10**6, 10**6, size=30_000) / 10.0 ** rng.integers(0, 7, 30_000)
    corpus = np.concatenate([bits[np.isfinite(bits)], subnormal, -subnormal, special,
                             near_2_53, -near_2_53, decimals, [0.1, 0.2, 0.3]])
    return rng.permutation(corpus)


def _reference_row(values):
    """The writers' earlier form: one %-formatting call over the whole row."""
    return ", ".join(["%.17g"] * len(values)) % tuple(values.tolist())


def _count_printf(monkeypatch):
    """The values the kernel hands to "%.17g" itself, collected as it runs."""
    calls = []

    def counted(x):
        calls.append(x)
        return printf_words(x)

    printf_words = shelyap.cli._printf_words
    monkeypatch.setattr("shelyap.cli._printf_words", counted)
    return calls


def _decimal_ties(rng, size):
    # odd m: m/4 in [1e15, 2.25e15] and m/8 in [1e14, 1e15) have 18
    # significant digits, the last a 5, so %.17g rounds an exact tie
    m4 = 2 * rng.integers(2 * 10**15, 45 * 10**14, size) + 1
    m8 = 2 * rng.integers(4 * 10**14, 4 * 10**15, size) + 1
    return np.concatenate([m4 / 4.0, m8 / 8.0, -m4 / 4.0])


def test_format_row_matches_format_float(monkeypatch):
    corpus = _formatter_corpus(np.random.default_rng(5))
    assert len(corpus) >= 100_000
    # lengths 0 to 4096, then around and past the kernel's 8192-value pass
    rows = np.split(corpus, np.cumsum([0, 1, 2, 7, 500, 4096, 8191, 8192, 8193, 3 * 8192 + 5]))
    for row in rows:
        assert "".join(_row_pieces(row)) == ", ".join(format_float(v) for v in row.tolist())
        assert "".join(_row_pieces(row)) == _reference_row(row)
    # the array branch of dumps_json goes through the same helper
    assert dumps_json(rows[3]) == "[" + ", ".join(map(format_float, rows[3].tolist())) + "]"

    # exact decimal ties reach "%.17g" itself, and little else does
    calls = _count_printf(monkeypatch)
    ties = _decimal_ties(np.random.default_rng(6), 2000)
    assert "".join(_row_pieces(ties)) == _reference_row(ties)
    assert len(calls) == len(ties)
    calls.clear()
    bits = np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    assert "".join(_row_pieces(bits)) == _reference_row(bits)
    assert len(calls) < 0.001 * len(bits)
    for x in calls:  # each one an exact tie: 18 significant digits, the last a 5
        digits = format(Decimal(float(x)), "f").replace("-", "").replace(".", "").strip("0")
        assert len(digits) == 18 and digits[-1] == "5"

    # powers of ten and their neighbours, the notation switches at 1e-4 and
    # 1e16, signed zeros, subnormals and three-digit exponents
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 0.0, -0.0, 5e-324, 2.2250738585072009e-308,
                      2.2250738585072014e-308, 1e-100, 1e100, 1.7976931348623157e308])
    special = np.concatenate([tens, edges])
    big = sys.float_info.max
    special = np.concatenate([special, np.nextafter(special, big), np.nextafter(special, -big)])
    special = np.concatenate([special, -special])
    assert "".join(_row_pieces(special)) == _reference_row(special)
    assert "".join(_row_pieces(np.array([-0.0, 0.0]))) == "-0, 0"


def _bench_shape(tmp_path, n, t=2.0, seed=0):
    """x sorted uniform in [-n, n], m uniform in 1..5: the benchmark's instances."""
    rng = np.random.default_rng(seed)
    path = tmp_path / f"inst{n}.json"
    path.write_text(json.dumps({"t": t, "x": np.sort(rng.uniform(-n, n, n)).tolist(),
                                "m": rng.integers(1, 6, n).tolist()}))
    return ["--input", str(path)]


@pytest.mark.parametrize("command", [["gamma"], ["clusters"], ["clusters", "--format", "csv"]])
@pytest.mark.parametrize("instance", ["high_nu", "bench", "cascade", "contact_at_0", "merge_at_t",
                                      "empty_span"])
def test_commands_match_reference_formatter(monkeypatch, capsys, tmp_path, command, instance):
    args = {
        "high_nu": ["--t", "0.5", "--x=-1,0.3,2", "--m", "40000,35000,25000"],  # nu = 10^5
        "bench": _bench_shape(tmp_path, 400),
        "cascade": ["--t", "1", "--x=-2,-1.5,-1,0,1e-300,3", "--m", "1,2,3,1,2,5"],
        # every location merges at s = 0: the gaps over the closing speeds underflow
        "contact_at_0": ["--t", "1", "--x", "0,5e-324,1e-323", "--m", "3,3,3"],
        # (1, 2) merges at s = t, so that root's span is the last column alone
        "merge_at_t": ["--t", "1", "--x", "0,1,10", "--m", "1,1,1"],
        # (1, 2) merges at s = 0, and only then does (1..2, 3) close within the
        # tolerance: node (1, 2) merges again in its birth column, an empty span
        "empty_span": ["--t", "1", "--x", "0,1e-14,2.51e-12", "--m", "1,1,1"],
    }[instance]
    code, out, err = run(capsys, [*command, *args])
    assert (code, err) == (0, "")
    if command[0] == "clusters":
        # the paths as simulate_inertia expands them, every row printed by the reference
        res = shelyap.simulate_inertia(shelyap.cli._load_instance(
            shelyap.cli.build_parser().parse_args(["clusters", *args])))
        s = _reference_row(np.asarray(res.inertia_paths[0].breakpoints))
    if command[-1] == "csv":
        s = s.split(", ")
        want = "index,s,zeta,xi\n" + "".join(
            f"{i},{sv},{zv},{xv}\n"
            for i, (z, x) in enumerate(zip(res.inertia_paths, optimal_paths(res)), 1)
            for sv, zv, xv in zip(s, _reference_row(z.values).split(", "),
                                  _reference_row(x.values).split(", ")))
    elif command[0] == "clusters":
        monkeypatch.setattr("shelyap.cli._row_pieces", lambda values: [_reference_row(values)])
        head = dumps_json({"partition": res.partition, "q_hat": res.q_hat,
                           "cluster_masses": res.cluster_masses,
                           "terminal_positions": res.terminal_positions, "drifts": res.drifts,
                           "events": res.events})
        want = "".join([
            head[:-2], f',\n  "breakpoints": [{s}]',
            *(f',\n  "{name}": [' + ", ".join(f"[{_reference_row(p.values)}]" for p in paths) + "]"
              for name, paths in (("zeta", res.inertia_paths), ("xi", optimal_paths(res)))),
            "\n}\n"])
    else:
        # the document with its float rows printed by the reference
        monkeypatch.setattr("shelyap.cli._row_pieces", lambda values: [_reference_row(values)])
        want = run(capsys, [*command, *args])[1]
    assert out == want


def test_clusters_csv_memory_stays_below_the_row_by_row_writer(tmp_path):
    # clusters --format csv at n = 1500, t = 2 prints 2.25 million lines. Its
    # tracemalloc peak was 71.1-71.5 MB when the writer held every path's
    # zeta and xi interleaved (35 MB above the 36 MB of path families). With
    # 8192-line passes it is 40.8 MB, 4.7 MB above; it read 52.9 MB while
    # simulate_inertia built xi through a third (n, K) temporary
    argv = ["clusters", *_bench_shape(tmp_path, 1500), "--format", "csv", "--output", os.devnull]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 71 * 2**20


def test_clusters_json_memory_holds_one_chunk_of_rows(tmp_path):
    # clusters --format json at n = 1500, t = 2 prints 4.5 million path values.
    # Its tracemalloc peak was 211 MiB when the writer built the whole document
    # from the two (n, K) path families; printed from the merge forest a chunk
    # of rows at a time it is 6.5 MiB. The CSV writer's peak above is 13.8 MiB
    argv = ["clusters", *_bench_shape(tmp_path, 1500), "--output", os.devnull]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_clusters_prints_without_expanding_paths(monkeypatch, capsys, fmt):
    def expanded(*args):
        raise AssertionError("clusters expanded a path")

    argv = ["clusters", "--t", "1", "--x", "0,0.3,0.6,3.0,3.3", "--m", "1,2,1,3,1",
            "--format", fmt]
    want = run(capsys, argv)
    monkeypatch.setattr("shelyap.clusters.PiecewiseLinearPath", expanded)
    assert run(capsys, argv) == want
    assert want[0] == 0


def test_clusters_span_holds_its_birth_position_exactly(capsys):
    # location 2 sits at -0.0 with speed 0; -0.0 + 0.0 * (s - 0) is +0.0 at
    # s = 0, but a span's birth column holds the birth position itself
    argv = ["clusters", "--t", "0.5", "--x=-1,-0,1", "--m", "1,1,1"]
    out = run(capsys, argv)[1]
    assert '"zeta": [[-1, -0.5], [-0, 0], [1, 0.5]]' in out
    assert '"xi": [[-1, 0], [-0, 0], [1, 0]]' in out
    assert run(capsys, [*argv, "--format", "csv"])[1].splitlines()[3] == "2,0,-0,-0"


def test_clusters_json_names_first_non_finite_xi(capsys):
    # zeta and every value before it are finite, but d_B * t overflows where
    # d_B = zeta_B(t) / t rounded up: xi(t) is inf in row 1 and -inf in row 2
    argv = ["clusters", "--t", "3", "--x=-1.7976931348623157e308,1.7976931348623157e308",
            "--m", "1,1"]
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NonFiniteResult",
                               "message": "computed value inf is not finite"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_format_row_names_first_non_finite(bad):
    row = np.array([0.5, -2.0, bad, 1.0, math.nan, -math.inf])
    with pytest.raises(NonFiniteResult, match=f"computed value {bad} is not finite"):
        "".join(_row_pieces(row))
    with pytest.raises(NonFiniteResult):
        "".join(_row_pieces(np.array([bad])))


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_gamma_names_non_finite_in_last_chunk_before_writing(monkeypatch, capsys, tmp_path,
                                                             to_file):
    # a has nu = 9000 values, which the kernel prints in two passes; the
    # first non-finite value sits in the second pass, after 8192 values that
    # print, and the document is built and checked before any byte goes out
    solve = shelyap.closedform.solve_gamma1

    def spoiled(inst):
        sol = solve(inst)
        values = sol.values.copy()
        values[8200], values[8500] = -math.inf, math.nan
        return VariationalSolution(values, sol.objective)

    monkeypatch.setattr("shelyap.closedform.solve_gamma1", spoiled)
    dest = tmp_path / "out.json"
    argv = ["gamma", "--t", "1", "--x", "0,1", "--m", "5000,4000"]
    code, out, err = run(capsys, [*argv, *(["--output", str(dest)] if to_file else [])])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NonFiniteResult",
                               "message": "computed value -inf is not finite"}
    assert not dest.exists()


def test_clusters_csv_names_first_non_finite_in_line_order(capsys):
    # zeta overflows to inf after s = 0, while xi at s = 0 is already nan
    # (x - inf * 0); the row-by-row order reaches the nan first
    argv = ["clusters", "--t", "1e308", "--x=-1.7e308,1.7e308", "--m", "1000,1000",
            "--format", "csv"]
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "computed value nan is not finite"


def test_check_paths_names_first_non_finite_across_chunks(monkeypatch):
    # one row a chunk: row 1's xi is nan at s = 0 (x - inf * 0), and row 5's
    # zeta is inf. JSON prints every zeta before any xi, CSV row by row
    monkeypatch.setattr(shelyap.clusters._Paths, "ROWS", 1)
    monkeypatch.setattr(shelyap.clusters._Paths, "VALUES", 1)
    inst = shelyap.validate_instance(1.0, [0.0, 1.0, 2.0, 3.0, 10.0, 20.0], [1] * 6)
    paths = shelyap.clusters._Paths(shelyap.clusters._simulate(inst), inst.t)
    paths.node_drift[0] = np.inf
    paths.position[4] = np.inf
    for interleave, name in ((False, "inf"), (True, "nan")):
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteResult, match=f"^computed value {name} is not finite$"):
            shelyap.cli._check_paths(paths, interleave)


def test_verify_exits_one_when_too_few_instances_match(monkeypatch, capsys):
    # the oracle suite's nu <= 10 matches about half the draws
    monkeypatch.setattr("shelyap.sampling.MAX_DRAWS", 10)
    code, out, err = run(capsys, ["verify", "--suites", "oracle", "--count", "11"])
    assert (code, out) == (1, "")
    # json.loads takes one object and nothing else: no traceback, no second object
    assert json.loads(err) == {"error": "ShelyapError",
                               "message": "only 5/11 matching instances in 10 draws"}


def test_float_formatting_round_trips():
    for v in (0.1, -0.0625, 1.0, 1e-300, 2**-52, math.pi, 1e17 + 1):
        assert float(format_float(v)) == v


@pytest.mark.parametrize("T", ["0", "-1", "inf"])
@pytest.mark.parametrize("offsets", [[], ["--offsets", "0.5"]])
def test_moments_nonpositive_scale_exits_one(capsys, T, offsets):
    code, out, err = run(
        capsys, ["moments", "--t", "1", "--x", "0", "--m", "1", "--T", T, *offsets]
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonPositiveTime"


@pytest.mark.parametrize("t,m,T,offsets", [
    ("1e-300", "2", "1e-300", []), ("1e-300", "2", "1e-300", ["--offsets", "1,-1"]),
    ("1e300", "1", "1e300", []), ("1e300", "1", "1e300", ["--offsets", "0.5"]),
])
def test_moments_kernel_time_out_of_range_exits_one(capsys, t, m, T, offsets):
    # T*t underflows to 0 or overflows to inf although t and T are in range
    code, out, err = run(
        capsys, ["moments", "--t", t, "--x", "0", "--m", m, "--T", T, *offsets]
    )
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "NonPositiveTime"
    assert doc["message"].startswith("kernel time T*t=")


@pytest.mark.parametrize("argv", [
    ["gamma", "--t", "5e-324", "--x", "0,1", "--m", "1,1"],
    ["clusters", "--t", "5e-324", "--x", "0,1", "--m", "1,1"],
    ["clusters", "--t", "5e-324", "--x", "0,1", "--m", "1,1", "--format", "csv"],
    ["sweep", "--t", "1", "--x", "0,1", "--m", "1,1", "--param", "t",
     "--grid", "5e-324:1e-323:2"],
    # NaN moments: the integrand overflows, or the truncation is infinite
    ["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "1e6"],
    ["moments", "--t", "1", "--x", "0", "--m", "2", "--T", "1",
     "--truncation-sigmas", "1e400"],
    # a default contour centre -sum(u)/(nu t) past the float range: the sum
    # overflows, or the sum is finite and its ratio to t is not
    ["moments", "--t", "1", "--x", "1e308,1.7e308", "--m", "1,1", "--T", "1"],
    ["moments", "--t", "1e-300", "--x", "1e10", "--m", "3", "--T", "1"],
])
def test_non_finite_result_exits_one(capsys, argv):
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteResult"


@pytest.mark.parametrize("m", ["1000,1000", "2,3"])
def test_infinite_pava_weight_exits_one(capsys, m):
    # route 2's PAVA weights m t overflow to inf, which PAVA rejects
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, ["gamma", "--t", "1e308", "--x", "0,1", "--m", m])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "InvalidFitInput",
                               "message": "weight inf at position 0 must be finite and > 0"}


@pytest.mark.parametrize("argv", [
    ["gamma", "--t", "5e-324", "--x", "0,1", "--m", "1,1"],
    ["clusters", "--t", "5e-324", "--x", "0,1", "--m", "1,1"],
    ["sweep", "--t", "1", "--x", "0,1", "--m", "1,1", "--param", "t",
     "--grid", "5e-324:1e-323:2"],
    ["moments", "--t", "1", "--x", "1e308,1.7e308", "--m", "1,1", "--T", "1"],
])
def test_degenerate_input_stderr_is_one_error_object(argv):
    # a fresh interpreter, so numpy's warnings would reach stderr unfiltered
    env = dict(os.environ, PYTHONPATH=str(Path(shelyap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "shelyap.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "NonFiniteResult"
