import functools
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actcap.capacity import shannon_capacity, zero_error_capacity
from actcap.cli import main
from actcap.distributions import Uniform, make_rng, parse_spec


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_capacity_reference_values(capsys):
    code, out = run_cli(
        ["capacity", "--dist", "uniform:2.267949192431123,5.732050807568877"],
        capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value_bits,optimal_d"
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    assert float(table["c_ze"][0]) == pytest.approx(1.2075, abs=1e-4)
    assert float(table["c_sh"][0]) == pytest.approx(2.7636, abs=0.02)


def test_capacity_erasure_inf_literal(capsys):
    code, out = run_cli(["capacity", "--dist", "erasure:1,0.5"], capsys)
    assert code == 0
    table = {r.split(",")[0]: r.split(",")[1:] for r in out.strip().splitlines()[1:]}
    assert table["c_sh"][0] == "inf"
    assert float(table["c_ze"][0]) == 0.0


def test_capacity_of_point_mass_at_zero(capsys):
    code, out = run_cli(["capacity", "--dist", "erasure:0.5,0"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "c_sh,0.0,0.0", "c_ze,0.0,0.0", "c_2,0.0,0.0"]


def test_eta_capacity_of_point_mass_at_zero_reads_plus_zero(capsys):
    # the scan's objective is the negated log moment of a law that d does
    # not move, -0.0; the capacity used to print it as -0.0
    code, out = run_cli(["curve", "--dist", "erasure:0.5,0", "--etas", "0.5,2"],
                        capsys)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0.5,0.0", "2.0,0.0"]


@pytest.mark.parametrize("args", [["capacity"], ["curve", "--etas", "0.5,2,64"]],
                         ids=["capacity", "curve"])
def test_zero_weight_mixture_component_prints_the_lone_law(args, capsys):
    # a component of weight 0 is never evaluated and does not widen the
    # support, so the mixture prints the rows of its lone uniform law
    code, out = run_cli([args[0], "--dist", "mixture:1*uniform:1,3|0*gaussian:4,1",
                         *args[1:]], capsys)
    assert code == 0
    assert run_cli([args[0], "--dist", "uniform:1,3", *args[1:]],
                   capsys) == (0, out)


def test_curve_monotone_rows(capsys):
    code, out = run_cli(
        ["curve", "--dist", "uniform:1,3", "--etas", "0.01,1,2,8,64"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    assert len(values) == 5
    assert all(a >= b - 1e-7 for a, b in zip(values, values[1:]))


def test_csv_round_trip_full_precision(capsys):
    code, out = run_cli(["capacity", "--dist", "uniform:1,3"], capsys)
    assert code == 0
    table = {r.split(",")[0]: r.split(",")[1:] for r in out.strip().splitlines()[1:]}
    sh = shannon_capacity(Uniform(1, 3))
    ze = zero_error_capacity(Uniform(1, 3))
    # repr round-trips exactly, so 12 significant digits certainly survive
    assert float(table["c_sh"][0]) == sh.value_bits
    assert float(table["c_sh"][1]) == sh.optimal_d
    assert float(table["c_ze"][0]) == ze.value_bits


def test_json_structure(capsys):
    code, out = run_cli(
        ["capacity", "--dist", "erasure:1,0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "results", "diagnostics"}
    assert payload["config"]["dist"] == "erasure:1,0.5"
    by_q = {r["quantity"]: r for r in payload["results"]}
    assert by_q["c_sh"]["value_bits"] == "inf"
    assert by_q["c_2"]["value_bits"] == pytest.approx(0.5)


def test_output_file_and_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--dist", "uniform:1,3", "--a", "2", "--d", "-0.4",
            "--horizon", "40", "--paths", "300", "--seed", "5",
            "--etas", "1,2", "--threshold-M", "1e6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sideinfo_command(capsys):
    code, out = run_cli(
        ["sideinfo", "--dist", "uniform:0,4", "--si-bits", "2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    assert len(values) == 3
    assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))


def test_sideinfo_explicit_cells(capsys):
    code, out = run_cli(
        ["sideinfo", "--dist", "uniform:0,4", "--si-cells", "0,1,4",
         "--eta", "2"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "cells,capacity_bits"
    assert int(rows[1].split(",")[0]) == 2


def test_sweep_families(capsys):
    code, out = run_cli(
        ["sweep", "--ratios", "4", "--families", "uniform,gaussian,erasure"],
        capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_family = {r[0]: r for r in rows}
    # all three families share the second-moment value at a common ratio
    c2 = {f: float(r[5]) for f, r in by_family.items()}
    assert c2["uniform"] == pytest.approx(c2["gaussian"], abs=1e-9)
    assert c2["uniform"] == pytest.approx(c2["erasure"], abs=1e-9)
    assert by_family["erasure"][3] == "inf"
    assert float(by_family["erasure"][4]) == 0.0


def test_carryfree_command(capsys):
    code, out = run_cli(
        ["carryfree", "--gain", "cf:1,0", "--g-a", "1", "--horizon", "50",
         "--paths", "30", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"]["zero_error_capacity"] == 1
    assert payload["diagnostics"]["shannon_capacity"] == 2
    max_degrees = [r["max_degree"] for r in payload["results"]]
    assert max(max_degrees) <= 16


def test_second_moment_with_underflowing_variance(capsys):
    code, out = run_cli(["capacity", "--dist", "gaussian:0,1e-300"], capsys)
    assert code == 0
    assert "c_2,0.0,-0.0" in out.splitlines()


@pytest.mark.parametrize("dist,want", [
    ("empirical:@{tmp}", 0.5 * math.log2(5.0)),
    ("mixture:0.5*gaussian:0,1e-300|0.5*gaussian:1e-300,1e-300",
     0.5 * math.log2(1.2)),
])
def test_second_moment_of_tiny_scale_laws(dist, want, tmp_path, capsys):
    samples = tmp_path / "tiny.csv"
    samples.write_text("1e-300\n3e-300\n")
    code, out = run_cli(["capacity", "--dist", dist.format(tmp=samples)], capsys)
    assert code == 0
    table = {r.split(",")[0]: r.split(",")[1:] for r in out.strip().splitlines()[1:]}
    assert float(table["c_2"][0]) == pytest.approx(want, abs=1e-12)


def test_simulate_gain_product_past_the_float_range(capsys):
    # d b passes the float range for b > 1.797: each step then adds
    # log2|a| + log2|d| + log2|b + 1/d|, not inf
    code, out = run_cli(["simulate", "--dist", "uniform:1,3", "--a", "2",
                         "--d", "1e308", "--horizon", "3", "--paths", "4"],
                        capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[1:]]
    draws = [Uniform(1, 3).sample(make_rng(0, p), 3) for p in range(4)]
    want = 0.0
    for n, row in enumerate(rows):
        assert row[0] == n and row[1] == pytest.approx(want, rel=1e-12)
        if n < 3:
            want += sum(1.0 + math.log2(1e308) + math.log2(b[n] + 1e-308)
                        for b in draws) / 4
    assert len(rows) == 4 and all(math.isfinite(v) for row in rows for v in row)


def test_simulate_moment_past_the_float_range_exits_3(capsys):
    # 1e307 log2|X/x0| overflows once the state is about 18 bits from x0;
    # it used to print -inf moments with exit 0
    code = main(["simulate", "--dist", "uniform:1,3", "--a", "2", "--d",
                 "-0.4", "--horizon", "300", "--paths", "40", "--etas",
                 "1e307"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "eta = 1e+307" in err[0] and "step" in err[0]


def test_config_error_exit_code(capsys):
    assert main(["capacity", "--dist", "bogus:1,2"]) == 2
    assert main(["capacity", "--dist", "uniform:3,1"]) == 2
    assert main(["sideinfo", "--dist", "gaussian:0,1", "--si-bits", "2"]) == 2


_SIM = ["simulate", "--dist", "uniform:1,3", "--d", "-0.4", "--horizon", "5",
        "--paths", "10"]


@pytest.mark.parametrize("args", [
    _SIM + ["--a", "nan"],
    _SIM + ["--a", "inf"],
    _SIM + ["--a", "2", "--x0", "nan"],
    _SIM + ["--a", "2", "--noise-w", "inf"],
    _SIM + ["--a", "2", "--noise-v", "nan"],
    _SIM + ["--a", "2", "--threshold-M", "nan"],
    _SIM + ["--a", "2", "--etas", "2,inf"],
    ["capacity", "--dist", "uniform:1,inf"],
    ["capacity", "--dist", "mixture:nan*uniform:1,3|1*uniform:1,2"],
    ["capacity", "--dist", "empirical:@/nonexistent/samples.csv"],
    ["sideinfo", "--dist", "uniform:1,3", "--sense", "eta", "--si-bits", "1"],
    ["carryfree", "--gain", "cf:1,0", "--start-degree", "9223372036854775000"],
    ["carryfree", "--gain", "cf:1,0", "--g-a", "99999999999999999999"],
    _SIM + ["--a", "2", "--seed", "-1"],
    _SIM + ["--a", "2", "--threshold-M", "-1"],
    _SIM + ["--a", "2", "--threshold-M", "0"],
    ["curve", "--dist", "uniform:1,3", "--etas", ","],
    ["scan", "--dist", "uniform:1,3", "--a-grid", ","],
    ["converse", "--dist", "uniform:1,3", "--a", "9", "--m-list", ","],
    ["curve", "--dist", "uniform:1,3", "--etas", "1e308"],
    ["sideinfo", "--dist", "uniform:1,3", "--si-bits", "-1"],
    ["sideinfo", "--dist", "uniform:1,3", "--si-bits", "21"],
    _SIM + ["--a", "2", "--etas", "0"],
    _SIM + ["--a", "2", "--etas=-1"],
    ["sideinfo", "--dist", "uniform:0,4", "--si-cells", "0,nan,4"],
    ["sweep", "--ratios", "1e200"],
    ["sweep", "--ratios", "nan"],
])
def test_malformed_input_exits_2_with_one_line(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args,message", [
    (_SIM + ["--a", "2", "--threshold-M", "-1"], "thresholds must be positive"),
    (["curve", "--dist", "uniform:1,3", "--etas", ","], "--etas needs"),
    (["sweep", "--ratios", " , "], "--ratios needs"),
    (["curve", "--dist", "uniform:1,3", "--etas", "1e308"], "--etas"),
    (["sideinfo", "--dist", "uniform:1,3", "--si-bits", "-1"], "--si-bits"),
    (["sideinfo", "--dist", "uniform:1,3", "--si-bits", "21"], "--si-bits"),
    (_SIM + ["--a", "2", "--etas", "0"], "--etas"),
    (_SIM + ["--a", "2", "--etas=-1"], "--etas"),
    (["sideinfo", "--dist", "uniform:0,4", "--si-cells", "0,nan,4"], "--si-cells"),
    (["sweep", "--ratios", "1e200"], "--ratios 1e+200"),
    (["sweep", "--ratios", "nan"], "--ratios"),
])
def test_malformed_input_message_names_the_problem(args, message, capsys):
    assert main(args) == 2
    assert message in capsys.readouterr().err


_DRAWING = [
    _SIM + ["--a", "2"],
    ["scan", "--dist", "uniform:1,3", "--a-grid", "2", "--horizon", "5",
     "--paths", "10"],
    ["converse", "--dist", "uniform:1,3", "--a", "9", "--horizon", "5",
     "--paths", "10"],
    ["carryfree", "--gain", "cf:1,0", "--horizon", "5", "--paths", "2"],
]
_IGNORING = [
    ["capacity", "--dist", "uniform:1,3"],
    ["curve", "--dist", "uniform:1,3", "--etas", "2"],
    ["sweep", "--ratios", "4", "--families", "uniform"],
    ["sideinfo", "--dist", "uniform:0,4", "--si-bits", "1"],
]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_the_key_range(seed, capsys):
    # a seed is one uint64 word of each path's Philox key
    for args in _DRAWING:
        assert main(args + ["--seed", seed]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --seed must lie in [0, 2^64)")
        assert main(args + ["--seed", str(2**64 - 1)]) == 0, args
        capsys.readouterr()
    for args in _IGNORING:
        assert main(args + ["--seed", seed]) == 0, args
        ignored = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == ignored


_EXPONENTS = st.integers(-300, 300)
_SHAPES = st.integers(-8000, 8000).map(lambda x: x / 1000)
_ANY_MAGNITUDE = st.builds(lambda m, e: m * 10.0 ** e,
                           st.integers(-9, 9), _EXPONENTS)
_PARAM_PAIRS = st.one_of(
    # a law of ordinary shape at any magnitude
    st.builds(lambda a, b, e: (a * 10.0 ** e, b * 10.0 ** e),
              _SHAPES, _SHAPES, _EXPONENTS),
    # two parameters of unrelated magnitudes
    st.tuples(_ANY_MAGNITUDE, _ANY_MAGNITUDE),
)


@settings(max_examples=60)
@given(st.sampled_from(["uniform", "gaussian"]), _PARAM_PAIRS)
def test_capacity_at_any_magnitude_exits_cleanly(family, pair):
    p, q = sorted(pair) if family == "uniform" else (pair[0], abs(pair[1]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["capacity", "--dist", f"{family}:{p!r},{q!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue().lower()


@functools.cache
def _shannon_bits(spec):
    return shannon_capacity(parse_spec(spec)).value_bits


@settings(max_examples=30)
@given(st.sampled_from(["uniform:1,3", "uniform:-1,3", "gaussian:4,1"]),
       st.builds(lambda m, e: m * 10.0 ** e, st.integers(1, 9),
                 st.integers(-300, 308)))
def test_curve_at_any_eta_exits_cleanly(dist, eta):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["curve", "--dist", dist, "--etas", repr(eta)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        value = float(out.getvalue().splitlines()[1].split(",")[1])
        assert math.isfinite(value)
        # by Jensen, C_eta <= C_sh; tiny eta used to read 1e5 bits and more
        assert value <= _shannon_bits(dist) + 1e-9


def test_curve_of_gaussian_past_its_float_range_is_finite(capsys):
    code, out = run_cli(["curve", "--dist", "gaussian:4,1", "--etas", "1e5"],
                        capsys)
    assert code == 0
    assert 0.0 < float(out.splitlines()[1].split(",")[1]) < 1e-3


def test_numerical_failure_exit_code(monkeypatch, capsys):
    import actcap.cli as cli_mod

    def boom(args):
        raise RuntimeError("forced numerical failure")

    monkeypatch.setitem(cli_mod._COMMANDS, "capacity", boom)
    assert main(["capacity", "--dist", "uniform:1,3"]) == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "actcap.cli", "capacity", "--dist",
         "uniform:1,3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,")


def test_commands_load_no_scipy():
    # the runtime is numpy-only: scipy serves the tests as an oracle; numpy.ma
    # costs about 25 ms of import and nothing needs it
    script = """
import contextlib, io, sys
from actcap.cli import main
runs = [
    "capacity --dist uniform:1,3",
    "curve --dist erasure:2,0.7 --etas 2,8",
    "sweep --ratios 4 --families uniform,gaussian,erasure",
    "sideinfo --dist gaussian:4,1 --si-cells=-10,4,9,14",
    "simulate --dist uniform:2,6 --a 2 --d -0.2 --noise-w 1 --noise-v 1 "
    "--horizon 20 --paths 50",
    "scan --dist erasure:1,0.5 --a-grid 1.3,1.5 --sense eta --horizon 8 --paths 100",
    "converse --dist uniform:1,3 --a 9 --horizon 20 --paths 50",
    "carryfree --gain cf:1,0 --g-a 1 --horizon 20 --paths 5 --start-degree 4",
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
print(sorted(k for k in sys.modules if k.startswith("scipy")))
print(sorted(k for k in sys.modules if k.split(".")[:2] == ["numpy", "ma"]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
