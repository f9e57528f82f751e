"""The benchmark's workloads: CLI argument lists, units of work, output checks.

Each workload is a list of ``Op``s, one per ``actcap`` CLI command, built
from the workload seed alone.  A check reads the command's captured stdout
and returns a list of problems; an empty list means the output is correct.
Tolerances are never tighter than the test suite's for the same quantity,
and expected values come from closed forms, never from stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

SQRT3 = math.sqrt(3.0)
DEAD_BAND = 0.02  # bits/step; the simulate module's stability dead band


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    units: float  # units of work this command contributes
    check: Callable[[str], list]


def build(name, seed, size="full"):
    """Ops for workload ``name``; ``size`` is "full" or "tiny" (smoke test)."""
    if name not in _WORKLOAD_OPS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    cli_seed = str(seed % 2**32)
    return [
        Op(tuple(argv) + ("--seed", cli_seed), units, check)
        for argv, units, check in _WORKLOAD_OPS[name](size == "tiny")
    ]


# ---------------------------------------------------------------------------
# closed forms the checks compare against
# ---------------------------------------------------------------------------

def uniform_shannon_objective(b1, b2, d):
    """E[-log2 |1 + B d|] for B ~ U(b1, b2), from the antiderivative of ln|t|."""
    if d == 0.0:
        return 0.0

    def g(t):
        return 0.0 if t == 0.0 else t * math.log(abs(t)) - t

    mean_ln = (g(1.0 + b2 * d) - g(1.0 + b1 * d)) / ((b2 - b1) * d)
    return -mean_ln / math.log(2.0)


def interval_zero_error(b1, b2):
    """log2 |b1+b2| / |b2-b1| for a support [b1, b2] without 0, else 0."""
    if b1 <= 0.0 <= b2:
        return 0.0
    return math.log2(abs(b1 + b2) / abs(b2 - b1))


def second_moment(mean, var):
    return 0.5 * math.log2(1.0 + mean * mean / var)


def uniform_moments(b1, b2):
    return 0.5 * (b1 + b2), (b2 - b1) ** 2 / 12.0


# ---------------------------------------------------------------------------
# output parsing helpers
# ---------------------------------------------------------------------------

def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _num(text):
    return float(text)  # accepts 'inf' and 'nan' as emitted


def _close(problems, label, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{label}: got {got!r}, want {want!r} +- {tol:g}")


def _fit_slope(y, start, stop):
    """Least-squares slope of y[start:stop] against the step index."""
    xs = range(start, stop)
    n = stop - start
    mx = sum(xs) / n
    my = sum(y[start:stop]) / n
    sxy = sum((x - mx) * (v - my) for x, v in zip(xs, y[start:stop]))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


# ---------------------------------------------------------------------------
# capacity_tables
# ---------------------------------------------------------------------------

# Criterion 4 of the acceptance suite: mean/sigma = 4 reference values.
_REF4 = {"c_ze_uniform": (1.2075, 1e-4), "c_sh_uniform": (2.7635, 0.02),
         "c_sh_gaussian": (2.9586, 0.02)}


def _family_law(family, r):
    """(zero-error capacity, mean, var) of the sweep's family at mean/sigma r."""
    if family == "uniform":
        b1, b2 = r - SQRT3, r + SQRT3
        return interval_zero_error(b1, b2), *uniform_moments(b1, b2)
    if family == "gaussian":
        return 0.0, r, 1.0
    p = r * r / (1.0 + r * r)  # erasure: support {0, 1} contains 0
    return 0.0, p, p * (1.0 - p)


def _check_sweep(ratios, families):
    def check(text):
        problems = []
        rows = _rows(text)
        seen = [(row["family"], _num(row["mean_over_sigma"])) for row in rows]
        want = [(f, r) for f in families for r in ratios]
        if seen != want:
            return [f"sweep rows {seen} != {want}"]
        for row in rows:
            fam, r = row["family"], _num(row["mean_over_sigma"])
            c_sh, c_ze, c_2 = (_num(row[k]) for k in ("c_sh", "c_ze", "c_2"))
            ze, mean, var = _family_law(fam, r)
            tag = f"sweep {fam} r={r:g}"
            _close(problems, f"{tag} c_ze", c_ze, ze, 1e-9)
            _close(problems, f"{tag} c_2", c_2, second_moment(mean, var), 1e-6)
            if fam == "erasure":
                if c_sh != math.inf:
                    problems.append(f"{tag} c_sh: got {c_sh!r}, want inf")
            elif not (math.isfinite(c_sh) and c_sh >= c_2 - 1e-6):
                problems.append(f"{tag} c_sh {c_sh!r} below c_2 {c_2!r}")
            if r == 4.0 and fam == "uniform":
                _close(problems, f"{tag} c_ze (crit. 4)", c_ze, *_REF4["c_ze_uniform"])
                _close(problems, f"{tag} c_sh (crit. 4)", c_sh, *_REF4["c_sh_uniform"])
            if r == 4.0 and fam == "gaussian":
                _close(problems, f"{tag} c_sh (crit. 4)", c_sh, *_REF4["c_sh_gaussian"])
        return problems
    return check


def _check_curve(etas, c_ze, mean, var):
    def check(text):
        rows = _rows(text)
        got = [(_num(r["eta"]), _num(r["capacity_bits"])) for r in rows]
        if [e for e, _ in got] != etas:
            return [f"curve etas {[e for e, _ in got]} != {etas}"]
        problems = []
        for (e0, c0), (e1, c1) in zip(got, got[1:]):
            if not c1 <= c0 + 1e-7:
                problems.append(f"curve rises from eta={e0:g} to eta={e1:g}")
        for e, c in got:
            if not (math.isfinite(c) and c >= c_ze - 1e-6):
                problems.append(f"curve eta={e:g}: {c!r} below C_ze {c_ze!r}")
            if e == 2.0:
                _close(problems, "curve eta=2", c, second_moment(mean, var), 1e-6)
        return problems
    return check


def _check_si_bits(k_max):
    def check(text):
        rows = _rows(text)
        got = [(int(r["k_bits"]), _num(r["capacity_bits"])) for r in rows]
        if [k for k, _ in got] != list(range(k_max + 1)):
            return [f"sideinfo k values {[k for k, _ in got]}"]
        problems = [f"sideinfo k={k}: {c!r} not finite and positive"
                    for k, c in got if not (math.isfinite(c) and c > 0.0)]
        for (_, c0), (k1, c1) in zip(got, got[1:]):
            if not c1 >= c0 - 1e-7:
                problems.append(f"sideinfo capacity falls at k={k1}")
        return problems
    return check


def _check_si_cells(n_cells, floor):
    def check(text):
        rows = _rows(text)
        if len(rows) != 1 or int(rows[0]["cells"]) != n_cells:
            return [f"sideinfo cells rows {rows}"]
        c = _num(rows[0]["capacity_bits"])
        if not (math.isfinite(c) and c >= floor):
            return [f"sideinfo cells capacity {c!r} below the no-SI {floor!r}"]
        return []
    return check


def _check_capacity(c_ze, mean, var, uniform=None):
    """``uniform`` = (b1, b2) adds the closed-form check of c_sh at the
    reported d."""
    def check(text):
        rows = {r["quantity"]: r for r in _rows(text)}
        if set(rows) != {"c_sh", "c_ze", "c_2"}:
            return [f"capacity quantities {sorted(rows)}"]
        problems = []
        sh = _num(rows["c_sh"]["value_bits"])
        c2 = _num(rows["c_2"]["value_bits"])
        _close(problems, "capacity c_ze", _num(rows["c_ze"]["value_bits"]), c_ze, 1e-9)
        _close(problems, "capacity c_2", c2, second_moment(mean, var), 1e-6)
        if not (math.isfinite(sh) and sh >= c2 - 1e-6):
            problems.append(f"capacity c_sh {sh!r} below c_2 {c2!r}")
        if uniform is not None:
            d = _num(rows["c_sh"]["optimal_d"])
            _close(problems, "capacity c_sh at reported d", sh,
                   uniform_shannon_objective(*uniform, d), 1e-8)
        return problems
    return check


def _capacity_tables(tiny):
    m13, v13 = uniform_moments(1.0, 3.0)
    mix_mean = 0.5 * m13 + 0.5 * 4.0
    mix_var = 0.5 * (v13 + m13 ** 2) + 0.5 * (1.0 + 16.0) - mix_mean ** 2
    etas = [2.0, 64.0] if tiny else [0.01, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    ratios = [4.0] if tiny else [4.0, 8.0, 16.0]
    ops = [
        (["sweep", "--ratios", ",".join(f"{r:g}" for r in ratios),
          "--families", "uniform,erasure"],
         3 * 2 * len(ratios), _check_sweep(ratios, ["uniform", "erasure"])),
        (["curve", "--dist", "uniform:1,3",
          "--etas", ",".join(f"{e:g}" for e in etas)],
         len(etas), _check_curve(etas, 1.0, m13, v13)),
        (["capacity", "--dist", "uniform:1,3"],
         3, _check_capacity(1.0, m13, v13, uniform=(1.0, 3.0))),
    ]
    if tiny:
        return ops
    # The Gaussian criterion 4 value and eta=2 closed form, the side
    # information staircase, truncated Gaussian cells (side information can
    # only raise C_sh) and a uniform+Gaussian mixture.
    no_si_floor = _REF4["c_sh_gaussian"][0] - _REF4["c_sh_gaussian"][1]
    return ops + [
        (["sweep", "--ratios", "4", "--families", "gaussian"],
         3, _check_sweep([4.0], ["gaussian"])),
        (["curve", "--dist", "gaussian:4,1", "--etas", "2"],
         1, _check_curve([2.0], 0.0, 4.0, 1.0)),
        (["sideinfo", "--dist", "uniform:0,4", "--si-bits", "1"],
         2, _check_si_bits(1)),
        (["sideinfo", "--dist", "gaussian:4,1", "--si-cells=-10,4,14"],
         1, _check_si_cells(2, no_si_floor)),
        (["capacity", "--dist", "mixture:0.5*uniform:1,3|0.5*gaussian:4,1"],
         3, _check_capacity(0.0, mix_mean, mix_var)),
    ]


# ---------------------------------------------------------------------------
# mc_long
# ---------------------------------------------------------------------------

def _check_growth(horizon, a, b1, b2, d):
    """Noise-free run: the mean log2 state grows at log2 a - E[-log2|1+Bd|]."""
    want = math.log2(a) - uniform_shannon_objective(b1, b2, d)

    def check(text):
        rows = _rows(text)
        if [int(r["step"]) for r in rows] != list(range(horizon + 1)):
            return ["simulate rows do not cover steps 0..horizon"]
        y = [_num(r["mean_log2_ratio"]) for r in rows]
        problems = []
        # growth_slope_bits is this fit over the second half of the horizon
        _close(problems, "simulate growth slope",
               _fit_slope(y, horizon // 2, horizon + 1), want, DEAD_BAND)
        fractions = [_num(r["fraction_ge_1e+06"]) for r in rows]
        if not all(0.0 <= f <= 1.0 for f in fractions):
            problems.append("simulate threshold fraction outside [0, 1]")
        return problems
    return check


def _check_noisy(horizon):
    def check(text):
        payload = json.loads(text)
        problems = []
        if len(payload["results"]) != horizon + 1:
            problems.append("noisy simulate rows do not cover the horizon")
        overflow = payload["diagnostics"]["overflow_paths"]
        if overflow != 0:
            problems.append(f"noisy simulate overflow_paths = {overflow}")
        return problems
    return check


def _mc_long(tiny):
    h1, p1 = (400, 2000) if tiny else (2000, 10_000)
    h2, p2 = (200, 500) if tiny else (2000, 4000)
    return [
        (["simulate", "--dist", "uniform:1,3", "--a", "2", "--d", "-0.4176",
          "--horizon", str(h1), "--paths", str(p1), "--etas", "1,2"],
         h1 * p1, _check_growth(h1, 2.0, 1.0, 3.0, -0.4176)),
        (["simulate", "--dist", "uniform:2,6", "--a", "2", "--d", "-0.2",
          "--noise-w", "1", "--noise-v", "1", "--horizon", str(h2),
          "--paths", str(p2), "--format", "json"],
         h2 * p2, _check_noisy(h2)),
    ]


# ---------------------------------------------------------------------------
# mc_wide
# ---------------------------------------------------------------------------

def _check_scan(a_grid, capacity_bits):
    """Verdict is stable iff log2 a lies below the eta-capacity."""
    def check(text):
        rows = _rows(text)
        if [_num(r["a"]) for r in rows] != a_grid:
            return [f"scan gains {[r['a'] for r in rows]} != {a_grid}"]
        problems = []
        for r in rows:
            a = _num(r["a"])
            want = "stable" if math.log2(a) < capacity_bits else "unstable"
            if r["verdict"] != want:
                problems.append(f"scan a={a:g}: {r['verdict']} (slope "
                                f"{r['slope_bits']}), want {want}")
            _close(problems, f"scan a={a:g} log2_a", _num(r["log2_a"]),
                   math.log2(a), 1e-12)
        return problems
    return check


def _mc_wide(tiny):
    # erasure(1, p): C_eta = -log2(1 - p) / eta, so 0.5 bits at p = 0.5,
    # eta = 2; the stability threshold is a = sqrt(2).  At 100k paths the
    # scan slope varies by about 0.006 bits (sd) from seed to seed, so at
    # 1.45 the unstable verdict sits under three sd from the 0.02-bit dead
    # band.  At 50k paths (sd about 0.0085) gains 1.3 and 1.5 sit more than
    # seven sd outside it.
    a_grid, paths = ([1.2, 1.7], 20_000) if tiny else ([1.3, 1.5], 50_000)
    horizon = 8
    return [
        (["scan", "--dist", "erasure:1,0.5",
          "--a-grid", ",".join(f"{a:g}" for a in a_grid),
          "--sense", "eta", "--eta", "2", "--horizon", str(horizon),
          "--paths", str(paths)],
         len(a_grid) * horizon * paths,
         _check_scan(a_grid, -math.log2(1.0 - 0.5) / 2.0)),
    ]


# ---------------------------------------------------------------------------
# carryfree
# ---------------------------------------------------------------------------

def _check_degrees(horizon, start, g_a, c_ze):
    """Degree stays at or below the start exactly when g_a <= C_ze."""
    def check(text):
        rows = _rows(text)
        if [int(r["step"]) for r in rows] != list(range(horizon + 1)):
            return ["carryfree rows do not cover steps 0..horizon"]
        top = max(_num(r["max_degree"]) for r in rows)
        if _num(rows[0]["max_degree"]) != start:
            return [f"carryfree starts at degree {rows[0]['max_degree']}"]
        if g_a <= c_ze and top > start:
            return [f"g_a={g_a} <= C_ze={c_ze} but degree reached {top:g}"]
        if g_a > c_ze and not top > start:
            return [f"g_a={g_a} > C_ze={c_ze} but degree never grew"]
        return []
    return check


def _carryfree(tiny):
    horizon, paths = (60, 20) if tiny else (200, 100)
    start = 12
    # C_ze = g_det - g_ran plus the revealed levels contiguous below g_ran:
    # 1 for cf:1,0 and 3 for cf:1,0,known=0/-1.
    runs = [("cf:1,0", 1, 1), ("cf:1,0", 2, 1), ("cf:1,0,known=0/-1", 3, 3)]
    return [
        (["carryfree", "--gain", gain, "--g-a", str(g_a),
          "--start-degree", str(start), "--horizon", str(horizon),
          "--paths", str(paths)],
         horizon * paths, _check_degrees(horizon, start, g_a, c_ze))
        for gain, g_a, c_ze in runs
    ]


_WORKLOAD_OPS = {
    "capacity_tables": _capacity_tables,
    "mc_long": _mc_long,
    "mc_wide": _mc_wide,
    "carryfree": _carryfree,
}
