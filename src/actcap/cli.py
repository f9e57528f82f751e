"""Command-line front end.

Every command emits a machine-readable table (CSV or JSON) whose columns
match one of the standard experiment plots: capacity summaries, eta curves,
mean/sigma sweeps, side-information staircases, simulation traces, stability
scans, blow-up fractions, and carry-free degree traces.  Identical
invocations with the same seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import capacity as cap
from . import carryfree as cf
from . import sideinfo as si
from .simulate import (
    StrategySpec,
    SystemSpec,
    simulate as run_simulation,
    strong_converse_experiment,
    threshold_scan,
)
from .distributions import Gaussian, ScaledBernoulli, Uniform, parse_spec

_SQRT3 = math.sqrt(3.0)
# commands that draw random streams; --seed is a word of their Philox keys
_DRAWING = ("simulate", "scan", "converse", "carryfree")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in _DRAWING and not 0 <= args.seed < 2**64:
        print(f"error: --seed must lie in [0, 2^64), got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        header, rows, diagnostics = _COMMANDS[args.command](args)
    except ValueError as exc:  # DistSpecError and EmptyCell among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit(args, header, rows, diagnostics)
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_capacity(args):
    dist = parse_spec(args.dist)
    rows = []
    sh = cap.shannon_capacity(dist)
    ze = cap.zero_error_capacity(dist)
    c2 = cap.second_moment_closed_form(dist)
    for name, r in (("c_sh", sh), ("c_ze", ze), ("c_2", c2)):
        rows.append([name, r.value_bits, r.optimal_d])
    diag = {"dist": args.dist, "flat": sh.diagnostics.get("flat", False)}
    return ["quantity", "value_bits", "optimal_d"], rows, diag


def _cmd_curve(args):
    dist = parse_spec(args.dist)
    etas = _float_list(args.etas, "--etas", lo=0.0, hi=cap.ETA_MAX)
    points = cap.capacity_curve(dist, etas)
    rows = [[eta, value] for eta, value in points]
    return ["eta", "capacity_bits"], rows, {"dist": args.dist}


def _cmd_sweep(args):
    """Capacities versus mean/sigma for the three standard families."""
    ratios = _float_list(args.ratios, "--ratios", lo=0.0)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    rows = []
    for family in families:
        for r in ratios:
            dist = _family_dist(family, r)
            c_sh = cap.shannon_capacity(dist).value_bits
            c_ze = cap.zero_error_capacity(dist).value_bits
            c_2 = cap.second_moment_closed_form(dist).value_bits
            rows.append([family, r, math.log2(r), c_sh, c_ze, c_2])
    return (
        ["family", "mean_over_sigma", "log2_ratio", "c_sh", "c_ze", "c_2"],
        rows,
        {"families": families},
    )


def _family_dist(family, ratio):
    try:
        if family == "uniform":
            return Uniform(ratio - _SQRT3, ratio + _SQRT3)
        if family == "gaussian":
            return Gaussian(ratio, 1.0)
        if family == "erasure":
            # scaled Bernoulli with mean/sigma = sqrt(p/(1-p))
            return ScaledBernoulli(1.0, ratio * ratio / (1.0 + ratio * ratio))
    except ValueError as exc:
        raise ValueError(f"--ratios {ratio!r} has no {family} law: {exc}") from None
    raise ValueError(f"unknown family {family!r}")


def _cmd_sideinfo(args):
    dist = parse_spec(args.dist)
    sense = _sense(args)
    if args.si_cells:
        model = si.model_from_boundaries(dist, _float_list(args.si_cells, "--si-cells"))
        if sense == "eta":
            value = si.eta_capacity_with_si(model, args.eta).value_bits
        else:
            value = si.shannon_capacity_with_si(model).value_bits
        rows = [[len(model.cells), value]]
        return ["cells", "capacity_bits"], rows, {"dist": args.dist, "sense": sense}
    if not 0 <= args.si_bits <= si.MAX_BITS:
        raise ValueError(f"--si-bits must be in [0, {si.MAX_BITS}], got {args.si_bits}")
    points = si.si_value_curve(dist, args.si_bits, sense=sense, eta=args.eta)
    rows = [[k, value] for k, value in points]
    return ["k_bits", "capacity_bits"], rows, {"dist": args.dist, "sense": sense}


def _sense(args, eta=None):
    """The sense ``args`` ask for, written back to them so that JSON
    ``config`` echoes what is computed.  ``--eta`` alone selects the eta
    sense, ``--sense eta`` alone takes ``eta``, and ``--sense shannon`` with
    ``--eta`` is an error."""
    sense = args.sense or ("shannon" if args.eta is None else "eta")
    if sense == "shannon" and args.eta is not None:
        raise ValueError("--sense shannon contradicts --eta, which sets the "
                         "eta sense")
    if sense == "eta" and args.eta is None:
        args.eta = eta
    args.sense = sense
    return sense


def _cmd_simulate(args):
    dist = parse_spec(args.dist)
    spec = SystemSpec(args.a, dist, x0=args.x0,
                      process_noise_std=args.noise_w,
                      obs_noise_std=args.noise_v)
    d = 0.0 if args.zero_control else _pick_d(args, dist)
    strategy = StrategySpec("linear", d=d)
    report = run_simulation(spec, strategy, args.horizon, args.paths,
                          eta_list=_float_list(args.etas, "--etas", lo=0.0),
                          threshold=args.threshold_m, seed=args.seed)
    rows = [list(row) for row in report.csv_rows()]
    diag = {
        "strategy": report.strategy,
        "growth_slope_bits": report.growth_slope_bits,
        "overflow_paths": report.overflow_paths,
    }
    return report.csv_header(), rows, diag


def _pick_d(args, dist):
    if args.d is not None:
        return args.d
    result = cap.shannon_capacity(dist)
    if result.optimal_d is None:
        raise ValueError("no finite optimal d; pass --d explicitly")
    return result.optimal_d


def _cmd_scan(args):
    dist = parse_spec(args.dist)
    sense = _sense(args, eta=2.0)
    points, capres = threshold_scan(
        dist, sense, _float_list(args.a_grid, "--a-grid"),
        eta=2.0 if args.eta is None else args.eta,
        horizon=args.horizon, paths=args.paths, seed=args.seed)
    rows = [[p.a, math.log2(p.a), p.verdict, p.slope_bits] for p in points]
    diag = {"capacity_bits": capres.value_bits, "optimal_d": capres.optimal_d,
            "sense": sense}
    return ["a", "log2_a", "verdict", "slope_bits"], rows, diag


def _cmd_converse(args):
    dist = parse_spec(args.dist)
    m_list = _float_list(args.m_list, "--m-list")
    rep = strong_converse_experiment(
        dist, args.a, m_list, horizon=args.horizon, paths=args.paths,
        seed=args.seed)
    header = ["strategy", "step"] + [f"fraction_ge_{m:g}" for m in m_list]
    rows = []
    for name in sorted(rep.reports):
        r = rep.reports[name]
        for n in range(r.horizon + 1):
            rows.append([name, n] + [float(r.fractions[m][n]) for m in m_list])
    diag = {"capacity_bits": rep.capacity_bits, "log2_a": rep.log2_a}
    return header, rows, diag


def _cmd_carryfree(args):
    gain = cf.parse_gain_spec(args.gain)
    rep = cf.simulate_degrees(gain, args.g_a, args.horizon, args.paths,
                              seed=args.seed, start_degree=args.start_degree)
    rows = [
        [n, float(rep.max_degree[n]), float(rep.mean_degree[n])]
        for n in range(rep.horizon + 1)
    ]
    diag = {
        "zero_error_capacity": cf.cf_zero_error_capacity(gain),
        "decay_mean": rep.decay_mean,
        "decay_count": rep.decay_count,
    }
    if not gain.known_levels:
        diag["shannon_capacity"] = cf.cf_shannon_capacity(gain)
    return ["step", "max_degree", "mean_degree"], rows, diag


_COMMANDS = {
    "capacity": _cmd_capacity,
    "curve": _cmd_curve,
    "sweep": _cmd_sweep,
    "sideinfo": _cmd_sideinfo,
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "converse": _cmd_converse,
    "carryfree": _cmd_carryfree,
}


# ---------------------------------------------------------------------------
# parsing and output
# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="actcap",
        description="Control capacities of multiplicative actuation channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dist=True):
        if dist:
            p.add_argument("--dist", required=True,
                           help="uniform:b1,b2 | gaussian:mu,sigma | "
                                "erasure:beta,p | mixture:w*spec|w*spec | "
                                "empirical:@path.csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("capacity", help="Shannon, zero-error and second-moment capacities")
    common(p)

    p = sub.add_parser("curve", help="eta-th moment capacity along an eta grid")
    common(p)
    p.add_argument("--etas", default="0.01,0.1,0.5,1,2,4,8,16,32,64")

    p = sub.add_parser("sweep", help="capacities vs mean/sigma per family")
    common(p, dist=False)
    p.add_argument("--ratios", default="1,2,4,8,16,32")
    p.add_argument("--families", default="uniform,gaussian,erasure")

    p = sub.add_parser("sideinfo", help="capacity vs bits of side information")
    common(p)
    p.add_argument("--si-bits", type=int, default=4)
    p.add_argument("--si-cells", default=None,
                   help="explicit cell boundaries lo1,lo2,...,hi")
    p.add_argument("--sense", choices=("shannon", "eta"), default=None,
                   help="default: eta when --eta is given, else shannon")
    p.add_argument("--eta", type=float, default=None)

    p = sub.add_parser("simulate", help="Monte Carlo trajectory statistics")
    common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, default=None,
                   help="control gain (default: Shannon-optimal)")
    p.add_argument("--zero-control", action="store_true")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--etas", default="2")
    p.add_argument("--threshold-M", dest="threshold_m", type=float, default=1e6)
    p.add_argument("--noise-w", type=float, default=0.0)
    p.add_argument("--noise-v", type=float, default=0.0)

    p = sub.add_parser("scan", help="stability verdict per open-loop gain")
    common(p)
    p.add_argument("--a-grid", required=True)
    p.add_argument("--sense", choices=("shannon", "eta"), default=None,
                   help="default: eta when --eta is given, else shannon")
    p.add_argument("--eta", type=float, default=None,
                   help="default 2 in the eta sense")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--paths", type=int, default=10000)

    p = sub.add_parser("converse", help="blow-up fractions above capacity")
    common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--m-list", default="1e6")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--paths", type=int, default=10000)

    p = sub.add_parser("carryfree", help="carry-free degree-dynamics trace")
    common(p, dist=False)
    p.add_argument("--gain", required=True, help="cf:g_det,g_ran[,known=l1/l2]")
    p.add_argument("--g-a", dest="g_a", type=int, default=1)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--start-degree", type=int, default=16)
    return parser


def _float_list(text, flag, lo=None, hi=math.inf):
    """Comma-separated numbers, none NaN, each at most ``hi`` and, when
    ``lo`` is given, above ``lo``."""
    values = [float(x) for x in str(text).split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one number, got {text!r}")
    for v in values:
        if not (v <= hi and (lo is None or v > lo)):
            bounds = "other than nan" if lo is None else f"in ({lo:g}, {hi:g}]"
            raise ValueError(f"{flag} takes numbers {bounds}, got {v!r}")
    return values


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, float):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(args, header, rows, diagnostics):
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        config = {
            k: _json_safe(v)
            for k, v in sorted(vars(args).items())
            if k not in ("out", "format") and v is not None
        }
        payload = {
            "config": config,
            "results": [
                dict(zip(header, (_json_safe(v) for v in row))) for row in rows
            ],
            "diagnostics": _json_safe(diagnostics),
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
