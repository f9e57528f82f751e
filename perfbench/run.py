"""actcap benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload mc_long --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; ``src/actcap`` there is the code measured.
Every pass runs in a fresh interpreter (``bench_pass.py``), one at a time,
with BLAS/OpenMP pinned to one thread and the CLI's default ``--workers``.
With ``--trace 0`` passes are untraced and the end-to-end metrics are
medians over passes.  With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics come from the traced ones and
``trace.overhead_s`` is the difference of their median wall times.
``--workload all`` runs every workload in turn.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record with machine and code information is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "actcap")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PASS_SCRIPT = os.path.join(HERE, "bench_pass.py")

WORKLOADS = ("capacity_tables", "mc_long", "mc_wide", "carryfree")
MIN_PASSES = 3          # untraced passes per --trace 0 run
MIN_TRACED = 2          # traced passes per --trace 1 run (counts must repeat)
HARD_LIMIT_S = 170.0    # a run never outlives this, passes included

# The metrics the final JSON line carries for --trace 0.  Command times are
# divided by a reference task timed next to them in the same process
# (bench_pass.py): on a shared host the speed of the same code drifts by a
# third or more over minutes (see README.md).  The raw wall_s and work_per_s
# are printed and recorded too.
END_TO_END = {"wall_ref": "ref", "work_per_ref": "units/ref", "setup_s": "s",
              "peak_rss_mb": "MB"}
RAW_TIMES = {"wall_s": "s", "work_per_s": "units/s"}

PER_LAYER = {**bench_trace.UNITS, "trace.overhead_s": "s"}
# per-layer metrics that are exact counts: they must repeat between passes
COUNT_UNITS = ("count", "bytes", "evals/search")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the pass imports actcap from src/ only
    return env


def run_pass(workload, seed, size, traced, detail, timeout):
    """Run one pass in a fresh interpreter; returns its record.

    A pass that crashes or times out is returned with ``crashed`` set.
    """
    cmd = [sys.executable, PASS_SCRIPT, "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    if detail:
        cmd += ["--detail", detail]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s",
                "traced": traced, "elapsed": time.monotonic() - t_spawn}
    elapsed = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"pass exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}",
                "traced": traced, "elapsed": elapsed}
    rec = json.loads(lines[-1])
    rec.update(traced=traced, elapsed=elapsed,
               setup_s=rec.pop("t_first") - t_spawn)
    return rec


def _schedule(trace):
    """Pass kinds in run order: True is traced."""
    if not trace:
        while True:
            yield False
    while True:
        yield False
        yield True


def measure(workload, seed, seconds, trace, size="full"):
    """Run passes for ``seconds`` and return (result dict, pass records)."""
    start = time.monotonic()
    deadline = start + seconds
    passes = []
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    for traced in _schedule(trace):
        done = [p for p in passes if p["traced"] == traced]
        n_untraced = sum(not p["traced"] for p in passes)
        n_traced = len(passes) - n_untraced
        minimum_met = (n_traced >= MIN_TRACED and n_untraced >= 1) if trace \
            else n_untraced >= MIN_PASSES
        if minimum_met:
            expected = statistics.median(p["elapsed"] for p in done)
            if time.monotonic() + expected > deadline:
                break
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        detail = spans_path if traced and not done else None
        rec = run_pass(workload, seed, size, traced, detail, max(remaining, 1.0))
        passes.append(rec)
        if "crashed" in rec:
            break
    return summarize(workload, passes, trace), passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(workload, passes, trace):
    """Aggregate pass records into the result the last output line carries."""
    n_ops = max((len(p["outcomes"]) for p in passes if "outcomes" in p),
                default=1)
    attempted = failed = 0
    problems = []
    for p in passes:
        if "crashed" in p:
            attempted += n_ops
            failed += n_ops
            problems.append(p["crashed"])
            continue
        for o in p["outcomes"]:
            attempted += 1
            if o["problems"]:
                failed += 1
                problems.append(f"{' '.join(o['argv'])}: {o['problems']}")
    ok = [p for p in passes if "crashed" not in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    spread = {}

    def stat(name, values):
        spread[name] = (len(values), *_quartiles(values))
        return _median(values)

    metrics = {}
    counts_repeat = True
    raw = {}
    if not trace:
        metrics["wall_ref"] = stat("wall_ref", [p["wall_ref"] for p in untraced])
        metrics["work_per_ref"] = stat(
            "work_per_ref", [p["units"] / p["wall_ref"] for p in untraced])
        metrics["setup_s"] = stat("setup_s", [p["setup_s"] for p in untraced])
        metrics["peak_rss_mb"] = stat(
            "peak_rss_mb", [p["peak_rss_mb"] for p in untraced])
        raw["wall_s"] = stat("wall_s", [p["wall_s"] for p in untraced])
        raw["work_per_s"] = stat(
            "work_per_s", [p["units"] / p["wall_s"] for p in untraced])
        units = END_TO_END
    else:
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                continue
            values = [p["layers"][name] for p in traced
                      if name in p["layers"]]
            if unit in COUNT_UNITS:
                counts_repeat &= len(set(values)) <= 1
                metrics[name] = values[0] if values else 0
            else:
                metrics[name] = stat(name, values)
        metrics["trace.overhead_s"] = (
            _median([p["wall_s"] for p in traced])
            - _median([p["wall_s"] for p in untraced]))
        units = PER_LAYER
    result = {
        "correct": failed == 0 and bool(ok) and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return {"workload": workload, "result": result, "spread": spread,
            "raw": {k: {"value": v, "unit": RAW_TIMES[k]} for k, v in raw.items()},
            "problems": problems, "counts_repeat": counts_repeat}


# ---------------------------------------------------------------------------
# machine and code record
# ---------------------------------------------------------------------------

def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "platform": platform.platform()}


def _git_rev():
    """HEAD of the checkout when it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def code_record():
    lines = {}
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines[name[:-3]] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {"git_rev": _git_rev(), "src_sha256": digest.hexdigest(),
            "src_lines": lines}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _report(summary, trace, out):
    w = summary["workload"]
    result = summary["result"]
    for name, m in {**summary["raw"], **result["metrics"]}.items():
        n, q1, q3 = summary["spread"].get(name, (None, None, None))
        tail = f"  (median of {n}; quartiles {q1:.6g} .. {q3:.6g})" if n else ""
        print(f"{w:16s} {name:38s} {m['value']:.6g} {m['unit']}{tail}", file=out)
    if not trace:
        rate = result["failed"] / result["attempted"]
        print(f"{w:16s} {'error_rate':38s} {rate:.6g} fraction  "
              f"({result['failed']} failed of {result['attempted']} attempted)",
              file=out)
    else:
        print(f"{w:16s} call counts repeat across traced passes: "
              f"{summary['counts_repeat']}", file=out)
    for problem in summary["problems"][:10]:
        print(f"{w}: FAILED {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PKG, "cli.py")):
        print(f"error: {SRC_PKG}/cli.py not found; run from an actcap "
              "checkout", file=sys.stderr)
        return 2

    machine, code = machine_record(), code_record()
    print(f"# machine: {json.dumps(machine)}")
    print(f"# code: {json.dumps(code)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for w in names:
        summary, passes = measure(w, args.seed, args.seconds, args.trace)
        summaries.append(summary)
        _report(summary, args.trace, sys.stdout)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{w}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"args": vars(args), "machine": machine, "code": code,
                       **summary, "passes": passes}, fh, indent=1)
    if len(summaries) == 1:
        final = summaries[0]["result"]
    else:
        final = {
            "correct": all(s["result"]["correct"] for s in summaries),
            "attempted": sum(s["result"]["attempted"] for s in summaries),
            "failed": sum(s["result"]["failed"] for s in summaries),
            "metrics": {f"{s['workload']}.{k}": v for s in summaries
                        for k, v in s["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
