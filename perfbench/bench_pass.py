"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

Imports ``actcap.cli`` from the checkout's ``src``, builds the workload's
argument lists, runs them back to back through ``actcap.cli.main`` with
stdout captured in memory, then checks every output.  Prints one JSON line:
the monotonic time set-up ended (the parent subtracts its spawn time to get
``setup_s``), the pass time in seconds and in reference-task units, peak
RSS, per-command outcomes and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--detail", default=None,
                        help="traced only: write spans to this path and "
                             "replay the longest simulate call under "
                             "tracemalloc")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import actcap.cli
    if not os.path.abspath(actcap.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"actcap imported from {actcap.cli.__file__}, not {SRC}")
    import bench_workloads

    ops = bench_workloads.build(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        import bench_trace
        tracer = bench_trace.Tracer(keep_simulate_call=bool(args.detail))
        tracer.install()
    cli_main = actcap.cli.main  # looked up after tracing patched it

    # The reference task runs before, between and after the commands; each
    # command's time is divided by the mean of the two references around it.
    t_first = time.monotonic()  # set-up ends here; the references are not
    reference_s()  # warm-up: the first call runs slower
    refs = [reference_s()]
    runs, op_s = [], []
    for op in ops:
        t0 = time.perf_counter()
        runs.append(_run(cli_main, op.argv))
        op_s.append(time.perf_counter() - t0)
        refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_ref = sum(t / (0.5 * (r0 + r1))
                   for t, r0, r1 in zip(op_s, refs, refs[1:]))

    outcomes = []
    for op, (code, out, err) in zip(ops, runs):
        if code != 0:
            problems = [f"exit {code}: {err.strip()[-400:]}"]
        else:
            try:
                problems = op.check(out)
            except Exception:  # a malformed output is a failed operation
                problems = ["output check raised: "
                            + traceback.format_exc(limit=2)[-400:]]
        outcomes.append({"argv": list(op.argv), "problems": problems})

    bytes_out = sum(len(out.encode()) for _, out, _ in runs)
    record = {
        "t_first": t_first,
        "wall_s": sum(op_s),
        "wall_ref": wall_ref,
        "op_s": op_s,
        "ref_s": refs,
        "units": sum(op.units for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(bytes_out)
        if args.detail:
            tracer.write_spans(args.detail)
            record["layers"]["simulate.tracemalloc_peak_mb"] = (
                tracer.simulate_heap_peak_mb())
    print(json.dumps(record))


def reference_s():
    """Time, about 0.1 s, of a fixed task that does not touch actcap.

    Python calls, float math, small allocations, numpy ufuncs on an
    in-cache array and numpy random-generator set-up, interleaved.  Timed
    next to each command, it tracks the speed the machine gives this
    process.  The task runs in five chunks and the result is five times the
    median chunk, so a hiccup in one chunk does not count.  It allocates too
    little to move peak RSS.
    """
    import math

    import numpy as np

    # 80 KB arrays stay under glibc's mmap threshold; freeing larger ones
    # would raise it and change how the commands' arrays are allocated.
    x = np.linspace(0.0, 1.0, 10_000)
    acc = 0.0
    chunks = []
    for chunk in range(5):
        t0 = time.perf_counter()
        for rep in range(20):
            for i in range(1000):
                acc += math.log1p(i * 1e-3) * (i & 7)
            acc += len([(i, str(i)) for i in range(1000)])
            for _ in range(5):
                acc += float(np.cumsum(np.log1p(x * (acc % 1.0)))[-1])
            for j in range(5):
                seq = np.random.SeedSequence([chunk, rep, j])
                acc += np.random.Generator(np.random.Philox(seq)).uniform(size=8)[0]
        chunks.append(time.perf_counter() - t0)
    return 5 * sorted(chunks)[2]


def _run(cli_main, argv):
    """(exit code, stdout, stderr) of one CLI command; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv)) or 0  # None exits 0 too
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    main()
