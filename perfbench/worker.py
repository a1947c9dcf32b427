"""One workload in one fresh process: closed-loop CLI calls, checked and timed.

Started by ``run.py`` with ``src/`` on the path, BLAS pinned to one thread
and SYMM_ENT_THREADS unset. Each operation is one ``symm-ent`` CLI call made
in-process through ``symm_ent.cli.main`` with its stdout captured to memory;
the next call starts when the last one returns. Prints one JSON object (the
raw measurements) as its last stdout line.

With ``--trace 0`` every operation runs under ``hostspeed.SpeedProbe``.
With ``--trace 1`` operations alternate between untraced and traced
(``tracing.Tracer``) and no probe runs, so span times are not inflated by
it; alternating exposes both halves to the same host load, and the ratio
of their median wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe
from workloads import WORKLOADS, CheckFailed


def run_op(main, argv: list[str]) -> tuple[float, str, str | None]:
    """(wall seconds, captured stdout, error or None) of one CLI call."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            main(args=argv, prog_name="symm-ent", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit code {exc.code}"
    except Exception as exc:  # any raise is a failed operation, recorded and counted
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, buf.getvalue(), error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    import numpy
    import symm_ent.cli

    workload = WORKLOADS[args.workload]
    steps = args.steps or workload.steps
    argv = workload.argv(args.seed, steps)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ops: list[dict] = []
    failures: list[str] = []
    rows = None
    reference = None
    begin = time.perf_counter()
    while not ops or time.perf_counter() - begin < args.seconds or (
        tracer is not None and len(ops) < 2
    ):
        op_id = len(ops)
        if tracer is None:
            with SpeedProbe() as probe:
                wall, out, error = run_op(symm_ent.cli.main, argv)
            record = {"raw_wall": wall, "norm_wall": probe.normalize(wall)}
        else:
            record = {"traced": op_id % 2 == 1}
            if record["traced"]:
                tracer.op_id = op_id
                tracer.enable()
            try:
                record["wall"], out, error = run_op(symm_ent.cli.main, argv)
            finally:
                tracer.disable()
        ops.append(record)
        if reference is None:
            # one CLI call per process is how the program is used, so its
            # peak RSS is read after the first call and before any checking
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference = out
        if error is None:
            try:
                rows = workload.check(out, args.seed, steps)
            except CheckFailed as exc:
                error = f"wrong output: {exc}"
        if error is None and out != reference:
            error = "stdout differs from the first operation of the run"
        if error is not None:
            failures.append(f"op {op_id}: {error}")

    result = {
        "source": str(Path(symm_ent.cli.__file__).resolve()),
        "numpy": numpy.__version__,
        "symm_ent_threads_unset": "SYMM_ENT_THREADS" not in os.environ,
        "ops": ops,
        "rows": rows or 0,
        "output_bytes": len((reference or "").encode("utf-8")),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        traced = [k for k, op in enumerate(ops) if op["traced"]]
        untraced = [op["wall"] for op in ops if not op["traced"]]
        overhead = statistics.median(ops[k]["wall"] for k in traced) / statistics.median(untraced)
        metrics, absent = tracer.layer_metrics(
            args.workload, traced, steps, result["output_bytes"], overhead - 1.0
        )
        result["layer_metrics"] = metrics
        result["absent"] = absent
        if args.spans_out:
            tracer.write(args.spans_out)
            result["spans_file"] = args.spans_out
            result["spans"] = len(tracer.end)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
