"""End-to-end benchmark of the symm-ent CLI; see BENCHMARK.json for the contract.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-sweep --seed 0 --seconds 30 --trace 0

The workload runs in its own fresh, serial process (``worker.py``) with
``src/`` on the path, every BLAS/OpenMP thread count pinned to 1 and
SYMM_ENT_THREADS unset. One operation is one CLI call; the load is closed
loop with one client. Every operation's output is checked.

``--trace 0`` reports the end-to-end metrics: median wall time of one call,
output rows per second, set-up time (fresh interpreter to a finished
``import symm_ent.cli``, median of several) and the worker's peak RSS
after its first call.
Times are given at a reference host speed measured during the run
(hostspeed.py), because the shared hosts this runs on change speed by up to
2x within seconds; the raw times are in the ``detail:`` line.
``--trace 1`` reports the per-layer metrics of a traced run (tracing.py)
and writes its spans to ``.bench_out/``.

The last stdout line is the result object; the lines before it give each
metric with its unit, the sample counts and the environment.
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
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKER_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SYMM_ENT_THREADS", None)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(env: dict[str, str]) -> list[tuple[float, float]]:
    """(raw, normalized) seconds from a fresh interpreter to a finished ``import symm_ent.cli``.

    Each sample starts ``setup_probe.py`` in a fresh interpreter, which
    reports when its import finished and the host speed during it. One
    untimed run first warms the file cache.
    """
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"importing symm_ent.cli failed:\n{done.stderr}")
        end_ns, probe_s, factor = done.stdout.split()
        raw = (int(end_ns) - t0) * 1e-9 - float(probe_s)
        if k:
            samples.append((raw, raw * float(factor)))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--steps", type=int, default=None,
                        help="grid size override, for smoke tests (default: the workload's)")
    args = parser.parse_args()
    if args.steps is not None and args.steps < 2:
        parser.error("--steps must be >= 2")
    if not (ROOT / "src" / "symm_ent" / "cli.py").is_file():
        print(f"error: no symm_ent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    setup = None if args.trace else measure_setup(env)
    worker_cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.steps is not None:
        worker_cmd += ["--steps", str(args.steps)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{args.workload}.json.gz"
        worker_cmd += ["--spans-out", str(spans_out)]
    done = subprocess.run(worker_cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(done.stdout.strip().split("\n")[-1])
    if Path(raw["source"]).parent != (ROOT / "src" / "symm_ent").resolve():
        print(f"error: worker imported symm_ent from {raw['source']}", file=sys.stderr)
        return 1

    ops = raw["ops"]
    attempted = len(ops)
    failed = len(raw["failures"])
    env_record = {
        "git_sha": git_sha(),
        "src_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "symm_ent_threads_unset": raw["symm_ent_threads_unset"],
        "machine": platform.machine(),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": WORKLOADS[args.workload].argv(args.seed, args.steps),
        "failed_frac": failed / attempted,
        "failures": raw["failures"][:10],
        "env": env_record,
    }
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, "
          f"{failed} failed (failed_frac {failed / attempted:.4g})")

    metrics: dict[str, dict[str, float | str]] = {}
    if args.trace == 0:
        norm = [op["norm_wall"] for op in ops]
        wall = statistics.median(norm)
        tail = high_percentile(norm)
        setup_s = statistics.median(n for _, n in setup)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": raw["rows"] / wall, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        detail.update(
            wall_samples=len(norm),
            wall_s_normalized=norm,
            wall_s_raw=[op["raw_wall"] for op in ops],
            wall_high_percentile=None if tail is None else {"pct": tail[0], "value_s": tail[1]},
            rows_per_op=raw["rows"],
            setup_s_raw=[r for r, _ in setup],
            setup_s_normalized=[n for _, n in setup],
        )
        tail_text = ("no percentile has 10 samples beyond it" if tail is None
                     else f"p{tail[0]:.0f} {tail[1]:.4f} s")
        raw_wall = statistics.median(op["raw_wall"] for op in ops)
        print(f"  wall_s      {wall:.4f} s  (median of {len(norm)} ops at reference speed; "
              f"raw median {raw_wall:.4f} s; {tail_text})")
        print(f"  rows_per_s  {raw['rows'] / wall:.1f} 1/s  ({raw['rows']} rows per op)")
        print(f"  setup_s     {setup_s:.4f} s  (median of {len(setup)} at reference speed; "
              f"raw median {statistics.median(r for r, _ in setup):.4f} s)")
        print(f"  peak_rss_mb {raw['peak_rss_mb']:.1f} MB")
    else:
        from tracing import metric_units

        units = metric_units()
        for name, value in raw["layer_metrics"].items():
            metrics[name] = {"value": value, "unit": units[name][0]}
            print(f"  {name:44s} {value:.6g} {units[name][0]}")
        for name in raw["absent"]:
            print(f"  {name:44s} absent")
        detail.update(
            untraced_walls=[op["wall"] for op in ops if not op["traced"]],
            traced_walls=[op["wall"] for op in ops if op["traced"]],
            absent=raw["absent"],
            spans=raw.get("spans"),
            spans_file=str(Path(raw["spans_file"]).relative_to(ROOT)),
        )
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
