"""Smoke test of the benchmark at a tiny grid (3 angles per workload).

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It lives outside ``tests/`` so the package's own suite does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, CheckFailed, check_chain_csv, grid_values

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"git_sha", "src_sha256_16", "python", "numpy", "nproc", "blas_threads",
            "symm_ent_threads_unset"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--steps", "3"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail: "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert detail["failed_frac"] == 0
    assert ENV_KEYS <= set(detail["env"])
    assert detail["env"]["symm_ent_threads_unset"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert detail["absent"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("chain-center", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_seed_zero_is_canonical_and_others_shift_less_than_a_step():
    workload = WORKLOADS["chain-sweep"]
    start, stop, steps = workload.grid(0)
    assert (start, steps) == (0.0, 201) and stop == pytest.approx(2 * 3.141592653589793)
    step = stop / (steps - 1)
    shifts = {workload.grid(seed)[0] for seed in range(1, 20)}
    assert len(shifts) == 19
    assert all(0 < s < step for s in shifts)


def test_checker_rejects_a_wrong_closed_form_error():
    sys.path.insert(0, str(ROOT / "src"))
    from symm_ent.cli import main
    from worker import run_op

    argv = WORKLOADS["chain-center"].argv(0, 3)
    _, out, error = run_op(main, argv)
    assert error is None
    thetas = grid_values(*WORKLOADS["chain-center"].grid(0, 3))
    assert check_chain_csv(out, thetas, [(30, 31)]) == 3
    header, first, *rest = out.split("\n")
    fields = first.split(",")
    fields[6] = "2e-08"  # abs_error above the 1e-8 threshold
    with pytest.raises(CheckFailed):
        check_chain_csv("\n".join([header, ",".join(fields), *rest]), thetas, [(30, 31)])


def test_function_routed_around_its_wrapper_is_absent_not_zero():
    sys.path.insert(0, str(ROOT / "src"))
    import symm_ent.sweep
    from symm_ent.cli import main
    from tracing import Tracer
    from worker import run_op

    original = symm_ent.sweep.wootters_concurrence
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    tracer.enable()
    try:
        symm_ent.sweep.wootters_concurrence = original  # bypass the wrapper
        _, _, error = run_op(main, WORKLOADS["chain-center"].argv(0, 3))
    finally:
        tracer.disable()
    assert error is None
    assert symm_ent.sweep.wootters_concurrence is original
    values, absent = tracer.layer_metrics("chain-center", [0], 3, 1, 0.0)
    assert "concurrence.wootters.calls" in absent
    assert "concurrence.wootters.calls" not in values
    assert values["mps.pair_rdm.calls"] == 3
