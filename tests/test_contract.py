"""One randomized end-to-end contract over the whole pipeline.

Small random sweep configurations (every protocol at n <= 8, random pair
subsets in either orientation, post-selection none / 0 / 1, grids of 1-9
points with a theta2 grid or an offset, and post-selected star grids that
start where the branch probability is 1e-9 to 1e-7) run with random small
block sizes, and the two backends, the CLI and the checks must tell one
story: the statevector and the MPS give the same rows, the CLI prints
exactly the rows ``run_sweep`` returns, and the oracle and closed-form
checks pass on every point that has a state.
"""

from dataclasses import replace
from operator import attrgetter
from unittest.mock import patch

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import symm_ent.cli
import symm_ent.sweep
from symm_ent.sweep import (
    BACKENDS,
    GridSpec,
    SweepConfig,
    rows_to_text,
    run_compare,
    run_oracle_check,
    run_sweep,
)

ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
# the columns both backends must agree on exactly
KEY = attrgetter("theta", "theta2", "pair_left", "pair_right", "postselect_outcome")


def grids(steps: int, starts=ANGLES):
    if steps == 1:
        return starts.map(GridSpec.single)
    widths = st.floats(0.1, 2 * np.pi)
    return st.tuples(starts, widths).map(lambda p: GridSpec(p[0], p[0] + p[1], steps))


def near_floor_angles(n_outer: int, outcome: int):
    """Angles where the star's branch ``outcome`` has probability 1e-9 to 1e-7.

    The central qubit holds the parity of the outer ones, so the branch has
    probability (1 + (-1)^outcome (-cos theta)^n_outer) / 2. It dies at odd
    multiples of pi for outcome 1, and at even ones when outcome differs from
    n_outer mod 2; near such a centre it is 10^-p at |theta - centre| = x,
    where cos(x)^n_outer = 1 - 2 * 10^-p. Returns None when the branch never
    dies.
    """
    centres = [-np.pi, np.pi] if outcome == 1 else []
    if outcome != n_outer % 2:
        centres += [-2 * np.pi, 0.0, 2 * np.pi]
    if not centres:
        return None

    def angle(draw):
        power, centre, sign = draw
        half_cos = -np.expm1(np.log1p(-2 * 10.0**-power) / n_outer) / 2
        return float(centre + sign * 2 * np.arcsin(np.sqrt(half_cos)))

    return st.tuples(st.floats(7, 9), st.sampled_from(centres),
                     st.sampled_from([-1.0, 1.0])).map(angle)


@st.composite
def sweep_configs(draw):
    protocol = draw(st.sampled_from(["star", "linear", "periodic"]))
    steps = draw(st.integers(1, 9))
    options = {"theta": draw(grids(steps)), "backend": draw(st.sampled_from(BACKENDS))}
    if protocol == "star":
        options["n_outer"] = draw(st.integers(1, 7))
        options["postselect"] = draw(st.sampled_from([None, 0, 1]))
        total = options["n_outer"] + 1
        if options["postselect"] is not None and draw(st.booleans()):
            starts = near_floor_angles(options["n_outer"], options["postselect"])
            if starts is not None:
                options["theta"] = draw(grids(steps, starts))
    else:
        total = options["n"] = draw(st.integers(3 if protocol == "linear" else 4, 8))
    if protocol == "linear":
        options["case"] = draw(st.integers(1, 4))
    if protocol == "periodic":
        if draw(st.booleans()):
            options["theta2"] = draw(grids(draw(st.integers(1, 9 // steps))))
        else:
            options["theta2_offset"] = draw(ANGLES)
    every_pair = [(i, j) for i in range(1, total + 1) for j in range(i + 1, total + 1)]
    pairs = draw(st.lists(st.sampled_from(every_pair), min_size=1, max_size=6, unique=True))
    options["pairs"] = tuple((j, i) if draw(st.booleans()) else (i, j) for i, j in pairs)
    return SweepConfig(protocol, **options)


def _grid_text(grid: GridSpec) -> str:
    return repr(grid.start) if grid.steps == 1 else f"{grid.start!r}:{grid.stop!r}:{grid.steps}"


def _argv(config: SweepConfig, fmt: str) -> list[str]:
    argv = ["sweep", f"--protocol={config.protocol}", f"--backend={config.backend}",
            f"--format={fmt}", f"--theta={_grid_text(config.theta)}",
            "--pairs=" + ",".join(f"{i}:{j}" for i, j in config.pairs)]
    if config.protocol == "star":
        argv.append(f"--n-outer={config.n_outer}")
        if config.postselect is not None:
            argv.append(f"--postselect={config.postselect}")
    else:
        argv += [f"--n={config.n}", f"--case={config.case}"]
    if config.theta2 is not None:
        argv.append(f"--theta2={_grid_text(config.theta2)}")
    if config.theta2_offset is not None:
        argv.append(f"--theta2-offset={config.theta2_offset!r}")
    return argv


@settings(max_examples=40, deadline=None)
@given(sweep_configs(), st.integers(1, 4), st.integers(1, 2**10),
       st.sampled_from(["csv", "json"]))
def test_backends_cli_and_checks_agree(config, block_points, block_amplitudes, fmt):
    with patch.object(symm_ent.sweep, "BLOCK_POINTS", block_points), patch.object(
        symm_ent.sweep, "MAX_BLOCK_AMPLITUDES", block_amplitudes
    ):
        exact = run_sweep(replace(config, backend="statevector"))
        mps = run_sweep(replace(config, backend="mps"))
        assert list(map(KEY, exact)) == list(map(KEY, mps))
        for a, b in zip(exact, mps):
            assert abs(a.concurrence_numeric - b.concurrence_numeric) <= 1e-12
            if a.postselect_probability is None:
                assert b.postselect_probability is None
            else:
                assert abs(a.postselect_probability - b.postselect_probability) <= 1e-12

        result = CliRunner().invoke(symm_ent.cli.main, _argv(config, fmt))
        assert result.exit_code == 0, result.output
        assert result.stdout == rows_to_text(run_sweep(config), fmt)

        alive = len({(row.theta, row.theta2) for row in exact})
        report = run_oracle_check(config)
        assert report.n_points == alive
        assert report.passed == (alive > 0)
        try:
            compared = run_compare(config)
        except ValueError as exc:
            assert str(exc).startswith("no closed form covers pair(s)")
        else:
            assert compared.passed == (alive > 0)
