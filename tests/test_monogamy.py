"""Coffman-Kundu-Wootters monogamy on every protocol and both backends.

For every qubit q of a pure n-qubit state, the tangle 4 det rho_q bounds
the squared concurrences it shares: 4 det rho_q >= sum_k C(q, k)^2
(Coffman, Kundu & Wootters, PRA 61, 052306, 2000; Osborne & Verstraete,
PRL 96, 220503, 2006). The post-selected star is pure too, so the bound
holds there as well. The check needs no closed form, so it also covers the
pair classes that have none: outer pairs of rings with n_outer != 3 and
non-adjacent chain pairs. Every pair RDM is read through the sweep's read,
which on the MPS reads each row of pairs sharing a left site in one call.

Five fixed configurations pin the bound where it is not met trivially, and
one property draws random small ones.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symm_ent import GridSpec, SweepConfig, wootters_concurrence
from symm_ent.sweep import _pair_rdms, _plan, _run_blocks

from test_contract import ANGLES, grids

GRID = GridSpec(0.0, 2 * np.pi, 41)
CONFIGS = [
    SweepConfig(protocol="star", theta=GRID, n_outer=5),
    SweepConfig(protocol="star", theta=GRID, n_outer=5, postselect=0),
    SweepConfig(protocol="star", theta=GRID, n_outer=5, postselect=1),
    SweepConfig(protocol="linear", theta=GRID, n=10, case=4),
    SweepConfig(protocol="periodic", theta=GRID, n=9, theta2_offset=0.7),
]


def _check_the_bound(config: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """Check the bound at every qubit and live grid point of ``config``'s
    run, block by block; return the squared concurrences of every pair and
    the live points.

    The plan reads every pair, so the run keeps every op, and every qubit:
    a post-selected statevector run keeps the central qubit only when a
    pair of its plan reads it."""
    n = _plan(config).total
    pairs = tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    plan = _plan(replace(config, pairs=pairs))
    squared, alive = [np.zeros((len(pairs), 0))], [np.zeros(0, dtype=int)]
    for start, _, state, block_alive, _ in _run_blocks(plan, plan.points, plan.config.backend):
        if state is None:  # no post-selected branch of the block is alive
            continue
        block_squared = wootters_concurrence(_pair_rdms(state, pairs)) ** 2
        assert block_squared.shape == (len(pairs), block_alive.size)
        for q in range(1, n + 1):
            tangle = 4.0 * np.linalg.det(state.single_rdm(q)).real
            shared = sum(block_squared[k] for k, pair in enumerate(pairs) if q in pair)
            assert np.all(tangle >= shared - 1e-12), q
        squared.append(block_squared)
        alive.append(start + block_alive)
    return np.concatenate(squared, axis=1), np.concatenate(alive)


@pytest.mark.parametrize("backend", ["statevector", "mps"])
@pytest.mark.parametrize(
    "config", CONFIGS, ids=["star", "star-0", "star-1", "linear-case4", "periodic"]
)
def test_tangle_bounds_the_shared_squared_concurrence(config, backend):
    squared, alive = _check_the_bound(replace(config, backend=backend))
    # post-selection drops the points where its branch does not exist:
    # theta = 0 and 2 pi for outcome 0, theta = pi for outcome 1
    assert alive.size == {None: 41, 0: 39, 1: 40}[config.postselect]
    # the bound is not met trivially: some qubit shares entanglement
    assert squared.max() > 0.05


@st.composite
def monogamy_configs(draw):
    """Every protocol at up to 8 qubits, linear cases 1-4, post-selection
    none / 0 / 1, grids of 1-6 points with a theta2 grid or an offset, on
    either backend; the default pairs."""
    protocol = draw(st.sampled_from(["star", "linear", "periodic"]))
    steps = draw(st.integers(1, 6))
    options = {"theta": draw(grids(steps)),
               "backend": draw(st.sampled_from(["statevector", "mps"]))}
    if protocol == "star":
        options["postselect"] = draw(st.sampled_from([None, 0, 1]))
        options["n_outer"] = draw(st.integers(1 if options["postselect"] is None else 2, 7))
    else:
        options["n"] = draw(st.integers(3 if protocol == "linear" else 4, 8))
    if protocol == "linear":
        options["case"] = draw(st.integers(1, 4))
    if protocol == "periodic":
        if draw(st.booleans()):
            options["theta2"] = draw(grids(draw(st.integers(1, 6 // steps))))
        else:
            options["theta2_offset"] = draw(ANGLES)
    return SweepConfig(protocol, **options)


@settings(max_examples=200, deadline=None)
@given(monogamy_configs())
def test_tangle_bound_holds_on_random_configurations(config):
    _check_the_bound(config)
