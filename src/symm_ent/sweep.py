"""Angle sweeps, formula comparisons, and backend cross-checks.

``run_sweep`` evaluates pair concurrences over an angle grid and returns one
row per (grid point, pair), with the matching closed-form value attached
wherever one exists. ``run_compare`` turns that into a per-family error
report against a fixed threshold, and ``run_oracle_check`` runs the exact
statevector backend and the MPS backend on identical circuits and reports
their worst disagreement. Each of them resolves its configuration once,
into a ``RunPlan``, and then reads only the plan. Sweeps run on the MPS unless the config
names the statevector; one generator runs a grid on either backend, in stacked blocks sized
for the backend, each only the causal cone of the sites the plan reads: a chain read at its
center runs about half its gates.

Rows are ``OutputRow`` named tuples: immutable, with ``_asdict()`` and
``_replace()``. Output is deterministic: identical configurations produce
byte-identical CSV/JSON. Reals are printed with 17 significant digits so
parsing a file recovers every float exactly; the CSV writer formats each
distinct nonzero float once per table.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, get_args, get_type_hints

import numpy as np

from .concurrence import wootters_concurrence
from .formulas import analytic_concurrence, unitary_params
from .linalg import as_index
from .mps import MatrixProductState
from .protocols import (
    Circuit,
    build_linear,
    build_periodic,
    build_star,
    periodic_site_angle,
)
from .statevector import MAX_QUBITS, StateVector

PROTOCOLS = ("star", "linear", "periodic")
BACKENDS = ("statevector", "mps")
PAIR_KEYWORDS = ("all-adjacent", "all-bulk", "bulk-center", "edges", "star-all")
COMPARE_THRESHOLD = 1e-8
RDM_THRESHOLD = 1e-12
CONCURRENCE_THRESHOLD = 1e-10
DISCARDED_WEIGHT_LIMIT = 1e-14
# post-selection branches below this probability are skipped by sweeps
BRANCH_PROBABILITY_FLOOR = 1e-9
# a check with no grid point left checked nothing, so it fails with this line
NOTHING_CHECKED = f"  no grid point has a post-selected branch >= {BRANCH_PROBABILITY_FLOOR:.0e}"
# grid points the MPS backend runs as one stacked circuit. Over a 1024-point grid at
# blocks of 16 / 64 / 256 / 1024, medians of 10 fresh processes (2-core x86 host, one
# BLAS thread), wall s and peak RSS MB: 60-qubit bulk-center sweep 0.269 / 0.084 / 0.043
# / 0.038 s at 31.9 / 31.9 / 32.5 / 34.3 MB; 60-qubit all-adjacent sweep 1.33 / 0.81 /
# 0.53 / 0.43 s at 58.2 / 58.1 / 59.1 / 60.9 MB; star oracle-check, n_outer 11,
# post-selected, 1.03 / 0.78 / 0.70 / 0.67 s at 36.0 / 36.7 / 40.2 / 48.4 MB. Past 256 the
# sweeps gain 12-20% for 2 MB, and the oracle-check 5% for 8 MB.
BLOCK_POINTS = 256
# amplitudes the statevector backend holds in one stacked block: 16 grid points
# at 12 qubits. The star oracle-check (n_outer 11, 101 angles, post-selected),
# its blocks read as their 11-qubit branch, took 102 / 82 / 66 / 63 / 63 ms
# in-process (best of 12) at caps of 2**13 / 2**14 / 2**15 / 2**16 / 2**17, its
# tracemalloc peak reading 1.6 / 1.6 / 2.0 / 3.0 / 4.9 MB; perfbench's star-oracle
# read 0.079 / 0.075 / 0.073 s at 37.0 / 38.6 / 40.9 MB peak RSS at 2**15 / 2**16 /
# 2**17 (two runs each); 2-core x86 host, one BLAS thread. Past 2**16, 2.3 MB buys 3%.
MAX_BLOCK_AMPLITUDES = 2**16


def _check_real(value, label: str) -> None:
    """Reject anything but a real number, a bool too, with a ValueError naming ``label``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{label} must be a real number, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Inclusive angle grid; a single point is encoded as steps == 1.

    A grid whose points collide in floating point (steps finer than the
    spacing of floats near the bounds) is rejected.
    """

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        as_index(self.steps, "steps")
        _check_real(self.start, "grid start")
        _check_real(self.stop, "grid stop")
        if not all(map(math.isfinite, (self.start, self.stop, self.stop - self.start))):
            raise ValueError(f"grid bounds must be finite, got {self.start}..{self.stop}")
        if self.steps == 1:
            if self.start != self.stop:
                raise ValueError("single-point grid needs start == stop")
        elif self.steps >= 2:
            if not self.start < self.stop:
                raise ValueError(f"grid needs start < stop, got {self.start}..{self.stop}")
            values = self.values()
            repeated = np.flatnonzero(values[1:] == values[:-1])
            if repeated.size:
                raise ValueError(
                    f"grid {self.start!r}:{self.stop!r}:{self.steps} repeats the angle "
                    f"{float(values[repeated[0]])!r}: its points collide in floating point"
                )
        else:
            raise ValueError(f"grid needs steps >= 1, got {self.steps}")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start], dtype=float)
        # fraction form keeps special angles exact: stop/4 lands on the
        # representable quarter points (pi/2, pi, ... for a [0, 2 pi] grid)
        fractions = np.arange(self.steps) / (self.steps - 1)
        values = self.start + (self.stop - self.start) * fractions
        values[-1] = self.stop
        return values

    @classmethod
    def single(cls, value: float) -> "GridSpec":
        return cls(value, value, 1)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'start:stop:steps' or a bare angle, all in radians."""
        parts = text.split(":")
        try:
            if len(parts) == 1:
                return cls.single(float(parts[0]))
            if len(parts) == 3:
                return cls(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad grid {text!r}: {exc}") from None
        raise ValueError(f"bad grid {text!r}: expected 'start:stop:steps' or a single angle")


@dataclass(frozen=True)
class SweepConfig:
    protocol: str
    theta: GridSpec
    case: int = 4
    n: int | None = None
    n_outer: int | None = None
    theta2: GridSpec | None = None
    theta2_offset: float | None = None
    pairs: str | tuple[tuple[int, int], ...] = ""
    postselect: int | None = None
    backend: str = "mps"


class OutputRow(NamedTuple):
    theta: float
    theta2: float | None
    pair_left: int
    pair_right: int
    concurrence_numeric: float
    concurrence_analytic: float | None
    abs_error: float | None
    postselect_outcome: int | None
    postselect_probability: float | None


# the row schema: column names in order, and the CSV header they make
COLUMNS = OutputRow._fields
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True)
class FamilyComparison:
    family: str
    n_rows: int
    max_abs_error: float
    theta_at_max: float
    theta2_at_max: float | None
    passed: bool


@dataclass(frozen=True)
class CompareReport:
    families: tuple[FamilyComparison, ...]
    passed: bool
    rows: tuple[OutputRow, ...]


@dataclass(frozen=True)
class OracleReport:
    n_points: int
    max_rdm_deviation: float
    max_concurrence_deviation: float
    max_probability_deviation: float
    max_discarded_weight: float
    passed: bool


@dataclass(frozen=True)
class RunPlan:
    """A validated run, resolved once: everything a sweep, comparison or
    cross-check needs besides the circuits themselves."""

    config: SweepConfig  # completed: the default pair keyword filled in; names the backend
    total: int  # qubits in the circuit
    pairs: tuple[tuple[int, int], ...]  # ascending, i < j in each
    families: tuple[str | None, ...]  # closed-form family per pair, None if none
    points: tuple[tuple[float, float | None], ...]  # (theta, theta2), ascending
    reads: frozenset[int]  # every pair site, and the central qubit when post-selecting


# --------------------------------------------------------------- validation


def _plan(config: SweepConfig) -> RunPlan:
    """Check ``config`` and resolve it into the plan of its run."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {config.protocol!r}")
    if config.backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {config.backend!r}")
    for name, grid in (("theta", config.theta), ("theta2", config.theta2)):
        if not isinstance(grid, GridSpec) and not (name == "theta2" and grid is None):
            raise ValueError(f"{name} must be a GridSpec, got {grid!r}")
    if config.protocol == "star":
        if config.n_outer is None or as_index(config.n_outer, "n_outer") < 1:
            raise ValueError("star protocol needs n_outer >= 1")
        if config.postselect is not None:
            if as_index(config.postselect, "postselect") not in (0, 1):
                raise ValueError("postselect must be 0 or 1")
            config = replace(config, postselect=int(config.postselect))
        if config.n is not None:
            raise ValueError("n is not used by the star protocol, which is sized by n_outer")
    else:
        if config.postselect is not None:
            raise ValueError("postselect is only meaningful for the star protocol")
        if config.n is None:
            raise ValueError(f"{config.protocol} protocol needs n")
        if config.n_outer is not None:
            raise ValueError("n_outer is only meaningful for the star protocol")
    if config.protocol == "linear":
        if as_index(config.case, "case") not in (1, 2, 3, 4):
            raise ValueError(f"case must be 1..4, got {config.case}")
        if as_index(config.n, "n") < 3:
            raise ValueError("linear protocol needs n >= 3")
    elif config.case != 4:
        raise ValueError(f"case is only meaningful for the linear protocol, got case={config.case}")
    if config.protocol == "periodic":
        if as_index(config.n, "n") < 4:
            raise ValueError("periodic protocol needs n >= 4")
        if (config.theta2 is None) == (config.theta2_offset is None):
            raise ValueError("periodic protocol needs exactly one of theta2 / theta2_offset")
        if config.theta2_offset is not None:
            _check_real(config.theta2_offset, "theta2_offset")
    elif config.theta2 is not None or config.theta2_offset is not None:
        raise ValueError("theta2 is only meaningful for the periodic protocol")
    if isinstance(config.pairs, str) and not config.pairs:  # the default "" alone
        config = replace(
            config, pairs="star-all" if config.protocol == "star" else "all-adjacent"
        )
    total = config.n_outer + 1 if config.protocol == "star" else config.n
    if config.backend == "statevector" and total > MAX_QUBITS:
        raise ValueError(
            f"statevector backend is capped at {MAX_QUBITS} qubits but the protocol needs "
            f"{total}; use the mps backend"
        )
    pairs = tuple(sorted(_resolve_pairs(config, total)))
    thetas = config.theta.values().tolist()
    if config.theta2 is not None:
        points = [(t1, t2) for t1 in thetas for t2 in config.theta2.values().tolist()]
    elif config.theta2_offset is not None:
        points = [(t1, t1 + config.theta2_offset) for t1 in thetas]
        if not all(math.isfinite(t2) for _, t2 in points):  # an overflow, or an offset of inf
            raise ValueError(
                "theta2_offset must be finite, and so must theta + theta2_offset; got "
                f"{config.theta2_offset!r}"
            )
    else:
        points = [(t1, None) for t1 in thetas]
    return RunPlan(
        config=config,
        total=total,
        pairs=pairs,
        families=tuple(_family_for_pair(config, total, pair) for pair in pairs),
        points=tuple(points),
        reads=frozenset(chain(*pairs, () if config.postselect is None else (total,))),
    )


def _resolve_pairs(config: SweepConfig, total: int) -> list[tuple[int, int]]:
    selection = config.pairs
    if isinstance(selection, str):
        if selection == "star-all":
            if config.protocol != "star":
                raise ValueError("pair keyword 'star-all' needs the star protocol")
            if config.postselect is None:  # the central qubit is the last one
                return [(k, total) for k in range(1, total)]
            if config.n_outer < 2:
                raise ValueError(
                    "post-selected 'star-all' pairs the outer qubits with each other and "
                    f"needs n_outer >= 2, got n_outer={config.n_outer}"
                )
            outers = range(1, total)
            return [(k, l) for k in outers for l in outers if k < l]
        if config.protocol == "star":
            raise ValueError(
                f"pair keyword {selection!r} is not valid for the star topology; use "
                "'star-all' or explicit pairs"
            )
        if selection == "all-adjacent":
            return [(i, i + 1) for i in range(1, total)]
        if selection == "all-bulk":
            if total < 4:
                raise ValueError(f"pair keyword 'all-bulk' selects no pair on {total} qubits")
            return [(i, i + 1) for i in range(2, total - 1)]
        if selection == "bulk-center":
            return [(total // 2, total // 2 + 1)]
        if selection == "edges":
            return [(1, 2), (total - 1, total)]
        raise ValueError(
            f"unknown pair keyword {selection!r}; valid: {', '.join(PAIR_KEYWORDS)}"
        )
    if not isinstance(selection, Sequence) or not selection:
        raise ValueError(f"pairs must be a pair keyword or a non-empty sequence, got {selection!r}")
    first_as = {}
    for pair in selection:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"each entry of pairs must be two sites, got {pair!r}") from None
        i, j = as_index(i, "site in pairs"), as_index(j, "site in pairs")
        if i == j:
            raise ValueError(f"pair sites must differ, got ({i}, {j})")
        if not (1 <= i <= total and 1 <= j <= total):
            raise ValueError(f"pair ({i}, {j}) outside 1..{total}")
        ordered = (min(i, j), max(i, j))
        if ordered in first_as:
            raise ValueError(f"pair ({i}, {j}) is listed twice (first as {first_as[ordered]})")
        first_as[ordered] = (i, j)
    return list(first_as)


def _block_circuit(config: SweepConfig, points: tuple[tuple[float, float | None], ...]) -> Circuit:
    """One circuit for a block of grid points, its angles as tuples."""
    thetas = tuple(theta for theta, _ in points)
    if config.protocol == "star":
        return build_star(config.n_outer, thetas)
    if config.protocol == "linear":
        return build_linear(config.n, config.case, thetas)
    return build_periodic(config.n, thetas, tuple(theta2 for _, theta2 in points))


# ---------------------------------------------------------- analytic lookup


def _family_for_pair(config: SweepConfig, total: int, pair: tuple[int, int]) -> str | None:
    """Closed-form family covering this pair, or None when there is none."""
    i, j = pair
    if config.protocol == "star":
        if config.postselect is None:
            return "star_central" if j == total else None
        return None if j == total else f"star_ring_{config.postselect}"
    if j != i + 1:
        return None
    if config.protocol == "linear":
        if config.case in (2, 4):  # case 2 is case 4 mirrored, i -> n - i, edges to edges
            return "linear_edge" if i == 1 or i == total - 1 else "linear_bulk"
        if config.case == 1:
            return "end_pair_case13" if (i, j) == (1, 2) else "case13_zero"
        return "end_pair_case13" if (i, j) == (total - 1, total) else "case13_zero"
    # periodic: bulk pairs only, classified by which angle dresses the right site
    if i == 1 or i == total - 1:
        return None
    right_angle_is_theta1 = periodic_site_angle(total, j, 0.0, 1.0) == 0.0
    return "periodic_even" if right_angle_is_theta1 else "periodic_odd"


# ------------------------------------------------------------------- sweeps


def _run_blocks(plan: RunPlan, points: tuple[tuple[float, float | None], ...], backend: str):
    """Run ``points`` on ``backend`` in stacked blocks, each the causal cone of its
    circuit, post-selected; yield ``(start, block, state, alive, probabilities)``
    for each, ``block`` being ``points[start : start + len(block)]``. A block holds
    up to ``BLOCK_POINTS`` points on the MPS and ``MAX_BLOCK_AMPLITUDES`` amplitudes
    on the statevector. ``alive`` indexes its points whose branch reaches
    ``BRANCH_PROBABILITY_FLOOR`` (all without post-selection), the state stacks only
    those (None when there are none), and ``probabilities`` holds their branch
    probabilities (None without post-selection, empty when no branch is alive).
    A post-selected statevector state whose central qubit no plan pair reads is
    its branch, of ``plan.total - 1`` qubits: the collapsed qubit is a product
    factor, and the last site, so the others keep their numbers.
    """
    size = BLOCK_POINTS if backend == "mps" else max(1, MAX_BLOCK_AMPLITUDES // 2**plan.total)
    fresh = MatrixProductState if backend == "mps" else StateVector.zeros
    outcome = plan.config.postselect
    for start in range(0, len(points), size):
        block = points[start : start + size]
        circuit = _block_circuit(plan.config, block)
        if len(plan.reads) < plan.total:  # a read of every qubit has nothing to prune
            circuit = circuit.causal_cone(plan.reads)
        state = fresh(plan.total).run_circuit(circuit)
        if outcome is None:
            yield start, block, state, np.arange(len(block)), None
            continue
        weights = state.single_rdm(plan.total)[:, outcome, outcome].real
        alive = np.flatnonzero(weights >= BRANCH_PROBABILITY_FLOOR)
        if alive.size == 0:
            state, probabilities = None, np.empty(0)
        elif backend == "mps":  # projects in place
            probabilities = state.keep_points(alive).postselect(plan.total, outcome)
        else:  # rebinds the pre-selection block, so it does not outlive the yield
            state, probabilities = state.keep_points(alive).postselect(plan.total, outcome)
            if all(j < plan.total for _, j in plan.pairs):  # no pair reads the central qubit
                # a local view here would keep the projected block alive through the yield
                state = StateVector(
                    plan.total - 1, state.amplitudes.reshape(alive.size, -1, 2)[..., outcome]
                )
        yield start, block, state, alive, probabilities


def _pair_rdms(state: StateVector | MatrixProductState, pairs) -> np.ndarray:
    """The ``(len(pairs), P, 4, 4)`` RDMs of the ascending ``pairs`` of a stacked state."""
    return _read_rows(state, pairs, np.asarray)


def _read_rows(state: StateVector | MatrixProductState, pairs, score) -> np.ndarray:
    """``score`` of each row's ``(len(row), P, 4, 4)`` RDMs, the rows being the ascending
    ``pairs`` sharing a left site, in plan order. The MPS is called once per grid point,
    as the benchmark pins, each call a slice of the kept row. A row is scored as it is
    read (all rows at once took perfbench chain-sweep's peak RSS from 40.3 to 45.4 MB,
    2-core x86 host), from the end nearer an MPS center, which then crosses the rows
    once (60-qubit case-3 sweep: 58 QRs, not 116; star-oracle's check: 12, not 21)."""
    rows = [(i, tuple(j for _, j in row)) for i, row in groupby(pairs, key=itemgetter(0))]
    back = isinstance(state, MatrixProductState) and 2 * state.center > rows[0][0] + rows[-1][0]
    scores = [score(state.pair_rdm(i, sites) if isinstance(state, StateVector) else np.array(
        [state.pair_rdm(i, sites, point=p) for p in range(state.grid)]).swapaxes(0, 1))
        for i, sites in rows[:: -1 if back else 1]]
    return np.concatenate(scores[::-1] if back else scores)


def _scored_points(plan: RunPlan):
    """Yield ``(theta, theta2, probability, scores)`` for every grid point
    whose state exists, ``scores`` holding one concurrence per plan pair."""
    backend = plan.config.backend
    for _, block, state, alive, probabilities in _run_blocks(plan, plan.points, backend):
        if state is None:
            continue
        if backend == "mps" and state.discarded_weight_total >= DISCARDED_WEIGHT_LIMIT:
            raise RuntimeError(
                f"MPS sweep truncated (discarded weight {state.discarded_weight_total:.3e}); "
                "protocol circuits must be exact"
            )
        scores = _read_rows(state, plan.pairs, wootters_concurrence)
        probabilities = [None] * alive.size if probabilities is None else probabilities.tolist()
        for k, (index, probability) in enumerate(zip(alive.tolist(), probabilities)):
            theta, theta2 = block[index]
            yield theta, theta2, probability, scores[:, k].tolist()


def _rows(plan: RunPlan) -> Iterator[OutputRow]:
    """One row per (grid point, pair) of the plan, at the points whose state exists."""
    outcome = plan.config.postselect
    for theta, theta2, probability, scores in _scored_points(plan):
        # one closed-form value per family; each formula ignores the size it does not use
        angles = unitary_params(theta, theta2)
        closed = dict.fromkeys(plan.families)
        for family in closed:
            if family is not None:
                closed[family] = analytic_concurrence(
                    family, angles, n_outer=plan.total - 1, chain_n=plan.total
                )
        for (i, j), family, numeric in zip(plan.pairs, plan.families, scores):
            analytic = closed[family]
            error = None if analytic is None else abs(numeric - analytic)
            yield OutputRow(theta, theta2, i, j, numeric, analytic, error, outcome, probability)


def run_sweep(config: SweepConfig) -> list[OutputRow]:
    """Evaluate pair concurrences over the configured angle grid.

    Returns one row per (grid point, pair), in order of (theta, theta2,
    pair_left, pair_right). Star post-selection grid points whose branch
    probability is below 1e-9 are skipped (the conditioned state does not
    exist there). The grid runs on ``config.backend``, the MPS by default, in stacked
    blocks of ``BLOCK_POINTS`` points (MPS) or ``MAX_BLOCK_AMPLITUDES`` amplitudes.
    """
    return list(_rows(_plan(config)))


def run_compare(config: SweepConfig) -> CompareReport:
    """Compare swept concurrences against their closed forms, per family, at ``COMPARE_THRESHOLD``.

    A comparison whose every grid point was skipped (no post-selected branch
    exists) checked nothing and fails.
    """
    plan = _plan(config)
    missing = [pair for pair, family in zip(plan.pairs, plan.families) if family is None]
    if missing:
        raise ValueError(
            f"no closed form covers pair(s) {missing}; restrict --pairs to covered "
            "classes (adjacent pairs for linear, adjacent bulk pairs for periodic, "
            "star-all for the star)"
        )
    family_of = dict(zip(plan.pairs, plan.families))
    rows = list(_rows(plan))
    by_family: dict[str, list[OutputRow]] = {}
    for row in rows:
        by_family.setdefault(family_of[row.pair_left, row.pair_right], []).append(row)
    comparisons = []
    for family in sorted(by_family):
        frows = by_family[family]
        worst = max(frows, key=lambda r: r.abs_error)
        comparisons.append(
            FamilyComparison(
                family=family,
                n_rows=len(frows),
                max_abs_error=worst.abs_error,
                theta_at_max=worst.theta,
                theta2_at_max=worst.theta2,
                passed=worst.abs_error <= COMPARE_THRESHOLD,
            )
        )
    return CompareReport(
        families=tuple(comparisons),
        passed=bool(comparisons) and all(c.passed for c in comparisons),
        rows=tuple(rows),
    )


def run_oracle_check(config: SweepConfig) -> OracleReport:
    """Run both backends on identical circuits, whatever ``config.backend`` says, and compare.

    Reports the worst elementwise pair-RDM deviation, concurrence deviation,
    post-selection probability deviation, and accumulated MPS discarded
    weight over the grid points whose branch both backends find alive. A
    branch alive on one backend only deviates by at least its probability
    minus ``BRANCH_PROBABILITY_FLOOR``, and that is what the probability
    deviation records for it. The grid runs through ``_run_blocks`` on the
    MPS, and each MPS block through it again on the statevector, in the
    smaller statevector blocks, which drop the collapsed central qubit unless a
    pair reads it. Each statevector block is compared in one pass:
    one intersection of the two alive lists, one concurrence call scoring both
    backends there. A check that found no grid point alive on both backends
    checked nothing and fails.
    """
    plan = _plan(config)
    if plan.total > MAX_QUBITS:
        raise ValueError(f"oracle check needs <= {MAX_QUBITS} qubits, protocol uses {plan.total}")
    floor = BRANCH_PROBABILITY_FLOOR
    max_rdm = 0.0
    max_conc = 0.0
    max_prob = 0.0
    max_weight = 0.0
    n_checked = 0
    for _, block, mps, mps_alive, p_mps in _run_blocks(plan, plan.points, "mps"):
        if mps is not None:
            max_weight = max(max_weight, mps.discarded_weight_total)
            mps_rdms = _pair_rdms(mps, plan.pairs)
        for start, points, sv, sv_alive, p_sv in _run_blocks(plan, block, "statevector"):
            # the MPS stack positions lo:hi hold the points of this statevector block
            lo, hi = np.searchsorted(mps_alive, (start, start + len(points)))
            _, m, s = np.intersect1d(mps_alive[lo:hi] - start, sv_alive, return_indices=True)
            n_checked += s.size
            if p_sv is not None:
                # a branch alive on one backend only deviates by at least p - floor
                one_sided = np.concatenate([np.delete(p_sv, s), np.delete(p_mps[lo:hi], m)])
                gaps = np.concatenate([np.abs(p_sv[s] - p_mps[lo + m]), one_sided - floor])
                max_prob = max(max_prob, float(gaps.max(initial=0.0)))
            if s.size:
                sv_rdms = _pair_rdms(sv, plan.pairs)[:, s]
                max_rdm = max(max_rdm, float(np.max(np.abs(sv_rdms - mps_rdms[:, lo + m]))))
                scores = wootters_concurrence(np.stack([sv_rdms, mps_rdms[:, lo + m]]))
                max_conc = max(max_conc, float(np.max(np.abs(scores[0] - scores[1]))))
    passed = n_checked > 0 and (
        max_rdm <= RDM_THRESHOLD
        and max_conc <= CONCURRENCE_THRESHOLD
        and max_prob <= RDM_THRESHOLD
        and max_weight < DISCARDED_WEIGHT_LIMIT
    )
    return OracleReport(
        n_points=n_checked,
        max_rdm_deviation=max_rdm,
        max_concurrence_deviation=max_conc,
        max_probability_deviation=max_prob,
        max_discarded_weight=max_weight,
        passed=passed,
    )


# ----------------------------------------------------------------------- IO


class _FieldTexts(dict):
    """CSV field text by value, formatted on first sight and kept unless zero: 0.0 == -0.0,
    but they print as 0 and -0. An int and the float equal to it share a key and print
    alike (ints through ``str``, floats with 17 significant digits, exact below 1e17)."""

    def __missing__(self, value) -> str:
        text = str(value) if isinstance(value, int) else f"{value:.17g}"
        if value:
            self[value] = text
        return text


def rows_to_csv_text(rows: list[OutputRow]) -> str:
    texts = _FieldTexts({None: ""})  # a row's fields are looked up in C; a miss formats
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(",".join(map(texts.__getitem__, row)) + "\n")
    return out.getvalue()


def rows_to_json_text(rows: list[OutputRow]) -> str:
    payload = [row._asdict() for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def rows_to_text(rows: list[OutputRow], fmt: str = "csv") -> str:
    """Serialize ``rows`` in ``fmt``, 'csv' or 'json'."""
    if fmt == "csv":
        return rows_to_csv_text(rows)
    if fmt == "json":
        return rows_to_json_text(rows)
    raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")


def write_rows(rows: list[OutputRow], path: str | Path, fmt: str = "csv") -> None:
    Path(path).write_text(rows_to_text(rows, fmt), encoding="utf-8")


def read_rows_csv(path: str | Path) -> list[OutputRow]:
    """Parse a CSV file produced by ``rows_to_csv_text`` back into rows."""
    return rows_from_csv_text(Path(path).read_text(encoding="utf-8"))


def _column_parser(hint):
    """Parser of one CSV field: int or float, empty meaning None where allowed."""
    kinds = get_args(hint) or (hint,)
    parse = int if int in kinds else float
    if type(None) in kinds:
        return lambda text: parse(text) if text else None
    return parse


_PARSERS = tuple(map(_column_parser, get_type_hints(OutputRow).values()))


def rows_from_csv_text(text: str) -> list[OutputRow]:
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(OutputRow(*(parse(part) for parse, part in zip(_PARSERS, parts))))
    return rows


def render_compare(report: CompareReport) -> str:
    lines = [f"comparison against closed forms (threshold {COMPARE_THRESHOLD:.1e})"]
    for c in report.families:
        where = f"theta={c.theta_at_max:.6g}"
        if c.theta2_at_max is not None:
            where += f", theta2={c.theta2_at_max:.6g}"
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  {status}  {c.family}: max |err| = {c.max_abs_error:.3e} at {where} "
            f"({c.n_rows} rows)"
        )
    if not report.families:
        lines.append(NOTHING_CHECKED)
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def render_oracle(report: OracleReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    return "\n".join(
        [
            f"backend cross-check over {report.n_points} grid points",
            f"  max pair-RDM deviation:     {report.max_rdm_deviation:.3e} "
            f"(threshold {RDM_THRESHOLD:.1e})",
            f"  max concurrence deviation:  {report.max_concurrence_deviation:.3e} "
            f"(threshold {CONCURRENCE_THRESHOLD:.1e})",
            f"  max probability deviation:  {report.max_probability_deviation:.3e}",
            f"  max MPS discarded weight:   {report.max_discarded_weight:.3e} "
            f"(limit {DISCARDED_WEIGHT_LIMIT:.0e})",
            *([NOTHING_CHECKED] if report.n_points == 0 else []),
            f"result: {status}",
        ]
    )
