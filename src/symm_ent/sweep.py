"""Angle sweeps, formula comparisons, and backend cross-checks.

``run_sweep`` evaluates pair concurrences over an angle grid and returns one
row per (grid point, pair), with the matching closed-form value attached
wherever one exists. ``run_compare`` turns that into a per-family error
report against a fixed threshold, and ``run_oracle_check`` runs the exact
statevector backend and the MPS backend on identical circuits and reports
their worst disagreement. Each of them first resolves its configuration
into a ``RunPlan`` and then reads only the plan.

Output is deterministic: identical configurations produce byte-identical
CSV/JSON. Reals are printed with 17 significant digits so parsing a file
recovers every float exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .concurrence import wootters_concurrence
from .formulas import analytic_concurrence, unitary_params
from .mps import MatrixProductState
from .protocols import Circuit, build_linear, build_periodic, build_star, periodic_site_angle
from .statevector import MAX_QUBITS, StateVector

PROTOCOLS = ("star", "linear", "periodic")
BACKENDS = ("statevector", "mps", "auto")
PAIR_KEYWORDS = ("all-adjacent", "all-bulk", "bulk-center", "edges", "star-all")
COMPARE_THRESHOLD = 1e-8
RDM_THRESHOLD = 1e-12
CONCURRENCE_THRESHOLD = 1e-10
DISCARDED_WEIGHT_LIMIT = 1e-14
# post-selection branches below this probability are skipped by sweeps
BRANCH_PROBABILITY_FLOOR = 1e-9

@dataclass(frozen=True)
class GridSpec:
    """Inclusive angle grid; a single point is encoded as steps == 1."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start, self.stop, self.stop - self.start))):
            raise ValueError(f"grid bounds must be finite, got {self.start}..{self.stop}")
        if self.steps == 1:
            if self.start != self.stop:
                raise ValueError("single-point grid needs start == stop")
        elif self.steps >= 2:
            if not self.start < self.stop:
                raise ValueError(f"grid needs start < stop, got {self.start}..{self.stop}")
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
    backend: str = "auto"


@dataclass(frozen=True)
class OutputRow:
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
COLUMNS = tuple(field.name for field in fields(OutputRow))
CSV_HEADER = ",".join(COLUMNS)
_row_values = attrgetter(*COLUMNS)


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
    threshold: float
    passed: bool
    rows: tuple[OutputRow, ...]


@dataclass(frozen=True)
class OracleReport:
    n_points: int
    max_rdm_deviation: float
    max_concurrence_deviation: float
    max_probability_deviation: float
    max_discarded_weight: float
    rdm_threshold: float
    concurrence_threshold: float
    passed: bool


@dataclass(frozen=True)
class RunPlan:
    """A validated run, resolved once: everything a sweep, comparison or
    cross-check needs besides the circuits themselves."""

    config: SweepConfig  # completed: the default pair keyword filled in
    total: int  # qubits in the circuit
    backend: str  # "statevector" or "mps"; "auto" already decided
    pairs: tuple[tuple[int, int], ...]  # ascending, i < j in each
    families: tuple[str | None, ...]  # closed-form family per pair, None if none
    points: tuple[tuple[float, float | None], ...]  # (theta, theta2), ascending


# --------------------------------------------------------------- validation


def _total_qubits(config: SweepConfig) -> int:
    if config.protocol == "star":
        return config.n_outer + 1
    return config.n


def _plan(config: SweepConfig) -> RunPlan:
    """Check ``config`` and resolve it into the plan of its run."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {config.protocol!r}")
    if config.backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {config.backend!r}")
    if config.protocol == "star":
        if config.n_outer is None or config.n_outer < 1:
            raise ValueError("star protocol needs n_outer >= 1")
        if config.postselect not in (None, 0, 1):
            raise ValueError("postselect must be 0 or 1")
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
        if config.case not in (1, 2, 3, 4):
            raise ValueError(f"case must be 1..4, got {config.case}")
        if config.n < 3:
            raise ValueError("linear protocol needs n >= 3")
    elif config.case != 4:
        raise ValueError(f"case is only meaningful for the linear protocol, got case={config.case}")
    if config.protocol == "periodic":
        if config.n < 4:
            raise ValueError("periodic protocol needs n >= 4")
        if (config.theta2 is None) == (config.theta2_offset is None):
            raise ValueError("periodic protocol needs exactly one of theta2 / theta2_offset")
        if config.theta2_offset is not None and not math.isfinite(config.theta2_offset):
            raise ValueError(f"theta2_offset must be finite, got {config.theta2_offset}")
    elif config.theta2 is not None or config.theta2_offset is not None:
        raise ValueError("theta2 is only meaningful for the periodic protocol")
    if not config.pairs:
        config = replace(
            config, pairs="star-all" if config.protocol == "star" else "all-adjacent"
        )
    total = _total_qubits(config)
    if config.backend == "statevector" and total > MAX_QUBITS:
        raise ValueError(
            f"statevector backend is capped at {MAX_QUBITS} qubits but the protocol needs "
            f"{total}; use the mps backend"
        )
    backend = config.backend
    if backend == "auto":
        backend = "statevector" if total <= MAX_QUBITS else "mps"
    pairs = tuple(sorted(_resolve_pairs(config)))
    thetas = config.theta.values().tolist()
    if config.theta2 is not None:
        points = [(t1, t2) for t1 in thetas for t2 in config.theta2.values().tolist()]
    elif config.theta2_offset is not None:
        points = [(t1, t1 + config.theta2_offset) for t1 in thetas]
    else:
        points = [(t1, None) for t1 in thetas]
    return RunPlan(
        config=config,
        total=total,
        backend=backend,
        pairs=pairs,
        families=tuple(_family_for_pair(config, pair) for pair in pairs),
        points=tuple(points),
    )


def _resolve_pairs(config: SweepConfig) -> list[tuple[int, int]]:
    total = _total_qubits(config)
    selection = config.pairs
    if isinstance(selection, str):
        if selection == "star-all":
            if config.protocol != "star":
                raise ValueError("pair keyword 'star-all' needs the star protocol")
            central = total
            if config.postselect is None:
                return [(k, central) for k in range(1, central)]
            if config.n_outer < 2:
                raise ValueError(
                    "post-selected 'star-all' pairs the outer qubits with each other and "
                    f"needs n_outer >= 2, got n_outer={config.n_outer}"
                )
            outers = range(1, central)
            return [(k, l) for k in outers for l in outers if k < l]
        if config.protocol == "star":
            raise ValueError(
                f"pair keyword {selection!r} is not valid for the star topology; use "
                "'star-all' or explicit pairs"
            )
        if selection == "all-adjacent":
            return [(i, i + 1) for i in range(1, total)]
        if selection == "all-bulk":
            return [(i, i + 1) for i in range(2, total - 1)]
        if selection == "bulk-center":
            return [(total // 2, total // 2 + 1)]
        if selection == "edges":
            return [(1, 2), (total - 1, total)]
        raise ValueError(
            f"unknown pair keyword {selection!r}; valid: {', '.join(PAIR_KEYWORDS)}"
        )
    first_as = {}
    for pair in selection:
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise ValueError(f"pair sites must differ, got ({i}, {j})")
        if not (1 <= i <= total and 1 <= j <= total):
            raise ValueError(f"pair ({i}, {j}) outside 1..{total}")
        ordered = (min(i, j), max(i, j))
        if ordered in first_as:
            raise ValueError(f"pair ({i}, {j}) is listed twice (first as {first_as[ordered]})")
        first_as[ordered] = (i, j)
    return list(first_as)


def _build_circuit(config: SweepConfig, theta: float, theta2: float | None) -> Circuit:
    if config.protocol == "star":
        return build_star(config.n_outer, theta)
    if config.protocol == "linear":
        return build_linear(config.n, config.case, theta)
    return build_periodic(config.n, theta, theta2)


# ---------------------------------------------------------- analytic lookup


def _family_for_pair(config: SweepConfig, pair: tuple[int, int]) -> str | None:
    """Closed-form family covering this pair, or None when there is none."""
    i, j = pair
    total = _total_qubits(config)
    if config.protocol == "star":
        central = total
        if config.postselect is None:
            return "star_central" if j == central else None
        if j == central:
            return None
        # ring states have a closed form only for the three-qubit ring
        if config.n_outer == 3:
            return "star_ring_0" if config.postselect == 0 else "star_ring_1"
        return None
    if j != i + 1:
        return None
    if config.protocol == "linear":
        if config.case == 4:
            if i == 1 or i == total - 1:
                return "linear_edge"
            return "linear_bulk"
        if config.case == 1:
            return "end_pair_case13" if (i, j) == (1, 2) else "case13_zero"
        if config.case == 3:
            return "end_pair_case13" if (i, j) == (total - 1, total) else "case13_zero"
        return None  # case 2: mirror of case 4, no dedicated closed form
    # periodic: bulk pairs only, classified by which angle dresses the right site
    if i == 1 or i == total - 1:
        return None
    right_angle_is_theta1 = periodic_site_angle(total, j, 0.0, 1.0) == 0.0
    return "periodic_even" if right_angle_is_theta1 else "periodic_odd"


# ------------------------------------------------------------------- sweeps


def _prepare_point(
    config: SweepConfig, circuit: Circuit, backend: str
) -> tuple[StateVector | MatrixProductState, float | None] | None:
    """Run ``circuit`` on a fresh ``backend`` state and apply the post-selection.

    Returns ``(state, branch probability)``, the probability being None
    without post-selection, or None when the post-selected branch is below
    ``BRANCH_PROBABILITY_FLOOR`` (the conditioned state does not exist).
    """
    total = circuit.n_qubits
    if backend == "statevector":
        state = StateVector.zeros(total).run_circuit(circuit)
    else:
        state = MatrixProductState(total).run_circuit(circuit)
    outcome = config.postselect
    if outcome is None:
        return state, None
    if state.single_rdm(total)[outcome, outcome].real < BRANCH_PROBABILITY_FLOOR:
        return None
    if backend == "statevector":
        return state.postselect(total, outcome)
    return state, state.postselect(total, outcome)


def _run_point(plan: RunPlan, theta: float, theta2: float | None) -> list[OutputRow]:
    config = plan.config
    prepared = _prepare_point(config, _build_circuit(config, theta, theta2), plan.backend)
    if prepared is None:
        return []
    state, probability = prepared
    if plan.backend == "mps" and state.discarded_weight_total >= DISCARDED_WEIGHT_LIMIT:
        raise RuntimeError(
            f"MPS sweep truncated (discarded weight {state.discarded_weight_total:.3e}); "
            "protocol circuits must be exact"
        )
    # ascending pair order keeps the MPS center walk short
    scores = wootters_concurrence(np.array([state.pair_rdm(*pair) for pair in plan.pairs]))
    # one closed-form value per family; each formula ignores the size it does not use
    angles = unitary_params(theta, theta2)
    closed = dict.fromkeys(plan.families)
    for family in closed:
        if family is not None:
            closed[family] = analytic_concurrence(
                family, angles, n_outer=plan.total - 1, chain_n=plan.total
            )
    rows = []
    for (i, j), family, numeric in zip(plan.pairs, plan.families, scores.tolist()):
        analytic = closed[family]
        rows.append(
            OutputRow(
                theta=theta,
                theta2=theta2,
                pair_left=i,
                pair_right=j,
                concurrence_numeric=numeric,
                concurrence_analytic=analytic,
                abs_error=None if analytic is None else abs(numeric - analytic),
                postselect_outcome=config.postselect,
                postselect_probability=probability,
            )
        )
    return rows


def run_sweep(config: SweepConfig) -> list[OutputRow]:
    """Evaluate pair concurrences over the configured angle grid.

    Returns one row per (grid point, pair), in order of (theta, theta2,
    pair_left, pair_right). Star post-selection grid points whose branch
    probability is below 1e-9 are skipped (the conditioned state does not
    exist there).
    """
    plan = _plan(config)
    return [row for theta, theta2 in plan.points for row in _run_point(plan, theta, theta2)]


def run_compare(config: SweepConfig, threshold: float = COMPARE_THRESHOLD) -> CompareReport:
    """Compare swept concurrences against their closed forms, per family."""
    plan = _plan(config)
    missing = [pair for pair, family in zip(plan.pairs, plan.families) if family is None]
    if missing:
        raise ValueError(
            f"no closed form covers pair(s) {missing}; restrict --pairs to covered "
            "classes (bulk/edge pairs for linear case 4, bulk pairs for periodic, "
            "star-all for the star)"
        )
    family_of = dict(zip(plan.pairs, plan.families))
    rows = run_sweep(plan.config)
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
                passed=worst.abs_error <= threshold,
            )
        )
    return CompareReport(
        families=tuple(comparisons),
        threshold=threshold,
        passed=all(c.passed for c in comparisons),
        rows=tuple(rows),
    )


def run_oracle_check(config: SweepConfig) -> OracleReport:
    """Run statevector and MPS backends on identical circuits and compare.

    Reports the worst elementwise pair-RDM deviation, concurrence deviation,
    post-selection probability deviation, and accumulated MPS discarded
    weight over the grid points whose branch the statevector finds alive.
    """
    plan = _plan(config)
    config = plan.config
    if plan.total > MAX_QUBITS:
        raise ValueError(f"oracle check needs <= {MAX_QUBITS} qubits, protocol uses {plan.total}")
    max_rdm = 0.0
    max_conc = 0.0
    max_prob = 0.0
    max_weight = 0.0
    n_checked = 0
    for theta, theta2 in plan.points:
        circuit = _build_circuit(config, theta, theta2)
        # the exact backend decides which branches exist
        exact = _prepare_point(config, circuit, "statevector")
        if exact is None:
            continue
        sv, p_sv = exact
        prepared = _prepare_point(config, circuit, "mps")
        if prepared is None:
            # the MPS branch is below the floor: it deviates by at least this
            max_prob = max(max_prob, p_sv - BRANCH_PROBABILITY_FLOOR)
            continue
        mps, p_mps = prepared
        max_weight = max(max_weight, mps.discarded_weight_total)
        if p_sv is not None:
            max_prob = max(max_prob, abs(p_sv - p_mps))
        n_checked += 1
        rdms = np.array([[state.pair_rdm(*pair) for pair in plan.pairs] for state in (sv, mps)])
        max_rdm = max(max_rdm, float(np.max(np.abs(rdms[0] - rdms[1]))))
        scores = wootters_concurrence(rdms)
        max_conc = max(max_conc, float(np.max(np.abs(scores[0] - scores[1]))))
    passed = (
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
        rdm_threshold=RDM_THRESHOLD,
        concurrence_threshold=CONCURRENCE_THRESHOLD,
        passed=passed,
    )


# ----------------------------------------------------------------------- IO


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def rows_to_csv_text(rows: list[OutputRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(",".join(map(_fmt, _row_values(row))) + "\n")
    return out.getvalue()


def rows_to_json_text(rows: list[OutputRow]) -> str:
    payload = [dict(zip(COLUMNS, _row_values(row))) for row in rows]
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
    lines = [f"comparison against closed forms (threshold {report.threshold:.1e})"]
    for c in report.families:
        where = f"theta={c.theta_at_max:.6g}"
        if c.theta2_at_max is not None:
            where += f", theta2={c.theta2_at_max:.6g}"
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  {status}  {c.family}: max |err| = {c.max_abs_error:.3e} at {where} "
            f"({c.n_rows} rows)"
        )
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def render_oracle(report: OracleReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    return "\n".join(
        [
            f"backend cross-check over {report.n_points} grid points",
            f"  max pair-RDM deviation:     {report.max_rdm_deviation:.3e} "
            f"(threshold {report.rdm_threshold:.1e})",
            f"  max concurrence deviation:  {report.max_concurrence_deviation:.3e} "
            f"(threshold {report.concurrence_threshold:.1e})",
            f"  max probability deviation:  {report.max_probability_deviation:.3e}",
            f"  max MPS discarded weight:   {report.max_discarded_weight:.3e} "
            f"(limit {DISCARDED_WEIGHT_LIMIT:.0e})",
            f"result: {status}",
        ]
    )
