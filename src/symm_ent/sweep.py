"""Angle sweeps, formula comparisons, and backend cross-checks.

``run_sweep`` evaluates pair concurrences over an angle grid and returns one
row per (grid point, pair), with the matching closed-form value attached
wherever one exists. ``run_compare`` turns that into a per-family error
report against a fixed threshold, and ``run_oracle_check`` runs the exact
statevector backend and the MPS backend on identical circuits and reports
their worst disagreement.

Output is deterministic: identical configurations produce byte-identical
CSV/JSON. Reals are printed with 17 significant digits so parsing a file
recovers every float exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

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

CSV_HEADER = (
    "theta,theta2,pair_left,pair_right,concurrence_numeric,"
    "concurrence_analytic,abs_error,postselect_outcome,postselect_probability"
)


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


# --------------------------------------------------------------- validation


def _total_qubits(config: SweepConfig) -> int:
    if config.protocol == "star":
        return config.n_outer + 1
    return config.n


def _validated(config: SweepConfig) -> tuple[SweepConfig, list[tuple[int, int]]]:
    """Check ``config``, fill in the default pair keyword, and resolve the
    pairs; returns the completed config and its pairs."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {config.protocol!r}")
    if config.backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {config.backend!r}")
    if config.protocol == "star":
        if config.n_outer is None or config.n_outer < 1:
            raise ValueError("star protocol needs n_outer >= 1")
        if config.postselect not in (None, 0, 1):
            raise ValueError("postselect must be 0 or 1")
    else:
        if config.postselect is not None:
            raise ValueError("postselect is only meaningful for the star protocol")
        if config.n is None:
            raise ValueError(f"{config.protocol} protocol needs n")
    if config.protocol == "linear":
        if config.case not in (1, 2, 3, 4):
            raise ValueError(f"case must be 1..4, got {config.case}")
        if config.n < 3:
            raise ValueError("linear protocol needs n >= 3")
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
    return config, _resolve_pairs(config)


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
    pairs = []
    for pair in selection:
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise ValueError(f"pair sites must differ, got ({i}, {j})")
        if not (1 <= i <= total and 1 <= j <= total):
            raise ValueError(f"pair ({i}, {j}) outside 1..{total}")
        pairs.append((min(i, j), max(i, j)))
    return pairs


def _choose_backend(config: SweepConfig) -> str:
    if config.backend != "auto":
        return config.backend
    return "statevector" if _total_qubits(config) <= MAX_QUBITS else "mps"


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


def _analytic_value(
    config: SweepConfig, pair: tuple[int, int], theta: float, theta2: float | None
) -> float | None:
    family = _family_for_pair(config, pair)
    if family is None:
        return None
    if family == "star_central":
        return analytic_concurrence(family, unitary_params(theta), config.n_outer)
    if family == "end_pair_case13":
        return analytic_concurrence(family, unitary_params(theta), chain_n=config.n)
    if family in ("periodic_even", "periodic_odd"):
        return analytic_concurrence(family, unitary_params(theta, theta2))
    return analytic_concurrence(family, unitary_params(theta))


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


def _run_point(
    config: SweepConfig,
    theta: float,
    theta2: float | None,
    pairs: list[tuple[int, int]],
    backend: str,
) -> list[OutputRow]:
    prepared = _prepare_point(config, _build_circuit(config, theta, theta2), backend)
    if prepared is None:
        return []
    state, probability = prepared
    if backend == "mps" and state.discarded_weight_total >= DISCARDED_WEIGHT_LIMIT:
        raise RuntimeError(
            f"MPS sweep truncated (discarded weight {state.discarded_weight_total:.3e}); "
            "protocol circuits must be exact"
        )
    # ascending pair order keeps the MPS center walk short
    ordered = sorted(pairs)
    scores = wootters_concurrence(np.array([state.pair_rdm(*pair) for pair in ordered]))
    numerics = dict(zip(ordered, scores.tolist()))
    rows = []
    for pair in pairs:
        numeric = numerics[pair]
        analytic = _analytic_value(config, pair, theta, theta2)
        rows.append(
            OutputRow(
                theta=float(theta),
                theta2=None if theta2 is None else float(theta2),
                pair_left=pair[0],
                pair_right=pair[1],
                concurrence_numeric=numeric,
                concurrence_analytic=analytic,
                abs_error=None if analytic is None else abs(numeric - analytic),
                postselect_outcome=config.postselect,
                postselect_probability=probability,
            )
        )
    return rows


def _grid_points(config: SweepConfig) -> list[tuple[float, float | None]]:
    thetas = config.theta.values()
    if config.protocol != "periodic":
        return [(float(t), None) for t in thetas]
    if config.theta2 is not None:
        return [(float(t1), float(t2)) for t1 in thetas for t2 in config.theta2.values()]
    return [(float(t1), float(t1 + config.theta2_offset)) for t1 in thetas]


def run_sweep(config: SweepConfig) -> list[OutputRow]:
    """Evaluate pair concurrences over the configured angle grid.

    Returns one row per (grid point, pair), sorted by (theta, theta2,
    pair_left, pair_right). Star post-selection grid points whose branch
    probability is below 1e-9 are skipped (the conditioned state does not
    exist there).
    """
    config, pairs = _validated(config)
    backend = _choose_backend(config)
    rows = [
        row
        for t1, t2 in _grid_points(config)
        for row in _run_point(config, t1, t2, pairs, backend)
    ]
    rows.sort(
        key=lambda r: (r.theta, -math.inf if r.theta2 is None else r.theta2, r.pair_left, r.pair_right)
    )
    return rows


def run_compare(config: SweepConfig, threshold: float = COMPARE_THRESHOLD) -> CompareReport:
    """Compare swept concurrences against their closed forms, per family."""
    config, pairs = _validated(config)
    missing = sorted({pair for pair in pairs if _family_for_pair(config, pair) is None})
    if missing:
        raise ValueError(
            f"no closed form covers pair(s) {missing}; restrict --pairs to covered "
            "classes (bulk/edge pairs for linear case 4, bulk pairs for periodic, "
            "star-all for the star)"
        )
    rows = run_sweep(config)
    by_family: dict[str, list[OutputRow]] = {}
    for row in rows:
        family = _family_for_pair(config, (row.pair_left, row.pair_right))
        by_family.setdefault(family, []).append(row)
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
    config, pairs = _validated(config)
    total = _total_qubits(config)
    if total > MAX_QUBITS:
        raise ValueError(f"oracle check needs <= {MAX_QUBITS} qubits, protocol uses {total}")
    max_rdm = 0.0
    max_conc = 0.0
    max_prob = 0.0
    max_weight = 0.0
    points = _grid_points(config)
    n_checked = 0
    for theta, theta2 in points:
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
        rdms = np.array([[state.pair_rdm(*pair) for pair in pairs] for state in (sv, mps)])
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
    for r in rows:
        out.write(
            ",".join(
                (
                    _fmt(r.theta),
                    _fmt(r.theta2),
                    _fmt(r.pair_left),
                    _fmt(r.pair_right),
                    _fmt(r.concurrence_numeric),
                    _fmt(r.concurrence_analytic),
                    _fmt(r.abs_error),
                    _fmt(r.postselect_outcome),
                    _fmt(r.postselect_probability),
                )
            )
            + "\n"
        )
    return out.getvalue()


def rows_to_json_text(rows: list[OutputRow]) -> str:
    payload = [
        {
            "theta": r.theta,
            "theta2": r.theta2,
            "pair_left": r.pair_left,
            "pair_right": r.pair_right,
            "concurrence_numeric": r.concurrence_numeric,
            "concurrence_analytic": r.concurrence_analytic,
            "abs_error": r.abs_error,
            "postselect_outcome": r.postselect_outcome,
            "postselect_probability": r.postselect_probability,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def write_rows(rows: list[OutputRow], path: str | Path, fmt: str = "csv") -> None:
    text = rows_to_csv_text(rows) if fmt == "csv" else rows_to_json_text(rows)
    Path(path).write_text(text, encoding="utf-8")


def read_rows_csv(path: str | Path) -> list[OutputRow]:
    """Parse a CSV file produced by ``rows_to_csv_text`` back into rows."""
    return rows_from_csv_text(Path(path).read_text(encoding="utf-8"))


def rows_from_csv_text(text: str) -> list[OutputRow]:
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(
            OutputRow(
                theta=float(parts[0]),
                theta2=float(parts[1]) if parts[1] else None,
                pair_left=int(parts[2]),
                pair_right=int(parts[3]),
                concurrence_numeric=float(parts[4]),
                concurrence_analytic=float(parts[5]) if parts[5] else None,
                abs_error=float(parts[6]) if parts[6] else None,
                postselect_outcome=int(parts[7]) if parts[7] else None,
                postselect_probability=float(parts[8]) if parts[8] else None,
            )
        )
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
