"""Workload definitions: CLI argv from a seed, and independent output checks.

Every workload is one documented ``symm-ent`` CLI call over a full-period
angle grid ``s:s+2pi:N``. Seed 0 gives the canonical grid (s = 0); any other
seed shifts it by a seed-derived fraction of one grid step, so the grid
stays the same size but the angles differ. The checks here parse the output
with the standard library only and re-derive the closed forms, so a
change inside the package cannot make a wrong table pass.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
COMPARE_THRESHOLD = 1e-8
# star post-selection points whose branch probability is below this are
# skipped by the program (documented in the README)
BRANCH_PROBABILITY_FLOOR = 1e-9

CSV_COLUMNS = [
    "theta", "theta2", "pair_left", "pair_right", "concurrence_numeric",
    "concurrence_analytic", "abs_error", "postselect_outcome", "postselect_probability",
]

CHAIN_N = 60
STAR_N_OUTER = 11


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int

    def grid(self, seed: int, steps: int | None = None) -> tuple[float, float, int]:
        """(start, stop, steps) of the angle grid for this seed."""
        steps = steps or self.steps
        if seed == 0:
            return 0.0, TWO_PI, steps
        # a fraction of one step, kept away from 0 and 1 so a shifted grid
        # never lands within roundoff of the canonical one
        shift = random.Random(seed).uniform(0.05, 0.95) * TWO_PI / (steps - 1)
        return shift, shift + TWO_PI, steps

    def argv(self, seed: int, steps: int | None = None) -> list[str]:
        start, stop, n = self.grid(seed, steps)
        theta = f"{start!r}:{stop!r}:{n}"
        if self.name == "chain-sweep":
            return ["sweep", "--protocol", "linear", "--case", "4", "--n", str(CHAIN_N),
                    "--pairs", "all-adjacent", "--backend", "mps", "--theta", theta]
        if self.name == "chain-center":
            return ["sweep", "--protocol", "linear", "--case", "4", "--n", str(CHAIN_N),
                    "--pairs", "bulk-center", "--backend", "mps", "--theta", theta]
        return ["oracle-check", "--protocol", "star", "--n-outer", str(STAR_N_OUTER),
                "--pairs", "star-all", "--postselect", "0", "--theta", theta]

    def check(self, stdout: str, seed: int, steps: int | None = None) -> int:
        """Validate one operation's stdout; return the number of output rows."""
        thetas = grid_values(*self.grid(seed, steps))
        if self.name == "chain-sweep":
            pairs = [(i, i + 1) for i in range(1, CHAIN_N)]
            return check_chain_csv(stdout, thetas, pairs)
        if self.name == "chain-center":
            return check_chain_csv(stdout, thetas, [(CHAIN_N // 2, CHAIN_N // 2 + 1)])
        return check_star_oracle(stdout, thetas)


# why each workload is here: the "why" fields of BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-sweep", 201),
        Workload("chain-center", 201),
        Workload("star-oracle", 101),
    )
}


def grid_values(start: float, stop: float, steps: int) -> list[float]:
    """The inclusive grid the CLI documents for 'start:stop:steps'."""
    values = [start + (stop - start) * (k / (steps - 1)) for k in range(steps)]
    values[-1] = stop
    return values


def linear_case4_concurrence(theta: float, edge: bool) -> float:
    """Closed-form case-4 chain concurrence: edge pair or bulk pair."""
    if edge:
        return abs(math.sin(theta) * math.cos(theta))
    base = 0.125 * (-2.0 + 2.0 * math.cos(2.0 * theta))
    swing = 0.125 * (5.0 * math.sin(theta) + math.sin(3.0 * theta))
    return max(0.0, base + swing, base - swing)


def star_branch0_probability(theta: float) -> float:
    """P(central qubit = 0) for the star with STAR_N_OUTER outer qubits.

    The central qubit holds the parity of the outer qubits, each of which is
    1 with probability cos^2(theta/2), so P(even) = (1 + (-cos theta)^n) / 2.
    """
    return 0.5 * (1.0 + (-math.cos(theta)) ** STAR_N_OUTER)


def star_checked_points(thetas: list[float]) -> int:
    return sum(1 for t in thetas if star_branch0_probability(t) >= BRANCH_PROBABILITY_FLOOR)


def _float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: not finite: {text!r}")
    return value


def check_chain_csv(text: str, thetas: list[float], pairs: list[tuple[int, int]]) -> int:
    # rows are streamed, not collected, so the check adds little to peak RSS
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise CheckFailed(f"bad CSV header: {header!r}")
    expected = len(thetas) * len(pairs)
    count = 0
    for k, row in enumerate(reader):
        count += 1
        where = f"row {k + 1}"
        if k >= expected:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise CheckFailed(f"{where}: {len(row)} fields")
        theta = thetas[k // len(pairs)]
        pair = pairs[k % len(pairs)]
        if abs(_float(row[0], where) - theta) > 1e-12:
            raise CheckFailed(f"{where}: theta {row[0]} is not grid value {theta!r}")
        if (int(row[2]), int(row[3])) != pair:
            raise CheckFailed(f"{where}: pair {row[2]}:{row[3]}, expected {pair}")
        if row[1] or row[7] or row[8]:
            raise CheckFailed(f"{where}: theta2/postselect fields must be empty")
        # every case-4 adjacent pair has a closed form
        numeric = _float(row[4], where)
        analytic = _float(row[5], where)
        abs_error = _float(row[6], where)
        if not 0.0 <= numeric <= 1.0:
            raise CheckFailed(f"{where}: concurrence {numeric} outside [0, 1]")
        if abs_error > COMPARE_THRESHOLD:
            raise CheckFailed(f"{where}: abs_error {abs_error:.3e} > {COMPARE_THRESHOLD:.0e}")
        if abs(abs_error - abs(numeric - analytic)) > 1e-15:
            raise CheckFailed(f"{where}: abs_error does not match |numeric - analytic|")
        edge = pair[0] == 1 or pair[1] == CHAIN_N
        mine = linear_case4_concurrence(theta, edge)
        if abs(analytic - mine) > 1e-12:
            raise CheckFailed(f"{where}: closed form {analytic!r}, recomputed {mine!r}")
    if count != expected:
        raise CheckFailed(f"expected {expected} rows, got {count}")
    return count


def check_star_oracle(text: str, thetas: list[float]) -> int:
    lines = text.rstrip("\n").split("\n")
    if lines[-1] != "result: PASS":
        raise CheckFailed(f"oracle report does not end in 'result: PASS': {lines[-1]!r}")
    words = lines[0].split()
    if not lines[0].startswith("backend cross-check over ") or not words[3].isdigit():
        raise CheckFailed(f"unrecognized oracle report header: {lines[0]!r}")
    checked = int(words[3])
    expected = star_checked_points(thetas)
    if checked != expected:
        raise CheckFailed(f"oracle checked {checked} grid points, expected {expected}")
    # one row per checked point and outer pair k < l
    return checked * (STAR_N_OUTER * (STAR_N_OUTER - 1) // 2)
