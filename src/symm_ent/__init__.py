"""Generation and analysis of symmetric multiqubit entangled states.

Circuit builders for star, chain, and alternating-chain entangling
protocols; an exact statevector oracle (up to 12 qubits); a matrix-product-
state engine that runs every sweep by default; Wootters concurrence with an exact X-state
fast path; and the closed-form pair states and concurrences the protocols
produce, wired together behind a sweep/compare/cross-check layer and a CLI.
"""

import types as _types

from .concurrence import wootters_concurrence, xstate_concurrence
from .formulas import (
    FAMILIES,
    AngleParams,
    analytic_concurrence,
    analytic_pair_rdm,
    linear_theta_opt,
    unitary_params,
)
from .linalg import SVDResult, hermitian_eigs, svd_truncate
from .mps import MatrixProductState
from .protocols import (
    Circuit,
    ControlledNot,
    GateOp,
    Rotation,
    build_linear,
    build_periodic,
    build_star,
    cx_matrix,
    rotation_matrix,
)
from .statevector import MAX_QUBITS, StateVector
from .sweep import (
    CompareReport,
    GridSpec,
    OracleReport,
    OutputRow,
    SweepConfig,
    read_rows_csv,
    rows_from_csv_text,
    rows_to_csv_text,
    rows_to_json_text,
    run_compare,
    run_oracle_check,
    run_sweep,
    write_rows,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
