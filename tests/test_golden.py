"""Pinned stdout of small CLI invocations.

Each entry maps one ``symm-ent`` call to the sha256 of its stdout. A change
that moves any byte of these tables fails here. A deliberate move (for
instance roundoff from a different contraction order) updates the hash and
is logged in CHANGES.md together with its cause.
"""

import hashlib

import pytest
from click.testing import CliRunner

import symm_ent.cli

GRID = "0:6.283185307179586:9"

GOLDEN = [
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "1", "--n", "6", "--theta", GRID),
        "85b22df21a6de3046655f99102a1e98c7994c2c6c12cb5fbb2efbd2acce50443",
        id="linear-case1",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "2", "--n", "7", "--theta", GRID,
         "--backend", "mps"),
        "6ae46841cb7607ff7bf69fb8187a6e5eaa41f55573e9503220a14428689de2e4",
        id="linear-case2-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "3", "--n", "6", "--theta", GRID),
        "c17a18f1b2a3f56aa91e9b3d274f9195c4123d20bef0768bb33ecc8b95d8a08e",
        id="linear-case3",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--theta", GRID,
         "--backend", "mps"),
        "bab34c8428bff44cdfb0bfeeed877973aad52af727312dda7f0d6d8fd5df478f",
        id="linear-case4-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "periodic", "--n", "8", "--theta", GRID,
         "--theta2-offset", "0.4", "--backend", "mps"),
        "17f5329da9703bbc660cfbf918eb745e605664f102a34a95976561f7f7451f76",
        id="periodic-offset-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID),
        "fc267c937467b9993c9a9c5e668612899cef574f19db84f653d04284cf2139cd",
        id="star",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID, "--postselect", "1"),
        "6fc776343b01d88dcc3aba52bd42826a0a6c26dcd94a60f96df0bac4ef105fdc",
        id="star-postselect1",
    ),
    pytest.param(
        ("compare", "--protocol", "linear", "--n", "8", "--theta", GRID),
        "2d6428f6e33f9e8aec4e1cd930c4123cdd0e9f2a6ea99b3fb676e23664927e5a",
        id="compare-linear",
    ),
    pytest.param(
        ("oracle-check", "--protocol", "star", "--n-outer", "3", "--theta", GRID,
         "--postselect", "0"),
        "19e046ab37d713d71f7aa1376bfcce490056a70d39d3bb37d21d6fa1216f4300",
        id="oracle-check-star-postselect0",
    ),
    pytest.param(
        # 12 qubits: the statevector runs the 21 points in stacked blocks of 8
        ("oracle-check", "--protocol", "star", "--n-outer", "11", "--postselect", "0",
         "--theta", "0:6.283185307179586:21"),
        "aa4abbb757967f34fbe6a43df7793c14ef5950f399f42759fbc6f10cd1ea4efd",
        id="oracle-check-star12-postselect0",
    ),
    pytest.param(
        # the MPS distant-pair read: rows of outer pairs sharing a left site
        ("sweep", "--protocol", "star", "--n-outer", "6", "--postselect", "1",
         "--backend", "mps", "--theta", GRID),
        "66aeecd4cc2ffaf8b5a7dacfac6f46d6c5ede1a5f31cfe06b1b40a278b892561",
        id="star-postselect1-mps",
    ),
    pytest.param(
        # unsorted explicit pairs, a shared left site, a row through the central qubit
        ("sweep", "--protocol", "star", "--n-outer", "5", "--backend", "mps",
         "--pairs", "1:4,1:2,2:5,1:6", "--theta", GRID),
        "c127ac1774251d0ed1302f628b13bcb5101de4311d3bc786e2fd31c2f93a85a5",
        id="star-explicit-pairs-mps",
    ),
    pytest.param(
        # the swap route: the central qubit walks down the chain and back home
        ("sweep", "--protocol", "star", "--n-outer", "6", "--backend", "mps", "--theta", GRID),
        "b593a4893a9a00d98a69d9e39914a4273f14825aa2518fd7db901624ccec34d4",
        id="star-central-mps",
    ),
    pytest.param(
        # the run reads one central pair, so the MPS runs only its causal cone
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "12", "--pairs", "bulk-center",
         "--backend", "mps", "--theta", GRID),
        "e39edf4ff8e1208a723bd27c3a021ee83983b7de5dd660b13464cff191bd1431",
        id="linear-bulk-center-cone-mps",
    ),
    pytest.param(
        # both backends run the causal cone of the pair they read
        ("oracle-check", "--protocol", "linear", "--n", "10", "--pairs", "5:6", "--theta", GRID),
        "53c5c0dcad58849b3b7e8f23cd10bdbcd317ef573c1e0ecff9d28f360c58db19",
        id="oracle-check-linear-cone",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_cli_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(symm_ent.cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
