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
        "e93d3d8b06d20930378e9e5beeb07a468fade6f5eac8d6fcfe2f2200c28da515",
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
        "de600961781835582f1ac1e4a28da7876b642dc177f12a3b602fdaf27d455ee2",
        id="linear-case4-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "periodic", "--n", "8", "--theta", GRID,
         "--theta2-offset", "0.4", "--backend", "mps"),
        "5b6e1e6586c1a6fe226f3af7f4d48d50aa30335da4f33e590f20e6658041c35b",
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
        "f6d94cf85cdd327e7b63210ac1cb2c9dffabf1afa876b03825ff45c0d4a593d2",
        id="oracle-check-star-postselect0",
    ),
    pytest.param(
        # 12 qubits: the statevector runs the 21 points in stacked blocks of 8
        ("oracle-check", "--protocol", "star", "--n-outer", "11", "--postselect", "0",
         "--theta", "0:6.283185307179586:21"),
        "90e831b127815f3d0250859386f0f790f800a7e2b99e982fa114a93c600d6353",
        id="oracle-check-star12-postselect0",
    ),
    pytest.param(
        # the MPS distant-pair read: rows of outer pairs sharing a left site
        ("sweep", "--protocol", "star", "--n-outer", "6", "--postselect", "1",
         "--backend", "mps", "--theta", GRID),
        "9779aec1273a7ca393f6437bba2d240b3b0e4edf27b7e6c41c44b0905ae9f829",
        id="star-postselect1-mps",
    ),
    pytest.param(
        # unsorted explicit pairs, a shared left site, a row through the central qubit
        ("sweep", "--protocol", "star", "--n-outer", "5", "--backend", "mps",
         "--pairs", "1:4,1:2,2:5,1:6", "--theta", GRID),
        "525ce098f18889d1d4e8e57da65eb485f7e4134a55c87c6739bd914a4a57c8fd",
        id="star-explicit-pairs-mps",
    ),
    pytest.param(
        # the run reads one central pair, so the MPS runs only its causal cone
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "12", "--pairs", "bulk-center",
         "--backend", "mps", "--theta", GRID),
        "2428ac9b31ed7ca8a175ebfd4df241ce5c850520bbcf210fde76211631821d4b",
        id="linear-bulk-center-cone-mps",
    ),
    pytest.param(
        # both backends run the causal cone of the pair they read
        ("oracle-check", "--protocol", "linear", "--n", "10", "--pairs", "5:6", "--theta", GRID),
        "8aaa9270f978f5e23361095c49d921abaa1b42d430b7d6f4f8e52216e270ce19",
        id="oracle-check-linear-cone",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_cli_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(symm_ent.cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
