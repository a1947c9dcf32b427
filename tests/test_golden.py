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
        "1313a472863f3b079488c3852f862e231bcf235f964b4c3d8eb44d8cf46a5f3f",
        id="linear-case1",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "2", "--n", "7", "--theta", GRID,
         "--backend", "mps"),
        "1cf2cce0bab0bc7d33e8a466eba67721dad7496fbc94c0a443e235bb18ffe52e",
        id="linear-case2-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "3", "--n", "6", "--theta", GRID),
        "3fc8cbaf0774ff3659c601febeba6888b9bd15f908b38e1af3b0854d0529af00",
        id="linear-case3",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--theta", GRID,
         "--backend", "mps"),
        "1dbb4088cfc2cbd2a836cc533ebebd6388715ecd1a83c006dbb21b0b3bc08560",
        id="linear-case4-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "periodic", "--n", "8", "--theta", GRID,
         "--theta2-offset", "0.4", "--backend", "mps"),
        "03ec9ae157a9082114fc8cc59b0cbb2bbad382670053e05936c22af7318880a0",
        id="periodic-offset-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID),
        "8b5733ad350f0fda50557d33d6fea125d22e5a8cee6a83113dfd4c5f8808cf09",
        id="star",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID, "--postselect", "1"),
        "914527e85769306f43d42fea07440676ea33e5dadba1fdd84dcfcd69e3ee9dbc",
        id="star-postselect1",
    ),
    pytest.param(
        ("compare", "--protocol", "linear", "--n", "8", "--theta", GRID),
        "4285945f2159cc0a7a82c6f987f3c568e195b25cee783a15445c2ef0f239bc90",
        id="compare-linear",
    ),
    pytest.param(
        ("oracle-check", "--protocol", "star", "--n-outer", "3", "--theta", GRID,
         "--postselect", "0"),
        "bd6c73c639e37f66e8037e393977816409380e5c3997cad4a748e07affc9f5a9",
        id="oracle-check-star-postselect0",
    ),
    pytest.param(
        # 12 qubits: the statevector runs the 21 points in stacked blocks of 8
        ("oracle-check", "--protocol", "star", "--n-outer", "11", "--postselect", "0",
         "--theta", "0:6.283185307179586:21"),
        "93d1ddae33a4ce81ea043dd55bad5f8b2a7e091108226f061418ccc9af7024b3",
        id="oracle-check-star12-postselect0",
    ),
    pytest.param(
        # the MPS distant-pair read: rows of outer pairs sharing a left site
        ("sweep", "--protocol", "star", "--n-outer", "6", "--postselect", "1",
         "--backend", "mps", "--theta", GRID),
        "533b02d999b2710efed4d5a9d7d8f27fe8f349d8855bbd316cfecb0c0ab19858",
        id="star-postselect1-mps",
    ),
    pytest.param(
        # unsorted explicit pairs, a shared left site, a row through the central qubit
        ("sweep", "--protocol", "star", "--n-outer", "5", "--backend", "mps",
         "--pairs", "1:4,1:2,2:5,1:6", "--theta", GRID),
        "ed45a08475fc59b09372203bc9092a0c0e005fa6a223f9928d7ad097d079f1a1",
        id="star-explicit-pairs-mps",
    ),
    pytest.param(
        # the swap route: the central qubit walks down the chain and back home
        ("sweep", "--protocol", "star", "--n-outer", "6", "--backend", "mps", "--theta", GRID),
        "08b8242d3b3ef12b0993a9c79b2c9ed0c1a31d806018fb16e44eb6432c8d3792",
        id="star-central-mps",
    ),
    pytest.param(
        # the run reads one central pair, so the MPS runs only its causal cone
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "12", "--pairs", "bulk-center",
         "--backend", "mps", "--theta", GRID),
        "c5050ce4adb0a8aa16d5668a9a3f387e5ed5a4cfaae31784a7c144c9b85b828d",
        id="linear-bulk-center-cone-mps",
    ),
    pytest.param(
        # both backends run the causal cone of the pair they read
        ("oracle-check", "--protocol", "linear", "--n", "10", "--pairs", "5:6", "--theta", GRID),
        "9f0d079ed6ff7c4620476fcb8341fcf34d8627891cb1d8942479ce986df15b71",
        id="oracle-check-linear-cone",
    ),
    pytest.param(
        # 65 points: every split is a real two-row stack, factored in closed
        # form; the grid ends give exact zero rows
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--theta",
         "0:6.283185307179586:65", "--backend", "mps"),
        "b0e65615f7a557b81cd4ca9d15b5e4e43df9960e56da1aeae24a2eb9c830f226",
        id="linear-case4-mps-closed-form-split",
    ),
    pytest.param(
        # the swap route over 65 points: its 4x4 blocks go to LAPACK, its
        # two-row blocks to the closed form
        ("sweep", "--protocol", "star", "--n-outer", "4", "--postselect", "0",
         "--backend", "mps", "--theta", "0:6.283185307179586:65"),
        "83203efaf2064b76f179104a9b79e0a1369916075b7706c5496438f8950a9ae8",
        id="star-postselect0-mps-mixed-split",
    ),
    pytest.param(
        # the JSON writer: every column by name, None as null
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--backend", "mps",
         "--theta", GRID, "--format", "json"),
        "7d59b2b2583cb0f177983b70fd95a0ca6ac71d7c2ddc64ce29c6779638057a45",
        id="linear-case4-mps-json",
    ),
    pytest.param(
        # JSON of ints, None and branch probabilities
        ("sweep", "--protocol", "star", "--n-outer", "4", "--postselect", "1", "--theta", GRID,
         "--format", "json"),
        "20a80747cde8a68f0765910e7531ade6139c2c1a7c9a977c7e585b0d37753f2b",
        id="star-postselect1-json",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_cli_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(symm_ent.cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
