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
        ("sweep", "--protocol", "linear", "--case", "1", "--n", "6", "--theta", GRID,
         "--backend", "statevector"),
        "1313a472863f3b079488c3852f862e231bcf235f964b4c3d8eb44d8cf46a5f3f",
        id="linear-case1",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "2", "--n", "7", "--theta", GRID,
         "--backend", "mps"),
        "4d3333bb6ef03dca747ff6f241ca093da43dc7bd2bec5e5be7f2759c7639e430",
        id="linear-case2-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "3", "--n", "6", "--theta", GRID,
         "--backend", "statevector"),
        "3fc8cbaf0774ff3659c601febeba6888b9bd15f908b38e1af3b0854d0529af00",
        id="linear-case3",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--theta", GRID,
         "--backend", "mps"),
        "4c595e1261a786ee64a85a28f3a7b587a09fe9783238f8428c4b72546c910a08",
        id="linear-case4-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "periodic", "--n", "8", "--theta", GRID,
         "--theta2-offset", "0.4", "--backend", "mps"),
        "1511158d201a625b93345e207b1160185e8ba96d8771149c5ab776c95b2b1260",
        id="periodic-offset-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID,
         "--backend", "statevector"),
        "8b5733ad350f0fda50557d33d6fea125d22e5a8cee6a83113dfd4c5f8808cf09",
        id="star",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID, "--postselect", "1",
         "--backend", "statevector"),
        "914527e85769306f43d42fea07440676ea33e5dadba1fdd84dcfcd69e3ee9dbc",
        id="star-postselect1",
    ),
    pytest.param(
        ("compare", "--protocol", "linear", "--n", "8", "--theta", GRID,
         "--backend", "statevector"),
        "4285945f2159cc0a7a82c6f987f3c568e195b25cee783a15445c2ef0f239bc90",
        id="compare-linear",
    ),
    pytest.param(
        ("oracle-check", "--protocol", "star", "--n-outer", "3", "--theta", GRID,
         "--postselect", "0"),
        "aad0fe02c6e6a1c04d53e897f57d880891052fb3d46f41d6b1ef02d1b8d2cc9c",
        id="oracle-check-star-postselect0",
    ),
    pytest.param(
        # 12 qubits: the statevector runs the 21 points in stacked blocks of 16 and 5
        ("oracle-check", "--protocol", "star", "--n-outer", "11", "--postselect", "0",
         "--theta", "0:6.283185307179586:21"),
        "05101f80f15eed099ebf162c9eafdd431b47302fc40349660dcaafc2a46c2f4f",
        id="oracle-check-star12-postselect0",
    ),
    pytest.param(
        # the MPS distant-pair read: rows of outer pairs sharing a left site
        ("sweep", "--protocol", "star", "--n-outer", "6", "--postselect", "1",
         "--backend", "mps", "--theta", GRID),
        "f983cb2ee38243cec93fd41bd2bc237c0a47d4a865eae484fa3b38f5e4b2fb19",
        id="star-postselect1-mps",
    ),
    pytest.param(
        # unsorted explicit pairs, a shared left site, a row through the central qubit
        ("sweep", "--protocol", "star", "--n-outer", "5", "--backend", "mps",
         "--pairs", "1:4,1:2,2:5,1:6", "--theta", GRID),
        "7240bd5737c46702c3421eaeb6f6a21e42293e02b1f7572bc67196245f19344e",
        id="star-explicit-pairs-mps",
    ),
    pytest.param(
        # the swap route: the central qubit walks down the chain and back home
        ("sweep", "--protocol", "star", "--n-outer", "6", "--backend", "mps", "--theta", GRID),
        "e263ebf12f63c3102bf4def0e9432b37b3f2ca9051daaeed3898a8079909cd71",
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
        "625a0e5a6ab511d4107bd87d5b0c75bbe4b14171f05625b7af81b70b63725e80",
        id="linear-case4-mps-closed-form-split",
    ),
    pytest.param(
        # the swap route over 65 points: its 4x4 blocks go to LAPACK, its
        # two-row blocks to the closed form
        ("sweep", "--protocol", "star", "--n-outer", "4", "--postselect", "0",
         "--backend", "mps", "--theta", "0:6.283185307179586:65"),
        "2ea77756be37bbac7080c1d9544643ed9d0fa6000efeb68a25fc4079252ee5bc",
        id="star-postselect0-mps-mixed-split",
    ),
    pytest.param(
        # the JSON writer: every column by name, None as null
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--backend", "mps",
         "--theta", GRID, "--format", "json"),
        "a05a389d64b511195730eada6ceb5be70191e1a16df176b662e4d6b14ac12df5",
        id="linear-case4-mps-json",
    ),
    pytest.param(
        # JSON of ints, None and branch probabilities
        ("sweep", "--protocol", "star", "--n-outer", "4", "--postselect", "1", "--theta", GRID,
         "--format", "json", "--backend", "statevector"),
        "20a80747cde8a68f0765910e7531ade6139c2c1a7c9a977c7e585b0d37753f2b",
        id="star-postselect1-json",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_cli_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(symm_ent.cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
