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
        "fd29752d92ad32e1a60bbd665099b7653b15e8e930255e01a635ee24bc3a88c5",
        id="linear-case1",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "2", "--n", "7", "--theta", GRID,
         "--backend", "mps"),
        "9efcb7ef4ed369d4c34e7901d9a08ae2e84834c3bf6b764f64f800018106307b",
        id="linear-case2-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "3", "--n", "6", "--theta", GRID),
        "fbe4a33e7ef1062cf97903e6996b621db7eb35f771a1ae8b1109556ad4735bd3",
        id="linear-case3",
    ),
    pytest.param(
        ("sweep", "--protocol", "linear", "--case", "4", "--n", "8", "--theta", GRID,
         "--backend", "mps"),
        "e741cbc64bc528562b44e048014f61bbefbf104ead2457362836ec9f17158984",
        id="linear-case4-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "periodic", "--n", "8", "--theta", GRID,
         "--theta2-offset", "0.4", "--backend", "mps"),
        "82e8cd75022af79edae899318ce4f9283e48c62b221affddf705afe09acc7eae",
        id="periodic-offset-mps",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID),
        "88e57665cb168a8302528c87d0a79732d62d30e07ded7abd4757c530492d2eb7",
        id="star",
    ),
    pytest.param(
        ("sweep", "--protocol", "star", "--n-outer", "4", "--theta", GRID, "--postselect", "1"),
        "04de7885b403d77043a858f3b54aedbed9d23c933b4bce660c4abf57bd8be764",
        id="star-postselect1",
    ),
    pytest.param(
        ("compare", "--protocol", "linear", "--n", "8", "--theta", GRID),
        "1680f12e3ab52a54a708f3440560ccff9a8d4c9470ec666a4ed53fadb05acc05",
        id="compare-linear",
    ),
    pytest.param(
        ("oracle-check", "--protocol", "star", "--n-outer", "3", "--theta", GRID,
         "--postselect", "0"),
        "4ff04459b7d4536543ae58d31644e9d373ed2a52047d9306670fdb983635033b",
        id="oracle-check-star-postselect0",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_cli_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(symm_ent.cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
