import json
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symm_ent.cli
import symm_ent.sweep
from symm_ent import (
    FAMILIES,
    GridSpec,
    MatrixProductState,
    OutputRow,
    SweepConfig,
    analytic_concurrence,
    read_rows_csv,
    rows_from_csv_text,
    rows_to_csv_text,
    rows_to_json_text,
    run_compare,
    run_oracle_check,
    run_sweep,
    unitary_params,
    write_rows,
)

TWO_PI = 2 * np.pi


def linear_config(**kw):
    base = dict(
        protocol="linear",
        theta=GridSpec(0.0, TWO_PI, 21),
        case=4,
        n=8,
        pairs="all-adjacent",
        backend="auto",
    )
    base.update(kw)
    return SweepConfig(**base)


def test_grid_spec_parsing():
    assert GridSpec.parse("0:6.2:11") == GridSpec(0.0, 6.2, 11)
    assert GridSpec.parse("1.57").values().tolist() == [1.57]
    with pytest.raises(ValueError):
        GridSpec.parse("1:2")
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0)


@pytest.mark.parametrize("text", ["0:inf:3", "inf", "nan:1:3", "-1e308:1e308:3"])
def test_grid_spec_rejects_non_finite(text):
    with pytest.raises(ValueError, match=f"bad grid '{text}': grid bounds must be finite"):
        GridSpec.parse(text)


def test_theta2_offset_must_be_finite():
    config = SweepConfig(
        protocol="periodic", theta=GridSpec.single(1.0), n=6, theta2_offset=float("inf")
    )
    with pytest.raises(ValueError, match="theta2_offset must be finite"):
        run_sweep(config)


def test_postselected_star_needs_two_outer_qubits():
    config = SweepConfig(
        protocol="star", theta=GridSpec.single(1.0), n_outer=1, pairs="star-all", postselect=0
    )
    with pytest.raises(ValueError, match="n_outer >= 2, got n_outer=1"):
        run_sweep(config)


def test_grid_endpoints_inclusive_and_exact():
    values = GridSpec(0.0, TWO_PI, 201).values()
    assert values[0] == 0.0 and values[-1] == TWO_PI
    assert values[50] == pytest.approx(np.pi / 2, abs=0.0)
    assert values[100] == pytest.approx(np.pi, abs=0.0)


def test_sweep_bulk_center_with_analytic_column():
    rows = run_sweep(linear_config(n=20, theta=GridSpec(0.0, TWO_PI, 201), pairs="bulk-center"))
    assert len(rows) == 201
    assert all(r.pair_left == 10 and r.pair_right == 11 for r in rows)
    assert max(r.abs_error for r in rows) < 1e-8


def test_sweep_star_single_point_postselected():
    config = SweepConfig(
        protocol="star",
        theta=GridSpec.single(np.pi / 2),
        n_outer=3,
        pairs="star-all",
        postselect=0,
    )
    rows = run_sweep(config)
    assert len(rows) == 3
    assert {(r.pair_left, r.pair_right) for r in rows} == {(1, 2), (1, 3), (2, 3)}
    values = [r.concurrence_numeric for r in rows]
    assert max(values) - min(values) < 1e-12
    assert all(abs(r.postselect_probability - 0.5) < 1e-12 for r in rows)
    assert all(r.postselect_outcome == 0 for r in rows)


def test_sweep_zero_angle_kills_all_pairs():
    rows = run_sweep(linear_config(theta=GridSpec.single(0.0)))
    assert len(rows) == 7
    assert all(r.concurrence_numeric < 1e-12 for r in rows)
    assert all(r.abs_error < 1e-12 for r in rows)


def test_sweep_rows_sorted_and_deterministic():
    config = linear_config(theta=GridSpec(0.0, TWO_PI, 7), n=6)
    rows_a = run_sweep(config)
    rows_b = run_sweep(config)
    assert rows_a == rows_b
    keys = [(r.theta, r.pair_left) for r in rows_a]
    assert keys == sorted(keys)


def test_sweep_validation_errors():
    with pytest.raises(ValueError, match="statevector backend is capped"):
        run_sweep(linear_config(n=20, backend="statevector"))
    with pytest.raises(ValueError, match="postselect"):
        run_sweep(linear_config(postselect=0))
    with pytest.raises(ValueError, match="pair keyword"):
        run_sweep(
            SweepConfig(
                protocol="star", theta=GridSpec.single(1.0), n_outer=3, pairs="edges"
            )
        )
    with pytest.raises(ValueError, match="theta2"):
        run_sweep(SweepConfig(protocol="periodic", theta=GridSpec.single(1.0), n=6))
    with pytest.raises(ValueError, match="outside"):
        run_sweep(linear_config(pairs=((1, 9),)))


def test_sweep_star_skips_dead_branches():
    # theta = 0 has zero probability for the |0> branch of an odd ring
    config = SweepConfig(
        protocol="star",
        theta=GridSpec(0.0, TWO_PI, 5),
        n_outer=3,
        pairs="star-all",
        postselect=0,
    )
    rows = run_sweep(config)
    thetas = sorted({r.theta for r in rows})
    assert 0.0 not in thetas and TWO_PI not in thetas
    assert len(thetas) == 3


def test_mps_and_statevector_sweeps_agree():
    kw = dict(n=10, theta=GridSpec(0.0, TWO_PI, 9))
    sv_rows = run_sweep(linear_config(backend="statevector", **kw))
    mps_rows = run_sweep(linear_config(backend="mps", **kw))
    assert len(sv_rows) == len(mps_rows)
    for a, b in zip(sv_rows, mps_rows):
        assert abs(a.concurrence_numeric - b.concurrence_numeric) < 1e-10


def test_csv_round_trip_exact():
    rows = run_sweep(linear_config(theta=GridSpec(0.0, TWO_PI, 7), n=6))
    text = rows_to_csv_text(rows)
    assert rows_from_csv_text(text) == rows


def test_csv_round_trip_with_postselect_fields(tmp_path):
    config = SweepConfig(
        protocol="star",
        theta=GridSpec(0.1, 3.0, 5),
        n_outer=3,
        pairs="star-all",
        postselect=1,
    )
    rows = run_sweep(config)
    path = tmp_path / "rows.csv"
    path.write_text(rows_to_csv_text(rows), encoding="utf-8")
    assert read_rows_csv(path) == rows


def test_json_output_shape():
    rows = run_sweep(linear_config(theta=GridSpec.single(1.0), n=6, pairs="edges"))
    payload = json.loads(rows_to_json_text(rows))
    assert len(payload) == 2
    assert payload[0]["pair_left"] == 1 and payload[0]["theta2"] is None


def test_compare_linear_families_pass():
    report = run_compare(linear_config(n=20, theta=GridSpec(0.0, TWO_PI, 41)))
    assert report.passed
    families = {c.family for c in report.families}
    assert families == {"linear_bulk", "linear_edge"}
    assert all(c.max_abs_error < 1e-8 for c in report.families)


def test_compare_periodic_families_pass():
    config = SweepConfig(
        protocol="periodic",
        theta=GridSpec(0.0, TWO_PI, 9),
        theta2=GridSpec(0.0, TWO_PI, 9),
        n=8,
        pairs="all-bulk",
    )
    report = run_compare(config)
    assert report.passed
    assert {c.family for c in report.families} == {"periodic_even", "periodic_odd"}


def test_compare_detects_injected_error(monkeypatch):
    exact = symm_ent.sweep.analytic_concurrence
    monkeypatch.setattr(
        symm_ent.sweep, "analytic_concurrence", lambda *args, **kw: exact(*args, **kw) + 1e-3
    )
    report = run_compare(linear_config(n=12, theta=GridSpec(0.0, TWO_PI, 11)))
    assert not report.passed
    for c in report.families:
        assert abs(c.max_abs_error - 1e-3) < 1e-4


def test_every_pair_family_has_a_closed_form():
    configs = [SweepConfig("star", GridSpec.single(0.7), n_outer=k, postselect=p)
               for k in (3, 4) for p in (None, 0, 1)]
    configs += [linear_config(n=6, case=case) for case in (1, 2, 3, 4)]
    configs.append(SweepConfig("periodic", GridSpec.single(0.7), n=8, theta2_offset=0.4))
    found = set()
    for config in configs:
        total = symm_ent.sweep._total_qubits(config)
        for i in range(1, total):
            for j in range(i + 1, total + 1):
                family = symm_ent.sweep._family_for_pair(config, (i, j))
                if family is not None:
                    value = analytic_concurrence(
                        family, unitary_params(0.7, 1.1), n_outer=4, chain_n=6
                    )
                    assert 0.0 <= value <= 1.0
                    found.add(family)
    assert found == set(FAMILIES)


def test_compare_rejects_uncovered_pairs():
    config = SweepConfig(
        protocol="periodic",
        theta=GridSpec(0.0, TWO_PI, 5),
        theta2_offset=0.5,
        n=8,
        pairs="all-adjacent",  # includes edges, which have no closed form
    )
    with pytest.raises(ValueError, match="no closed form"):
        run_compare(config)


def test_oracle_check_linear_and_star():
    report = run_oracle_check(linear_config(n=8, theta=GridSpec(0.0, TWO_PI, 11)))
    assert report.passed
    assert report.max_rdm_deviation < 1e-12
    star = SweepConfig(
        protocol="star",
        theta=GridSpec(0.0, TWO_PI, 11),
        n_outer=5,
        pairs="star-all",
        postselect=1,
    )
    report = run_oracle_check(star)
    assert report.passed
    assert report.max_probability_deviation < 1e-12


def test_oracle_check_rejects_large_systems():
    with pytest.raises(ValueError, match="oracle"):
        run_oracle_check(linear_config(n=14, backend="mps"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "symm_ent.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_sweep_csv_deterministic(tmp_path):
    args = [
        "sweep", "--protocol", "linear", "--case", "4", "--n", "8",
        "--theta", f"0:{TWO_PI}:9", "--pairs", "bulk-center",
    ]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    header = first.stdout.split("\n", 1)[0]
    assert header == (
        "theta,theta2,pair_left,pair_right,concurrence_numeric,"
        "concurrence_analytic,abs_error,postselect_outcome,postselect_probability"
    )
    out_path = tmp_path / "table.csv"
    third = run_cli(*args, "--out", str(out_path))
    assert third.returncode == 0
    assert out_path.read_text(encoding="utf-8") == first.stdout


def test_cli_sweep_json():
    result = run_cli(
        "sweep", "--protocol", "star", "--n-outer", "3", "--theta", "1.0",
        "--format", "json",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert len(payload) == 3  # central-outer pairs


def test_cli_compare_pass_and_fail_exit_codes():
    ok = run_cli(
        "compare", "--protocol", "linear", "--n", "12", "--theta", f"0:{TWO_PI}:11",
    )
    assert ok.returncode == 0, ok.stderr
    assert "PASS" in ok.stdout
    bad = run_cli(
        "compare", "--protocol", "periodic", "--n", "8", "--theta", "0:6:5",
        "--theta2-offset", "0.5", "--pairs", "all-adjacent",
    )
    assert bad.returncode == 2  # uncovered pairs is a usage error


def test_cli_oracle_check_runs():
    result = run_cli(
        "oracle-check", "--protocol", "periodic", "--n", "6",
        "--theta", "0:6:5", "--theta2", "0:6:5",
    )
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (("--protocol", "linear", "--n", "6", "--theta", "0:inf:3"), "bad grid '0:inf:3'"),
        (
            ("--protocol", "periodic", "--n", "6", "--theta", "1.0", "--theta2-offset", "nan"),
            "theta2_offset must be finite",
        ),
        (
            ("--protocol", "star", "--n-outer", "1", "--postselect", "0", "--pairs", "star-all",
             "--theta", "1.0"),
            "n_outer",
        ),
        (
            ("--protocol", "star", "--n-outer", "3", "--n", "50", "--case", "2", "--theta", "1.0"),
            "n is not used by the star protocol",
        ),
        (("--protocol", "star", "--n-outer", "3", "--case", "2", "--theta", "1.0"), "case=2"),
        (("--protocol", "linear", "--n", "5", "--n-outer", "9", "--theta", "1.0"), "n_outer"),
        (
            ("--protocol", "periodic", "--n", "6", "--theta2-offset", "0", "--case", "1",
             "--theta", "1.0"),
            "case=1",
        ),
        (
            ("--protocol", "linear", "--n", "6", "--pairs", "1:2,2:1", "--theta", "1.0"),
            "pair (2, 1) is listed twice (first as (1, 2))",
        ),
    ],
)
def test_cli_rejects_bad_grid_and_empty_selection(args, message):
    result = run_cli("sweep", *args)
    assert result.returncode == 2
    assert message in result.stderr
    assert result.stdout == ""


def test_cli_usage_errors_exit_two():
    assert run_cli("sweep", "--protocol", "linear", "--theta", "1.0").returncode == 2
    assert run_cli("sweep", "--protocol", "nope", "--theta", "1.0").returncode == 2
    assert (
        run_cli(
            "sweep", "--protocol", "linear", "--n", "20", "--theta", "1.0",
            "--backend", "statevector",
        ).returncode
        == 2
    )
    # the MPS engine is exact and has no truncation settings
    for option in ("--chi-max", "--trunc-tol"):
        result = run_cli(
            "sweep", "--protocol", "linear", "--n", "6", "--theta", "1.0", option, "4"
        )
        assert result.returncode == 2
        assert "No such option" in result.stderr


@pytest.mark.parametrize("theta", ["1e-6", "1e-9"])
def test_cli_tiny_angles_on_mps(theta):
    args = ("--protocol", "linear", "--n", "20", "--theta", theta, "--backend", "mps",
            "--pairs", "bulk-center")
    swept = run_cli("sweep", *args)
    assert swept.returncode == 0, swept.stderr
    (row,) = rows_from_csv_text(swept.stdout)
    assert row.abs_error <= 1e-8
    # truncating the small Schmidt value leaves a product state, concurrence 0,
    # which the 1e-8 bound alone does not catch at theta = 1e-9
    assert row.concurrence_numeric > 0.5 * float(theta)
    compared = run_cli("compare", *args)
    assert compared.returncode == 0, compared.stderr
    assert compared.stdout.endswith("result: PASS\n")


@pytest.fixture
def lossy_mps(monkeypatch):
    """Make every MPS circuit run report a discarded weight above the limit."""
    run = MatrixProductState.run_circuit

    def lossy(self, circuit):
        run(self, circuit)
        self.discarded_weight_total = 1e-10
        return self

    monkeypatch.setattr(MatrixProductState, "run_circuit", lossy)


def test_discarded_weight_guard(lossy_mps):
    with pytest.raises(RuntimeError, match="MPS sweep truncated"):
        run_sweep(linear_config(n=8, backend="mps"))
    result = CliRunner().invoke(
        symm_ent.cli.main,
        ["oracle-check", "--protocol", "linear", "--n", "6", "--theta", "0:6:5"],
    )
    assert result.exit_code == 1
    assert "max MPS discarded weight:   1.000e-10" in result.stdout
    assert result.stdout.endswith("result: FAIL\n")


def test_cli_compare_out_sweeps_once(monkeypatch, tmp_path):
    calls = []
    counted = symm_ent.sweep.run_sweep

    def counting(config):
        calls.append(config)
        return counted(config)

    monkeypatch.setattr(symm_ent.sweep, "run_sweep", counting)
    monkeypatch.setattr(symm_ent.cli, "run_sweep", counting)
    args = ["--protocol", "linear", "--n", "8", "--theta", "0:6:7"]
    out_path = tmp_path / "rows.csv"
    runner = CliRunner()
    compared = runner.invoke(symm_ent.cli.main, ["compare", *args, "--out", str(out_path)])
    assert compared.exit_code == 0, compared.output
    assert len(calls) == 1
    swept = runner.invoke(symm_ent.cli.main, ["sweep", *args])
    assert out_path.read_text(encoding="utf-8") == swept.stdout


def _one_matrix_at_a_time(rho):
    """``wootters_concurrence`` called once per matrix of a stack."""
    rho = np.asarray(rho)
    values = [symm_ent.wootters_concurrence(m) for m in rho.reshape(-1, 4, 4)]
    return np.array(values).reshape(rho.shape[:-2])


STACKED_CONFIGS = [
    linear_config(n=12, theta=GridSpec(0.0, TWO_PI, 25), backend="mps"),
    SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 25), n_outer=5, postselect=1),
    SweepConfig(
        protocol="periodic",
        theta=GridSpec(0.0, TWO_PI, 7),
        theta2=GridSpec(0.0, TWO_PI, 7),
        n=8,
        pairs="all-adjacent",
        backend="mps",
    ),
]


@pytest.mark.parametrize("config", STACKED_CONFIGS, ids=["chain", "star-postselected", "periodic"])
def test_stacked_scoring_matches_one_matrix_calls(config, monkeypatch):
    stacked_rows = rows_to_csv_text(run_sweep(config))
    stacked_report = run_oracle_check(config)
    monkeypatch.setattr(symm_ent.sweep, "wootters_concurrence", _one_matrix_at_a_time)
    assert rows_to_csv_text(run_sweep(config)) == stacked_rows
    assert run_oracle_check(config) == stacked_report


# ------------------------------------------------- arguments the run ignores


@pytest.mark.parametrize(
    "given_fields, message",
    [
        (dict(protocol="star", n_outer=3, n=50), "n is not used by the star protocol"),
        (dict(protocol="star", n_outer=3, case=2), "case is only meaningful"),
        (dict(protocol="linear", n=5, n_outer=9), "n_outer is only meaningful"),
        (dict(protocol="periodic", n=6, theta2_offset=0.0, n_outer=3), "n_outer is only"),
        (dict(protocol="periodic", n=6, theta2_offset=0.0, case=1), "case=1"),
    ],
)
def test_arguments_the_protocol_ignores_are_rejected(given_fields, message):
    config = SweepConfig(theta=GridSpec.single(1.0), **given_fields)
    for run in (run_sweep, run_compare, run_oracle_check):
        with pytest.raises(ValueError, match=message):
            run(config)


def test_duplicate_pairs_are_rejected():
    for pairs, first in ((((1, 2), (2, 1)), "(1, 2)"), (((4, 5), (2, 3), (2, 3)), "(2, 3)")):
        duplicate = pairs[-1]
        with pytest.raises(ValueError) as excinfo:
            run_sweep(linear_config(pairs=pairs))
        assert str(excinfo.value) == f"pair {duplicate} is listed twice (first as {first})"
    with pytest.raises(ValueError, match="listed twice"):
        run_compare(linear_config(pairs=((2, 3), (2, 3))))


def test_write_rows_rejects_unknown_format(tmp_path):
    path = tmp_path / "rows.xml"
    rows = run_sweep(linear_config(theta=GridSpec.single(1.0), n=6, pairs="edges"))
    with pytest.raises(ValueError, match="fmt must be 'csv' or 'json', got 'xml'"):
        write_rows(rows, path, fmt="xml")
    assert not path.exists()


# ---------------------------------------------------------- row order


def test_rows_in_order_with_unsorted_pairs():
    args = ["sweep", "--protocol", "linear", "--n", "10", "--theta", "0:6.2:5",
            "--pairs", "5:6,2:1,3:7"]
    result = CliRunner().invoke(symm_ent.cli.main, args)
    assert result.exit_code == 0, result.output
    keys = [(r.theta, r.pair_left, r.pair_right) for r in rows_from_csv_text(result.stdout)]
    assert len(keys) == 15
    assert keys == sorted(keys)
    assert {key[1:] for key in keys} == {(1, 2), (3, 7), (5, 6)}


def test_rows_in_order_on_a_theta2_grid():
    args = ["sweep", "--protocol", "periodic", "--n", "8", "--theta", "0:6.2:4",
            "--theta2", "0.5:3:3", "--pairs", "6:7,3:4"]
    result = CliRunner().invoke(symm_ent.cli.main, args)
    assert result.exit_code == 0, result.output
    rows = rows_from_csv_text(result.stdout)
    keys = [(r.theta, r.theta2, r.pair_left) for r in rows]
    assert len(keys) == 4 * 3 * 2
    assert keys == sorted(keys)


# ------------------------------------------------------ round trips

bounded = st.floats(min_value=-1e300, max_value=1e300)
finite = st.floats(allow_nan=False, allow_infinity=False)
optional = st.none() | finite


@settings(max_examples=200, deadline=None)
@given(start=bounded, stop=bounded, steps=st.integers(1, 10**6))
def test_grid_spec_parse_round_trip(start, stop, steps):
    if steps == 1:
        assert GridSpec.parse(repr(start)) == GridSpec.single(start)
        return
    assume(start < stop)
    assert GridSpec.parse(f"{start!r}:{stop!r}:{steps}") == GridSpec(start, stop, steps)


output_rows = st.builds(
    OutputRow,
    theta=finite,
    theta2=optional,
    pair_left=st.integers(1, 10**6),
    pair_right=st.integers(1, 10**6),
    concurrence_numeric=finite,
    concurrence_analytic=optional,
    abs_error=optional,
    postselect_outcome=st.none() | st.sampled_from([0, 1]),
    postselect_probability=optional,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(output_rows, max_size=8))
def test_csv_round_trip_random_rows(rows):
    assert rows_from_csv_text(rows_to_csv_text(rows)) == rows


OPTIONAL_COLUMNS = {
    "theta2", "concurrence_analytic", "abs_error", "postselect_outcome",
    "postselect_probability",
}


def test_csv_empty_field_is_none_only_in_optional_columns():
    row = OutputRow(0.5, 0.25, 1, 2, 0.125, 0.375, 0.25, 0, 0.75)
    header, line = rows_to_csv_text([row]).splitlines()
    for k, column in enumerate(fields(OutputRow)):
        parts = line.split(",")
        parts[k] = ""
        text = f"{header}\n{','.join(parts)}\n"
        if column.name in OPTIONAL_COLUMNS:
            assert rows_from_csv_text(text) == [replace(row, **{column.name: None})]
        else:
            with pytest.raises(ValueError):
                rows_from_csv_text(text)
