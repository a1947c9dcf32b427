import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symm_ent.cli
import symm_ent.sweep
from symm_ent import (
    FAMILIES,
    ControlledNot,
    GridSpec,
    MatrixProductState,
    OutputRow,
    Rotation,
    StateVector,
    SweepConfig,
    analytic_concurrence,
    build_star,
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
from symm_ent.sweep import _block_circuit, _pair_rdms, _plan, _run_blocks

TWO_PI = 2 * np.pi


def linear_config(**kw):
    base = dict(
        protocol="linear",
        theta=GridSpec(0.0, TWO_PI, 21),
        case=4,
        n=8,
        pairs="all-adjacent",
        backend="statevector",
    )
    base.update(kw)
    return SweepConfig(**base)


def test_grid_spec_parsing():
    assert GridSpec.parse("0:6.2:11") == GridSpec(0.0, 6.2, 11)
    assert GridSpec.parse("1.57").values().tolist() == [1.57]
    with pytest.raises(ValueError, match="bad grid '1:2': expected 'start:stop:steps'"):
        GridSpec.parse("1:2")
    with pytest.raises(ValueError, match=re.escape("grid needs start < stop, got 1.0..0.0")):
        GridSpec(1.0, 0.0, 5)
    with pytest.raises(ValueError, match="grid needs steps >= 1, got 0"):
        GridSpec(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="single-point grid needs start == stop"):
        GridSpec(0.0, 1.0, 1)


@pytest.mark.parametrize("steps", [2.5, 3.0, True])
def test_grid_spec_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError, match=re.escape(f"steps must be an integer, got {steps!r}")):
        GridSpec(0.0, 1.0, steps)
    assert np.array_equal(GridSpec(0.0, 1.0, np.int64(3)).values(), [0.0, 0.5, 1.0])


def _postselect_at(boundary, outcome):
    """Post-select outcome ``outcome`` of the central qubit of a 3-outer star at
    ``boundary``: the run plan, or a run state of either backend."""
    if boundary == "plan":
        config = SweepConfig(protocol="star", theta=GridSpec.single(0.7), n_outer=3,
                             postselect=outcome)
        return _plan(config).config.postselect
    if boundary == "statevector":
        return StateVector.zeros(4).run_circuit(build_star(3, 0.7)).postselect(4, outcome)[1]
    return MatrixProductState(4).run_circuit(build_star(3, 0.7)).postselect(4, outcome)


@pytest.mark.parametrize("boundary, label", [("plan", "postselect"), ("statevector", "outcome"),
                                             ("mps", "outcome")])
def test_postselect_outcome_must_be_an_integer(boundary, label):
    for outcome in (True, False, 1.0, np.float64(0.0)):
        with pytest.raises(ValueError, match=re.escape(f"{label} must be an integer, got")):
            _postselect_at(boundary, outcome)
    accepted = _postselect_at(boundary, np.int64(1))
    assert accepted == _postselect_at(boundary, 1)
    if boundary == "plan":
        assert type(accepted) is int  # a numpy outcome would not serialize to JSON


@pytest.mark.parametrize("text", ["0:inf:3", "inf", "nan:1:3", "-1e308:1e308:3"])
def test_grid_spec_rejects_non_finite(text):
    with pytest.raises(ValueError, match=f"bad grid '{text}': grid bounds must be finite"):
        GridSpec.parse(text)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((True, 2.0), "grid start must be a real number, got True"),
        (("0", "1"), "grid start must be a real number, got '0'"),
        ((0.0, np.True_), "grid stop must be a real number, got np.True_"),
    ],
)
def test_grid_spec_bounds_must_be_real(bounds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GridSpec(*bounds, 3)
    assert np.array_equal(GridSpec(np.int64(0), np.float64(1.0), 3).values(), [0.0, 0.5, 1.0])


def test_theta2_offset_must_be_real():
    config = SweepConfig(protocol="periodic", theta=GridSpec.single(1.0), n=6, theta2_offset=True)
    with pytest.raises(ValueError, match="theta2_offset must be a real number, got True"):
        run_sweep(config)


def test_theta2_offset_must_be_finite():
    config = SweepConfig(
        protocol="periodic", theta=GridSpec.single(1.0), n=6, theta2_offset=float("inf")
    )
    with pytest.raises(ValueError, match="theta2_offset must be finite"):
        run_sweep(config)


def test_theta2_offset_must_keep_theta2_in_the_float_range():
    # theta + theta2_offset overflows to inf: refused by name before any circuit is built
    config = SweepConfig(protocol="periodic", theta=GridSpec.single(1e308), n=4,
                         theta2_offset=1e308)
    with pytest.raises(ValueError, match="theta \\+ theta2_offset; got 1e\\+308"):
        run_sweep(config)
    result = run_cli("sweep", "--protocol", "periodic", "--n", "4", "--theta", "-1e308",
                     "--theta2-offset", "-1e308")
    assert result.returncode == 2
    assert "and so must theta + theta2_offset; got -1e+308" in result.stderr
    assert "RuntimeWarning" not in result.stderr and result.stdout == ""


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
    rows = run_sweep(linear_config(n=20, theta=GridSpec(0.0, TWO_PI, 201), pairs="bulk-center",
                                   backend="mps"))
    assert len(rows) == 201
    assert all(r.pair_left == 10 and r.pair_right == 11 for r in rows)
    assert max(r.abs_error for r in rows) < 1e-8


def test_bulk_center_is_the_closed_form_at_a_thousand_qubits():
    # the bulk pair's concurrence does not depend on the chain length, N = 1000 included
    config = linear_config(n=1000, theta=GridSpec(0.0, TWO_PI, 51), pairs="bulk-center",
                           backend="mps")
    rows = run_sweep(config)
    assert [(r.pair_left, r.pair_right) for r in rows] == [(500, 501)] * 51
    for row in rows:
        closed = analytic_concurrence("linear_bulk", unitary_params(row.theta))
        assert abs(row.concurrence_numeric - closed) <= 1e-10


def test_central_pairs_are_the_closed_form_at_two_hundred_outer_qubits():
    # 200 one-pair rows (k, 201), each read through the environment sweep from k to the hub
    config = SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 51), n_outer=200,
                         pairs="star-all", backend="mps")
    rows = run_sweep(config)
    assert [(r.pair_left, r.pair_right) for r in rows] == [(k, 201) for k in range(1, 201)] * 51
    for row in rows:
        closed = analytic_concurrence("star_central", unitary_params(row.theta), n_outer=200)
        assert abs(row.concurrence_numeric - closed) <= 1e-10


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


@pytest.mark.parametrize(
    "given_fields, message",
    [
        (dict(protocol="ring", n=6), "protocol must be one of ('star', 'linear', 'periodic'), "
         "got 'ring'"),
        (dict(protocol="linear", n=6, backend="gpu"),
         "backend must be one of ('statevector', 'mps'), got 'gpu'"),
        (dict(protocol="linear", n=6, backend="auto"),
         "backend must be one of ('statevector', 'mps'), got 'auto'"),
        (dict(protocol="linear", n=6, postselect=0),
         "postselect is only meaningful for the star protocol"),
        (dict(protocol="periodic", n=6),
         "periodic protocol needs exactly one of theta2 / theta2_offset"),
        (dict(protocol="periodic", n=6, theta2=GridSpec.single(0.5), theta2_offset=0.1),
         "periodic protocol needs exactly one of theta2 / theta2_offset"),
        (dict(protocol="linear", n=6, theta2_offset=0.1),
         "theta2 is only meaningful for the periodic protocol"),
        (dict(protocol="star", n_outer=3, theta2=GridSpec.single(0.5)),
         "theta2 is only meaningful for the periodic protocol"),
    ],
    ids=["protocol", "backend", "backend-auto", "postselect-linear", "periodic-no-theta2",
         "periodic-both-theta2", "theta2_offset-linear", "theta2-star"],
)
def test_unknown_names_and_misplaced_options_are_rejected_by_name(given_fields, message):
    config = SweepConfig(theta=GridSpec.single(1.0), **given_fields)
    for run in (run_sweep, run_compare, run_oracle_check):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(config)


@pytest.mark.parametrize("pairs", [(), [], None, 5], ids=["tuple", "list", "None", "int"])
def test_only_the_default_pairs_select_the_default_keyword(pairs):
    # an empty or non-sequence selection is an error naming pairs, not the default
    config = linear_config(n=5, theta=GridSpec.single(1.0), pairs=pairs)
    message = f"pairs must be a pair keyword or a non-empty sequence, got {pairs!r}"
    for run in (run_sweep, run_compare, run_oracle_check):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(config)
    assert len(run_sweep(replace(config, pairs=""))) == 4


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
    report = run_compare(linear_config(n=20, theta=GridSpec(0.0, TWO_PI, 41), backend="mps"))
    assert report.passed
    families = {c.family for c in report.families}
    assert families == {"linear_bulk", "linear_edge"}
    assert all(c.max_abs_error < 1e-8 for c in report.families)


@pytest.mark.parametrize("n", [60, 200, 600])
@pytest.mark.parametrize("case", [2, 4])
def test_the_closed_form_error_does_not_grow_with_the_chain(case, n):
    """The paper's protocol does not depend on the number of qubits, and the
    engine's error must not either: every adjacent pair of a chain of any
    length meets its closed form to a few eps (it grew as N eps when center
    moves drifted the norm, to 1.6e-13 at N = 600)."""
    report = run_compare(linear_config(n=n, case=case, backend="mps",
                                       theta=GridSpec(0.0, TWO_PI, 51)))
    assert report.passed
    assert max(c.max_abs_error for c in report.families) <= 2e-15


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_a_chain_reads_its_rows_from_the_end_nearer_the_center(case, monkeypatch):
    """The MPS reads a block's rows starting from the end where run_circuit left
    the center, so a 60-qubit compare of every case walks the center across the
    chain once: at most 60 QRs for its one block (cases 2 and 3, whose center
    ends on the right, made 116 reading upward). The rows still come out in
    plan order, each against its own closed form."""
    shifts, shift = [], MatrixProductState._shift
    monkeypatch.setattr(MatrixProductState, "_shift",
                        lambda self, step: shifts.append(step) or shift(self, step))
    config = SweepConfig(protocol="linear", theta=GridSpec(0.0, TWO_PI, 51), case=case, n=60,
                         backend="mps")
    report = run_compare(config)
    assert report.passed
    assert len(shifts) <= 60
    plan = _plan(config)
    assert [(row.pair_left, row.pair_right) for row in report.rows] == list(plan.pairs) * 51


@pytest.mark.parametrize(
    "config, most",
    [
        (SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 101), n_outer=11,
                     pairs="star-all", postselect=0), 12),
        (SweepConfig(protocol="linear", theta=GridSpec(0.0, TWO_PI, 51), case=3, n=12,
                     pairs="all-adjacent"), 11),
    ],
    ids=["star-oracle", "case3"],
)
def test_the_oracle_check_reads_its_rows_from_the_end_nearer_the_center(config, most, monkeypatch):
    """The oracle check reads a block's MPS rows by the sweep's rule, from the end
    where the center is: the star check (post-selected, so the center ends on the
    central qubit) makes 12 QRs, not 21, and a 12-qubit case-3 chain 10, not 20.
    The rows still come out in plan order."""
    shifts, shift = [], MatrixProductState._shift
    monkeypatch.setattr(MatrixProductState, "_shift",
                        lambda self, step: shifts.append(step) or shift(self, step))
    assert run_oracle_check(config).passed
    assert len(shifts) <= most
    plan = _plan(config)
    for _, _, state, _, _ in _run_blocks(plan, plan.points, "mps"):
        rows = _pair_rdms(state, plan.pairs)
        for rho, (i, j) in zip(rows, plan.pairs):
            assert np.abs(rho - state.pair_rdm(i, j)).max() <= 1e-14


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
        total = _plan(config).total
        for i in range(1, total):
            for j in range(i + 1, total + 1):
                family = symm_ent.sweep._family_for_pair(config, total, (i, j))
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


@pytest.mark.parametrize("command", ["compare", "oracle-check"])
@pytest.mark.parametrize("theta", ["0", f"{TWO_PI}"])
def test_cli_check_that_checked_no_grid_point_fails(command, theta):
    # the outcome-0 branch of the star is dead at theta = 0 and 2 pi
    args = [command, "--protocol", "star", "--n-outer", "3", "--theta", theta, "--postselect", "0"]
    result = CliRunner().invoke(symm_ent.cli.main, args)
    assert result.exit_code == 1, result.output
    assert "PASS" not in result.stdout
    assert result.stdout.endswith(
        "  no grid point has a post-selected branch >= 1e-09\nresult: FAIL\n"
    )
    config = SweepConfig(protocol="star", theta=GridSpec.parse(theta), n_outer=3, postselect=0)
    compared = run_compare(config)
    assert not compared.passed and not compared.families
    report = run_oracle_check(config)
    assert report.n_points == 0 and not report.passed


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
        (
            ("--protocol", "linear", "--n", "4", "--theta", "1.0:1.0000000000000002:5",
             "--pairs", "1:2,2:3"),
            "grid 1.0:1.0000000000000002:5 repeats the angle 1.0",
        ),
        (("--protocol", "linear", "--n", "6", "--pairs", "1:2:3", "--theta", "1.0"),
         "bad pair '1:2:3': expected 'i:j' or one of the keywords"),
        (("--protocol", "linear", "--n", "6", "--pairs", "1:2,1:x", "--theta", "1.0"),
         "bad pair '1:x': sites must be integers"),
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
    # the backend is statevector or mps, and oracle-check, which runs both, takes none
    auto = run_cli("sweep", "--protocol", "linear", "--n", "6", "--theta", "0:1:3",
                   "--backend", "auto")
    assert auto.returncode == 2
    assert "'statevector'" in auto.stderr and "'mps'" in auto.stderr
    oracle = run_cli("oracle-check", "--protocol", "linear", "--n", "6", "--theta", "0:1:3",
                     "--backend", "mps")
    assert oracle.returncode == 2
    assert "No such option '--backend'" in oracle.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("--protocol", "linear", "--n", "6"),
        ("--protocol", "star", "--n-outer", "11", "--postselect", "0"),
    ],
    ids=["linear-6", "star-12-postselect0"],
)
def test_cli_sweeps_run_on_the_mps_unless_told_otherwise(args):
    # below the statevector's 12-qubit cap too: there is no size rule
    args = ("sweep", *args, "--theta", "0:6.283185307179586:21")
    runner = CliRunner()
    default = runner.invoke(symm_ent.cli.main, list(args))
    on_mps = runner.invoke(symm_ent.cli.main, [*args, "--backend", "mps"])
    assert default.exit_code == on_mps.exit_code == 0, default.output
    assert default.stdout == on_mps.stdout


@pytest.mark.parametrize("command", ["sweep", "compare", "oracle-check"])
def test_cli_an_empty_pair_keyword_is_a_usage_error(command):
    # the three-qubit chain has no bulk pair
    result = run_cli(command, "--protocol", "linear", "--n", "3", "--pairs", "all-bulk",
                     "--theta", "0:1:3")
    assert result.returncode == 2
    assert "pair keyword 'all-bulk' selects no pair on 3 qubits" in result.stderr
    assert result.stdout == ""


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
        self.discarded_weight = self.discarded_weight + 1e-10
        return self

    monkeypatch.setattr(MatrixProductState, "run_circuit", lossy)


def test_discarded_weight_guard(lossy_mps):
    with pytest.raises(RuntimeError, match="MPS sweep truncated"):
        run_sweep(linear_config(n=8, backend="mps"))
    # the weight survives dropping the dead post-selection points
    with pytest.raises(RuntimeError, match="MPS sweep truncated"):
        run_sweep(
            SweepConfig(
                protocol="star",
                theta=GridSpec(0.0, TWO_PI, 5),  # branch dead at both ends
                n_outer=3,
                postselect=0,
                backend="mps",
            )
        )
    result = CliRunner().invoke(
        symm_ent.cli.main,
        ["oracle-check", "--protocol", "linear", "--n", "6", "--theta", "0:6:5"],
    )
    assert result.exit_code == 1
    assert "max MPS discarded weight:   1.000e-10" in result.stdout
    assert result.stdout.endswith("result: FAIL\n")


def test_cli_compare_out_sweeps_once(monkeypatch, tmp_path):
    # the sweep is _scored_points, which run_compare reaches without run_sweep
    calls = []
    counted = symm_ent.sweep._scored_points

    def counting(plan):
        calls.append(plan)
        return counted(plan)

    monkeypatch.setattr(symm_ent.sweep, "_scored_points", counting)
    args = ["--protocol", "linear", "--n", "8", "--theta", "0:6:7"]
    out_path = tmp_path / "rows.csv"
    runner = CliRunner()
    compared = runner.invoke(symm_ent.cli.main, ["compare", *args, "--out", str(out_path)])
    assert compared.exit_code == 0, compared.output
    assert len(calls) == 1
    swept = runner.invoke(symm_ent.cli.main, ["sweep", *args])
    assert out_path.read_text(encoding="utf-8") == swept.stdout


def test_compare_resolves_its_plan_once(monkeypatch):
    calls = []
    planned = symm_ent.sweep._plan
    monkeypatch.setattr(symm_ent.sweep, "_plan", lambda c: calls.append(c) or planned(c))
    assert run_compare(linear_config(backend="mps")).passed
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_cli_out_into_a_missing_directory_is_refused_before_the_run(
    command, monkeypatch, tmp_path
):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(symm_ent.cli, "run_sweep", never)
    monkeypatch.setattr(symm_ent.cli, "run_compare", never)
    missing = tmp_path / "missing" / "x.csv"
    result = CliRunner().invoke(
        symm_ent.cli.main,
        [command, "--protocol", "linear", "--n", "8", "--theta", "0:6:7", "--out", str(missing)],
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--out'" in result.stderr
    assert str(missing.parent) in result.stderr
    assert result.stdout == ""
    assert not missing.parent.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_cli_an_empty_out_is_a_usage_error(command, monkeypatch):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(symm_ent.cli, "run_sweep", never)
    monkeypatch.setattr(symm_ent.cli, "run_compare", never)
    result = CliRunner().invoke(
        symm_ent.cli.main,
        [command, "--protocol", "linear", "--n", "8", "--theta", "0:6:7", "--out", ""],
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--out': the path is empty" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_cli_a_failed_out_write_exits_one_with_an_error(command, monkeypatch, tmp_path):
    def refused(rows, path, fmt="csv"):
        assert len(rows) == 7 * 7  # seven angles, seven adjacent pairs
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(symm_ent.cli, "write_rows", refused)
    out = tmp_path / "rows.csv"
    result = CliRunner().invoke(
        symm_ent.cli.main,
        [command, "--protocol", "linear", "--n", "8", "--theta", "0:6:7", "--out", str(out)],
    )
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: [Errno 13] Permission denied: {str(out)!r}\n"
    assert result.stdout == ""
    assert not isinstance(result.exception, PermissionError)


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


@pytest.mark.parametrize(
    "given_fields, message",
    [
        (dict(pairs=((2.5, 3),)), "site in pairs must be an integer, got 2.5"),
        (dict(pairs=((True, 3),)), "site in pairs must be an integer, got True"),
        (dict(pairs=((2, "3"),)), "site in pairs must be an integer, got '3'"),
        (dict(n=6.0), "n must be an integer, got 6.0"),
        (dict(protocol="periodic", n=6.0, theta2_offset=0.4), "n must be an integer, got 6.0"),
        (dict(protocol="star", n=None, n_outer=4.0, pairs=""), "n_outer must be an integer"),
        (dict(protocol="star", n=None, n_outer=True, pairs=""), "n_outer must be an integer"),
        (dict(case=True), "case must be an integer, got True"),
    ],
    ids=["float-site", "bool-site", "str-site", "float-n", "float-n-periodic", "float-n_outer",
         "bool-n_outer", "bool-case"],
)
def test_non_integer_sizes_and_sites_are_rejected(given_fields, message):
    config = linear_config(**given_fields)
    for run in (run_sweep, run_compare, run_oracle_check):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(config)
    # numpy integers are integers
    assert run_sweep(linear_config(n=np.int64(6), pairs=((np.int64(2), 3),)))


@pytest.mark.parametrize(
    "given_fields, message",
    [
        (dict(protocol="linear", n=6, theta=0.5), "theta must be a GridSpec, got 0.5"),
        (dict(protocol="linear", n=6, theta=(0.0, 1.0, 3)), "theta must be a GridSpec"),
        (dict(protocol="periodic", n=6, theta2=0.3), "theta2 must be a GridSpec, got 0.3"),
        (dict(protocol="periodic", n=6, theta2=0.0), "theta2 must be a GridSpec, got 0.0"),
        (dict(protocol="linear", n=6, pairs=((1, 2, 3),)), "each entry of pairs must be two"),
        (dict(protocol="linear", n=6, pairs=((1,),)), "each entry of pairs must be two sites"),
        (dict(protocol="linear", n=6, pairs=(3,)), "each entry of pairs must be two sites, got 3"),
        (dict(protocol="linear", n=6, pairs=((1, (2, 3)),)), "site in pairs must be an integer"),
    ],
    ids=["float-theta", "tuple-theta", "float-theta2", "zero-theta2", "three-sites", "one-site",
         "bare-site", "nested-site"],
)
def test_malformed_grids_and_pairs_are_rejected_by_name(given_fields, message):
    config = SweepConfig(**{"theta": GridSpec.single(1.0), **given_fields})
    for run in (run_sweep, run_compare, run_oracle_check):
        with pytest.raises(ValueError, match=re.escape(message)):
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
    text = f"{start!r}:{stop!r}:{steps}"
    try:
        parsed = GridSpec.parse(text)
    except ValueError as exc:
        # a grid finer than the float spacing is refused, by parse and constructor alike
        assert f"grid {text} repeats the angle" in str(exc)
        with pytest.raises(ValueError, match="collide in floating point"):
            GridSpec(start, stop, steps)
        return
    assert parsed == GridSpec(start, stop, steps)


def test_grid_whose_points_collide_is_rejected():
    with pytest.raises(ValueError, match=r"grid 1.0:1.0000000000000002:5 repeats the angle 1.0:"):
        GridSpec(1.0, 1.0000000000000002, 5)
    with pytest.raises(ValueError, match="repeats the angle"):
        GridSpec(0.0, 5e-324, 3)
    assert GridSpec(1.0, 1.0000000000000002, 2).values().tolist() == [1.0, 1.0000000000000002]
    assert len(set(GridSpec(0.0, 1e-300, 1001).values().tolist())) == 1001


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


# a small pool, so values repeat within and across rows: both signed zeros, the
# smallest subnormal, and values a sweep repeats
POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 0.1, 1 / 3, 0.31557)
pooled = st.sampled_from(POOL)
pooled_optional = st.none() | pooled
pooled_rows = st.builds(
    OutputRow,
    theta=pooled,
    theta2=pooled_optional,
    pair_left=st.integers(1, 60),
    pair_right=st.integers(1, 60),
    concurrence_numeric=pooled,
    concurrence_analytic=pooled_optional,
    abs_error=pooled_optional,
    postselect_outcome=st.none() | st.sampled_from([0, 1]),
    postselect_probability=pooled_optional,
)


def _reference_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


@settings(max_examples=100, deadline=None)
@given(st.lists(pooled_rows, max_size=12))
def test_csv_bytes_are_each_field_formatted_on_its_own(rows):
    # a parsed round trip cannot see a lost sign (-0.0 == 0.0); the bytes can
    text = rows_to_csv_text(rows)
    lines = [",".join(map(_reference_field, row)) for row in rows]
    assert text == "\n".join([symm_ent.sweep.CSV_HEADER, *lines]) + "\n"
    assert rows_to_csv_text(rows_from_csv_text(text)) == text


def test_csv_memo_keeps_zeros_signs_none_and_equal_ints_and_floats_apart():
    # 0.0, -0.0 and int 0 are equal keys, and so are 1 and 1.0; the text of
    # each field is still its own
    rows = [
        OutputRow(0.0, -0.0, 1, 2, 1.0, 1e-17, 0.0, 0, None),
        OutputRow(-0.0, 0.0, 1, 3, -0.0, None, 1e-17, 1, 1.0),
        OutputRow(1.0, None, 1, 2, 0.0, -1e-17, -0.0, None, 0.0),
    ]
    assert rows_to_csv_text(rows) == (
        f"{symm_ent.sweep.CSV_HEADER}\n"
        "0,-0,1,2,1,1.0000000000000001e-17,0,0,\n"
        "-0,0,1,3,-0,,1.0000000000000001e-17,1,1\n"
        "1,,1,2,0,-1.0000000000000001e-17,-0,,0\n"
    )


OPTIONAL_COLUMNS = {
    "theta2", "concurrence_analytic", "abs_error", "postselect_outcome",
    "postselect_probability",
}


def test_csv_empty_field_is_none_only_in_optional_columns():
    row = OutputRow(0.5, 0.25, 1, 2, 0.125, 0.375, 0.25, 0, 0.75)
    header, line = rows_to_csv_text([row]).splitlines()
    for k, column in enumerate(OutputRow._fields):
        parts = line.split(",")
        parts[k] = ""
        text = f"{header}\n{','.join(parts)}\n"
        if column in OPTIONAL_COLUMNS:
            assert rows_from_csv_text(text) == [row._replace(**{column: None})]
        else:
            with pytest.raises(ValueError):
                rows_from_csv_text(text)
    with pytest.raises(AttributeError):
        row.theta = 1.0


def test_csv_reader_rejects_a_foreign_header_and_a_short_row():
    text = rows_to_csv_text([OutputRow(0.5, None, 1, 2, 0.125, None, None, None, None)])
    header = text.split("\n")[0]
    assert rows_from_csv_text(text)
    with pytest.raises(ValueError, match="unrecognized CSV header"):
        rows_from_csv_text(text.replace("theta,", "angle,", 1))
    with pytest.raises(ValueError, match=re.escape("malformed CSV row: '0.5,,1,2'")):
        rows_from_csv_text(f"{header}\n0.5,,1,2\n")


# ------------------------------------------- stacked grid runs vs single points

NUMERIC_COLUMNS = ("concurrence_numeric", "abs_error", "postselect_probability")

GRID_CONFIGS = [
    # odd ring, outcome 0: the branch is dead at both ends of the grid
    SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 21), n_outer=5, postselect=0,
                backend="mps"),
    SweepConfig(protocol="periodic", theta=GridSpec(0.0, TWO_PI, 6),
                theta2=GridSpec(0.0, TWO_PI, 5), n=8, backend="mps"),
    linear_config(n=6, case=2, theta=GridSpec(0.0, TWO_PI, symm_ent.sweep.BLOCK_POINTS + 44),
                  backend="mps"),
]


def _single_point_config(config, theta, theta2):
    theta2_grid = None if config.theta2 is None else GridSpec.single(theta2)
    return replace(config, theta=GridSpec.single(theta), theta2=theta2_grid)


@pytest.mark.parametrize(
    "config", GRID_CONFIGS, ids=["star-dead-ends", "periodic-grid", "two-blocks"]
)
def test_grid_rows_match_single_point_sweeps(config, monkeypatch):
    runs = []
    run = MatrixProductState.run_circuit
    monkeypatch.setattr(MatrixProductState, "run_circuit",
                        lambda self, circuit: runs.append(circuit.grid) or run(self, circuit))
    rows = run_sweep(config)
    blocks = -(-len(symm_ent.sweep._plan(config).points) // symm_ent.sweep.BLOCK_POINTS)
    assert len(runs) == blocks
    assert rows
    by_point = {}
    for row in rows:
        by_point.setdefault((row.theta, row.theta2), []).append(row)
    expected = []
    for theta, theta2 in symm_ent.sweep._plan(config).points:
        single = run_sweep(_single_point_config(config, theta, theta2))
        assert len(by_point.get((theta, theta2), [])) == len(single)
        expected.extend(single)
    assert len(expected) == len(rows)
    header, *got_lines = rows_to_csv_text(rows).splitlines()
    _, *want_lines = rows_to_csv_text(expected).splitlines()
    for got_line, want_line in zip(got_lines, want_lines):
        for column, got, want in zip(header.split(","), got_line.split(","), want_line.split(",")):
            if column in NUMERIC_COLUMNS and got and want:
                assert abs(float(got) - float(want)) <= 1e-12, (column, got_line, want_line)
            else:
                assert got == want, (column, got_line, want_line)


def test_oracle_check_counts_the_points_the_statevector_finds_alive():
    config = GRID_CONFIGS[0]
    thetas = config.theta.values()
    # the central qubit holds the parity of the five outer qubits
    branch0 = 0.5 * (1 + (-np.cos(thetas)) ** 5)
    alive = int(np.sum(branch0 >= symm_ent.sweep.BRANCH_PROBABILITY_FLOOR))
    assert alive == thetas.size - 2
    report = run_oracle_check(config)
    assert report.passed and report.n_points == alive
    long_grid = run_oracle_check(GRID_CONFIGS[2])
    assert long_grid.passed and long_grid.n_points == symm_ent.sweep.BLOCK_POINTS + 44


# ------------------------------ post-selected branches just above the floor

# branch probabilities 1.7e-9, 1.05e-9 and 1.9e-9, just above the 1e-9 floor:
# post-selection divides each backend's roundoff by them
NEAR_FLOOR_CASES = [(3, 0, 4.742747411323311e-05), (6, 1, -2.64e-5), (2, 1, 2.0**-14)]


@pytest.mark.parametrize("n_outer, outcome, theta", NEAR_FLOOR_CASES)
def test_oracle_check_passes_just_above_the_branch_floor(n_outer, outcome, theta):
    config = SweepConfig(protocol="star", theta=GridSpec.single(theta), n_outer=n_outer,
                         postselect=outcome)
    report = run_oracle_check(config)
    assert report.passed and report.n_points == 1
    assert report.max_rdm_deviation <= 1e-14


def test_oracle_check_passes_near_every_dead_branch():
    """Single-point post-selected stars a little off the angles where one
    branch dies, theta = {0, pi} +- 10^U(-6, -3): post-selection divides each
    backend's roundoff by a branch probability down to the 1e-9 floor, so the
    MPS split must keep the small branch to its own relative accuracy."""
    rng = np.random.default_rng(1009)
    checked = 0
    for _ in range(200):
        n_outer, outcome = int(rng.integers(2, 8)), int(rng.integers(2))
        theta = rng.choice([0.0, np.pi]) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -3)
        config = SweepConfig(protocol="star", theta=GridSpec.single(theta), n_outer=n_outer,
                             postselect=outcome)
        report = run_oracle_check(config)
        if report.n_points:
            checked += 1
            assert report.passed, (n_outer, outcome, theta, report.max_rdm_deviation)
    assert checked >= 100


# ------------------------------ statevector blocks and one-sided branches

BOUNDARY_CONFIGS = [
    # five outer qubits: outcome 0 dies at both grid ends, outcome 1 at theta = pi
    SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 21), n_outer=5, postselect=outcome,
                backend="statevector")
    for outcome in (0, 1)
]


@pytest.mark.parametrize("points", [1, 2, 3])
@pytest.mark.parametrize("config", BOUNDARY_CONFIGS, ids=["dead-ends", "dead-middle"])
def test_statevector_block_size_does_not_change_results(config, points, monkeypatch):
    rows = rows_to_csv_text(run_sweep(config))
    report = run_oracle_check(config)
    assert report.passed and report.n_points == {0: 19, 1: 20}[config.postselect]
    runs = []
    run = StateVector.run_circuit
    monkeypatch.setattr(StateVector, "run_circuit",
                        lambda self, circuit: runs.append(circuit.grid) or run(self, circuit))
    monkeypatch.setattr(symm_ent.sweep, "MAX_BLOCK_AMPLITUDES", points * 2**6)
    blocks = [points] * (21 // points) + [21 % points] * (21 % points > 0)
    assert rows_to_csv_text(run_sweep(config)) == rows
    assert runs == blocks
    assert run_oracle_check(config) == report
    assert runs == blocks * 2


@pytest.mark.parametrize("dead_on", [StateVector, MatrixProductState], ids=["sv", "mps"])
def test_oracle_check_records_a_branch_alive_on_one_backend_only(dead_on, monkeypatch):
    config = SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 9), n_outer=3, postselect=0)
    index = 3  # both backends run the nine points as one stack
    a, b = np.sin(config.theta.values()[index] / 2), np.cos(config.theta.values()[index] / 2)
    branch = a**6 + 3 * a**2 * b**4
    single_rdm = dead_on.single_rdm

    def dead_at_index(self, site):
        rdms = single_rdm(self, site)
        rdms[index] = 0.0
        return rdms

    monkeypatch.setattr(dead_on, "single_rdm", dead_at_index)
    report = run_oracle_check(config)
    # theta = 0 and 2 pi are dead on both backends, the point at index 3 on one
    assert report.n_points == 6 and not report.passed
    floor = symm_ent.sweep.BRANCH_PROBABILITY_FLOOR
    assert abs(report.max_probability_deviation - (branch - floor)) < 1e-12
    assert report.max_rdm_deviation < 1e-12


def _kill_points(monkeypatch, backend, dead):
    """Make ``backend`` find the post-selected branch dead at every angle in ``dead``."""
    run, single_rdm = backend.run_circuit, backend.single_rdm
    block = []  # the angles of the block run last, which single_rdm reads next

    def run_circuit(self, circuit):
        block[:] = next(op.theta for op in circuit.ops if isinstance(op, Rotation))
        return run(self, circuit)

    def dead_single_rdm(self, site):
        rdms = single_rdm(self, site)
        rdms[np.isin(block, dead)] = 0.0
        return rdms

    monkeypatch.setattr(backend, "run_circuit", run_circuit)
    monkeypatch.setattr(backend, "single_rdm", dead_single_rdm)


@pytest.mark.parametrize("sv_points", [1, 2, 3])
@pytest.mark.parametrize("mps_points", [4, 5])
@pytest.mark.parametrize("steps", [9, 11, 13])
def test_oracle_check_aligns_the_backends_across_block_boundaries(
    steps, mps_points, sv_points, monkeypatch
):
    config = SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, steps), n_outer=3,
                         postselect=0)
    thetas = config.theta.values()
    # theta = 0 and 2 pi are dead on both backends, two more points on each one
    _kill_points(monkeypatch, StateVector, thetas[[2, steps - 3]])
    _kill_points(monkeypatch, MatrixProductState, thetas[[4, steps - 2]])
    whole = run_oracle_check(config)
    assert whole.n_points == steps - 6 and not whole.passed
    monkeypatch.setattr(symm_ent.sweep, "BLOCK_POINTS", mps_points)
    monkeypatch.setattr(symm_ent.sweep, "MAX_BLOCK_AMPLITUDES", sv_points * 2**4)
    blocked = run_oracle_check(config)
    assert (blocked.n_points, blocked.passed) == (whole.n_points, whole.passed)
    assert blocked.max_probability_deviation == whole.max_probability_deviation
    assert blocked.max_rdm_deviation < 1e-12
    assert blocked.max_concurrence_deviation < 1e-10


# --------------------------------------------------------- the block runner

# twelve qubits: the statevector runs blocks of MAX_BLOCK_AMPLITUDES / 2**12
# points (16), the MPS one block of 256 and one of 44; the branch is dead at
# both grid ends
STAR_BLOCKS = SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 300), n_outer=11,
                          postselect=0)
SV_BLOCK = symm_ent.sweep.MAX_BLOCK_AMPLITUDES // 2**12


@pytest.mark.parametrize("backend, size", [("statevector", SV_BLOCK), ("mps", 256)])
def test_the_block_runner_tiles_the_grid_in_blocks_sized_per_backend(backend, size):
    plan = _plan(replace(STAR_BLOCKS, backend=backend))
    blocks = list(_run_blocks(plan, plan.points, backend))
    assert [start for start, *_ in blocks] == list(range(0, 300, size))
    for start, block, state, alive, probabilities in blocks:
        assert block == plan.points[start : start + size]
        # each block is bitwise the run of its points alone
        [(_, alone_block, alone, alone_alive, alone_probabilities)] = _run_blocks(
            plan, block, backend
        )
        assert alone_block == block
        assert np.array_equal(alive, alone_alive)
        assert np.array_equal(probabilities, alone_probabilities)
        assert np.array_equal(_pair_rdms(state, plan.pairs), _pair_rdms(alone, plan.pairs))


def test_the_oracle_checks_every_live_point_of_every_block():
    # the live points are those whose branch reaches the floor, by the closed form
    probability = (1 + (-np.cos(STAR_BLOCKS.theta.values())) ** 11) / 2
    assert np.count_nonzero(probability >= symm_ent.sweep.BRANCH_PROBABILITY_FLOOR) == 298
    assert run_oracle_check(STAR_BLOCKS).n_points == 298


def test_a_dead_statevector_block_yields_no_state_between_live_ones():
    plan = _plan(replace(STAR_BLOCKS, backend="statevector"))
    live = tuple((theta, None) for theta in np.linspace(0.5, 2.5, SV_BLOCK).tolist())
    dead = tuple((theta, None) for theta in np.linspace(0.0, 1e-6, SV_BLOCK).tolist())
    blocks = list(_run_blocks(plan, live + dead + live[:2], "statevector"))
    assert [(start, len(block)) for start, block, *_ in blocks] == [
        (0, SV_BLOCK), (SV_BLOCK, SV_BLOCK), (2 * SV_BLOCK, 2)
    ]
    (_, _, first, *_), (_, _, state, alive, probabilities), (_, _, last, *_) = blocks
    assert state is None and alive.size == 0 and probabilities.size == 0
    assert first.grid == SV_BLOCK and last.grid == 2


@pytest.mark.parametrize("outcome", [0, 1])
def test_a_statevector_block_drops_a_central_qubit_that_no_pair_reads(outcome):
    # 40 points: blocks of 16, 16 and 8; for outcome 0 the branch is dead at both ends
    config = replace(STAR_BLOCKS, theta=GridSpec(0.0, TWO_PI, 40), postselect=outcome,
                     backend="statevector")
    plan = _plan(config)
    # one more pair reads the central qubit, so the same blocks keep it
    kept = _plan(replace(config, pairs=plan.pairs + ((1, plan.total),)))
    assert kept.reads == plan.reads
    dropped_run = _run_blocks(plan, plan.points, "statevector")
    kept_run = _run_blocks(kept, plan.points, "statevector")
    for (_, _, state, alive, p), (_, _, whole, whole_alive, whole_p) in zip(
        dropped_run, kept_run, strict=True
    ):
        assert np.array_equal(alive, whole_alive) and np.array_equal(p, whole_p)
        assert (state.n_qubits, whole.n_qubits) == (plan.total - 1, plan.total)
        assert state.grid == whole.grid == alive.size
        # a Gram over twice the rows, half of them zeros, sums in another order:
        # 2.4e-15 apart at most on this grid (OpenBLAS, SkylakeX kernels)
        deviation = np.abs(_pair_rdms(state, plan.pairs) - _pair_rdms(whole, plan.pairs))
        assert deviation.max() <= 1e-14


@pytest.mark.parametrize("outcome", [0, 1])
def test_a_pair_that_reads_the_central_qubit_keeps_it_collapsed(outcome):
    config = replace(STAR_BLOCKS, theta=GridSpec(0.0, TWO_PI, 21), postselect=outcome,
                     pairs=((3, 12), (3, 5)), backend="statevector")
    plan = _plan(config)
    projector = np.diag([1.0 - outcome, float(outcome)])  # |o><o|
    for _, _, state, alive, _ in _run_blocks(plan, plan.points, "statevector"):
        assert state.n_qubits == plan.total and state.grid == alive.size
        ring, central = _pair_rdms(state, plan.pairs)
        # one Gram of sites 3, 5 and 12 against one of site 3: 1.4e-15 apart at most there
        assert np.abs(central - np.kron(state.single_rdm(3), projector)).max() <= 1e-14
        assert np.abs(np.trace(ring, axis1=-2, axis2=-1) - 1.0).max() <= 1e-14


# ------------------------------------------------------------- causal cone


@st.composite
def cone_configs(draw):
    """A run of any protocol variant on at most 10 qubits, reading a random
    non-empty set of pairs, over a small random angle grid."""
    variant = draw(
        st.sampled_from(
            ["star", "star-0", "star-1", "linear-1", "linear-2", "linear-3", "linear-4",
             "periodic-grid", "periodic-offset"]
        )
    )
    start = draw(st.floats(0.0, 3.0))
    theta = GridSpec(start, start + draw(st.floats(0.5, 3.0)), draw(st.integers(2, 5)))
    if variant.startswith("star"):
        n_outer = draw(st.integers(1, 9))
        total = n_outer + 1
        kw = dict(n_outer=n_outer, postselect=None if variant == "star" else int(variant[-1]))
    elif variant.startswith("linear"):
        total = draw(st.integers(3, 10))
        kw = dict(n=total, case=int(variant[-1]))
    else:
        total = draw(st.integers(4, 10))
        if variant == "periodic-grid":
            kw = dict(n=total, theta2=GridSpec(0.3, 2.9, draw(st.integers(2, 3))))
        else:
            kw = dict(n=total, theta2_offset=draw(st.floats(-3.0, 3.0)))
    every_pair = [(i, j) for i in range(1, total) for j in range(i + 1, total + 1)]
    pairs = draw(st.lists(st.sampled_from(every_pair), min_size=1, max_size=6, unique=True))
    return SweepConfig(protocol=variant.split("-")[0], theta=theta, pairs=tuple(pairs), **kw)


@settings(max_examples=80, deadline=None)
@given(config=cone_configs())
def test_the_causal_cone_changes_no_read(config):
    plan = _plan(config)
    full = _block_circuit(plan.config, plan.points)
    cone = full.causal_cone(plan.reads)
    assert cone.grid == full.grid == len(plan.points)
    assert full.causal_cone(range(1, plan.total + 1)).ops == full.ops
    assert set(cone.ops) <= set(full.ops)
    # the same plan reading every qubit runs the whole circuit
    unpruned = replace(plan, reads=frozenset(range(1, plan.total + 1)))
    for backend in ("statevector", "mps"):
        pruned_run = _run_blocks(plan, plan.points, backend)
        whole_run = _run_blocks(unpruned, plan.points, backend)
        for pruned_block, whole_block in zip(pruned_run, whole_run, strict=True):
            _, _, state, alive, probabilities = pruned_block
            _, _, whole, whole_alive, whole_probabilities = whole_block
            assert np.array_equal(alive, whole_alive)
            if probabilities is not None:
                assert np.abs(probabilities - whole_probabilities).max(initial=0.0) <= 1e-13
            if state is not None:
                deviation = np.abs(_pair_rdms(state, plan.pairs) - _pair_rdms(whole, plan.pairs))
                assert deviation.max() <= 1e-13, backend


def test_a_chain_read_at_its_center_runs_about_half_its_circuit():
    plan = _plan(linear_config(n=60, pairs="bulk-center", backend="mps"))
    full = _block_circuit(plan.config, plan.points)
    cone = full.causal_cone(plan.reads)
    assert plan.reads == {30, 31}
    assert (len(cone.ops), len(full.ops)) == (62, 118)
    assert sum(isinstance(op, ControlledNot) for op in cone.ops) == 31


@pytest.mark.parametrize(
    "n_outer, postselect",
    [(n_outer, postselect) for n_outer in (1, 2, 3, 5, 11) for postselect in (None, 0, 1)
     if n_outer > 1 or postselect is None],
)
def test_every_star_run_over_star_all_keeps_every_op(n_outer, postselect):
    plan = _plan(
        SweepConfig(protocol="star", theta=GridSpec(0.0, TWO_PI, 5), n_outer=n_outer,
                    postselect=postselect)
    )
    full = _block_circuit(plan.config, plan.points)
    assert full.causal_cone(plan.reads).ops == full.ops
    # without post-selection, outer qubits read apart from qubit 1 and the
    # central one see only the gates up to their own CX
    if n_outer >= 5 and postselect is None:
        assert len(full.causal_cone({4, 5}).ops) == 2 * (n_outer - 3)
