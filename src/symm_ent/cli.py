"""Command-line front end: angle sweeps, formula comparisons, backend checks.

Exit codes: 0 on success/pass, 1 when a validation threshold is exceeded,
2 on usage errors. Output is deterministic for identical invocations.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .sweep import (
    BACKENDS,
    PAIR_KEYWORDS,
    PROTOCOLS,
    GridSpec,
    SweepConfig,
    render_compare,
    render_oracle,
    rows_to_csv_text,
    rows_to_json_text,
    run_compare,
    run_oracle_check,
    run_sweep,
)


def _parse_pairs(text: str):
    if text in PAIR_KEYWORDS:
        return text
    pairs = []
    for chunk in text.split(","):
        bits = chunk.split(":")
        if len(bits) != 2:
            raise click.UsageError(
                f"bad pair {chunk!r}: expected 'i:j' or one of the keywords "
                f"{', '.join(PAIR_KEYWORDS)}"
            )
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise click.UsageError(f"bad pair {chunk!r}: sites must be integers") from None
    return tuple(pairs)


def _build_config(
    protocol,
    case,
    n,
    n_outer,
    theta,
    theta2,
    theta2_offset,
    pairs,
    postselect,
    backend,
) -> SweepConfig:
    try:
        grid = GridSpec.parse(theta)
        grid2 = GridSpec.parse(theta2) if theta2 else None
        return SweepConfig(
            protocol=protocol,
            theta=grid,
            case=case,
            n=n,
            n_outer=n_outer,
            theta2=grid2,
            theta2_offset=theta2_offset,
            pairs=_parse_pairs(pairs) if pairs else "",
            postselect=postselect,
            backend=backend,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _common_options(fn):
    options = [
        click.option(
            "--protocol",
            type=click.Choice(PROTOCOLS),
            required=True,
            help="Which state-generation protocol to run.",
        ),
        click.option("--case", type=click.IntRange(1, 4), default=4, show_default=True,
                      help="Gate ordering for the linear protocol."),
        click.option("--n", type=int, default=None, help="Chain length (linear/periodic)."),
        click.option("--n-outer", type=int, default=None, help="Outer qubits (star)."),
        click.option("--theta", required=True,
                      help="Angle grid 'start:stop:steps' (inclusive) or a single angle, radians."),
        click.option("--theta2", default=None,
                      help="Second angle grid for the periodic protocol."),
        click.option("--theta2-offset", type=float, default=None,
                      help="Fix theta2 = theta + offset instead of a second grid."),
        click.option("--pairs", default="",
                      help=f"Pair selection: {', '.join(PAIR_KEYWORDS)}, or explicit "
                           "'i:j,k:l'. Default: all-adjacent (star: star-all)."),
        click.option("--postselect", type=click.IntRange(0, 1), default=None,
                      help="Condition on measuring the central qubit (star only)."),
        click.option("--backend", type=click.Choice(BACKENDS),
                      default="auto", show_default=True,
                      help="auto picks statevector up to 12 qubits, MPS beyond."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Symmetric multiqubit entangled states: sweeps, comparisons, cross-checks."""


@main.command()
@_common_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the table here instead of stdout.")
def sweep(protocol, case, n, n_outer, theta, theta2, theta2_offset, pairs, postselect,
          backend, fmt, out):
    """Sweep the angle grid and emit one row per (grid point, pair)."""
    config = _build_config(protocol, case, n, n_outer, theta, theta2, theta2_offset,
                           pairs, postselect, backend)
    try:
        rows = run_sweep(config)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    except RuntimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    text = rows_to_csv_text(rows) if fmt == "csv" else rows_to_json_text(rows)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command()
@_common_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the underlying sweep rows here as CSV.")
def compare(protocol, case, n, n_outer, theta, theta2, theta2_offset, pairs, postselect,
            backend, out):
    """Check swept concurrences against their closed forms (threshold 1e-8)."""
    config = _build_config(protocol, case, n, n_outer, theta, theta2, theta2_offset,
                           pairs, postselect, backend)
    try:
        report = run_compare(config)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    except RuntimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if out:
        Path(out).write_text(rows_to_csv_text(report.rows), encoding="utf-8")
    click.echo(render_compare(report))
    if not report.passed:
        sys.exit(1)


@main.command("oracle-check")
@_common_options
def oracle_check(protocol, case, n, n_outer, theta, theta2, theta2_offset, pairs,
                 postselect, backend):
    """Run both backends on identical circuits and report their disagreement."""
    config = _build_config(protocol, case, n, n_outer, theta, theta2, theta2_offset,
                           pairs, postselect, backend)
    try:
        report = run_oracle_check(config)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    except RuntimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(render_oracle(report))
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
