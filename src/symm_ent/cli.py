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
    rows_to_text,
    run_compare,
    run_oracle_check,
    run_sweep,
    write_rows,
)


def _parse_pairs(text: str):
    if not text or text in PAIR_KEYWORDS:
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


def _out_path(ctx, param, value):
    """Reject an empty ``--out``, or one whose directory is missing, before the run."""
    if value == "":
        raise click.BadParameter("the path is empty")
    if value is not None and not Path(value).parent.is_dir():
        raise click.BadParameter(f"directory {str(Path(value).parent)!r} does not exist")
    return value


def _run(action, options: dict, out: str | None = None, fmt: str = "csv"):
    """Build the config from the common options, run ``action(config)``, write its
    rows to ``out`` when given and return the result. A ValueError is a usage
    error (exit 2); a RuntimeError, or an OSError writing ``out``, exits 1."""
    try:
        theta2 = options.pop("theta2")
        config = SweepConfig(
            theta=GridSpec.parse(options.pop("theta")),
            theta2=GridSpec.parse(theta2) if theta2 else None,
            pairs=_parse_pairs(options.pop("pairs")),
            **options,
        )
        result = action(config)
        if out is not None:  # a compare report carries the rows it swept
            write_rows(getattr(result, "rows", result), out, fmt)
        return result
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    except (RuntimeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


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
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


_backend_option = click.option("--backend", type=click.Choice(BACKENDS), default="mps",
                               show_default=True, help="mps is exact on every protocol at "
                               "any size; statevector is capped at 12 qubits.")


@click.group()
def main():
    """Symmetric multiqubit entangled states: sweeps, comparisons, cross-checks."""


@main.command()
@_common_options
@_backend_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_out_path,
              help="Write the table here instead of stdout.")
def sweep(fmt, out, **options):
    """Sweep the angle grid and emit one row per (grid point, pair)."""
    rows = _run(run_sweep, options, out, fmt)
    if out is None:
        click.echo(rows_to_text(rows, fmt), nl=False)


@main.command()
@_common_options
@_backend_option
@click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_out_path,
              help="Also write the underlying sweep rows here as CSV.")
def compare(out, **options):
    """Check swept concurrences against their closed forms (threshold 1e-8)."""
    report = _run(run_compare, options, out)
    click.echo(render_compare(report))
    if not report.passed:
        sys.exit(1)


@main.command("oracle-check")
@_common_options
def oracle_check(**options):
    """Run both backends on identical circuits and report their disagreement."""
    report = _run(run_oracle_check, options)
    click.echo(render_oracle(report))
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
