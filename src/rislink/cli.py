"""Command-line front end: sweeps to CSV, crossing-point queries, self test.

Axis arguments use display units (``E_dBm=0:5:40`` sweeps transmit power
in dBm, ``kappa_dB`` the Rician factor in dB); single values are allowed
(``E_dBm=20``).  Sweeps run serially; a rerun at the same ``--seed``
writes the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis
from .config import (
    SystemConfig,
    db2lin,
    dump_config,
    load_config,
    parse_config_value,
    watt2dbm,
)
from .errors import (
    ConfigurationError,
    NoCrossingError,
    PlacementError,
    RislinkError,
    SearchSpaceError,
    SelectionInfeasibleError,
)
from .montecarlo import (
    AXIS_NAMES,
    SweepResult,
    TrialPlan,
    closed_form_sweep,
    estimate_ber,
    estimate_ergodic_se,
    estimate_outage,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CROSSING = 4
EXIT_SEARCH_SPACE = 5

# Largest sweep grid ``--axis`` accepts, checked before the grid is built.
_MAX_AXIS_POINTS = 10**6


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# One CSV row; ``%.12g`` takes the float formatter of :func:`_fmt`.
_ROW = "%.12g,%s,%.12g,%.12g,%.12g,%.12g,%d"


def write_csv(result: SweepResult, path) -> None:
    """Write :func:`format_csv` of a sweep to ``path``."""
    text = format_csv(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def format_csv(result: SweepResult) -> str:
    """Serialize a sweep: one row per (axis value, scheme), 12 significant
    digits, fixed column order, deterministic bytes."""
    if not result.axis_values or not result.schemes or not result.means:
        raise ValueError("refusing to write an empty sweep")
    lines = ["axis,scheme,metric,stderr,closed_form_1,closed_form_2,n_trials"]
    for i, axis_value in enumerate(result.axis_values):
        for scheme in result.schemes:
            approx, upper = result.closed_form[scheme][i]
            lines.append(_ROW % (axis_value, scheme, result.means[scheme][i],
                                 result.stderrs[scheme][i], approx, upper,
                                 result.n_trials[scheme][i]))
    return "\n".join(lines) + "\n"


def _parse_axis(spec_str: str) -> tuple[str, tuple[float, ...]]:
    """Parse ``NAME=start:step:stop`` or ``NAME=value`` into a grid."""
    if "=" not in spec_str:
        raise ConfigurationError(f"axis must look like NAME=start:step:stop, got {spec_str!r}")
    name, _, grid = spec_str.partition("=")
    name = name.strip()
    if name not in AXIS_NAMES:
        raise ConfigurationError(
            f"unknown axis {name!r}; expected one of {', '.join(AXIS_NAMES)}"
        )
    parts = grid.split(":")
    try:
        numbers = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"bad axis grid {grid!r}") from exc
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigurationError(f"axis grid {grid!r} must be finite")
    if len(numbers) == 1:
        return name, (numbers[0],)
    if len(numbers) != 3:
        raise ConfigurationError(f"axis grid needs start:step:stop, got {grid!r}")
    start, step, stop = numbers
    if step <= 0 or stop < start:
        raise ConfigurationError("axis grid needs step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_AXIS_POINTS:  # also an infinite span
        raise ConfigurationError(
            f"axis grid {grid!r} has more than {_MAX_AXIS_POINTS} points"
        )
    return name, tuple(start + i * step for i in range(int(math.floor(steps)) + 1))


def _parse_overrides(items: list[str]) -> dict[str, object]:
    """Typed configuration fields of the ``--set KEY=VALUE`` items."""
    overrides = {}
    for item in items:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        overrides[key.strip()] = parse_config_value(key.strip(), raw.strip())
    return overrides


def _check_output_path(path: str, option: str) -> None:
    """Reject an output path that cannot name a new or existing file
    before any work is done."""
    if not path:
        raise ConfigurationError(f"{option} needs a file name")
    if os.path.isdir(path):
        raise ConfigurationError(f"{option} {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigurationError(f"{option} {path!r}: directory {parent!r} does not exist")


def _load_effective_config(args: argparse.Namespace, **fixed) -> SystemConfig:
    """The ``--config`` file (or the defaults) with the ``--set`` overrides
    and then ``fixed`` applied in one validated replace."""
    overrides = _parse_overrides(args.overrides)
    if args.config == "":
        raise ConfigurationError("--config needs a file name")
    config = SystemConfig()
    if args.config is not None:
        try:
            config = load_config(args.config)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"--config {args.config!r} is not UTF-8 text") from exc
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read --config {args.config!r}: {exc.strerror or exc}"
            ) from exc
    if overrides or fixed:
        config = config.replace(**{**overrides, **fixed})
    return config


def _outage_threshold(gamma_th_db: float) -> float:
    """Linear outage threshold of a finite ``--gamma-th-db``."""
    if not math.isfinite(gamma_th_db):
        raise ConfigurationError(f"outage threshold {gamma_th_db} dB must be finite")
    try:
        return db2lin(gamma_th_db)
    except OverflowError as exc:
        raise ConfigurationError(f"outage threshold {gamma_th_db} dB is out of range") from exc


def _build_plan(args: argparse.Namespace) -> TrialPlan:
    axis_name, axis_values = _parse_axis(args.axis)
    schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
    outage = {"gamma_th": _outage_threshold(args.gamma_th_db)} if "gamma_th_db" in args else {}
    return TrialPlan(
        axis_name=axis_name,
        axis_values=axis_values,
        schemes=schemes,
        n_angle_epochs=args.angle_epochs,
        n_fading_epochs=args.fading_epochs,
        base_seed=args.seed,
        **outage,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_effective_config(args)
    plan = _build_plan(args)
    _check_output_path(args.output, "--output")
    if args.verb == "se-sweep":
        result = estimate_ergodic_se(plan, config)
    elif args.verb == "outage-sweep":
        result = estimate_outage(plan, config)
    else:
        result = estimate_ber(plan, config, min_bits=args.min_bits)
    write_csv(result, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _parse_profile(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"bad gain profile {text!r}") from exc


def _cmd_crossing_point(args: argparse.Namespace) -> int:
    config = _load_effective_config(args, **({} if args.n_rx is None else {"n_rx": args.n_rx}))
    params = analysis.ClosedFormParams.from_config(config)
    if args.profile is not None:
        params = replace(params, gain_profile=_parse_profile(args.profile))
    e_th = analysis.crossing_point(params)
    print(f"crossing point: {_fmt(e_th)} W ({watt2dbm(e_th):.2f} dBm)")
    closed_form = {2: analysis.crossing_point_two_stream,
                   3: analysis.crossing_point_three_stream}.get(config.n_rx)
    if closed_form is not None:
        closed = closed_form(params)
        delta = abs(e_th - closed) / closed
        print(f"closed form: {_fmt(closed)} W (relative delta {delta:.3e})")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.output is not None and not args.axis:
        raise ConfigurationError("--output needs --axis")
    if args.axis and not args.output:
        raise ConfigurationError("analyze with an axis needs --output")
    config = _load_effective_config(args)
    for path, option in ((args.dump_config, "--dump-config"), (args.output, "--output")):
        if path is not None:
            _check_output_path(path, option)
    if args.dump_config:
        dump_config(config, args.dump_config)
        print(f"wrote {args.dump_config}")
    if args.axis:
        write_csv(closed_form_sweep(config, *_parse_axis(args.axis)), args.output)
        print(f"wrote {args.output}")
    if not args.dump_config and not args.axis:
        _print_summary(config)
    return EXIT_OK


def _print_summary(config: SystemConfig) -> None:
    """Print the closed forms at one config; everything is evaluated before
    the first line, so a rejected input prints only its error."""
    params = analysis.ClosedFormParams.from_config(config)
    c = params.c_values()
    crossing = None
    if config.n_rx >= 2:
        try:
            e_th = analysis.crossing_point(params)
            crossing = f"{_fmt(e_th)} W ({watt2dbm(e_th):.2f} dBm)"
        except NoCrossingError as exc:
            crossing = f"none ({exc})"
    lines = [
        f"transmit power: {_fmt(config.transmit_power)} W",
        f"stream constants: {', '.join(_fmt(v) for v in c)}",
        f"sm approximation: {_fmt(analysis.se_sm_approx(c))} bits/s/Hz",
        f"sm upper bound:   {_fmt(analysis.se_sm_upper(c))} bits/s/Hz",
        f"bf upper bound:   {_fmt(analysis.se_bf_upper(params))} bits/s/Hz",
        f"db upper bound:   {_fmt(analysis.se_db_upper(params))}"
        f" bits/s/Hz (slots={config.n_slots})",
    ]
    if crossing is not None:
        lines.append(f"crossing point:   {crossing}")
    print("\n".join(lines))


def _cmd_selftest(args: argparse.Namespace) -> int:
    del args
    from . import selftest

    return selftest.run()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--seed", type=int, default=20240601, help="base RNG seed")
    parser.add_argument("--scheme", required=True, help="comma list of sm,bf,ds,db")
    parser.add_argument(
        "--axis", required=True, metavar="NAME=START:STEP:STOP", help="sweep axis"
    )
    parser.add_argument("--output", required=True, help="CSV output path")
    parser.add_argument("--angle-epochs", type=int, default=200)
    parser.add_argument("--fading-epochs", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated options: a prefix such as --gamma-th would otherwise
    # bind silently to the one option it starts.
    parser = argparse.ArgumentParser(
        prog="rislink",
        allow_abbrev=False,
        description="Link-level simulator for surface-assisted MIMO channel shaping",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, doc in (
        ("se-sweep", "Monte Carlo ergodic spectral efficiency over a sweep axis"),
        ("ber-sweep", "Monte Carlo bit error rate over a sweep axis"),
        ("outage-sweep", "Monte Carlo outage probability over a sweep axis"),
    ):
        p = sub.add_parser(verb, help=doc, allow_abbrev=False)
        _add_sweep_args(p)
        if verb == "ber-sweep":
            p.add_argument("--min-bits", type=int, default=1_000_000)
        elif verb == "outage-sweep":
            p.add_argument("--gamma-th-db", type=float, default=10.0, help="outage threshold")

    p = sub.add_parser("crossing-point", help="solve the bound crossing power",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--n-rx", type=int, default=None, help="stream count (default: config)")
    p.add_argument(
        "--profile",
        default=None,
        metavar="G1,G2,...",
        help="per-surface gain profile overriding the equal target",
    )

    p = sub.add_parser("analyze", help="closed-form summary, sweep, or config dump",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--axis", default=None, metavar="NAME=START:STEP:STOP")
    p.add_argument("--output", default=None, help="CSV output path for --axis")
    p.add_argument("--dump-config", default=None, help="write the effective config file")

    sub.add_parser("selftest", help="run fast invariant checks", allow_abbrev=False)
    return parser


# One parser per process: parsing leaves no state on it.
_parser = functools.cache(build_parser)


_VERBS = {
    "se-sweep": _cmd_sweep,
    "ber-sweep": _cmd_sweep,
    "outage-sweep": _cmd_sweep,
    "crossing-point": _cmd_crossing_point,
    "analyze": _cmd_analyze,
    "selftest": _cmd_selftest,
}


# (error classes, exit status) in order: an error takes the first row it
# is an instance of, and the last row holds every error a command reports.
_EXIT_CODES = (
    ((ConfigurationError, PlacementError), EXIT_BAD_CONFIG),
    (SelectionInfeasibleError, EXIT_INFEASIBLE),
    (NoCrossingError, EXIT_NO_CROSSING),
    (SearchSpaceError, EXIT_SEARCH_SPACE),
    ((RislinkError, OSError), EXIT_FAILURE),
)


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command, mapping every error class to a distinct status."""
    try:
        return _VERBS[args.verb](args)
    except _EXIT_CODES[-1][0] as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


def main(argv: list[str] | None = None) -> None:
    raise SystemExit(dispatch(_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
