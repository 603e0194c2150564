"""Command-line front end: sweeps to CSV, crossing-point queries, self test.

Axis arguments use display units (``E_dBm=0:5:40`` sweeps transmit power
in dBm, ``kappa_dB`` the Rician factor in dB); single values are allowed
(``E_dBm=20``).  Sweeps run serially; a rerun at the same ``--seed``
writes the same bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

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
    apply_axis,
    check_axis_grid,
    closed_form_companions,
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


@dataclass
class Command:
    """One parsed CLI invocation."""

    verb: str
    config_path: str | None = None
    output_path: str | None = None
    overrides: dict[str, object] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_csv(result: SweepResult, path) -> None:
    """Serialize a sweep: one row per (axis value, scheme), 12 significant
    digits, fixed column order, deterministic bytes."""
    if not result.axis_values or not result.schemes or not result.means:
        raise ValueError("refusing to write an empty sweep")
    lines = ["axis,scheme,metric,stderr,closed_form_1,closed_form_2,n_trials"]
    for i, axis_value in enumerate(result.axis_values):
        for scheme in result.schemes:
            approx, upper = result.closed_form[scheme][i]
            lines.append(
                ",".join(
                    (
                        _fmt(axis_value),
                        scheme,
                        _fmt(result.means[scheme][i]),
                        _fmt(result.stderrs[scheme][i]),
                        _fmt(approx),
                        _fmt(upper),
                        str(result.n_trials[scheme][i]),
                    )
                )
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, tuple(start + i * step for i in range(count))


def _load_effective_config(cmd: Command) -> SystemConfig:
    config = load_config(cmd.config_path) if cmd.config_path else SystemConfig()
    if cmd.overrides:
        config = config.replace(**cmd.overrides)
    return config


def _outage_threshold(gamma_th_db: float) -> float:
    """Linear outage threshold of a finite ``--gamma-th-db``."""
    if not math.isfinite(gamma_th_db):
        raise ConfigurationError(f"outage threshold {gamma_th_db} dB must be finite")
    try:
        return db2lin(gamma_th_db)
    except OverflowError as exc:
        raise ConfigurationError(f"outage threshold {gamma_th_db} dB is out of range") from exc


def _build_plan(cmd: Command, schemes_csv: str, axis_spec: str) -> TrialPlan:
    axis_name, axis_values = _parse_axis(axis_spec)
    schemes = tuple(s.strip() for s in schemes_csv.split(",") if s.strip())
    return TrialPlan(
        axis_name=axis_name,
        axis_values=axis_values,
        schemes=schemes,
        n_angle_epochs=int(cmd.options["angle_epochs"]),
        n_fading_epochs=int(cmd.options["fading_epochs"]),
        base_seed=int(cmd.options["seed"]),
        gamma_th=_outage_threshold(float(cmd.options["gamma_th_db"])),
    )


def _cmd_sweep(cmd: Command) -> int:
    config = _load_effective_config(cmd)
    plan = _build_plan(cmd, cmd.options["schemes"], cmd.options["axis"])
    if cmd.verb == "se-sweep":
        result = estimate_ergodic_se(plan, config)
    elif cmd.verb == "outage-sweep":
        result = estimate_outage(plan, config)
    else:
        result = estimate_ber(plan, config, min_bits=int(cmd.options["min_bits"]))
    write_csv(result, cmd.output_path)
    print(f"wrote {cmd.output_path}")
    return EXIT_OK


def _parse_profile(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"bad gain profile {text!r}") from exc


def _cmd_crossing_point(cmd: Command) -> int:
    config = _load_effective_config(cmd)
    n_rx = int(cmd.options["n_rx"] or config.n_rx)
    if n_rx < 2:
        raise ConfigurationError("crossing point needs at least two streams")
    config = config.replace(n_rx=n_rx)
    params = analysis.ClosedFormParams.from_config(config)
    profile_csv = cmd.options.get("profile")
    if profile_csv:
        params = replace(params, gain_profile=_parse_profile(str(profile_csv)))
    e_th = analysis.crossing_point(params)
    print(f"crossing point: {_fmt(e_th)} W ({watt2dbm(e_th):.2f} dBm)")
    closed = None
    if n_rx == 2:
        closed = analysis.crossing_point_two_stream(params)
    elif n_rx == 3:
        closed = analysis.crossing_point_three_stream(params)
    if closed is not None:
        delta = abs(e_th - closed) / closed
        print(f"closed form: {_fmt(closed)} W (relative delta {delta:.3e})")
    return EXIT_OK


def _cmd_analyze(cmd: Command) -> int:
    config = _load_effective_config(cmd)
    dump_path = cmd.options.get("dump_config")
    if dump_path:
        dump_config(config, dump_path)
        print(f"wrote {dump_path}")
    axis_spec = cmd.options.get("axis")
    if axis_spec:
        if not cmd.output_path:
            raise ConfigurationError("analyze with an axis needs --output")
        _write_closed_form_sweep(config, axis_spec, cmd.output_path)
        print(f"wrote {cmd.output_path}")
    if not dump_path and not axis_spec:
        _print_summary(config)
    return EXIT_OK


def _write_closed_form_sweep(config: SystemConfig, axis_spec: str, path: str) -> None:
    """Closed-form-only sweep: the metric column carries each scheme's
    primary closed form (approximation where one exists, bound otherwise)."""
    axis_name, axis_values = _parse_axis(axis_spec)
    check_axis_grid(axis_values)
    configs = [apply_axis(config, axis_name, value) for value in axis_values]
    schemes = ("sm", "bf", "db")
    result = SweepResult("closed_form", axis_name, axis_values, schemes)
    companions = closed_form_companions(schemes, configs)
    for scheme in schemes:
        pairs = companions[scheme]
        result.means[scheme] = tuple(u if math.isnan(a) else a for a, u in pairs)
        result.stderrs[scheme] = (0.0,) * len(configs)
        result.closed_form[scheme] = pairs
        result.n_trials[scheme] = (0,) * len(configs)
    write_csv(result, path)


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
        except NoCrossingError:
            crossing = "none at positive power"
    lines = [
        f"transmit power: {_fmt(config.transmit_power)} W",
        f"stream constants: {', '.join(_fmt(v) for v in c)}",
        f"sm approximation: {_fmt(analysis.se_sm_approx(c))} bits/s/Hz",
        f"sm upper bound:   {_fmt(analysis.se_sm_upper(c))} bits/s/Hz",
        f"bf upper bound:   {_fmt(analysis.se_bf_upper(params))} bits/s/Hz",
        f"db upper bound:   {_fmt(analysis.se_db_upper(params, config.n_slots))}"
        f" bits/s/Hz (slots={config.n_slots})",
    ]
    if crossing is not None:
        lines.append(f"crossing point:   {crossing}")
    print("\n".join(lines))


def _cmd_selftest(cmd: Command) -> int:
    del cmd
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
    parser.add_argument("--seed", type=int, default=20240601, help="base RNG seed")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--scheme", required=True, help="comma list of sm,bf,ds,db")
    parser.add_argument(
        "--axis", required=True, metavar="NAME=START:STEP:STOP", help="sweep axis"
    )
    parser.add_argument("--output", required=True, help="CSV output path")
    parser.add_argument("--angle-epochs", type=int, default=200)
    parser.add_argument("--fading-epochs", type=int, default=10)
    parser.add_argument("--gamma-th-db", type=float, default=10.0, help="outage threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Link-level simulator for surface-assisted MIMO channel shaping",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, doc in (
        ("se-sweep", "Monte Carlo ergodic spectral efficiency over a sweep axis"),
        ("ber-sweep", "Monte Carlo bit error rate over a sweep axis"),
        ("outage-sweep", "Monte Carlo outage probability over a sweep axis"),
    ):
        p = sub.add_parser(verb, help=doc)
        _add_sweep_args(p)
        if verb == "ber-sweep":
            p.add_argument("--min-bits", type=int, default=1_000_000)

    p = sub.add_parser("crossing-point", help="solve the bound crossing power")
    _add_common(p)
    p.add_argument("--n-rx", type=int, default=None, help="stream count (default: config)")
    p.add_argument(
        "--profile",
        default=None,
        metavar="G1,G2,...",
        help="per-surface gain profile overriding the equal target",
    )

    p = sub.add_parser("analyze", help="closed-form summary, sweep, or config dump")
    _add_common(p)
    p.add_argument("--axis", default=None, metavar="NAME=START:STEP:STOP")
    p.add_argument("--output", default=None, help="CSV output path for --axis")
    p.add_argument("--dump-config", default=None, help="write the effective config file")

    p = sub.add_parser("selftest", help="run fast invariant checks")
    _add_common(p)
    return parser


def build_command(argv: list[str] | None = None) -> Command:
    args = build_parser().parse_args(argv)
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        overrides[key.strip()] = parse_config_value(key.strip(), raw.strip())
    options = {"seed": args.seed}
    for name in (
        "scheme",
        "axis",
        "angle_epochs",
        "fading_epochs",
        "gamma_th_db",
        "min_bits",
        "n_rx",
        "profile",
        "dump_config",
    ):
        if hasattr(args, name):
            options[name if name != "scheme" else "schemes"] = getattr(args, name)
    return Command(
        verb=args.verb,
        config_path=getattr(args, "config", None),
        output_path=getattr(args, "output", None),
        overrides=overrides,
        options=options,
    )


_VERBS = {
    "se-sweep": _cmd_sweep,
    "ber-sweep": _cmd_sweep,
    "outage-sweep": _cmd_sweep,
    "crossing-point": _cmd_crossing_point,
    "analyze": _cmd_analyze,
    "selftest": _cmd_selftest,
}


def dispatch(cmd: Command) -> int:
    """Run one command, mapping every error class to a distinct status."""
    try:
        return _VERBS[cmd.verb](cmd)
    except (ConfigurationError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SelectionInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CROSSING
    except SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_SPACE
    except RislinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def main(argv: list[str] | None = None) -> None:
    try:
        cmd = build_command(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_CONFIG)
    raise SystemExit(dispatch(cmd))


if __name__ == "__main__":
    main()
