"""Command-line interface: parsing, CSV serialization, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink import channel, cli, montecarlo, selftest
from rislink.config import watt2dbm
from rislink.errors import ConfigurationError
from rislink.montecarlo import SweepResult

from conftest import BASE_SEED


def _run(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline
    header, *rows = lines[:-1]
    return header, [r.split(",") for r in rows]


class TestAxisParsing:
    def test_range_form(self):
        name, values = cli._parse_axis("E_dBm=0:5:40")
        assert name == "E_dBm"
        assert values == tuple(float(v) for v in range(0, 45, 5))

    def test_single_value_form(self):
        assert cli._parse_axis("K=4") == ("K", (4.0,))

    def test_fractional_grid(self):
        name, values = cli._parse_axis("sigma_e=0:0.05:0.1")
        assert name == "sigma_e"
        assert len(values) == 3
        assert values[0] == 0.0
        assert math.isclose(values[2], 0.1)

    @pytest.mark.parametrize("bad", [
        "E_dBm",              # no '='
        "bogus=1:1:3",        # unknown axis
        "E_dBm=a:b:c",        # non-numeric
        "E_dBm=0:5",          # two-part grid
        "E_dBm=0:0:10",       # zero step
        "E_dBm=10:5:0",       # stop < start
        "E_dBm=0:1:inf",      # infinite stop
        "E_dBm=0:inf:10",     # infinite step
        "E_dBm=nan",          # non-finite single value
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            cli._parse_axis(bad)

    def test_grid_size_limit(self):
        assert len(cli._parse_axis("E_dBm=0:1:999999")[1]) == 10**6
        with pytest.raises(ConfigurationError, match="more than 1000000 points"):
            cli._parse_axis("E_dBm=0:1:1000000")


@pytest.fixture(scope="module")
def small_sweep():
    plan = rl.TrialPlan(
        axis_name="E_dBm", axis_values=(0.0, 20.0), schemes=("sm", "bf"),
        n_angle_epochs=2, n_fading_epochs=2, base_seed=BASE_SEED,
    )
    return plan, rl.estimate_ergodic_se(plan, rl.SystemConfig())


class TestCsvFormat:
    HEADER = "axis,scheme,metric,stderr,closed_form_1,closed_form_2,n_trials"

    def test_layout_and_values(self, small_sweep, tmp_path):
        _, result = small_sweep
        out = tmp_path / "sweep.csv"
        cli.write_csv(result, out)
        header, rows = _read_rows(out)
        assert header == self.HEADER
        assert len(rows) == 4
        # Axis-major, scheme-minor row order.
        assert [(r[0], r[1]) for r in rows] == [
            ("0", "sm"), ("0", "bf"), ("20", "sm"), ("20", "bf"),
        ]
        for i, axis_value in enumerate(result.axis_values):
            for j, scheme in enumerate(result.schemes):
                row = rows[2 * i + j]
                assert row[2] == f"{result.means[scheme][i]:.12g}"
                assert row[3] == f"{result.stderrs[scheme][i]:.12g}"
                approx, upper = result.closed_form[scheme][i]
                assert row[4] == f"{approx:.12g}"
                assert row[5] == f"{upper:.12g}"
                assert row[6] == str(result.n_trials[scheme][i])

    def test_row_template_matches_per_field_format(self):
        # The row template must write the bytes of _fmt field by field,
        # on every float class and on counts beyond 64 bits.
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, np.float64(-2.5), 7]
        counts = [0, 1, 10**30, np.int64(2**63 - 1), 12, 3, 5, 8, 13]
        result = SweepResult("se", "E_dBm", tuple(values), ("sm", "bf"))
        for shift, scheme in enumerate(result.schemes, start=1):
            rolled = values[shift:] + values[:shift]
            result.means[scheme] = tuple(rolled)
            result.stderrs[scheme] = tuple(reversed(rolled))
            result.closed_form[scheme] = tuple(zip(rolled[2:] + rolled[:2], values))
            result.n_trials[scheme] = tuple(counts[shift:] + counts[:shift])
        expected = [self.HEADER]
        for i, axis_value in enumerate(result.axis_values):
            for scheme in result.schemes:
                approx, upper = result.closed_form[scheme][i]
                expected.append(",".join((
                    cli._fmt(axis_value), scheme, cli._fmt(result.means[scheme][i]),
                    cli._fmt(result.stderrs[scheme][i]), cli._fmt(approx), cli._fmt(upper),
                    str(result.n_trials[scheme][i]),
                )))
        text = cli.format_csv(result)
        assert text == "\n".join(expected) + "\n"
        assert {"nan", "inf", "-inf", "-0", "4.94065645841e-324", "1e+300",
                "1000000000000000000000000000000"} <= set(text.replace("\n", ",").split(","))

    def test_rewrite_is_byte_identical(self, small_sweep, tmp_path):
        _, result = small_sweep
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        cli.write_csv(result, first)
        cli.write_csv(result, second)
        assert first.read_bytes() == second.read_bytes()

    def test_refuses_empty_result(self, tmp_path):
        out = tmp_path / "empty.csv"
        empty = SweepResult("se", "E_dBm", (1.0,), ("sm",))
        with pytest.raises(ValueError):
            cli.write_csv(empty, out)
        assert not out.exists()


class TestEndToEnd:
    SWEEP = [
        "se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=0:20:20",
        "--angle-epochs", "2", "--fading-epochs", "2",
        "--seed", str(BASE_SEED),
    ]

    def test_se_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "se.csv"
        assert _run(self.SWEEP + ["--output", str(out)]) == cli.EXIT_OK
        assert f"wrote {out}" in capsys.readouterr().out
        header, rows = _read_rows(out)
        assert len(rows) == 4
        se_values = [float(r[2]) for r in rows]
        assert all(v > 0 and math.isfinite(v) for v in se_values)
        # More transmit power helps both schemes.
        assert se_values[2] > se_values[0]
        assert se_values[3] > se_values[1]

    def test_ber_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "ber.csv"
        argv = [
            "ber-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
            "--angle-epochs", "2", "--fading-epochs", "2",
            "--min-bits", "2000", "--output", str(out),
        ]
        assert _run(argv) == cli.EXIT_OK
        _, rows = _read_rows(out)
        assert len(rows) == 1
        assert 0.0 <= float(rows[0][2]) <= 1.0
        assert int(rows[0][6]) >= 2000
        # No closed forms for error rate.
        assert rows[0][4] == "nan" and rows[0][5] == "nan"

    def test_outage_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "outage.csv"
        argv = [
            "outage-sweep", "--scheme", "bf", "--axis", "E_dBm=20",
            "--angle-epochs", "2", "--fading-epochs", "2",
            "--gamma-th-db", "10", "--output", str(out),
        ]
        assert _run(argv) == cli.EXIT_OK
        _, rows = _read_rows(out)
        assert 0.0 <= float(rows[0][2]) <= 1.0


class TestCrossingPoint:
    def test_two_stream_output(self, capsys):
        assert _run(["crossing-point", "--n-rx", "2"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("crossing point: ")
        watts = float(out[0].split()[2])
        assert math.isclose(watts, 0.323976742401447, rel_tol=1e-11)
        assert "(25.11 dBm)" in out[0]
        assert out[1].startswith("closed form: ")
        delta = float(out[1].rstrip(")").split()[-1])
        assert delta < 1e-9

    def test_three_stream_closed_form_line(self, capsys):
        assert _run(["crossing-point", "--n-rx", "3"]) == cli.EXIT_OK
        params = rl.ClosedFormParams.from_config(rl.SystemConfig(n_rx=3))
        e_th, closed = rl.crossing_point(params), rl.crossing_point_three_stream(params)
        assert capsys.readouterr().out.splitlines() == [
            f"crossing point: {cli._fmt(e_th)} W ({watt2dbm(e_th):.2f} dBm)",
            f"closed form: {cli._fmt(closed)} W "
            f"(relative delta {abs(e_th - closed) / closed:.3e})",
        ]

    def test_single_stream_rejected_by_the_solver(self, capsys):
        # The stream count is checked once, by the crossing polynomial.
        assert _run(["crossing-point", "--n-rx", "1"]) == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr() == ("", "error: crossing point needs at least two streams\n")

    def test_default_streams_no_closed_form_line(self, capsys):
        assert _run(["crossing-point"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        watts = float(out[0].split()[2])
        assert math.isclose(watts, 0.06211997014772871, rel_tol=1e-11)

    def test_custom_profile_changes_solution(self, capsys):
        _run(["crossing-point", "--n-rx", "2"])
        base = float(capsys.readouterr().out.splitlines()[0].split()[2])
        _run(["crossing-point", "--n-rx", "2",
              "--profile", "2e-6,2e-6,2e-6,2e-6"])
        doubled = float(capsys.readouterr().out.splitlines()[0].split()[2])
        # Doubling every gain scales the crossing power by 1/4.
        assert math.isclose(doubled, base / 4.0, rel_tol=1e-9)

    @pytest.mark.parametrize("argv, same_as", [
        # Two streams on two surfaces: --n-rx is validated with the overrides.
        (["--n-rx", "2", "--set", "n_ris=2"], ["--set", "n_rx=2", "--set", "n_ris=2"]),
        # --n-rx wins over --set n_rx, in either order.
        (["--set", "n_rx=3", "--n-rx", "2"], ["--n-rx", "2"]),
        (["--n-rx", "2", "--set", "n_rx=3"], ["--n-rx", "2"]),
    ])
    def test_n_rx_composes_with_overrides(self, argv, same_as, capsys):
        assert _run(["crossing-point", *argv]) == cli.EXIT_OK
        got = capsys.readouterr().out
        assert _run(["crossing-point", *same_as]) == cli.EXIT_OK
        assert got == capsys.readouterr().out
        assert got.startswith("crossing point: ")

    # Printed lines of README's Figure 10 commands, byte for byte.
    FIGURE10 = {
        "analyze --axis E_dBm=0:1:40 --output fig10_curves.csv": "wrote fig10_curves.csv\n",
        "crossing-point --n-rx 2":
            "crossing point: 0.323976742401 W (25.11 dBm)\n"
            "closed form: 0.323976742401 W (relative delta 1.388e-14)\n",
        "crossing-point --n-rx 2 --set n_tx=32":
            "crossing point: 0.161988371201 W (22.09 dBm)\n"
            "closed form: 0.161988371201 W (relative delta 1.388e-14)\n",
        "crossing-point --n-rx 2 --set gain_target=2e-6":
            "crossing point: 0.0809941856004 W (19.08 dBm)\n"
            "closed form: 0.0809941856004 W (relative delta 1.388e-14)\n",
    }

    def test_figure10_commands_pinned(self, tmp_path, monkeypatch, capsys):
        # The commands come from README itself, so editing or dropping one
        # there fails this test; the curves equal their golden CSV.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Figure 10 —", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [" ".join(shlex.split(line, comments=True)[1:])
                    for line in block.splitlines() if line.strip()]
        assert commands == list(self.FIGURE10)
        monkeypatch.chdir(tmp_path)
        for command, printed in self.FIGURE10.items():
            assert _run(command.split()) == cli.EXIT_OK
            assert capsys.readouterr().out == printed
        golden = Path(__file__).resolve().parent / "golden" / "closed-form-power.csv"
        assert (tmp_path / "fig10_curves.csv").read_bytes() == golden.read_bytes()


class TestAnalyze:
    def test_summary_lists_closed_forms(self, capsys):
        assert _run(["analyze"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for label in ("sm approximation", "sm upper bound", "bf upper bound",
                      "db upper bound", "crossing point"):
            assert label in out

    def test_dump_config_roundtrip(self, tmp_path):
        dump = tmp_path / "config.txt"
        argv = ["analyze", "--set", "n_tx=32",
                "--dump-config", str(dump)]
        assert _run(argv) == cli.EXIT_OK
        loaded = rl.load_config(dump)
        assert loaded == rl.SystemConfig(n_tx=32)

    def test_closed_form_sweep(self, tmp_path):
        out = tmp_path / "closed.csv"
        argv = ["analyze", "--axis", "E_dBm=0:20:40", "--output", str(out)]
        assert _run(argv) == cli.EXIT_OK
        header, rows = _read_rows(out)
        assert len(rows) == 9
        schemes = {r[1] for r in rows}
        assert schemes == {"sm", "bf", "db"}
        for row in rows:
            assert int(row[6]) == 0
            if row[1] == "sm":
                assert row[2] == row[4]  # metric column carries the approx
            else:
                assert row[2] == row[5]  # bound-only schemes

    def test_axis_without_output_fails(self):
        assert _run(["analyze", "--axis", "E_dBm=0:20:40"]) == \
            cli.EXIT_BAD_CONFIG

    def test_upper_bounds_stay_positive_at_tiny_snr(self, tmp_path):
        # Down to SNRs where 1 + x rounds x away, every upper bound stays
        # positive and at or above the multiplexing approximation.
        out = tmp_path / "closed.csv"
        argv = ["analyze", "--axis", "E_dBm=-250:10:40", "--output", str(out)]
        assert _run(argv) == cli.EXIT_OK
        _, rows = _read_rows(out)
        assert len(rows) == 3 * 30
        for row in rows:
            approx, upper = float(row[4]), float(row[5])
            assert upper > 0.0, row
            if row[1] == "sm":
                assert upper >= approx * (1.0 - 1e-12), row


def _oracle_point(cfg):
    """One grid point's (approximation, upper bound) pairs of sm, bf and
    db: its own validated bundle and the scalar formulas, spelled out."""
    params = rl.ClosedFormParams.from_config(cfg)
    profile = params.gain_profile

    def coefficient(power):
        return power * cfg.n_tx * cfg.rician_factor / (
            cfg.noise_power * cfg.n_ris_rx_paths * (cfg.rician_factor + 1.0))

    def beamform(coef):
        squares = float(np.add.reduce(profile**2))
        cross = float(np.add.reduce(profile)) ** 2 - squares
        snr = coef * cfg.n_rx / cfg.n_ris * (squares + math.pi / 4.0 * cross)
        return math.log1p(snr) / math.log(2.0) if snr < 2.0**-26 else math.log2(1.0 + snr)

    c = 1.0 / (coefficient(cfg.transmit_power) * profile[: cfg.n_rx] ** 2)
    approx = -sum(rl.scaled_ei_neg(c).tolist()) / math.log(2.0)
    snr = 1.0 / c
    terms = np.log2(1.0 + snr)
    if min(snr.tolist()) < 2.0**-26:
        terms = np.where(snr < 2.0**-26, np.log1p(snr) / math.log(2.0), terms)
    m = cfg.n_slots
    params._check_range(coefficient(m * cfg.transmit_power))
    return {
        "sm": (approx, float(np.add.reduce(terms))),
        "bf": (math.nan, beamform(coefficient(cfg.transmit_power))),
        "db": (math.nan, beamform(coefficient(m * cfg.transmit_power)) / m),
    }


class TestClosedFormGrid:
    """``analyze --axis`` against a per-point evaluation of every grid
    point, and its first error against the order of a per-point run:
    every point's config before any closed form."""

    GRIDS = {
        # log1p terms below about -60 dBm; at -53.5 and -1 dBm numpy's
        # vectorized log2 rounds a beamforming bound other than math.log2.
        "E_dBm": "E_dBm=-80:0.5:60",
        "kappa_dB": "kappa_dB=-10:2.5:20",
        "L_R": "L_R=1:1:12",
        "L_T": "L_T=0:1:4",
        "M_R": "M_R=1:1:5",
        "N_T": "N_T=4:4:32",
        "N_R": "N_R=1:1:4",
        "K": "K=4:1:12",
        "C": "C=1e-7:1e-7:2e-6",
        "sigma_e": "sigma_e=0:0.01:0.05",
    }

    def test_every_axis_has_a_grid(self):
        assert set(self.GRIDS) == set(montecarlo.AXIS_NAMES)

    @pytest.mark.parametrize("extra", [
        [], ["--set", "n_slots=3"], ["--set", "n_rx=2"], ["--set", "n_slots=3", "--set", "n_rx=2"],
    ])
    @pytest.mark.parametrize("axis", sorted(GRIDS))
    def test_equals_per_point_evaluation(self, axis, extra, tmp_path):
        out = tmp_path / "closed.csv"
        assert _run(["analyze", "--axis", self.GRIDS[axis], "--output", str(out), *extra]) == 0
        overrides = dict(item.split("=") for item in extra[1::2])
        base = rl.SystemConfig().replace(**{k: int(v) for k, v in overrides.items()})
        name, values = cli._parse_axis(self.GRIDS[axis])
        points = [_oracle_point(rl.apply_axis(base, name, v)) for v in values]
        result = SweepResult("closed_form", name, values, ("sm", "bf", "db"))
        companions = montecarlo.closed_form_companions(
            result.schemes, montecarlo.power_groups(base, name, values))
        for scheme in result.schemes:
            pairs = tuple(point[scheme] for point in points)
            # Bit for bit: a last-bit change does not reach the CSV's 12 digits.
            assert repr(companions[scheme]) == repr(pairs)
            result.means[scheme] = tuple(u if math.isnan(a) else a for a, u in pairs)
            result.stderrs[scheme] = (0.0,) * len(values)
            result.closed_form[scheme] = pairs
            result.n_trials[scheme] = (0,) * len(values)
        assert out.read_bytes() == cli.format_csv(result).encode()

    def test_power_sweep_builds_nothing_per_point(self, tmp_path, monkeypatch):
        counts = {rl.SystemConfig: 0, rl.ClosedFormParams: 0}
        for cls in counts:
            def counted(self, _cls=cls, _init=cls.__post_init__):
                counts[_cls] += 1
                _init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        out = tmp_path / "closed.csv"
        assert _run(["analyze", "--axis", "E_dBm=0:0.1:40", "--output", str(out)]) == 0
        assert len(_read_rows(out)[1]) == 3 * 401
        assert max(counts.values()) <= 2, counts

    @pytest.mark.parametrize("axis, extra, message", [
        # The last point overflows, after a point of 0 W: configs first.
        ("E_dBm=0:1000:4000", [], "axis value E_dBm=4000.0 is out of range"),
        ("E_dBm=-4000:4000:4000", [], "axis value E_dBm=4000.0 is out of range"),
        # 10 ** -403 W underflows to 0 W.
        ("E_dBm=-4000:1:-3999", [], "closed-form parameters must be positive"),
        ("E_dBm=-4000:830:-3170", [], "closed-form parameters must be positive"),
        # 1e-320 W: a subnormal power whose stream constants overflow.
        ("E_dBm=-3170:1:-3169", [], "closed-form parameters leave the floating-point range"),
        ("E_dBm=-3170:10:-3100", [], "closed-form parameters leave the floating-point range"),
        # 1e297 W: the last point's stream constants underflow.
        ("E_dBm=0:1000:3000", [], "closed-form parameters leave the floating-point range"),
        # The db bound leaves the float range only at m * P ...
        ("M_R=1:1:3", ["--set", "transmit_power=1e300"],
         "closed-form parameters leave the floating-point range"),
        ("E_dBm=0:2977:2977", ["--set", "n_slots=3"],
         "closed-form parameters leave the floating-point range"),
        # ... which every point's own bundle precedes.
        ("E_dBm=-4000:6977:2977", ["--set", "n_slots=3"],
         "closed-form parameters must be positive"),
    ])
    @pytest.mark.parametrize("verb", ["analyze", "se-sweep"])
    def test_first_error_of_a_bad_grid(self, verb, axis, extra, message, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        out = tmp_path / "x.csv"
        argv = [verb, "--axis", axis, "--output", str(out), *extra]
        if verb == "se-sweep":
            argv += ["--scheme", "sm,bf,db", "--angle-epochs", "1", "--fading-epochs", "1"]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        out_text, err = capsys.readouterr()
        assert (out_text, err) == ("", f"error: {message}\n")
        assert not out.exists()


class TestExitCodes:
    def test_selftest_passes(self):
        assert _run(["selftest"]) == cli.EXIT_OK

    def test_selftest_reports_every_check(self, capsys):
        assert _run(["selftest"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("PASS")] == [
            f"PASS {name}" for name, _ in selftest._CHECKS
        ]
        assert "PASS substreams" in [line.split(":")[0] for line in lines]
        assert lines[-1] == "all 12 checks passed"

    def test_runs_on_numpy_alone(self, tmp_path):
        # scipy is a test dependency only: in a process where every import
        # of it fails, the self test and one command of each kind exit 0.
        script = textwrap.dedent("""
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"{name} is blocked")

            sys.meta_path.insert(0, NoScipy())
            try:
                import scipy
            except ImportError:
                pass
            else:
                raise SystemExit("scipy was not blocked")
            from rislink import cli

            for argv in sys.argv[1:]:
                try:
                    cli.main(argv.split())
                except SystemExit as done:
                    print("exit", done.code)
        """)
        sweep = "--axis E_dBm=20 --angle-epochs 1 --fading-epochs 1 --scheme sm,bf --output"
        commands = [
            "selftest",
            f"se-sweep {sweep} {tmp_path / 'se.csv'}",
            f"ber-sweep {sweep} {tmp_path / 'ber.csv'} --min-bits 1000",
            f"analyze --axis E_dBm=0:10:40 --output {tmp_path / 'closed.csv'}",
            "crossing-point --n-rx 2",
        ]
        src = str(Path(rl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        lines = done.stdout.splitlines()
        assert [line for line in lines if line.startswith("exit")] == ["exit 0"] * 5
        assert len([line for line in lines if line.startswith("PASS ")]) == 12
        assert "all 12 checks passed" in lines

    @pytest.mark.parametrize("argv,code", [
        (["analyze", "--set", "n_tx=banana"], cli.EXIT_BAD_CONFIG),
        (["analyze", "--set", "bogus=3"], cli.EXIT_BAD_CONFIG),
        (["analyze", "--set", "n_tx"], cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "1"], cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--profile", "a,b"], cli.EXIT_BAD_CONFIG),
        (
            ["se-sweep", "--scheme", "ds", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1", "--set", "n_slots=6",
             "--set", "n_ris_rx_paths=4"],
            cli.EXIT_INFEASIBLE,
        ),
        (
            ["crossing-point", "--n-rx", "2",
             "--profile", "1e-6,1e-12,1e-12,1e-12"],
            cli.EXIT_NO_CROSSING,
        ),
        (
            ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1", "--set", "n_tx=64",
             "--set", "n_ris=12", "--set", "n_ris_rx_paths=14"],
            cli.EXIT_SEARCH_SPACE,
        ),
        (
            ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1", "--seed", "-1"],
            cli.EXIT_BAD_CONFIG,
        ),
        (
            ["se-sweep", "--scheme", "sm,sm", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1"],
            cli.EXIT_BAD_CONFIG,
        ),
        (
            ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1", "--set", "rx_disk_radius=nan"],
            cli.EXIT_BAD_CONFIG,
        ),
        (
            ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
             "--output", "/tmp/unused.csv", "--angle-epochs", "1",
             "--fading-epochs", "1", "--set", "angle_error_std=inf"],
            cli.EXIT_BAD_CONFIG,
        ),
        *(
            (["se-sweep", "--scheme", "sm", "--axis", axis,
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1"], cli.EXIT_BAD_CONFIG)
            for axis in ("K=nan", "L_R=inf", "E_dBm=0:1:inf", "E_dBm=0:inf:10", "E_dBm=nan")
        ),
        (["crossing-point", "--n-rx", "2", "--profile", "nan,1e-6,1e-6,1e-6"],
         cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "2", "--profile", "inf,1e-6,1e-6,1e-6"],
         cli.EXIT_BAD_CONFIG),
        *(
            (["ber-sweep", "--scheme", "sm", "--axis", "E_dBm=0",
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1", "--min-bits", bits], cli.EXIT_BAD_CONFIG)
            for bits in ("-5", "0")
        ),
        *(
            (["outage-sweep", "--scheme", "sm", "--axis", "E_dBm=0",
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1", f"--gamma-th-db={threshold}"], cli.EXIT_BAD_CONFIG)
            for threshold in ("nan", "inf", "-inf", "1e300")
        ),
        # Crossing polynomials whose coefficients overflow or underflow.
        (["crossing-point", "--n-rx", "2", "--profile", "1e100,1e100,1e100,1e100"],
         cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "4", "--profile", "1e-100,1e-100,1e-100,1e-100"],
         cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "2", "--profile", "1e-150,1e-150,1e-150,1e-150"],
         cli.EXIT_BAD_CONFIG),
        (["analyze", "--set", "gain_target=1e-150"], cli.EXIT_BAD_CONFIG),
        (["analyze", "--set", "gain_target=1e100"], cli.EXIT_BAD_CONFIG),
        # Valid polynomials whose root lies beyond the largest float:
        # doubling reaches inf (n_rx=2), or x**2 overflows (n_rx=3).
        (["crossing-point", "--n-rx", "2", "--profile", "1e-80,1e-80,1,1"],
         cli.EXIT_NO_CROSSING),
        (["crossing-point", "--n-rx", "3", "--profile", "1e-50,1e-50,1e-50,1e5"],
         cli.EXIT_NO_CROSSING),
        # Zero streams is a stream count, not "use the config's".
        (["crossing-point", "--n-rx", "0"], cli.EXIT_BAD_CONFIG),
        # selftest takes no configuration options, so argparse rejects them.
        (["selftest", "--set", "bogus=3"], cli.EXIT_BAD_CONFIG),
        # Grids above a million points fail before the grid is built.
        *(
            (["se-sweep", "--scheme", "sm", "--axis", axis,
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1"], cli.EXIT_BAD_CONFIG)
            for axis in ("E_dBm=0:1e-9:40", "E_dBm=-1e308:1:1e308")
        ),
        (["analyze", "--axis", "E_dBm=0:1e-9:40", "--output", "/tmp/unused.csv"],
         cli.EXIT_BAD_CONFIG),
        # A root that underflows to 0 W, and one whose watts-per-X
        # coefficient underflows to 0 (the power would be infinite).
        (["crossing-point", "--n-rx", "2", "--profile", "1e75,1e75,1e75,1e75",
          "--set", "noise_power=1e-300", "--set", "transmit_power=1e-300"],
         cli.EXIT_NO_CROSSING),
        (["crossing-point", "--n-rx", "2", "--set", "transmit_power=1e300",
          "--set", "noise_power=1e30", "--set", "rician_factor=1e-300",
          "--set", "gain_target=1e10"],
         cli.EXIT_NO_CROSSING),
        # An explicit empty file name or profile is not an absent one.
        *(
            ([verb, "--scheme", "sm", "--axis", "E_dBm=20",
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1", "--config", ""], cli.EXIT_BAD_CONFIG)
            for verb in ("se-sweep", "ber-sweep", "outage-sweep")
        ),
        (["crossing-point", "--n-rx", "2", "--config", ""], cli.EXIT_BAD_CONFIG),
        (["analyze", "--config", ""], cli.EXIT_BAD_CONFIG),
        (["selftest", "--config", ""], cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "2", "--profile", ""], cli.EXIT_BAD_CONFIG),
        (["selftest", "--config", "missing.cfg"], cli.EXIT_BAD_CONFIG),
        # Only the sweeps draw, so only they take a seed.
        (["analyze", "--seed", "3"], cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n-rx", "2", "--seed", "3"], cli.EXIT_BAD_CONFIG),
        # analyze writes a CSV only for an axis.
        (["analyze", "--output", "/tmp/unused.csv"], cli.EXIT_BAD_CONFIG),
        (["analyze", "--output", "/tmp/unused.csv", "--dump-config", "/tmp/unused.cfg"],
         cli.EXIT_BAD_CONFIG),
        # An abbreviated option is an unknown one, not its completion.
        *(
            (["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20", "--output",
              "/tmp/unused.csv", *options], cli.EXIT_BAD_CONFIG)
            for options in (
                ["--angle", "1", "--fading-epochs", "1"],
                ["--angle-epochs", "1", "--fading", "1"],
                ["--angle-epochs", "1", "--fading-epochs", "1", "--gamma-th", "3"],
            )
        ),
        (["ber-sweep", "--scheme", "bf", "--axis", "E_dBm=20", "--output", "/tmp/unused.csv",
          "--angle-epochs", "1", "--fading-epochs", "1", "--min", "100"], cli.EXIT_BAD_CONFIG),
        (["analyze", "--dump", "/tmp/unused.cfg"], cli.EXIT_BAD_CONFIG),
        (["crossing-point", "--n", "2"], cli.EXIT_BAD_CONFIG),
        # Deployments that leave the floating-point range.
        *(
            (["se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=20",
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1", "--set", override], cli.EXIT_BAD_CONFIG)
            for override in ("carrier_frequency=1e-300", "carrier_frequency=1e-290",
                             "carrier_frequency=1e300", "ris_axis_distance=1e-300")
        ),
        # Only the outage sweep reads an outage threshold.
        *(
            ([verb, "--scheme", "sm", "--axis", "E_dBm=20",
              "--output", "/tmp/unused.csv", "--angle-epochs", "1",
              "--fading-epochs", "1", "--gamma-th-db", "10"], cli.EXIT_BAD_CONFIG)
            for verb in ("se-sweep", "ber-sweep")
        ),
        (["outage-sweep", "--scheme", "sm", "--axis", "E_dBm=20", "--output", "/tmp/unused.csv",
          "--angle-epochs", "1", "--fading-epochs", "1", "--gamma-th", "3"], cli.EXIT_BAD_CONFIG),
    ])
    def test_error_paths(self, argv, code, capsys):
        assert _run(argv) == code
        if code != cli.EXIT_OK:
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, message", [
        (["--output", "sweep.csv"], "--output needs --axis"),
        (["--axis", "E_dBm=0:10:20"], "analyze with an axis needs --output"),
    ])
    @pytest.mark.parametrize("extra", [[], ["--dump-config", "effective.cfg"]])
    def test_analyze_half_a_sweep_writes_nothing(self, sweep, message, extra, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _run(["analyze", *sweep, *extra]) == cli.EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb, axis", [
        ("se-sweep", "E_dBm=4000"),           # 10 ** 397 W overflows
        ("se-sweep", "kappa_dB=4000"),
        ("outage-sweep", "E_dBm=4000"),
        ("se-sweep", "E_dBm=0:1000:4000"),    # fails at the last grid point
        ("se-sweep", "E_dBm=0:1000:3000"),    # closed forms out of range at 3000
        ("se-sweep", "sigma_e=1e15:0.05:1.000000000000000125e15"),  # 1e15 twice
    ])
    def test_bad_grid_fails_before_any_epoch(self, verb, axis, monkeypatch, capsys, tmp_path):
        class Simulated(Exception):
            pass

        def simulated(*args, **kwargs):
            raise Simulated

        monkeypatch.setattr(montecarlo, "_run_chunk", simulated)
        out = tmp_path / "unused.csv"
        argv = [verb, "--scheme", "sm", "--axis", axis, "--output", str(out),
                "--angle-epochs", "1", "--fading-epochs", "1"]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
        # The same sweep on a good grid does reach the patched epoch.
        with pytest.raises(Simulated):
            cli.main(argv[:4] + ["E_dBm=0:10:20"] + argv[5:])

    def test_closed_form_sweep_rejects_repeated_grid_values(self, capsys, tmp_path):
        # A step below the resolution of 1e15 labels every row 1e+15.
        out = tmp_path / "closed.csv"
        argv = ["analyze", "--axis", "sigma_e=1e15:0.05:1.000000000000000125e15",
                "--output", str(out)]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert "error: sweep grid must be strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_entry_points_agree(self, capsys):
        # An overflowing config value: every entry point reports it the
        # same way, with an error line and the bad-config status.
        argv = ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20",
                "--output", "/tmp/unused.csv", "--angle-epochs", "1",
                "--fading-epochs", "1", "--set", "rx_disk_radius=1e300"]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert "error:" in capsys.readouterr().err
        src = str(Path(rl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        for module in ("rislink", "rislink.cli"):
            done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == cli.EXIT_BAD_CONFIG, (module, done.stderr)
            assert "error:" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("override, message", [
        ("rx_disk_radius=1e300", "deployment distances leave the floating-point range"),
        ("ris_axis_distance=1e200", "deployment distances leave the floating-point range"),
        ("rx_center_distance=1e300", "deployment distances leave the floating-point range"),
        ("ris_axis_distance=1e12", "surface element counts overflow"),
        ("gain_target=1e300", "surface element counts overflow"),
        # An infinite wavelength, a loss that overflows, one that underflows
        # to 0, and transmitter-to-surface distances that underflow to 0.
        ("carrier_frequency=1e-300", "cascaded path losses leave the floating-point range"),
        ("carrier_frequency=1e-290", "cascaded path losses leave the floating-point range"),
        ("carrier_frequency=1e300", "cascaded path losses leave the floating-point range"),
        ("ris_axis_distance=1e-300", "deployment distances leave the floating-point range"),
    ])
    def test_overflowing_deployment_is_named(self, override, message, capsys, tmp_path):
        out = tmp_path / "unused.csv"
        argv = ["se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=20",
                "--output", str(out), "--angle-epochs", "1",
                "--fading-epochs", "1", "--set", override]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert f"error: {message}" in err and override.split("=")[0] in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_analyze_summary_names_a_zero_watt_root(self, capsys):
        argv = ["analyze", "--set", "n_rx=2", "--set", "noise_power=1e-320",
                "--set", "transmit_power=1e-320", "--set", "gain_target=1e75"]
        assert _run(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1] == (
            "crossing point:   none (bounds do not cross at a representable power)"
        )

    def test_analyze_rejects_before_printing(self, capsys):
        assert _run(["analyze", "--set", "gain_target=1e100"]) == cli.EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: crossing-point polynomial leaves the floating-point range" in err

    def test_consecutive_calls_do_not_share_overrides(self, capsys):
        # One parser serves every call of the process; a call without
        # --set prints the defaults' summary after one with it.
        summaries = []
        for argv in (["analyze"], ["analyze", "--set", "n_rx=2"], ["analyze"]):
            assert _run(argv) == cli.EXIT_OK
            summaries.append(capsys.readouterr().out)
        assert summaries[0] == summaries[2] != summaries[1]
        assert "stream constants" in summaries[0]
        assert cli._parser() is cli._parser()

    def test_simulator_failure_prints_error_line(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise rl.SamplingError("angle sampling failed after 1 attempts")

        monkeypatch.setattr(channel, "_draw_separated_freqs", exhausted)
        argv = ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20", "--output",
                "/tmp/unused.csv", "--angle-epochs", "1", "--fading-epochs", "1"]
        assert _run(argv) == cli.EXIT_FAILURE
        assert "error: angle sampling failed" in capsys.readouterr().err


_CONFIG_KEYS = [f.name for f in dataclasses.fields(rl.SystemConfig)]
_EDGE_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    1e-300, -1e-300, 1e300, -1e300,
]
_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(),
    st.integers(min_value=-10, max_value=10_000),
).map(lambda v: repr(v) if isinstance(v, float) else str(v))
_SETTINGS = st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _VALUES), max_size=2)


def _fuzz_main(argv, allowed=frozenset({0, 2, 3, 4, 5})):
    """Run ``cli.main`` on argv and return its status; any warning, any
    status outside ``allowed``, and any exception other than the exit,
    fails the caller."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
    stderr = err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in stderr, stderr
    code = info.value.code
    assert code in allowed, (argv, code, stderr)
    if code:
        assert "error:" in stderr, (argv, stderr)
    return code


class TestClosedFormCliFuzz:
    """Any config value through the closed-form verbs ends in a documented
    status: success, or an ``error:`` line with a non-failure exit code."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(overrides=_SETTINGS, with_axis=st.booleans())
    # Stream constants beyond 1e15, where the continued fraction used to
    # stall one ulp from its stop rule.
    @example(overrides=[("transmit_power", "1e-22")], with_axis=False)
    @example(overrides=[("rician_factor", "1e-300")], with_axis=False)
    def test_analyze(self, tmp_path_factory, overrides, with_axis):
        argv = ["analyze"]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        if with_axis:
            out = tmp_path_factory.mktemp("fuzz") / "closed.csv"
            argv += ["--axis", "E_dBm=-40:20:60", "--output", str(out)]
        _fuzz_main(argv)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n_rx=st.sampled_from([2, 3, 4]),
        profile=st.lists(_VALUES, min_size=1, max_size=6),
        overrides=_SETTINGS,
    )
    def test_crossing_point(self, n_rx, profile, overrides):
        argv = ["crossing-point", "--n-rx", str(n_rx), "--profile", ",".join(profile)]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        _fuzz_main(argv)


class _Simulated(Exception):
    """Raised by the patched chunk entry point: the input reached the engine."""


def _engine_reached(*args, **kwargs):
    raise _Simulated


class TestFileAndBudgetErrors:
    """Unusable files, oversized payloads and selections that cannot run
    at some grid point exit with an ``error:`` line before any simulation;
    a failing write exits 1."""

    @staticmethod
    def _sweep(*extra, verb="se-sweep"):
        return [verb, "--scheme", "sm", "--axis", "E_dBm=20", "--angle-epochs", "1",
                "--fading-epochs", "1", *extra]

    @pytest.mark.parametrize("case", ["missing", "not-utf8", "directory"])
    def test_unreadable_config(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        path = tmp_path / "run.cfg"
        if case == "not-utf8":
            path.write_bytes(b"n_tx = 16\n\xff\xfe = 3\n")
        elif case == "directory":
            path.mkdir()
        for argv in (
            self._sweep("--config", str(path), "--output", str(tmp_path / "x.csv")),
            ["analyze", "--config", str(path)],
        ):
            assert _run(argv) == cli.EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "error:" in err and "--config" in err and "Traceback" not in err

    def test_duplicated_config_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        path = tmp_path / "run.cfg"
        path.write_text("n_tx = 16\nn_tx = 32\n", encoding="utf-8")
        for argv in (
            self._sweep("--config", str(path), "--output", str(tmp_path / "x.csv")),
            ["analyze", "--config", str(path)],
        ):
            assert _run(argv) == cli.EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert "error:" in err and "'n_tx' already set on line 1" in err

    @pytest.mark.parametrize("verb", ["se-sweep", "ber-sweep", "outage-sweep"])
    @pytest.mark.parametrize("case", ["missing-directory", "directory", "empty"])
    def test_unwritable_sweep_output(self, verb, case, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        output = {"missing-directory": str(tmp_path / "nowhere" / "x.csv"),
                  "directory": str(tmp_path), "empty": ""}[case]
        assert _run(self._sweep("--output", output, verb=verb)) == cli.EXIT_BAD_CONFIG
        assert "error: --output" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--dump-config", "--output"])
    @pytest.mark.parametrize("case", ["missing-directory", "directory"])
    def test_unwritable_analyze_output(self, option, case, tmp_path, capsys):
        path = str(tmp_path / "nowhere" / "x") if case == "missing-directory" else str(tmp_path)
        argv = ["analyze", option, path]
        if option == "--output":
            argv += ["--axis", "E_dBm=0:10:20"]
        else:
            argv += ["--axis", "E_dBm=0:10:20", "--output", str(tmp_path / "fine.csv")]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        out, err = capsys.readouterr()
        assert f"error: {option}" in err and out == ""
        assert not (tmp_path / "fine.csv").exists()

    @pytest.mark.parametrize("verb", ["se-sweep", "analyze"])
    def test_write_failure_exits_1(self, verb, tmp_path, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full)
        monkeypatch.setattr(cli, "dump_config", full)
        if verb == "analyze":
            argv = ["analyze", "--dump-config", str(tmp_path / "c.cfg")]
        else:
            argv = self._sweep("--output", str(tmp_path / "x.csv"))
        assert _run(argv) == cli.EXIT_FAILURE
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        # Four slots over three paths at the last grid point.
        (["--scheme", "ds", "--axis", "M_R=1:1:4", "--set", "n_ris_rx_paths=3"],
         cli.EXIT_INFEASIBLE),
        # 60**4 = 12,960,000 tuples at the last grid point, above the cap.
        (["--scheme", "sm", "--axis", "L_R=10:10:60"], cli.EXIT_SEARCH_SPACE),
    ])
    def test_unrunnable_selection_fails_before_any_epoch(self, argv, code, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        out = tmp_path / "x.csv"
        assert _run(["se-sweep", *argv, "--angle-epochs", "1", "--fading-epochs", "1",
                     "--output", str(out)]) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["sm", "bf"])
    @pytest.mark.parametrize("setting", [
        ["--set", "angle_error_std=1e308"],    # bf died in math.cos, sm wrote NaN rows
        ["--set", f"angle_error_std={math.nextafter(math.pi, 4.0)!r}"],
        ["--axis", "sigma_e=0:2:4"],           # above the cap at the last grid point
    ])
    def test_angle_error_above_cap_fails_before_any_epoch(self, scheme, setting, tmp_path,
                                                         monkeypatch, capsys):
        out = tmp_path / "x.csv"
        argv = ["se-sweep", "--scheme", scheme, "--axis", "E_dBm=0:20:20", "--angle-epochs",
                "2", "--fading-epochs", "2", "--output", str(out)]
        with monkeypatch.context() as patched:
            patched.setattr(montecarlo, "_run_chunk", _engine_reached)
            assert _run([*argv, *setting]) == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "error: angle_error_std must lie in [0, pi]\n"
        assert not out.exists()
        # At the cap itself both families run to finite rows.
        assert _run([*argv, "--set", f"angle_error_std={math.pi!r}"]) == cli.EXIT_OK
        _, rows = _read_rows(out)
        assert all(math.isfinite(float(row[2])) for row in rows)

    @pytest.mark.parametrize("min_bits, n_epochs", [
        (10**12, 1), (10**30, 1), (montecarlo.MAX_PAYLOAD_BITS + 1, 1),
        (4 * montecarlo.MAX_PAYLOAD_BITS + 1, 4),
    ])
    def test_payload_above_budget_fails_before_any_epoch(self, min_bits, n_epochs, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "_run_chunk", _engine_reached)
        argv = ["ber-sweep", "--scheme", "bf", "--axis", "E_dBm=20", "--angle-epochs",
                str(n_epochs), "--fading-epochs", "1", "--min-bits", str(min_bits),
                "--output", str(tmp_path / "x.csv")]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert "bits per fading epoch, above the limit" in capsys.readouterr().err
        # At the limit itself, the sweep reaches the engine.
        argv[argv.index("--min-bits") + 1] = str(n_epochs * montecarlo.MAX_PAYLOAD_BITS)
        with pytest.raises(_Simulated):
            cli.main(argv)


_SWEEP_AXES = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from([*montecarlo.AXIS_NAMES, "bogus", ""]),
        st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "1e400", "", "-", "0", "2", "4000",
                             "1e15", "0:10:20", "2:1:4", "0:1e-9:40", "0:0:1", "5:1:1",
                             "1:2", "a:b:c", "0:inf:10"]),
            st.floats().map(repr),
            st.integers(min_value=-10, max_value=100).map(str),
        ),
    ),
    st.text(max_size=12),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _VALUES).map("{0[0]} = {0[1]}".format),
    st.sampled_from(["# comment", "", "bogus = 1", "n_tx", "= 3", "n_tx = 16 = 4"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=16),
)
_CONFIG_BODIES = st.one_of(
    st.lists(_CONFIG_LINES, max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=24),
)


class TestSweepCliFuzz:
    """Any ``--axis``, ``--config`` body and ``--min-bits`` through the
    sweep verbs ends in a documented status, with an ``error:`` line and no
    traceback when it fails; an input rejected with status 2, or with
    status 5 where a grid point's search is above the cap, never reaches
    the engine (the chunk entry point is patched to raise)."""

    @staticmethod
    def _effective_config(argv, verb):
        return cli._load_effective_config(
            cli.build_parser().parse_args(argv[:-2] if verb == "ber-sweep" else argv)
        )

    @classmethod
    def _search_over_cap(cls, argv, verb, axis):
        """Whether the sm or bf first-slot search of some grid point has
        more tuples than the default cap."""
        name, grid = cli._parse_axis(axis)
        base = cls._effective_config(argv, verb)
        for value in grid:
            cfg = rl.apply_axis(base, name, value)
            paths = cfg.n_ris_rx_paths
            sm = math.comb(cfg.n_ris, cfg.n_rx) * paths**cfg.n_rx
            if max(sm, paths**cfg.n_ris) > 10**7:
                return True
        return False

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        verb=st.sampled_from(["se-sweep", "ber-sweep"]),
        axis=_SWEEP_AXES,
        body=_CONFIG_BODIES,
        min_bits=st.one_of(st.integers(min_value=-5, max_value=10**4),
                           st.integers(min_value=10**5, max_value=10**15),
                           st.just(10**40)),
    )
    @example(verb="ber-sweep", axis="E_dBm=20", body=b"", min_bits=10**12)
    @example(verb="se-sweep", axis="E_dBm=20", body=b"rx_disk_radius = 1e300", min_bits=1)
    @example(verb="se-sweep", axis="E_dBm=20", body=b"n_tx = 8\nn_ris = 8", min_bits=1)
    def test_sweep_verbs(self, tmp_path_factory, verb, axis, body, min_bits):
        directory = tmp_path_factory.mktemp("sweep")
        config = directory / "fuzz.cfg"
        config.write_bytes(body)
        argv = [verb, "--scheme", "sm,bf", "--axis", axis, "--config", str(config),
                "--output", str(directory / "out.csv"), "--angle-epochs", "1",
                "--fading-epochs", "1", "--seed", "3"]
        if verb == "ber-sweep":
            argv += ["--min-bits", str(min_bits)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_run_chunk", _engine_reached)
            try:
                code = _fuzz_main(argv)
            except _Simulated:
                code = None
        if code is not None:
            # Bad input, or a selection search that this test finds above
            # the cap at some grid point (sm and bf search one slot, so no
            # slot count is infeasible).
            assert code == cli.EXIT_BAD_CONFIG or (
                code == cli.EXIT_SEARCH_SPACE and self._search_over_cap(argv, verb, axis)
            ), (argv, code)
            return
        # Accepted input: a small sweep runs to a documented status.
        name, grid = cli._parse_axis(axis)
        effective = rl.apply_axis(self._effective_config(argv, verb), name, grid[-1])
        if len(grid) <= 3 and effective.n_tx <= 64 and effective.n_ris_rx_paths <= 40 \
                and effective.n_nlos_tx_paths <= 16:
            assert _fuzz_main(argv, allowed={0, 1, 3, 5}) != cli.EXIT_BAD_CONFIG
