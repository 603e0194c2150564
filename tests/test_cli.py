"""Command-line interface: parsing, CSV serialization, exit codes."""

from __future__ import annotations

import math

import pytest

import rislink as rl
from rislink import channel, cli, montecarlo
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


class TestExitCodes:
    def test_selftest_passes(self):
        assert _run(["selftest"]) == cli.EXIT_OK

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
    ])
    def test_error_paths(self, argv, code, capsys):
        assert _run(argv) == code
        if code != cli.EXIT_OK:
            assert "error:" in capsys.readouterr().err

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

        monkeypatch.setattr(montecarlo, "_angle_epoch", simulated)
        out = tmp_path / "unused.csv"
        argv = [verb, "--scheme", "sm", "--axis", axis, "--output", str(out),
                "--angle-epochs", "1", "--fading-epochs", "1"]
        assert _run(argv) == cli.EXIT_BAD_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
        # The same sweep on a good grid does reach the patched epoch.
        with pytest.raises(Simulated):
            cli.main(argv[:4] + ["E_dBm=0:10:20"] + argv[5:])

    def test_simulator_failure_prints_error_line(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise rl.SamplingError("angle sampling failed after 1 attempts")

        monkeypatch.setattr(channel, "_draw_separated_freqs", exhausted)
        argv = ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=20", "--output",
                "/tmp/unused.csv", "--angle-epochs", "1", "--fading-epochs", "1"]
        assert _run(argv) == cli.EXIT_FAILURE
        assert "error: angle sampling failed" in capsys.readouterr().err
