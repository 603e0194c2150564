"""The four workloads, built from the paper's figure commands at reduced
epoch counts.  Each run is a closed loop of consecutive calls into
``rislink``; call ``i`` of a run with seed ``s`` passes ``--seed
s * CALL_SEED_STRIDE + i``, so every call sees fresh inputs and the same
seed always gives the same calls.

A workload prepares a call's inputs (untimed), executes it (timed),
stores its outputs to disk (untimed, so nothing a run keeps grows with
the number of calls), and checks them after the timed window.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

import rislink
from rislink import analysis, cli

DEFAULT_SEED = 20240601
CALL_SEED_STRIDE = 100_000
HEADER = "axis,scheme,metric,stderr,closed_form_1,closed_form_2,n_trials"
CSV_REL_TOL = 1e-10  # the CSV carries 12 significant digits
REFERENCE_REL_TOL = 1e-9


def call_seed(seed: int, index: int) -> int:
    return seed * CALL_SEED_STRIDE + index


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``rislink`` invocation: (exit status, error text)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), ""
    except Exception:  # a traceback escaping the CLI fails the call's rows
        return 1, traceback.format_exc()
    return 0, ""


def _grid(axis: str) -> tuple[str, list[float]]:
    """Planned grid of ``NAME=start:step:stop``, as the CLI documents it."""
    name, _, spec = axis.partition("=")
    start, step, stop = (float(p) for p in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, [start + i * step for i in range(count)]


def _same(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _parse_csv(text: str) -> list[list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return None
    return [line.split(",") for line in lines[1:]]


def _read_rows(call: dict) -> list[list[str]] | None:
    """Data rows of a call's CSV, or None if the call or its CSV failed."""
    if call["status"] != 0 or not os.path.exists(call["output"]):
        return None
    with open(call["output"], encoding="utf-8") as fh:
        return _parse_csv(fh.read())


def _se_closed_forms(cfg: rislink.SystemConfig) -> dict[str, tuple[float, float]]:
    """Fresh (approximation, upper bound) companions of each SE scheme."""
    params = analysis.ClosedFormParams.from_config(cfg)
    c = params.c_values()
    return {
        "sm": (analysis.se_sm_approx(c), analysis.se_sm_upper(c)),
        "bf": (math.nan, analysis.se_bf_upper(params)),
        "ds": (math.nan, math.nan),
        "db": (math.nan, analysis.se_db_upper(params, cfg.n_slots)),
    }


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass(frozen=True)
class SweepWorkload:
    """One Monte Carlo sweep verb per call; each grid point is one row."""

    name: str
    why: str
    verb: str
    schemes: tuple[str, ...]
    axis: str
    sets: tuple[str, ...]
    angle_epochs: int
    fading_epochs: int
    trace_calls: int
    min_bits: int | None = None

    def argv(self, seed, output: str) -> list[str]:
        argv = [self.verb, "--scheme", ",".join(self.schemes), "--axis", self.axis]
        for item in self.sets:
            argv += ["--set", item]
        argv += [
            "--angle-epochs", str(self.angle_epochs),
            "--fading-epochs", str(self.fading_epochs),
            "--seed", str(seed),
            "--output", output,
        ]
        if self.min_bits is not None:
            argv += ["--min-bits", str(self.min_bits)]
        return argv

    def parameters(self) -> dict:
        return {"argv": self.argv("<seed*%d+call>" % CALL_SEED_STRIDE, "<csv>")}

    def reference(self, stored: dict, seed: int) -> list[str] | None:
        """CSVs of the first calls, stored for the recorded default seed only."""
        return stored["workloads"].get(self.name) if seed == stored["seed"] else None

    def prepare(self, seed: int, index: int, out_dir: str) -> dict:
        output = os.path.join(out_dir, f"{self.name}-{index}.csv")
        return {"index": index, "argv": self.argv(call_seed(seed, index), output), "output": output}

    def output_files(self, call: dict) -> list[str]:
        return [call["output"]]

    def execute(self, call: dict) -> dict:
        status, error = run_cli(call["argv"])
        return {"status": status, "error": error}

    def store(self, call: dict, outputs: dict) -> None:
        call.update(outputs)

    def items(self) -> int:
        """Realizations per call: grid points x angle epochs x fading epochs."""
        return len(_grid(self.axis)[1]) * self.angle_epochs * self.fading_epochs

    def base_config(self) -> rislink.SystemConfig:
        overrides = {}
        for item in self.sets:
            key, _, raw = item.partition("=")
            overrides[key] = rislink.parse_config_value(key, raw)
        return rislink.SystemConfig().replace(**overrides)

    def _planned_trials(self, cfg: rislink.SystemConfig, scheme: str) -> int:
        n_epochs = self.angle_epochs * self.fading_epochs
        if self.verb != "ber-sweep":
            return n_epochs
        bits_per_use = 2 * (cfg.n_rx if scheme in ("sm", "ds") else 1)
        symbols = max(1, math.ceil(self.min_bits / (n_epochs * bits_per_use)))
        return n_epochs * bits_per_use * symbols

    def check(
        self, calls: list[dict], reference: list[str] | None, tally: CheckTally, seed: int
    ) -> None:
        """Seed-independent checks on every call; at the recorded default
        seed, calls with a stored reference must also match it."""
        axis_name, values = _grid(self.axis)
        base = self.base_config()
        planned = []
        for value in values:
            cfg = rislink.apply_axis(base, axis_name, value)
            companions = _se_closed_forms(cfg) if self.verb == "se-sweep" else None
            for scheme in self.schemes:
                expected_cf = companions[scheme] if companions else (math.nan, math.nan)
                planned.append((value, scheme, expected_cf, self._planned_trials(cfg, scheme)))
        for call in calls:
            label = f"{self.name} call {call['index']}"
            rows = _read_rows(call)
            if rows is None or len(rows) != len(planned):
                tally.record(False, f"{label}: exit {call['status']}, unusable CSV "
                             f"{call['error'][-300:]}", len(planned))
                continue
            ref_rows = None
            if reference is not None and call["index"] < len(reference):
                ref_rows = _parse_csv(reference[call["index"]])
            for i, (row, plan) in enumerate(zip(rows, planned)):
                ok = self._row_ok(row, plan) and (
                    ref_rows is None or _matches_reference(row, ref_rows[i])
                )
                tally.record(ok, f"{label} row {i}: {','.join(row)}")

    def _row_ok(self, row: list[str], plan: tuple) -> bool:
        value, scheme, (cf1, cf2), trials = plan
        if len(row) != 7:
            return False
        try:
            axis, metric, stderr, got1, got2 = (float(row[k]) for k in (0, 2, 3, 4, 5))
            n_trials = int(row[6])
        except ValueError:
            return False
        finite = math.isfinite(metric) and math.isfinite(stderr) and stderr >= 0
        in_range = 0.0 <= metric <= 1.0 if self.verb == "ber-sweep" else metric >= 0.0
        return (
            finite
            and in_range
            and row[1] == scheme
            and _same(axis, value, CSV_REL_TOL)
            and _same(got1, cf1, CSV_REL_TOL)
            and _same(got2, cf2, CSV_REL_TOL)
            and n_trials == trials
        )


def _matches_reference(row: list[str], ref: list[str]) -> bool:
    if row[1] != ref[1] or row[6] != ref[6]:
        return False
    try:
        return all(
            _same(float(row[k]), float(ref[k]), REFERENCE_REL_TOL) for k in (0, 2, 3, 4, 5)
        )
    except ValueError:
        return False


@dataclass(frozen=True)
class ClosedFormWorkload:
    """Figure 10's closed-form curves plus the crossing-point and Ei kernels.

    One call: ``analyze --axis E_dBm=0:<step>:40`` through the CLI, the
    numeric crossing point of ``crossing_sets`` seeded random parameter
    sets (n_rx cycling over 2, 3, 4), and ``exp_integral_ei`` on
    ``ei_points`` seeded log-spaced points in [-700, -1e-8].
    """

    name: str
    why: str
    step: float
    crossing_sets: int
    ei_points: int
    trace_calls: int

    @property
    def axis(self) -> str:
        return f"E_dBm=0:{self.step}:40"

    def parameters(self) -> dict:
        return {"analyze_axis": self.axis, "crossing_sets": self.crossing_sets,
                "ei_points": self.ei_points}

    def reference(self, stored: dict, seed: int) -> list[str] | None:
        """The ``analyze`` CSV, which no seed changes: it pins every call."""
        return stored["workloads"].get(self.name)

    def prepare(self, seed: int, index: int, out_dir: str) -> dict:
        rng = np.random.default_rng([seed, index])
        params = [self._crossing_params(rng, 2 + j % 3) for j in range(self.crossing_sets)]
        ei_x = -(10.0 ** rng.uniform(-8.0, math.log10(700.0), self.ei_points))
        output = os.path.join(out_dir, f"{self.name}-{index}.csv")
        return {
            "index": index,
            "argv": ["analyze", "--axis", self.axis, "--output", output],
            "output": output,
            "params": params,
            "ei_x": ei_x,
        }

    @staticmethod
    def _crossing_params(rng: np.random.Generator, n_rx: int) -> analysis.ClosedFormParams:
        # Profiles within [0.6, 1.4] x 1e-6 with n_rx <= n_ris <= 8 always
        # leave the beamforming bound ahead at low power, so every set has
        # a crossing: (n_ris - n_rx)(1.4^2/0.6^2 - 1) < (pi/4) n_ris (n_ris - 1).
        n_ris = int(rng.integers(n_rx, 9))
        return analysis.ClosedFormParams(
            transmit_power=float(rng.uniform(0.01, 10.0)),
            noise_power=float(10.0 ** rng.uniform(-14.0, -11.0)),
            rician_factor=float(rng.uniform(0.1, 100.0)),
            n_tx=int(rng.integers(n_rx, 65)),
            n_rx=n_rx,
            n_ris=n_ris,
            n_ris_rx_paths=int(rng.integers(1, 33)),
            gain_profile=1e-6 * rng.uniform(0.6, 1.4, size=n_ris),
        )

    def execute(self, call: dict) -> dict:
        status, error = run_cli(call["argv"])
        roots = np.empty(len(call["params"]))
        for j, params in enumerate(call["params"]):
            try:
                roots[j] = analysis.crossing_point(params)
            except rislink.RislinkError:
                roots[j] = math.nan
        try:
            ei = analysis.exp_integral_ei(call["ei_x"])
        except (ValueError, RuntimeError):
            ei = np.full_like(call["ei_x"], math.nan)
        return {"status": status, "error": error, "roots": roots, "ei": ei}

    def output_files(self, call: dict) -> list[str]:
        base = call["output"][: -len(".csv")]
        return [call["output"], base + "-roots.npy", base + "-ei.npy"]

    def store(self, call: dict, outputs: dict) -> None:
        """Keep outputs on disk, not in memory; inputs are re-derived."""
        _, roots_path, ei_path = self.output_files(call)
        np.save(roots_path, outputs["roots"])
        np.save(ei_path, outputs["ei"])
        call.update(status=outputs["status"], error=outputs["error"])
        del call["params"], call["ei_x"]

    def items(self) -> int:
        """Closed-form evaluations per call: grid points + crossing sets + Ei points."""
        return len(_grid(self.axis)[1]) + self.crossing_sets + self.ei_points

    def check(
        self, calls: list[dict], reference: list[str] | None, tally: CheckTally, seed: int
    ) -> None:
        """Every call's ``analyze`` rows must equal a fresh evaluation and
        the stored CSV; crossing roots and Ei values are checked against
        closed forms and scipy."""
        import scipy.special  # outside the timed window on purpose

        ref_rows = _parse_csv(reference[0]) if reference else None

        axis_name, values = _grid(self.axis)
        planned = []
        for value in values:
            cfg = rislink.apply_axis(rislink.SystemConfig(), axis_name, value)
            fresh = _se_closed_forms(cfg)
            planned.append((value, "sm", fresh["sm"][0], fresh["sm"]))
            planned.append((value, "bf", fresh["bf"][1], fresh["bf"]))
            planned.append((value, "db", fresh["db"][1], fresh["db"]))
        verdicts: dict[tuple, list[bool]] = {}  # every call writes the same analyze CSV
        for call in calls:
            label = f"{self.name} call {call['index']}"
            rows = _read_rows(call)
            if rows is None or len(rows) != len(planned):
                tally.record(False, f"{label}: analyze exit {call['status']} "
                             f"{call['error'][-300:]}", len(planned))
            else:
                key = tuple(map(tuple, rows))
                if key not in verdicts:
                    verdicts[key] = [
                        _analyze_row_ok(row, plan)
                        and (ref_rows is None or _matches_reference(row, ref_rows[i]))
                        for i, (row, plan) in enumerate(zip(rows, planned))
                    ]
                for i, ok in enumerate(verdicts[key]):
                    tally.record(ok, "" if ok else f"{label} analyze row {i}: {','.join(rows[i])}")
            inputs = self.prepare(seed, call["index"], os.path.dirname(call["output"]))
            _, roots_path, ei_path = self.output_files(call)
            roots = np.load(roots_path)
            for j, (params, root) in enumerate(zip(inputs["params"], roots)):
                tally.record(_crossing_ok(params, float(root)),
                             f"{label} crossing set {j}: root {root!r}")
            ei = np.load(ei_path)
            expected = scipy.special.expi(inputs["ei_x"])
            error = np.abs(ei - expected)
            good = np.isfinite(ei) & (error <= 1e-12) & (error <= 1e-9 * np.abs(expected))
            n_bad = int(np.count_nonzero(~good))
            tally.record(True, "", int(good.size) - n_bad)
            if n_bad:
                tally.record(False, f"{label}: {n_bad} Ei points off scipy.special.expi", n_bad)


def check_repeats(workload, calls: list[dict], tally: CheckTally) -> None:
    """Every run of the same call must write the same bytes as its first."""
    first: dict[int, list[bytes]] = {}
    for call in calls:
        contents = []
        for path in workload.output_files(call):
            try:
                with open(path, "rb") as fh:
                    contents.append(fh.read())
            except OSError:
                contents.append(b"")
        if call["index"] not in first:
            first[call["index"]] = contents
        else:
            tally.record(contents == first[call["index"]],
                         f"{workload.name} call {call['index']}: a rerun wrote other bytes")


def _analyze_row_ok(row: list[str], plan: tuple) -> bool:
    value, scheme, metric, (cf1, cf2) = plan
    if len(row) != 7:
        return False
    try:
        got = [float(row[k]) for k in (0, 2, 3, 4, 5)]
    except ValueError:
        return False
    return (
        row[1] == scheme
        and _same(got[0], value, CSV_REL_TOL)
        and _same(got[1], metric, CSV_REL_TOL)
        and got[2] == 0.0
        and _same(got[3], cf1, CSV_REL_TOL)
        and _same(got[4], cf2, CSV_REL_TOL)
        and row[6] == "0"
    )


def _crossing_ok(params: analysis.ClosedFormParams, root: float) -> bool:
    """For 2 and 3 streams the root matches the closed-form solution;
    otherwise it makes the two upper bounds equal."""
    if not (math.isfinite(root) and root > 0):
        return False
    if params.n_rx == 2:
        return _same(root, analysis.crossing_point_two_stream(params), 1e-9)
    if params.n_rx == 3:
        return _same(root, analysis.crossing_point_three_stream(params), 1e-9)
    at_root = dataclasses.replace(params, transmit_power=root)
    return _same(analysis.se_sm_upper(at_root.c_values()), analysis.se_bf_upper(at_root), 1e-9)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="se-hop",
            why="Figure 8 reduced: four schemes, two hopping slots, ten fading "
            "epochs per angle epoch; composite assembly dominates",
            verb="se-sweep",
            schemes=("sm", "bf", "ds", "db"),
            axis="E_dBm=0:10:40",
            sets=("n_slots=2",),
            angle_epochs=2,
            fading_epochs=10,
            trace_calls=3,
        ),
        SweepWorkload(
            name="se-select",
            why="Figures 6 and 7: every realization redraws angles, injects angle "
            "error and reruns the exhaustive path search (up to 810,000 tuples)",
            verb="se-sweep",
            schemes=("sm", "bf"),
            axis="L_R=10:10:30",
            sets=("transmit_power=0.1", "angle_error_std=0.05"),
            angle_epochs=8,
            fading_epochs=1,
            trace_calls=4,
        ),
        SweepWorkload(
            name="ber-hop",
            why="Figure 9 reduced: QPSK payloads through the four schemes, so the "
            "transceiver layer pushes bits instead of computing rates",
            verb="ber-sweep",
            schemes=("sm", "bf", "ds", "db"),
            axis="E_dBm=0:10:30",
            sets=("n_slots=2",),
            angle_epochs=2,
            fading_epochs=4,
            min_bits=100_000,
            trace_calls=4,
        ),
        ClosedFormWorkload(
            name="closed-form",
            why="Figure 10 curves, crossing points and the Ei kernel: the only "
            "workload where the analysis layer does the work",
            step=0.1,
            crossing_sets=300,
            ei_points=20_000,
            trace_calls=8,
        ),
    )
}
