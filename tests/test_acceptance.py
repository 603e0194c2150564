"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines; the suite is deterministic for the frozen base seed.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
from scipy import integrate, stats

import rislink as rl
import rislink.analysis as an
from rislink import cli
from rislink.selftest import select_one

from conftest import _complex_normal

BASE_SEED = 20240601
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_multiplexing_closed_form_fidelity():
    started = time.time()
    plan = rl.TrialPlan(
        axis_name="E_dBm", axis_values=(0.0, 10.0, 20.0, 30.0),
        schemes=("sm",), n_angle_epochs=1000, n_fading_epochs=10,
        base_seed=BASE_SEED,
    )
    result = rl.estimate_ergodic_se(plan, rl.SystemConfig())
    elapsed = time.time() - started
    rel_errors = [
        abs(result.means["sm"][i] - result.closed_form["sm"][i][0])
        / result.closed_form["sm"][i][0]
        for i in range(len(plan.axis_values))
    ]
    ok = max(rel_errors) < 0.03 and elapsed < 120.0
    _report(1, ok,
            f"multiplexing Monte Carlo within 3% of the closed-form "
            f"approximation at 0/10/20/30 dBm "
            f"(max {max(rel_errors):.2%}, {elapsed:.0f}s single-threaded)")


def test_criterion_02_mean_rate_never_exceeds_bounds():
    plan = rl.TrialPlan(
        axis_name="E_dBm",
        axis_values=tuple(float(v) for v in range(0, 45, 5)),
        schemes=("sm", "bf", "db"), n_angle_epochs=500, n_fading_epochs=10,
        base_seed=BASE_SEED,
    )
    result = rl.estimate_ergodic_se(plan, rl.SystemConfig(n_slots=2),
                                    use_model=True)
    margins = {
        scheme: min(
            result.closed_form[scheme][i][1] - result.means[scheme][i]
            for i in range(len(plan.axis_values))
        )
        for scheme in plan.schemes
    }
    bf_gap = max(
        result.closed_form["bf"][i][1] - result.means["bf"][i]
        for i in range(len(plan.axis_values))
    )
    ok = all(m >= 0.0 for m in margins.values()) and bf_gap <= 0.5
    worst = min(margins.values())
    _report(2, ok,
            f"sample means stay below their upper bounds at all 9 powers "
            f"(worst margin {worst:+.2e}, beamforming gap max {bf_gap:.3f} "
            f"<= 0.5 bits/s/Hz)")


def _random_crossing_params(rng: np.random.Generator, n_rx: int):
    n_ris = int(rng.integers(n_rx, 9))
    profile = 1e-6 * rng.uniform(0.5, 2.0, size=n_ris)
    return an.ClosedFormParams(
        transmit_power=float(rng.uniform(0.01, 10.0)),
        noise_power=float(10.0 ** rng.uniform(-14.0, -11.0)),
        rician_factor=float(rng.uniform(0.1, 100.0)),
        n_tx=int(rng.integers(2, 65)),
        n_rx=n_rx,
        n_ris=n_ris,
        n_ris_rx_paths=int(rng.integers(1, 33)),
        gain_profile=profile,
    )


def test_criterion_03_crossing_point_closed_forms():
    rng = rl.substream(BASE_SEED, 903)
    worst = 0.0
    checked = 0
    while checked < 50:
        n_rx = 2 if checked < 25 else 3
        params = _random_crossing_params(rng, n_rx)
        try:
            closed = (an.crossing_point_two_stream(params) if n_rx == 2
                      else an.crossing_point_three_stream(params))
        except an.NoCrossingError:
            continue
        numeric = an.crossing_point(params)
        worst = max(worst, abs(numeric - closed) / closed)
        checked += 1
    defaults = rl.SystemConfig().replace(n_rx=2)
    base = an.crossing_point(an.ClosedFormParams.from_config(defaults))
    base_dbm = rl.watt2dbm(base)
    doubled_tx = an.crossing_point(
        an.ClosedFormParams.from_config(defaults.replace(n_tx=32)))
    doubled_gain = an.crossing_point(
        an.ClosedFormParams.from_config(defaults.replace(gain_target=2e-6)))
    ok = (
        worst < 1e-9
        and abs(base - 0.3239) < 5e-4
        and abs(base_dbm - 25.1) < 0.05
        and math.isclose(doubled_tx, base / 2.0, rel_tol=1e-9)
        and math.isclose(doubled_gain, base / 4.0, rel_tol=1e-9)
    )
    _report(3, ok,
            f"crossing root matches 2/3-stream closed forms on 50 random "
            f"sets (worst {worst:.1e}); defaults {base:.4f} W "
            f"({base_dbm:.1f} dBm); doubling arrays/gain shifts by "
            f"-3/-6 dB exactly")


def test_criterion_04_fading_moment_constants():
    rng = rl.substream(BASE_SEED, 904)
    pairs = _complex_normal(rng, (2, 1_000_000))
    moment = float(np.mean(np.abs(np.conj(pairs[0]) * pairs[1])))
    moment_err = abs(moment / (math.pi / 4.0) - 1.0)
    powers = np.abs(math.sqrt(2.0) * _complex_normal(rng, 100_000)) ** 2
    pvalue = stats.kstest(powers, "chi2", args=(2,)).pvalue
    ok = moment_err < 0.01 and pvalue > 0.01
    _report(4, ok,
            f"cross-magnitude moment pi/4 within 1% at 1e6 samples "
            f"(err {moment_err:.2%}); scaled power passes KS vs "
            f"chi-square(2) (p={pvalue:.3f})")


def test_criterion_05_exponential_integral_accuracy():
    # Direct quadrature of exp(t)/t out to -inf is roundoff-limited near
    # 4e-10, so the oracle integrates the regularized split of the same
    # integral: Ei(x) = gamma + ln(-x) + int_x^0 expm1(t)/t dt for x < 0.
    points = -np.logspace(math.log10(1e-6), math.log10(50.0), 200)
    worst = 0.0
    for x in points:
        smooth, _ = integrate.quad(
            lambda t: math.expm1(t) / t, x, 0.0, limit=400, epsabs=1e-13)
        oracle = np.euler_gamma + math.log(-x) - smooth
        worst = max(worst, abs(an.exp_integral_ei(x) - oracle))
    ok = worst <= 1e-10
    _report(5, ok,
            f"exponential integral within 1e-10 of adaptive quadrature on "
            f"200 log points in [-50, -1e-6] (worst {worst:.2e})")


def test_criterion_06_single_slot_reductions():
    config = rl.SystemConfig(n_slots=1)
    plan = rl.TrialPlan(
        axis_name="E_dBm", axis_values=(10.0, 20.0),
        schemes=("sm", "ds", "bf", "db"),
        n_angle_epochs=5, n_fading_epochs=3, base_seed=BASE_SEED,
    )
    se = rl.estimate_ergodic_se(plan, config)
    outage = rl.estimate_outage(plan, config)
    ber = rl.estimate_ber(plan, config, min_bits=20_000)
    ok = all(
        res.means[a] == res.means[b] and res.stderrs[a] == res.stderrs[b]
        for res in (se, outage, ber)
        for a, b in (("sm", "ds"), ("bf", "db"))
    )
    _report(6, ok,
            "single-slot hopping is bit-identical to its base scheme for "
            "rate, outage, and error-rate estimates at equal seeds")


def test_criterion_07_error_rate_ordering():
    started = time.time()
    plan = rl.TrialPlan(
        axis_name="M_R", axis_values=(1.0, 2.0), schemes=("ds", "db"),
        n_angle_epochs=50, n_fading_epochs=4, base_seed=BASE_SEED,
    )
    config = rl.SystemConfig(transmit_power=rl.dbm2watt(20.0))
    result = rl.estimate_ber(plan, config, min_bits=1_000_000)
    elapsed = time.time() - started
    ds1, ds2 = result.means["ds"]
    db1, db2 = result.means["db"]
    bits = min(min(result.n_trials[s]) for s in ("ds", "db"))
    ok = (db2 <= db1 <= ds2 <= ds1 and bits >= 1_000_000
          and elapsed < 600.0)
    _report(7, ok,
            f"error rates order db(2)={db2:.2e} <= db(1)={db1:.2e} <= "
            f"ds(2)={ds2:.2e} <= ds(1)={ds1:.2e} at 20 dBm with "
            f">= 1e6 bits each ({elapsed:.0f}s)")


def test_criterion_08_trend_suite():
    at_20dbm = rl.SystemConfig(transmit_power=rl.dbm2watt(20.0))

    kappa_plan = rl.TrialPlan(
        axis_name="kappa_dB", axis_values=(0.0, 5.0, 10.0, 15.0),
        schemes=("sm", "bf"), n_angle_epochs=200, n_fading_epochs=5,
        base_seed=BASE_SEED,
    )
    kappa = rl.estimate_ergodic_se(kappa_plan, at_20dbm, use_model=True)
    kappa_ok = all(
        kappa.means[s][i] < kappa.means[s][i + 1]
        for s in ("sm", "bf") for i in range(3)
    )

    paths_plan = rl.TrialPlan(
        axis_name="L_R", axis_values=(5.0, 10.0, 20.0),
        schemes=("sm", "bf"), n_angle_epochs=200, n_fading_epochs=5,
        base_seed=BASE_SEED,
    )
    paths = rl.estimate_ergodic_se(paths_plan, at_20dbm)
    paths_ok = all(
        paths.means[s][i] > paths.means[s][i + 1]
        for s in ("sm", "bf") for i in range(2)
    )

    gaps = []
    for power_dbm in (10.0, 30.0):
        cfg = rl.SystemConfig(transmit_power=rl.dbm2watt(power_dbm))
        plan = rl.TrialPlan(
            axis_name="sigma_e", axis_values=(0.0, 0.05), schemes=("sm",),
            n_angle_epochs=200, n_fading_epochs=5, base_seed=BASE_SEED,
        )
        clean, noisy = rl.estimate_ergodic_se(plan, cfg).means["sm"]
        gaps.append(clean - noisy)
    mismatch_ok = gaps[0] > 0.0 and gaps[1] > gaps[0]

    defaults = rl.SystemConfig()
    base = an.crossing_point(an.ClosedFormParams.from_config(defaults))
    shift_ok = (
        an.crossing_point(
            an.ClosedFormParams.from_config(defaults.replace(n_tx=32)))
        < base
        and an.crossing_point(
            an.ClosedFormParams.from_config(
                defaults.replace(gain_target=2e-6)))
        < base
    )

    ok = kappa_ok and paths_ok and mismatch_ok and shift_ok
    _report(8, ok,
            f"rate rises with the Rician factor and falls with the "
            f"receive-side path count for both schemes; angle-error gap "
            f"grows with power ({gaps[0]:.2f} -> {gaps[1]:.2f} bits); "
            f"crossing shifts left when arrays or gain double")


def _response_gram(freqs, n_rx: int) -> np.ndarray:
    antennas = np.arange(n_rx)[:, None]
    columns = np.exp(1j * antennas * np.asarray(freqs)[None, :])
    columns = columns / math.sqrt(n_rx)
    return columns.conj().T @ columns


def _exhaustive_sm(candidates: np.ndarray, n_rx: int):
    n_ris, n_paths = candidates.shape
    eye = np.eye(n_rx)
    best = None
    for active in combinations(range(n_ris), n_rx):
        for paths in product(range(n_paths), repeat=n_rx):
            freqs = [candidates[k, l] for k, l in zip(active, paths)]
            objective = float(
                np.sum(np.abs(_response_gram(freqs, n_rx) - eye) ** 2))
            if best is None or objective < best[0]:
                best = (objective, active, paths)
    return best


def _exhaustive_bf(candidates: np.ndarray, n_rx: int):
    n_ris, n_paths = candidates.shape
    ones = np.ones((n_ris, n_ris))
    best = None
    for paths in product(range(n_paths), repeat=n_ris):
        freqs = [candidates[k, paths[k]] for k in range(n_ris)]
        objective = float(
            np.sum(np.abs(_response_gram(freqs, n_rx) - ones) ** 2))
        if best is None or objective < best[0]:
            best = (objective, tuple(range(n_ris)), paths)
    return best


def test_criterion_09_selection_matches_exhaustive_search():
    rng = rl.substream(BASE_SEED, 909)
    for _ in range(100):
        n_ris = int(rng.integers(2, 4))
        n_paths = int(rng.integers(2, 5))
        n_rx = int(rng.integers(2, n_ris + 1))
        candidates = rng.uniform(-math.pi, math.pi, size=(n_ris, n_paths))

        obj, active, paths = _exhaustive_sm(candidates, n_rx)
        got = select_one(candidates, n_rx, "sm")
        assert tuple(got.active[0].tolist()) == active
        assert tuple(got.paths[0, 0].tolist()) == paths
        assert math.isclose(got.objectives[0, 0], obj, rel_tol=1e-12,
                            abs_tol=1e-12)

        obj, active, paths = _exhaustive_bf(candidates, n_rx)
        got = select_one(candidates, n_rx, "bf")
        assert tuple(got.active[0].tolist()) == active
        assert tuple(got.paths[0, 0].tolist()) == paths
        assert math.isclose(got.objectives[0, 0], obj, rel_tol=1e-12,
                            abs_tol=1e-12)
    _report(9, True,
            "path selection matches an independent exhaustive enumerator "
            "on 100 random instances (both selection rules, exactly)")


def test_criterion_10_byte_identical_csv_across_reruns(tmp_path):
    def sweep(metric: str):
        plan = rl.TrialPlan(
            axis_name="E_dBm", axis_values=(0.0, 20.0),
            schemes=("sm", "bf"), n_angle_epochs=2, n_fading_epochs=2,
            base_seed=BASE_SEED,
        )
        config = rl.SystemConfig()
        if metric == "se":
            return rl.estimate_ergodic_se(plan, config)
        return rl.estimate_ber(plan, config, min_bits=2_000)

    reruns_ok = golden_ok = True
    for metric in ("se", "ber"):
        runs = []
        for run in (1, 2):
            path = tmp_path / f"{metric}-{run}.csv"
            cli.write_csv(sweep(metric), path)
            runs.append(path.read_bytes())
        golden = (GOLDEN_DIR / f"criterion10-{metric}.csv").read_bytes()
        reruns_ok = reruns_ok and runs[0] == runs[1]
        golden_ok = golden_ok and runs[0] == golden
    _report(10, reruns_ok and golden_ok,
            "rate and error-rate sweep CSVs are byte-identical across two "
            "runs at the same seed and equal the frozen golden files")
