"""Sweep engine: seeding, axis handling, estimators, and statistics."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import rislink as rl
import rislink.montecarlo as mc
from rislink.channel import _complex_normal
from rislink.errors import ConfigurationError

from conftest import BASE_SEED


def _plan(**overrides) -> rl.TrialPlan:
    defaults = dict(
        axis_name="E_dBm", axis_values=(20.0,), schemes=("sm",),
        n_angle_epochs=4, n_fading_epochs=3, base_seed=BASE_SEED,
    )
    defaults.update(overrides)
    return rl.TrialPlan(**defaults)


class TestSubstreams:
    def test_deterministic(self):
        a = rl.substream(7, 1, 2).standard_normal(8)
        b = rl.substream(7, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = rl.substream(7, 1, 2).standard_normal(8)
        b = rl.substream(7, 1, 3).standard_normal(8)
        c = rl.substream(8, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFadingStatistics:
    def test_unit_variance_complex_gaussian(self):
        rng = rl.substream(BASE_SEED, 110)
        samples = _complex_normal(rng, 200_000)
        power = np.abs(samples) ** 2
        assert abs(power.mean() - 1.0) < 0.01
        assert abs(samples.mean()) < 0.01

    def test_independent_magnitude_product_mean(self):
        # E|conj(b1) b2| = (E|b|)^2 = pi/4 for independent unit-variance
        # circular Gaussians.
        rng = rl.substream(BASE_SEED, 111)
        pairs = _complex_normal(rng, (2, 1_000_000))
        values = np.abs(np.conj(pairs[0]) * pairs[1])
        assert abs(values.mean() / (math.pi / 4.0) - 1.0) < 0.01

    def test_scaled_power_is_chi_square_two(self):
        rng = rl.substream(BASE_SEED, 112)
        samples = np.abs(math.sqrt(2.0) * _complex_normal(rng, 100_000)) ** 2
        result = stats.kstest(samples, "chi2", args=(2,))
        assert result.pvalue > 0.01


class TestAngleErrorInjection:
    def _down(self):
        config = rl.SystemConfig()
        deployment = rl.place_deployment(config, rl.substream(BASE_SEED, 113))
        up = rl.draw_tx_ris_channel(config, deployment, 0,
                                    rl.substream(BASE_SEED, 114))
        down = rl.draw_ris_rx_channel(config, deployment, 0,
                                      rl.substream(BASE_SEED, 115))
        return up, down

    def test_zero_sigma_is_identity(self):
        up, down = self._down()
        assert rl.inject_angle_error(down, 0.0,
                                     rl.substream(BASE_SEED, 116)) is down

    def test_transmit_hop_never_perturbed(self):
        up, _ = self._down()
        assert rl.inject_angle_error(up, 0.3,
                                     rl.substream(BASE_SEED, 117)) is up

    def test_perturbs_frequencies_not_gains(self):
        _, down = self._down()
        sigma = 0.05
        perturbed = rl.inject_angle_error(down, sigma,
                                          rl.substream(BASE_SEED, 118))
        assert np.array_equal(perturbed.gains, down.gains)
        assert not np.array_equal(perturbed.arrival_freqs,
                                  down.arrival_freqs)
        assert not np.array_equal(perturbed.departure_freqs,
                                  down.departure_freqs)
        # Additive real Gaussian on the spatial frequencies, so offsets
        # stay small at this sigma.
        assert np.max(np.abs(perturbed.arrival_freqs - down.arrival_freqs)) \
            < 6.0 * sigma

    def test_negative_sigma_rejected(self):
        _, down = self._down()
        with pytest.raises(ValueError):
            rl.inject_angle_error(down, -0.1, rl.substream(BASE_SEED, 119))


class TestPlanValidation:
    @pytest.mark.parametrize("overrides", [
        dict(axis_name="bogus"),
        dict(axis_values=()),
        dict(axis_values=(10.0, 0.0)),
        dict(schemes=()),
        dict(schemes=("xx",)),
        dict(n_angle_epochs=0),
        dict(n_fading_epochs=0),
        dict(schemes=("sm", "sm")),
        dict(gamma_th=-1.0),
        dict(base_seed=-1),
        dict(axis_values=(1e15, 1e15, 1.000000000000000125e15)),
    ])
    def test_rejects_bad_plans(self, overrides):
        with pytest.raises(ConfigurationError):
            _plan(**overrides)

    def test_integer_axes_reject_fractions(self):
        plan = _plan(axis_name="K", axis_values=(4.2,))
        with pytest.raises(ConfigurationError):
            rl.estimate_ergodic_se(plan, rl.SystemConfig())

    @pytest.mark.parametrize("axis", ["L_R", "L_T", "M_R", "N_T", "N_R", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_integer_axes_reject_non_finite(self, axis, value):
        with pytest.raises(ConfigurationError):
            rl.apply_axis(rl.SystemConfig(), axis, value)

    @pytest.mark.parametrize("axis", ["E_dBm", "kappa_dB"])
    def test_axis_overflow_is_a_configuration_error(self, axis):
        with pytest.raises(ConfigurationError, match="out of range"):
            rl.apply_axis(rl.SystemConfig(), axis, 4000.0)

    def test_axis_names_cover_all_sweeps(self):
        assert mc.AXIS_NAMES == (
            "E_dBm", "kappa_dB", "L_R", "L_T", "M_R",
            "N_T", "N_R", "K", "C", "sigma_e",
        )

    def test_axis_application(self):
        config = rl.SystemConfig()
        cases = [
            ("E_dBm", 30.0, "transmit_power", 1.0),
            ("kappa_dB", 10.0, "rician_factor", 10.0),
            ("L_R", 5.0, "n_ris_rx_paths", 5),
            ("L_T", 3.0, "n_nlos_tx_paths", 3),
            ("M_R", 2.0, "n_slots", 2),
            ("N_T", 32.0, "n_tx", 32),
            ("N_R", 2.0, "n_rx", 2),
            ("K", 6.0, "n_ris", 6),
            ("C", 2e-6, "gain_target", 2e-6),
            ("sigma_e", 0.05, "angle_error_std", 0.05),
        ]
        for axis, value, field, expected in cases:
            plan = _plan(axis_name=axis, axis_values=(value,))
            applied = mc._grid_config(plan, config, 0)
            got = getattr(applied, field)
            assert got == expected and type(got) is type(expected)


def _per_epoch_oracle(config, schemes, grid_index, epoch_index, n_fading_epochs, base_seed,
                      gamma_th, payload_symbols=None):
    """The engine one fading epoch at a time: redraw, design and run every
    epoch on 1-D gains, every scheme with its own selection and designs."""
    rng = mc.substream(base_seed, grid_index, epoch_index, mc._ANGLES)
    deployment = rl.place_deployment(config, rng)
    separation = rl.min_angle_separation(deployment)
    base_tx, base_rx = [], []
    for k in range(config.n_ris):
        base_tx.append(rl.draw_tx_ris_channel(config, deployment, k, rng, separation))
        base_rx.append(rl.draw_ris_rx_channel(config, deployment, k, rng, separation,
                                              keep_away=base_tx[-1].arrival_freqs))
    mismatched = config.angle_error_std > 0
    template_rx = base_rx
    if mismatched:
        err_rng = mc.substream(base_seed, grid_index, epoch_index, mc._MISMATCH)
        template_rx = [rl.inject_angle_error(ch, config.angle_error_std, err_rng)
                       for ch in base_rx]
    candidates = np.array([ch.arrival_freqs for ch in template_rx])
    selections = {
        "sm": lambda: rl.select_paths_sm(candidates, config.n_rx),
        "bf": lambda: rl.select_paths_bf(candidates, config.n_rx),
        "ds": lambda: rl.select_paths_diversity(candidates, "ds", config.n_slots, config.n_rx),
        "db": lambda: rl.select_paths_diversity(candidates, "db", config.n_slots, config.n_rx),
    }
    selections = {scheme: selections[scheme]() for scheme in schemes}
    runners = {
        "sm": lambda customs: rl.run_sm(customs[0], config, gamma_th),
        "bf": lambda customs: rl.run_bf(customs[0], config, gamma_th),
        "ds": lambda customs: rl.run_ds(customs, config, gamma_th),
        "db": lambda customs: rl.run_db(customs, config, gamma_th),
    }
    out = {scheme: [] for scheme in schemes}
    for fading_index in range(n_fading_epochs):
        fading_rng = mc.substream(base_seed, grid_index, epoch_index, fading_index, mc._FADING)
        cur_tx, cur_rx = [], []
        for k in range(config.n_ris):
            cur_tx.append(rl.redraw_fading(base_tx[k], config, deployment, fading_rng))
            cur_rx.append(rl.redraw_fading(base_rx[k], config, deployment, fading_rng))
        est_rx = cur_rx
        if mismatched:
            est_rx = [dataclasses.replace(t, gains=c.gains) for t, c in zip(template_rx, cur_rx)]
        for scheme in schemes:
            selection = selections[scheme]
            customs = [
                rl.build_customized_channel(
                    selection, (cur_tx, est_rx), deployment, slot=m,
                    refine=scheme in ("bf", "db"),
                    exact_subchannels=(cur_tx, cur_rx) if mismatched else None,
                )
                for m in range(selection.n_slots)
            ]
            if payload_symbols is None:
                out[scheme].append(runners[scheme](customs))
            else:
                payload_rng = mc.substream(base_seed, grid_index, epoch_index, fading_index,
                                           mc._PAYLOAD)
                out[scheme].append(rl.ber_trial(scheme, customs, config,
                                                payload_symbols[scheme], payload_rng, gamma_th))
    return out


class TestStackedEngine:
    """``_angle_epoch`` runs an angle epoch's fading epochs as stacked
    arrays; every result field must equal the per-epoch engine's."""

    @pytest.mark.parametrize("path", ["se", "ber"])
    @pytest.mark.parametrize("sigma_e", [0.0, 0.05])
    @pytest.mark.parametrize("n_slots", [1, 2, 3])
    def test_matches_per_epoch_oracle(self, n_slots, sigma_e, path):
        schemes = ("sm", "bf", "ds", "db")
        payload = {scheme: 40 for scheme in schemes} if path == "ber" else None
        for seed, grid_index, epoch_index, power in ((BASE_SEED, 0, 0, 1.0), (7, 3, 2, 1e-3)):
            config = rl.SystemConfig(n_slots=n_slots, angle_error_std=sigma_e,
                                     transmit_power=power)
            args = (config, schemes, grid_index, epoch_index, 4, seed, 10.0, payload)
            stacked = mc._angle_epoch(*args)
            oracle = _per_epoch_oracle(*args)
            for scheme in schemes:
                assert len(stacked[scheme]) == 4
                assert stacked[scheme] == oracle[scheme]

    @pytest.mark.parametrize("schemes", [("ds",), ("db", "sm"), ("bf", "ds", "db")])
    def test_scheme_subsets_match_per_epoch_oracle(self, schemes):
        config = rl.SystemConfig(n_slots=2, n_rx=2)
        args = (config, schemes, 1, 0, 3, 11, 10.0)
        assert mc._angle_epoch(*args) == _per_epoch_oracle(*args)

    def test_hopping_schemes_share_slot_zero(self, monkeypatch):
        built = []
        original = mc.build_customized_channel

        def counting(selection, *args, slot=0, **kwargs):
            built.append((selection.scheme, slot))
            return original(selection, *args, slot=slot, **kwargs)

        monkeypatch.setattr(mc, "build_customized_channel", counting)
        config = rl.SystemConfig(n_slots=2)
        mc._angle_epoch(config, ("sm", "bf", "ds", "db"), 0, 0, 3, BASE_SEED, 10.0)
        assert sorted(built) == [("bf", 0), ("db", 1), ("ds", 1), ("sm", 0)]


class TestEstimators:
    def test_single_epoch_matches_direct_run(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=1, n_fading_epochs=1,
                     schemes=("sm", "bf"))
        result = rl.estimate_ergodic_se(plan, config)
        epoch = mc._angle_epoch(
            mc._grid_config(plan, config, 0), plan.schemes, 0, 0, 1,
            plan.base_seed, plan.gamma_th,
        )
        for scheme in plan.schemes:
            assert result.means[scheme][0] == \
                epoch[scheme][0].se_bits_per_hz
            assert result.stderrs[scheme][0] == 0.0
            assert result.n_trials[scheme][0] == 1

    def test_mean_and_stderr_pool_all_trials(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=3, n_fading_epochs=2)
        result = rl.estimate_ergodic_se(plan, config)
        samples = [
            r.se_bits_per_hz
            for i in range(3)
            for r in mc._angle_epoch(
                mc._grid_config(plan, config, 0), plan.schemes, 0, i, 2,
                plan.base_seed, plan.gamma_th,
            )["sm"]
        ]
        assert math.isclose(result.means["sm"][0], float(np.mean(samples)),
                            rel_tol=1e-12)
        assert math.isclose(
            result.stderrs["sm"][0],
            float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
            rel_tol=1e-12,
        )
        assert result.n_trials["sm"][0] == 6

    def test_closed_form_columns_by_scheme(self):
        config = rl.SystemConfig(n_slots=2)
        plan = _plan(schemes=("sm", "bf", "ds", "db"), n_angle_epochs=1,
                     n_fading_epochs=1)
        result = rl.estimate_ergodic_se(plan, config)
        applied = mc._grid_config(plan, config, 0)
        params = mc.analysis.ClosedFormParams.from_config(applied)
        sm_cols = result.closed_form["sm"][0]
        assert math.isclose(sm_cols[0],
                            mc.analysis.se_sm_approx(params.c_values()),
                            rel_tol=1e-12)
        assert math.isclose(sm_cols[1],
                            mc.analysis.se_sm_upper(params.c_values()),
                            rel_tol=1e-12)
        bf_cols = result.closed_form["bf"][0]
        assert math.isnan(bf_cols[0])
        assert math.isclose(bf_cols[1], mc.analysis.se_bf_upper(params),
                            rel_tol=1e-12)
        db_cols = result.closed_form["db"][0]
        assert math.isclose(db_cols[1],
                            mc.analysis.se_db_upper(params, applied.n_slots),
                            rel_tol=1e-12)
        assert all(math.isnan(v) for v in result.closed_form["ds"][0])

    def test_model_metric_differs_from_exact(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=4, n_fading_epochs=2)
        exact = rl.estimate_ergodic_se(plan, config)
        model = rl.estimate_ergodic_se(plan, config, use_model=True)
        assert exact.metric == "se"
        assert model.metric == "se_model"
        assert exact.means["sm"][0] != model.means["sm"][0]

    def test_outage_zero_threshold_never_fires(self):
        config = rl.SystemConfig()
        plan = _plan(gamma_th=0.0, n_angle_epochs=3, n_fading_epochs=2)
        result = rl.estimate_outage(plan, config)
        assert result.means["sm"] == (0.0,)

    def test_hopping_reduces_outage(self):
        config = rl.SystemConfig(n_slots=2)
        plan = _plan(
            axis_values=(10.0,), schemes=("sm", "bf", "ds", "db"),
            n_angle_epochs=60, n_fading_epochs=5, gamma_th=10.0,
        )
        result = rl.estimate_outage(plan, config)
        assert result.means["ds"][0] <= result.means["sm"][0]
        assert result.means["db"][0] <= result.means["bf"][0]

    def test_angle_error_costs_rate_and_grows_with_power(self):
        config = rl.SystemConfig()
        gaps = []
        for power_dbm in (10.0, 30.0):
            cfg = dataclasses.replace(config,
                                      transmit_power=rl.dbm2watt(power_dbm))
            plan = _plan(
                axis_name="sigma_e", axis_values=(0.0, 0.05),
                schemes=("sm",), n_angle_epochs=60, n_fading_epochs=5,
            )
            result = rl.estimate_ergodic_se(plan, cfg)
            clean, noisy = result.means["sm"]
            assert noisy < clean
            gaps.append(clean - noisy)
        assert gaps[1] > gaps[0]

    # Selection-model means frozen repr-exact: no golden CSV covers the
    # ``se_model`` metric, so this pins the code that builds ``xi_active``.
    @pytest.mark.parametrize("sigma_e, expected", [
        (0.0, {
            "sm": (0.09473057918197629, 4.362431754086273),
            "bf": (0.27291054782759855, 4.448859505494985),
            "ds": (0.0680160592633888, 3.195815050897168),
            "db": (0.23122490887723035, 2.5394316890466584),
        }),
        (0.05, {
            "sm": (0.07851760915963894, 4.362431754086273),
            "bf": (0.2975250629033034, 4.875262965084722),
            "ds": (0.06677625666588817, 3.29650608575068),
            "db": (0.2637734785953114, 2.6774150612364305),
        }),
    ])
    def test_selection_model_means_frozen(self, sigma_e, expected):
        config = rl.SystemConfig(n_slots=2, angle_error_std=sigma_e)
        plan = _plan(axis_values=(0.0, 20.0), schemes=("sm", "bf", "ds", "db"),
                     n_angle_epochs=3, n_fading_epochs=3)
        result = rl.estimate_ergodic_se(plan, config, use_model=True)
        for scheme, means in expected.items():
            assert [repr(m) for m in result.means[scheme]] == [repr(m) for m in means]

    # Exact-rate means frozen repr-exact, written by the per-epoch engine:
    # the golden CSVs keep 12 digits, so a last-bit drift of the exact
    # log-det or matched-filter rate shows only here.
    @pytest.mark.parametrize("sigma_e, expected", [
        (0.0, {
            "sm": (0.09577394068750487, 4.374843683873725),
            "bf": (0.20770334280578054, 3.2825022256635212),
            "ds": (0.06925611098140246, 3.1860729872734175),
            "db": (0.15253029795706471, 2.2648114895476272),
        }),
        (0.05, {
            "sm": (0.022345119187871767, 1.1474137977265122),
            "bf": (0.007944905461249917, 0.8965968875387205),
            "ds": (0.014993086946659398, 0.6191955723188914),
            "db": (0.02388894503315819, 0.5908533165388543),
        }),
    ])
    def test_exact_rate_means_frozen(self, sigma_e, expected):
        config = rl.SystemConfig(n_slots=2, angle_error_std=sigma_e)
        plan = _plan(axis_values=(0.0, 20.0), schemes=("sm", "bf", "ds", "db"),
                     n_angle_epochs=3, n_fading_epochs=3)
        result = rl.estimate_ergodic_se(plan, config)
        for scheme, means in expected.items():
            assert [repr(m) for m in result.means[scheme]] == [repr(m) for m in means]

    def test_ber_bit_budget_met(self):
        config = rl.SystemConfig()
        plan = _plan(schemes=("sm", "bf"), n_angle_epochs=2,
                     n_fading_epochs=2)
        result = rl.estimate_ber(plan, config, min_bits=10_000)
        for scheme in plan.schemes:
            assert result.n_trials[scheme][0] >= 10_000
            assert 0.0 <= result.means[scheme][0] <= 1.0


class TestWilsonInterval:
    def test_zero_errors_closed_form(self):
        z = 1.959963984540054
        n = 100
        expected = z * z / (2.0 * (n + z * z))
        assert math.isclose(rl.wilson_half_width(0, n), expected,
                            rel_tol=1e-12)

    def test_symmetric_in_error_count(self):
        assert math.isclose(
            rl.wilson_half_width(10, 100), rl.wilson_half_width(90, 100),
            rel_tol=1e-12,
        )

    def test_shrinks_with_sample_size(self):
        widths = [rl.wilson_half_width(n // 10, n)
                  for n in (100, 1_000, 10_000)]
        assert widths[0] > widths[1] > widths[2]

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            rl.wilson_half_width(0, 0)
