"""Scheme runners: precoding power, model SNRs, reductions, and BER."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rislink as rl
from rislink.transceive import _beam_precoder, _multiplex_precoder

from conftest import BASE_SEED, candidate_matrix, draw_scene, small_config


def _customs(config, key, scheme: str, n_slots: int = 1, refine=None):
    deployment, ups, downs = draw_scene(config, BASE_SEED, *key)
    candidates = candidate_matrix(downs)
    if n_slots == 1 and scheme == "sm":
        selection = rl.select_paths_sm(candidates, config.n_rx)
    elif n_slots == 1 and scheme == "bf":
        selection = rl.select_paths_bf(candidates, config.n_rx)
    else:
        selection = rl.select_paths_diversity(candidates, scheme, n_slots,
                                              config.n_rx)
    if refine is None:
        refine = scheme in ("bf", "db")
    return [
        rl.build_customized_channel(selection, (ups, downs), deployment,
                                    slot=m, refine=refine)
        for m in range(n_slots)
    ]


class TestPrecoding:
    def test_multiplex_precoder_power(self):
        config = rl.SystemConfig(transmit_power=0.4)
        (custom,) = _customs(config, (70,), "sm")
        f = _multiplex_precoder(custom, config)
        assert math.isclose(float(np.linalg.norm(f) ** 2), 0.4, rel_tol=1e-12)

    def test_beam_precoder_power_on_orthogonal_beams(self):
        # Active transmit responses sit on distinct DFT beams, so the
        # summed beam carries exactly the configured power.
        config = rl.SystemConfig(transmit_power=0.4)
        (custom,) = _customs(config, (71,), "bf")
        f = _beam_precoder(custom, config)
        assert math.isclose(float(np.linalg.norm(f) ** 2), 0.4, rel_tol=1e-12)


class TestModelSnr:
    def test_multiplex_formula(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (72,), "sm")
        result = rl.run_sm(custom, config)
        expected = (
            np.abs(custom.xi_active) ** 2
            * config.transmit_power
            / (config.n_rx * config.noise_power)
        )
        assert np.allclose(result.post_combine_snr, expected, rtol=1e-12)
        assert math.isclose(
            result.se_model_bits_per_hz,
            float(np.sum(np.log2(1.0 + expected))),
            rel_tol=1e-12,
        )

    def test_beamform_formula(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (73,), "bf")
        result = rl.run_bf(custom, config)
        n_active = len(custom.xi_active)
        expected = (
            config.transmit_power
            * float(np.abs(custom.xi_active).sum() ** 2)
            / (n_active * config.noise_power)
        )
        assert math.isclose(result.post_combine_snr[0], expected,
                            rel_tol=1e-12)
        assert math.isclose(result.se_model_bits_per_hz,
                            math.log2(1.0 + expected), rel_tol=1e-12)

    def test_hopping_signal_quadratic_noise_linear(self):
        # Two identical slots double the combined amplitude (signal power
        # times four) while stacked noise only doubles: the post-combine
        # SNR is exactly twice the single-slot value.
        config = rl.SystemConfig(n_slots=2)
        slot0, slot1 = _customs(config, (74,), "ds", n_slots=2)
        single = rl.run_sm(dataclasses.replace(slot0, selection=rl.select_paths_sm(
            candidate_matrix(draw_scene(config, BASE_SEED, 74)[2]), config.n_rx)), config)
        twin = dataclasses.replace(slot0, slot=1)
        doubled = rl.run_ds([slot0, twin], config)
        assert np.allclose(
            doubled.post_combine_snr,
            2.0 * np.asarray(single.post_combine_snr),
            rtol=1e-12,
        )

    def test_outage_threshold_edges(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (75,), "sm")
        assert rl.run_sm(custom, config, gamma_th=0.0).outage is False
        assert rl.run_sm(custom, config, gamma_th=math.inf).outage is True


class TestSpectralEfficiency:
    def test_positive_and_monotone_in_power(self):
        base = rl.SystemConfig()
        (custom,) = _customs(base, (76,), "sm")
        previous = 0.0
        for power in (1e-3, 1e-2, 1e-1, 1.0):
            config = dataclasses.replace(base, transmit_power=power)
            se = rl.run_sm(custom, config).se_bits_per_hz
            assert se > previous
            previous = se

    def test_vanishes_under_overwhelming_noise(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (77,), "sm")
        drowned = dataclasses.replace(config, noise_power=1e12)
        assert rl.run_sm(custom, drowned).se_bits_per_hz < 1e-9
        assert rl.run_bf(_customs(config, (77,), "bf")[0],
                         drowned).se_bits_per_hz < 1e-9

    def test_multiplex_mean_tracks_closed_form(self):
        config = rl.SystemConfig(transmit_power=0.1)
        plan = rl.TrialPlan(
            axis_name="E_dBm", axis_values=(20.0,), schemes=("sm",),
            n_angle_epochs=150, n_fading_epochs=10, base_seed=BASE_SEED,
        )
        result = rl.estimate_ergodic_se(plan, config)
        mean = result.means["sm"][0]
        approx = result.closed_form["sm"][0][0]
        assert abs(mean / approx - 1.0) < 0.03

    def test_beamform_model_mean_below_upper_bound(self):
        config = rl.SystemConfig()
        plan = rl.TrialPlan(
            axis_name="E_dBm", axis_values=(20.0,), schemes=("bf",),
            n_angle_epochs=200, n_fading_epochs=5, base_seed=BASE_SEED,
        )
        result = rl.estimate_ergodic_se(plan, config, use_model=True)
        mean = result.means["bf"][0]
        upper = result.closed_form["bf"][0][1]
        assert mean <= upper

    def test_hopping_beamform_mean_below_single_slot(self):
        config = rl.SystemConfig(n_slots=2)
        plan = rl.TrialPlan(
            axis_name="E_dBm", axis_values=(20.0,), schemes=("bf", "db"),
            n_angle_epochs=150, n_fading_epochs=5, base_seed=BASE_SEED,
        )
        result = rl.estimate_ergodic_se(plan, config)
        assert result.means["db"][0] < result.means["bf"][0]

    @given(
        st.floats(min_value=1e-6, max_value=1e9),
        st.integers(min_value=1, max_value=16),
    )
    def test_hopping_rate_penalty_scalar_inequality(self, snr, n_slots):
        # Splitting one stream across n equal-SNR hops never beats the
        # single-configuration rate.
        hopped = math.log2(1.0 + n_slots * snr) / n_slots
        assert hopped <= math.log2(1.0 + snr) + 1e-12

    def test_single_slot_hopping_reduces_exactly(self):
        config = rl.SystemConfig(n_slots=1)
        (custom_sm,) = _customs(config, (78,), "ds", n_slots=1)
        (custom_bf,) = _customs(config, (78,), "db", n_slots=1)
        for single, multi, custom in (
            (rl.run_sm, rl.run_ds, custom_sm),
            (rl.run_bf, rl.run_db, custom_bf),
        ):
            a = single(custom, config)
            b = multi([custom], config)
            assert a.se_bits_per_hz == b.se_bits_per_hz
            assert a.se_model_bits_per_hz == b.se_model_bits_per_hz
            assert a.post_combine_snr == b.post_combine_snr
            assert a.outage == b.outage

    def test_slot_order_validated(self):
        config = rl.SystemConfig(n_slots=2)
        slot0, slot1 = _customs(config, (79,), "ds", n_slots=2)
        with pytest.raises(ValueError):
            rl.run_ds([slot1, slot0], config)
        with pytest.raises(ValueError):
            rl.run_ds([slot0], config)


class TestBitErrorTrials:
    def test_negligible_noise_means_no_errors(self):
        # Single-stream multiplexing has no inter-stream interference and
        # beamforming's matched filter is real positive, so with
        # negligible noise, sign detection is error free.
        config = rl.SystemConfig(n_rx=1, n_ris=4, noise_power=1e-30)
        (custom,) = _customs(config, (80,), "sm")
        result = rl.ber_trial("sm", [custom], config, 400,
                              rl.substream(BASE_SEED, 81))
        assert result.bit_errors == 0
        config4 = rl.SystemConfig(noise_power=1e-30)
        (beam,) = _customs(config4, (80,), "bf")
        result = rl.ber_trial("bf", [beam], config4, 400,
                              rl.substream(BASE_SEED, 82))
        assert result.bit_errors == 0

    def test_bit_accounting(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (83,), "sm")
        result = rl.ber_trial("sm", [custom], config, 100,
                              rl.substream(BASE_SEED, 84))
        assert result.bits_sent == 2 * config.n_rx * 100
        (beam,) = _customs(config, (83,), "bf")
        result = rl.ber_trial("bf", [beam], config, 100,
                              rl.substream(BASE_SEED, 85))
        assert result.bits_sent == 2 * 100

    def test_deterministic_for_equal_streams(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (86,), "sm")
        a = rl.ber_trial("sm", [custom], config, 200,
                         rl.substream(BASE_SEED, 87))
        b = rl.ber_trial("sm", [custom], config, 200,
                         rl.substream(BASE_SEED, 87))
        assert a.bit_errors == b.bit_errors

    def test_error_rate_drops_with_power(self):
        errors = {}
        for label, power in (("low", 1e-3), ("high", 10.0)):
            config = rl.SystemConfig(transmit_power=power, n_slots=2)
            customs = _customs(config, (88,), "ds", n_slots=2)
            total = 0
            for i in range(20):
                total += rl.ber_trial(
                    "ds", customs, config, 100, rl.substream(BASE_SEED, 89, i)
                ).bit_errors
            errors[label] = total
        assert errors["high"] < errors["low"]

    def test_unknown_scheme_rejected(self):
        config = rl.SystemConfig()
        (custom,) = _customs(config, (90,), "sm")
        with pytest.raises(ValueError):
            rl.ber_trial("xx", [custom], config, 10,
                         rl.substream(BASE_SEED, 91))
        with pytest.raises(ValueError):
            rl.ber_trial("sm", [custom], config, 0,
                         rl.substream(BASE_SEED, 92))


class TestStackedEpochs:
    """A design over stacked fading epochs against one design per epoch."""

    RUNNERS = {
        "sm": lambda customs, config: rl.run_sm(customs[0], config),
        "bf": lambda customs, config: rl.run_bf(customs[0], config),
        "ds": rl.run_ds,
        "db": rl.run_db,
    }

    @pytest.mark.parametrize("scheme, n_slots", [("sm", 1), ("bf", 1), ("ds", 2), ("db", 3)])
    def test_stacked_design_and_runners_match_each_epoch(self, scheme, n_slots):
        config = small_config(n_slots=n_slots)
        deployment, ups, downs = draw_scene(config, BASE_SEED, 93)
        candidates = candidate_matrix(downs)
        selection = (rl.select_paths_diversity(candidates, scheme, n_slots, config.n_rx)
                     if n_slots > 1 else
                     (rl.select_paths_sm if scheme == "sm" else rl.select_paths_bf)(
                         candidates, config.n_rx))
        keys = range(3)
        rngs = [rl.substream(BASE_SEED, 94, f) for f in keys]
        stacked_sub = ([], [])
        for up, down in zip(ups, downs):  # each generator's draw order of a single epoch
            stacked_sub[0].append(rl.redraw_fading(up, config, deployment, rngs))
            stacked_sub[1].append(rl.redraw_fading(down, config, deployment, rngs))
        refine = scheme in ("bf", "db")
        stacked = [rl.build_customized_channel(selection, stacked_sub, deployment, slot=m,
                                               refine=refine) for m in range(n_slots)]
        results = self.RUNNERS[scheme](stacked, config)
        assert len(results) == len(keys)
        for f in keys:
            rng = rl.substream(BASE_SEED, 94, f)
            single_ups, single_downs = [], []
            for up, down in zip(ups, downs):
                single_ups.append(rl.redraw_fading(up, config, deployment, rng))
                single_downs.append(rl.redraw_fading(down, config, deployment, rng))
            singles = [rl.build_customized_channel(selection, (single_ups, single_downs),
                                                   deployment, slot=m, refine=refine)
                       for m in range(n_slots)]
            for custom, single in zip(stacked, singles):
                view = custom.epoch(f)
                for name in ("r_active", "t_active", "xi_active", "exact_h"):
                    assert getattr(view, name).tobytes() == getattr(single, name).tobytes()
                assert [(g.slope, g.common_phase) for g in view.gammas] == \
                    [(g.slope, g.common_phase) for g in single.gammas]
            assert results[f] == self.RUNNERS[scheme](singles, config)
            assert rl.ber_trial(scheme, [c.epoch(f) for c in stacked], config, 50,
                                rl.substream(BASE_SEED, 95, f)) == \
                rl.ber_trial(scheme, singles, config, 50, rl.substream(BASE_SEED, 95, f))
