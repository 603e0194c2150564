"""Scheme runners: precoding power, model SNRs, reductions, and BER."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rislink as rl
from rislink import transceive
from rislink.channel import HopStack, draw_angle_epochs, draw_fading_gains
from rislink.config import surface_geometry
from rislink.customize import design_slots, select_paths_stack
from rislink.selftest import design_one, select_one
from rislink.transceive import (
    DEFAULT_OUTAGE_THRESHOLD,
    _beam_precoder,
    _multiplex_precoder,
    _run_beamform,
    _run_multiplex,
)

from conftest import (
    BASE_SEED,
    design_row,
    draw_scene,
    key_of,
    result_rows,
    row_powers,
    slot_links,
    small_config,
    streams,
    with_fading,
)


def _designs(config, key, scheme: str, n_slots: int = 1):
    """Each slot's design of one scene: stacks of one row."""
    hops = draw_scene(config, BASE_SEED, *key)
    selection = select_one(hops.rx_arrival[0], config.n_rx, scheme, n_slots)
    refine = scheme in ("bf", "db")
    return [
        design_one(selection, hops, slot=m, refine=refine)[0]
        for m in range(n_slots)
    ]


def _rows(designs):
    """The one row of each slot's design, with the leading axes dropped."""
    return [design_row(design) for design in designs]


def _pass(designs, config, symbols, rng, multiplex):
    """One payload pass over slot designs of one row, on ``rng`` and its
    key: the bits sent and the errors after each slot, as a tuple."""
    sent, errors = transceive.payload_errors(
        designs, slot_links(designs, row_powers(config, designs), multiplex), config.noise_power,
        symbols, key_of(rng)[None, None], rng, multiplex)
    return sent, tuple(errors[:, 0, 0].tolist())


def _row_block(design, a, f):
    """Row (a, f) of a slot design as a stack of one row."""
    return dataclasses.replace(
        design, r_active=design.r_active[a:a + 1], t_active=design.t_active[a:a + 1],
        xi_active=design.xi_active[a:a + 1, f:f + 1], exact_h=design.exact_h[a:a + 1, f:f + 1],
    )


def _run(scheme, designs, config, gamma_th=DEFAULT_OUTAGE_THRESHOLD):
    """One scheme's runner over all of ``designs``: its per-row results."""
    run = _run_multiplex if scheme in ("sm", "ds") else _run_beamform
    return result_rows(run(designs, row_powers(config, designs), config.noise_power,
                           {scheme: len(designs)}, gamma_th)[scheme])


class TestPrecoding:
    def test_multiplex_precoder_power(self):
        config = rl.SystemConfig(transmit_power=0.4)
        (design,) = _designs(config, (70,), "sm")
        f = _multiplex_precoder(design, np.array([0.4]))
        assert math.isclose(float(np.linalg.norm(f) ** 2), 0.4, rel_tol=1e-12)

    def test_beam_precoder_power_on_orthogonal_beams(self):
        # Active transmit responses sit on distinct DFT beams, so the
        # summed beam carries exactly the configured power.
        config = rl.SystemConfig(transmit_power=0.4)
        (design,) = _designs(config, (71,), "bf")
        f = _beam_precoder(design, np.array([0.4]))
        assert math.isclose(float(np.linalg.norm(f) ** 2), 0.4, rel_tol=1e-12)


class TestModelSnr:
    def test_multiplex_formula(self):
        config = rl.SystemConfig()
        designs = _designs(config, (72,), "sm")
        (result,) = _run("sm", designs, config)
        expected = (
            np.abs(_rows(designs)[0].xi_active) ** 2
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
        designs = _designs(config, (73,), "bf")
        (result,) = _run("bf", designs, config)
        xi_active = _rows(designs)[0].xi_active
        n_active = len(xi_active)
        expected = (
            config.transmit_power
            * float(np.abs(xi_active).sum() ** 2)
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
        slot0, _ = _designs(config, (74,), "ds", n_slots=2)
        (single,) = _run("sm", [slot0], config)
        (doubled,) = _run("ds", [slot0, slot0], config)
        assert np.allclose(
            doubled.post_combine_snr,
            2.0 * np.asarray(single.post_combine_snr),
            rtol=1e-12,
        )

    def test_outage_threshold_edges(self):
        config = rl.SystemConfig()
        designs = _designs(config, (75,), "sm")
        assert _run("sm", designs, config, gamma_th=0.0)[0].outage is False
        assert _run("sm", designs, config, gamma_th=math.inf)[0].outage is True


class TestSpectralEfficiency:
    def test_positive_and_monotone_in_power(self):
        base = rl.SystemConfig()
        designs = _designs(base, (76,), "sm")
        previous = 0.0
        for power in (1e-3, 1e-2, 1e-1, 1.0):
            config = dataclasses.replace(base, transmit_power=power)
            (result,) = _run("sm", designs, config)
            assert result.se_bits_per_hz > previous
            previous = result.se_bits_per_hz

    def test_vanishes_under_overwhelming_noise(self):
        config = rl.SystemConfig()
        drowned = dataclasses.replace(config, noise_power=1e12)
        for scheme in ("sm", "bf"):
            (result,) = _run(scheme, _designs(config, (77,), scheme), drowned)
            assert result.se_bits_per_hz < 1e-9

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
        # A one-slot hopping scheme selects, designs and runs exactly as its
        # single-configuration scheme.
        config = rl.SystemConfig(n_slots=1)
        for single, hopping in (("sm", "ds"), ("bf", "db")):
            (a,) = _run(single, _designs(config, (78,), single), config)
            (b,) = _run(hopping, _designs(config, (78,), hopping, n_slots=1), config)
            assert a.se_bits_per_hz == b.se_bits_per_hz
            assert a.se_model_bits_per_hz == b.se_model_bits_per_hz
            assert a.post_combine_snr == b.post_combine_snr
            assert a.outage == b.outage


class TestBitErrorTrials:
    def test_negligible_noise_means_no_errors(self):
        # Single-stream multiplexing has no inter-stream interference and
        # beamforming's matched filter is real positive, so with
        # negligible noise, sign detection is error free.
        config = rl.SystemConfig(n_rx=1, n_ris=4, noise_power=1e-30)
        _, errors = _pass(
            _designs(config, (80,), "sm"), config, 400, rl.substream(BASE_SEED, 81), True)
        assert errors == (0,)
        config4 = rl.SystemConfig(noise_power=1e-30)
        _, errors = _pass(
            _designs(config4, (80,), "bf"), config4, 400, rl.substream(BASE_SEED, 82), False)
        assert errors == (0,)

    def test_bit_accounting(self):
        config = rl.SystemConfig()
        sent, _ = _pass(
            _designs(config, (83,), "sm"), config, 100, rl.substream(BASE_SEED, 84), True)
        assert sent == 2 * config.n_rx * 100
        sent, _ = _pass(
            _designs(config, (83,), "bf"), config, 100, rl.substream(BASE_SEED, 85), False)
        assert sent == 2 * 100

    def test_deterministic_for_equal_streams(self):
        config = rl.SystemConfig()
        rows = _designs(config, (86,), "sm")
        a = _pass(rows, config, 200, rl.substream(BASE_SEED, 87), True)
        b = _pass(rows, config, 200, rl.substream(BASE_SEED, 87), True)
        assert a == b

    def test_error_rate_drops_with_power(self):
        errors = {}
        for label, power in (("low", 1e-3), ("high", 10.0)):
            config = rl.SystemConfig(transmit_power=power, n_slots=2)
            rows = _designs(config, (88,), "ds", n_slots=2)
            total = 0
            for i in range(20):
                total += _pass(rows, config, 100, rl.substream(BASE_SEED, 89, i), True)[1][-1]
            errors[label] = total
        assert errors["high"] < errors["low"]

    def test_empty_payload_rejected(self):
        config = rl.SystemConfig()
        rows = _designs(config, (90,), "sm")
        with pytest.raises(ValueError):
            _pass(rows, config, 0, rl.substream(BASE_SEED, 92), True)

    @pytest.mark.parametrize("multiplex", [True, False])
    def test_links_of_other_slot_count_rejected(self, multiplex):
        # zip would pair the first slots and drop the rest silently.
        config = small_config(n_slots=2)
        designs = _designs(config, (91,), "ds" if multiplex else "db", n_slots=2)
        links = slot_links(designs, row_powers(config, designs), multiplex)
        for wrong in (links[:1], links + links[:1]):
            with pytest.raises(ValueError, match="slot transceivers"):
                transceive.payload_errors(designs, wrong, config.noise_power, 10,
                                          *streams(BASE_SEED, [[(92,)]]), multiplex)

    @pytest.mark.parametrize("grid", [(0, 1), (2, 1), (1, 0), (1, 2)])
    def test_generators_of_other_rows_rejected(self, grid):
        config = small_config()
        designs = _designs(config, (93,), "sm")
        keys, rng = streams(BASE_SEED, [[(94, a, f) for f in range(grid[1])]
                                        for a in range(grid[0])])
        links = slot_links(designs, row_powers(config, designs), True)
        with pytest.raises(ValueError, match="payload keys"):
            transceive.payload_errors(designs, links, config.noise_power, 10, keys, rng, True)


class TestPayloadRungs:
    """``payload_errors`` detects after every slot; each rung must equal a
    pass over that prefix of the slots with the same generator."""

    @pytest.mark.parametrize("scheme", ["ds", "db"])
    def test_rungs_equal_prefix_passes(self, scheme):
        config = rl.SystemConfig(n_slots=3, transmit_power=1e-3)
        rows = _designs(config, (96,), scheme, n_slots=3)
        multiplex = scheme == "ds"
        sent, errors = _pass(rows, config, 80, rl.substream(BASE_SEED, 97), multiplex)
        assert len(errors) == 3
        for m in range(3):
            prefix = _pass(rows[:m + 1], config, 80, rl.substream(BASE_SEED, 97), multiplex)
            assert prefix == (sent, errors[:m + 1])

    def test_modulation_table_matches_mapping(self):
        bits = rl.substream(BASE_SEED, 98).integers(0, 2, size=(4, 2, 5000))
        mapped = ((1.0 - 2.0 * bits[..., 0, :]) + 1j * (1.0 - 2.0 * bits[..., 1, :])) \
            / math.sqrt(2.0)
        assert transceive._qpsk_modulate(bits).tobytes() == mapped.tobytes()

    def test_noise_matches_complex_draw(self):
        # In-place real and imaginary adds give the bits of adding
        # scale * (re + 1j * im) drawn as two arrays.
        rng = rl.substream(BASE_SEED, 99)
        received = rng.standard_normal((4, 3000)) + 1j * rng.standard_normal((4, 3000))
        expected = received.copy()
        draws = rl.substream(BASE_SEED, 100)
        expected += math.sqrt(0.3 / 2.0) * (draws.standard_normal(received.shape)
                                            + 1j * draws.standard_normal(received.shape))
        transceive._awgn(rl.substream(BASE_SEED, 100), 0.3, received,
                         np.empty((2,) + received.shape))
        assert received.tobytes() == expected.tobytes()


class TestBeamPowers:
    """The beamforming runner's batched beam powers against a 1-D
    ``np.linalg.norm(v) ** 2`` per row, bit for bit."""

    def test_match_per_row_norms_on_random_stacks(self):
        rng = rl.substream(BASE_SEED, 97)
        rows = 0
        for trial in range(400):
            n = int(rng.integers(1, 9))
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 60)), n)
            scale = 10.0 ** rng.uniform(-12.0, 3.0)
            channel = scale * (rng.standard_normal(shape + (5,))
                               + 1j * rng.standard_normal(shape + (5,)))
            # The runner's combiner is a matmul output's last column.
            matched = (channel @ rng.standard_normal((5, 1)).astype(complex))[..., 0]
            expected = [np.linalg.norm(v) ** 2 for v in matched.reshape(-1, n)]
            assert transceive._beam_powers(matched).tobytes() == np.array(expected).tobytes()
            rows += len(expected)
        assert rows > 10_000


class TestStackedEpochs:
    """A design over stacked fading epochs against one design per epoch."""

    @pytest.mark.parametrize("scheme, n_slots", [("sm", 1), ("bf", 1), ("ds", 2), ("db", 3)])
    def test_stacked_design_and_runners_match_each_epoch(self, scheme, n_slots):
        config = small_config(n_slots=n_slots)
        hops = draw_scene(config, BASE_SEED, 93)
        selection = select_one(hops.rx_arrival[0], config.n_rx, scheme, n_slots)
        keys = range(3)
        refine = scheme in ("bf", "db")
        stacked_hops = with_fading(config, hops, [rl.substream(BASE_SEED, 94, f) for f in keys])
        stacked = [design_one(selection, stacked_hops, slot=m, refine=refine)
                   for m in range(n_slots)]
        results = _run(scheme, [design for design, _, _ in stacked], config)
        assert len(results) == len(keys)
        multiplex = scheme in ("sm", "ds")
        stacked_designs = [design for design, _, _ in stacked]
        sent, errors = transceive.payload_errors(
            stacked_designs, slot_links(stacked_designs, row_powers(config, stacked_designs),
                                        multiplex), config.noise_power, 50,
            *streams(BASE_SEED, [[(95, f) for f in keys]]), multiplex)
        for f in keys:
            single_hops = with_fading(config, hops, [rl.substream(BASE_SEED, 94, f)])
            singles = [design_one(selection, single_hops, slot=m, refine=refine)
                       for m in range(n_slots)]
            for (design, slopes, commons), (single, single_slopes, single_commons) in zip(
                    stacked, singles):
                view, single_row = design_row(design, 0, f), design_row(single)
                for name in ("r_active", "t_active", "xi_active", "exact_h"):
                    assert getattr(view, name).tobytes() == getattr(single_row, name).tobytes()
                assert slopes.tobytes() == single_slopes.tobytes()
                assert commons[:, f if refine else 0].tobytes() == single_commons[:, 0].tobytes()
            assert results[f:f + 1] == _run(scheme, [single for single, _, _ in singles], config)
            assert (sent, tuple(errors[:, 0, f].tolist())) == \
                _pass([single for single, _, _ in singles], config, 50,
                      rl.substream(BASE_SEED, 95, f), multiplex)


class TestPayloadPin:
    """Frozen seeded payload passes: sha256 of every pass's
    ``(bits_sent, errors)`` repr and of its generator's state afterwards,
    over both families, 1-4 streams, 1-3 slots, odd and large symbol
    counts and two noise powers.  A change to the payload engine must keep
    both digests."""

    DIGESTS = {
        True: ("dd4fbd42cf77bc39884121352e4fa52fbfbed7f84d2385cefe93264988c3bc01",
               "8a4bf89e4f648d6620bf1e307ff5820596b9359de08a3d8cedf0f40494b31767"),
        False: ("0f2a2bc43f28f8bf0037436f2ddff9b6b75d15d66cad027c360c3fa23645ae22",
                "69561cb17579349a6c438ab195c6c25bf55a9edd749d6ebf7728be228085fa1e"),
    }

    @pytest.mark.parametrize("multiplex", [True, False])
    def test_seeded_passes_frozen(self, multiplex):
        results, states = hashlib.sha256(), hashlib.sha256()
        for n_rx in range(1, 5):
            for n_slots in range(1, 4):
                config = small_config(n_rx=n_rx, n_ris=4, n_slots=n_slots)
                single, hopping = ("sm", "ds") if multiplex else ("bf", "db")
                rows = _designs(config, (300, n_rx, n_slots),
                                single if n_slots == 1 else hopping, n_slots)
                for noise_power in (1e-14, 1e-12):
                    noisy = config.replace(noise_power=noise_power)
                    for symbols in (1, 7, 1563, 6250):
                        rng = rl.substream(BASE_SEED, 301, n_rx, n_slots, symbols, multiplex)
                        outcome = _pass(rows, noisy, symbols, rng, multiplex)
                        results.update(repr(outcome).encode())
                        states.update(repr(rng.bit_generator.state).encode())
        assert (results.hexdigest(), states.hexdigest()) == self.DIGESTS[multiplex]


class TestPayloadBlocks:
    """A payload pass and a runner pass over a block of rows, its angle
    rows at different powers, against each row passed alone at its own
    power."""

    SYMBOLS = 257

    @pytest.mark.parametrize("scheme", ["ds", "db"])
    def test_block_matches_rows_alone(self, scheme, monkeypatch):
        observed = []
        original = transceive._bit_errors

        def recording(observations, *rest):
            observed.append(observations.tobytes())
            return original(observations, *rest)

        monkeypatch.setattr(transceive, "_bit_errors", recording)
        config = small_config(n_slots=2)
        powers = np.array([1.0, 0.1])
        multiplex = scheme == "ds"
        angles, los_gains = draw_angle_epochs(
            config, surface_geometry(config), *streams(BASE_SEED, [(110, a) for a in range(2)]))
        keys = [[(a, f) for f in range(3)] for a in range(2)]
        tx_gains, rx_gains = draw_fading_gains(
            config, angles["n_elements"], los_gains,
            *streams(BASE_SEED, [[(111, *key) for key in row] for row in keys]))
        hops = HopStack(tx_gains=tx_gains, rx_gains=rx_gains, **angles)
        family = "multiplex" if multiplex else "beamform"
        selection = select_paths_stack(angles["rx_arrival"], config.n_rx, {family: 2})[family]
        # Row (0, 1) is drowned, so its errors are many and row (0, 2)
        # follows an error-heavy row in the block.
        drown = np.ones((2, 3, 1, 1))
        drown[0, 1] = 1e-3
        designs = [
            dataclasses.replace(design, exact_h=design.exact_h * drown)
            for design in (design_slots(selection, m, hops, hops, refine=not multiplex)[0]
                           for m in range(2))
        ]
        payload_keys, block_rng = streams(BASE_SEED, [[(112, *key) for key in row]
                                                      for row in keys])
        sent, errors = transceive.payload_errors(
            designs, slot_links(designs, powers, multiplex), config.noise_power, self.SYMBOLS,
            payload_keys, block_rng, multiplex)
        block_observed = list(observed)
        assert errors.shape == (2, 2, 3)
        assert errors[-1, 0, 1] > 0.3 * sent > errors[-1, 0, 2] > 0
        alone_observed = []
        for a, f in (key for row in keys for key in row):
            del observed[:]
            rng = rl.substream(BASE_SEED, 112, a, f)
            alone = _pass([_row_block(design, a, f) for design in designs],
                          config.replace(transmit_power=powers[a]), self.SYMBOLS, rng, multiplex)
            assert (sent, tuple(errors[:, a, f].tolist())) == alone, (a, f)
            alone_observed += observed
        assert block_observed == alone_observed
        # The block's one generator ends where the last row alone leaves it.
        assert repr(block_rng.bit_generator.state) == repr(rng.bit_generator.state)
        # The runner's result rows, bit counts included, likewise.
        run = _run_multiplex if multiplex else _run_beamform

        def rows_run(block_designs, block_powers, payload_keys):
            payload = (self.SYMBOLS, *streams(BASE_SEED, [[(112, *key) for key in row]
                                                          for row in payload_keys]))
            return result_rows(run(block_designs, block_powers, config.noise_power, {scheme: 2},
                                   DEFAULT_OUTAGE_THRESHOLD, payload)[scheme])

        block = rows_run(designs, powers, keys)
        assert [row.bit_errors for row in block] == errors[-1].ravel().tolist()
        for a, f in (key for row in keys for key in row):
            alone = rows_run([_row_block(design, a, f) for design in designs], powers[a:a + 1],
                             [[(a, f)]])
            assert alone == block[3 * a + f:3 * a + f + 1], (a, f)
