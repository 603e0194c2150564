"""Array responses, multipath draws, and the composite channel assembly."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
import rislink.montecarlo as mc
from rislink import channel
from rislink.channel import (
    RIS_RX,
    TX_RIS,
    _draw_separated_freqs,
    _inner_products,
    _response_matrix,
    composite,
    dirichlet_kernel,
    draw_angle_epochs,
    draw_fading_gains,
)
from rislink.config import drop_receiver, receiver_losses, surface_geometry
from rislink.montecarlo import _angle_errors
from rislink.selftest import (
    _draw_scene,
    dense_composite,
    design_one,
    hop_matrix,
    phase_profile,
    row_states,
    select_one,
)

from conftest import (
    BASE_SEED,
    draw_scene,
    random_profiles,
    small_config,
    stream_keys,
    streams,
    with_fading,
)


def _circular_gap(a: np.ndarray, b: float) -> np.ndarray:
    """Distance between spatial frequencies on the 2*pi circle, over an array."""
    return np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _draw_separated_freqs_oracle(rng, count, keep_away, separation, max_attempts=100_000):
    """The rejection sampler as first written: each try rebuilds the taken
    set as an array and tests the numpy circular gap."""
    taken = list(np.atleast_1d(np.asarray(keep_away, dtype=float)))
    separation = min(separation, 2.0 * math.pi / (2.0 * (count + len(taken))))
    out = []
    for _ in range(count):
        for _ in range(max_attempts):
            freq = math.pi * math.cos(rng.uniform(0.0, math.pi))
            if not taken or _circular_gap(np.array(taken), freq).min() >= separation:
                out.append(freq)
                taken.append(freq)
                break
        else:
            raise rl.SamplingError(f"angle sampling failed after {max_attempts} attempts")
    return np.array(out)


def _response(n: int, freq: float) -> np.ndarray:
    return _response_matrix(n, [freq])[:, 0]


def _inner(n: int, freq_a: float, freq_b: float) -> complex:
    return complex(np.vdot(_response(n, freq_a), _response(n, freq_b)))


class TestArrayResponse:
    def test_two_element_broadside(self):
        assert np.allclose(
            _response(2, 0.0),
            np.array([1.0, 1.0]) / math.sqrt(2.0),
            atol=1e-15,
        )

    def test_four_element_alternating(self):
        assert np.allclose(
            _response(4, math.pi),
            np.array([1.0, -1.0, 1.0, -1.0]) / 2.0,
            atol=1e-12,
        )

    @given(
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_unit_norm(self, n, freq):
        assert math.isclose(
            float(np.linalg.norm(_response(n, freq))), 1.0, rel_tol=1e-12
        )

    def test_large_aperture_crosstalk_frozen(self):
        # Frozen against an mpmath reference evaluation (50-digit precision)
        # of the normalized aperture kernel at 211 elements, offset 0.2 rad.
        assert math.isclose(
            abs(_inner(211, 0.0, 0.2)), 0.0369237914397, rel_tol=1e-9
        )

    def test_dft_grid_orthogonality(self):
        n = 16
        for m in range(1, n):
            assert abs(_inner(n, 0.0, 2.0 * math.pi * m / n)) < 1e-12

    def test_crosstalk_small_beyond_one_bin(self):
        n = 174
        offsets = np.linspace(2.0 * math.pi / n, math.pi, 400)
        worst = max(abs(_inner(n, 0.0, d)) for d in offsets)
        assert worst < 0.25


class TestMultipathDraws:
    def test_transmit_link_structure(self):
        config = small_config()
        hops = draw_scene(config)
        n_ris = config.n_ris
        assert hops.n_tx == config.n_tx and hops.n_rx == config.n_rx
        for name in ("tx_arrival", "tx_departure"):
            assert getattr(hops, name).shape == (1, n_ris, 1 + config.n_nlos_tx_paths)
        assert hops.tx_gains.shape == (1, 1, n_ris, 1 + config.n_nlos_tx_paths)
        for name in ("rx_arrival", "rx_departure"):
            assert getattr(hops, name).shape == (1, n_ris, config.n_ris_rx_paths)
        assert hops.rx_gains.shape == (1, 1, n_ris, config.n_ris_rx_paths)
        assert hops.n_elements.shape == hops.losses.shape == (1, n_ris)
        assert hop_matrix(hops, TX_RIS, 0).shape == (int(hops.n_elements[0, 0]), config.n_tx)
        assert hop_matrix(hops, RIS_RX, 0).shape == (config.n_rx, int(hops.n_elements[0, 0]))

    def test_transmit_line_of_sight_gain(self):
        config = small_config(rician_factor=4.0)
        hops = draw_scene(config, BASE_SEED, 1)
        cosines = surface_geometry(config).direction_cosines
        for k in range(config.n_ris):
            n_s = int(hops.n_elements[0, k])
            expected = math.sqrt(
                config.rician_factor * config.n_tx * n_s
                / (config.rician_factor + 1.0)
            )
            assert math.isclose(abs(hops.tx_gains[0, 0, k, 0]), expected, rel_tol=1e-12)
            # The deterministic component departs along the placement beam.
            assert math.isclose(
                hops.tx_departure[0, k, 0], math.pi * cosines[k], rel_tol=1e-12
            )

    def test_transmit_power_normalization(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, rician_factor=10.0,
                                 n_nlos_tx_paths=2)
        total = expected = 0.0
        for i in range(1500):  # 3000 hops over the two surfaces
            hops = draw_scene(config, BASE_SEED, 10, i)
            for k in range(config.n_ris):
                total += float(np.linalg.norm(hop_matrix(hops, TX_RIS, k)) ** 2)
                expected += config.n_tx * int(hops.n_elements[0, k])
        assert abs(total / expected - 1.0) < 0.02

    def test_receive_power_normalization(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=4)
        total = expected = 0.0
        for i in range(1500):  # 3000 hops over the two surfaces
            hops = draw_scene(config, BASE_SEED, 11, i)
            for k in range(config.n_ris):
                total += float(np.linalg.norm(hop_matrix(hops, RIS_RX, k)) ** 2)
                expected += config.n_rx * int(hops.n_elements[0, k])
        assert abs(total / expected - 1.0) < 0.02

    def test_receive_gains_zero_mean(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=4)
        _, gains = draw_fading_gains(config, np.array([[24]]), np.ones((1, 1)),
                                     *streams(BASE_SEED, [[(12, i) for i in range(2000)]]))
        scale = math.sqrt(config.n_rx * 24 / config.n_ris_rx_paths)
        assert abs(gains.mean()) / scale < 0.02

    def test_engine_fading_gain_statistics(self):
        # The gains the engine draws, on its own fading keys of grid point 0
        # over 8 x 5000 epochs of two surfaces: every scattered path's mean
        # power is its scale squared on both hops, the line-of-sight gains
        # are copied, and two independent receive paths' |conj(b1) b2|
        # averages the Rayleigh product (sqrt(pi) / 2 * scale)^2.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, rician_factor=3.0,
                                 n_nlos_tx_paths=2, n_ris_rx_paths=4)
        n_angle, n_fading = 8, 5000
        keys = mc._stream_keys(mc._stream_pools(BASE_SEED, [(0, a) for a in range(n_angle)]),
                               [(f, mc._FADING) for f in range(n_fading)])
        n_elements = np.tile([24, 40], (n_angle, 1))
        los_gains = np.random.default_rng(BASE_SEED).uniform(0.5, 2.0, (n_angle, 2))
        tx_gains, rx_gains = draw_fading_gains(config, n_elements, los_gains, keys,
                                               rl.substream(BASE_SEED))
        assert tx_gains[..., 0].tobytes() == np.broadcast_to(
            los_gains[:, None, :], tx_gains.shape[:3]).astype(complex).tobytes()
        products = []
        for k, n_s in enumerate([24, 40]):
            for link, gains in ((TX_RIS, tx_gains[:, :, k, 1:]), (RIS_RX, rx_gains[:, :, k])):
                scale = channel._scatter_scale(config, link, n_s, gains.shape[-1])
                power = (np.abs(gains) ** 2).mean(axis=(0, 1)) / scale**2
                assert np.all(np.abs(power - 1.0) < 0.02), (k, link, power)
            b = rx_gains[:, :, k] / channel._scatter_scale(config, RIS_RX, n_s, 4)
            products += [np.abs(b[..., m].conj() * b[..., m + 1]) for m in (0, 2)]
        assert abs(np.mean(products) / (math.pi / 4.0) - 1.0) < 0.01

    def test_strong_rician_factor_collapses_to_line_of_sight(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, rician_factor=1e12)
        hops = draw_scene(config, BASE_SEED, 13)
        rank_one = hops.tx_gains[0, 0, 0, 0] * np.outer(
            _response(int(hops.n_elements[0, 0]), hops.tx_arrival[0, 0, 0]),
            _response(config.n_tx, hops.tx_departure[0, 0, 0]).conj(),
        )
        h = hop_matrix(hops, TX_RIS, 0)
        assert np.linalg.norm(h - rank_one) / np.linalg.norm(h) < 1e-5

    def test_single_receive_path_gives_rank_one(self):
        config = small_config(n_ris_rx_paths=1)
        hops = draw_scene(config, BASE_SEED, 2)
        s = np.linalg.svd(hop_matrix(hops, RIS_RX, 0), compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_same_seed_identical_draw(self):
        config = small_config()
        a, b = draw_scene(config, BASE_SEED, 3), draw_scene(config, BASE_SEED, 3)
        for name in _ANGLE_ARRAYS + ("tx_gains", "rx_gains"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_redraw_fading_keeps_angles(self):
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 4)
        redrawn = with_fading(config, hops, [rl.substream(BASE_SEED, 14)])
        # The deterministic component survives; diffuse gains are redrawn.
        assert redrawn.tx_gains[..., 0].tobytes() == hops.tx_gains[..., 0].tobytes()
        assert not np.array_equal(redrawn.tx_gains[..., 1:], hops.tx_gains[..., 1:])
        assert not np.array_equal(redrawn.rx_gains, hops.rx_gains)
        # Only the gains are new: both epochs share the angle arrays.
        for name in _ANGLE_ARRAYS:
            assert getattr(redrawn, name) is getattr(hops, name)

    def test_redraw_and_angle_error_leave_input_untouched(self):
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 4)
        names = _ANGLE_ARRAYS + ("tx_gains", "rx_gains")
        before = [getattr(hops, name).tobytes() for name in names]
        with_fading(config, hops, [rl.substream(BASE_SEED, 25)])
        _angle_errors(0.05, hops.rx_arrival, hops.rx_departure, *streams(BASE_SEED, [(26,)]))
        assert [getattr(hops, name).tobytes() for name in names] == before

    def test_stacked_redraw_matches_epoch_by_epoch(self):
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 4)
        keys = (27, 28, 29)
        stacked = with_fading(config, hops, [rl.substream(BASE_SEED, key) for key in keys])
        assert stacked.tx_gains.shape[1] == stacked.rx_gains.shape[1] == len(keys)
        for f, key in enumerate(keys):
            single = with_fading(config, hops, [rl.substream(BASE_SEED, key)])
            assert stacked.tx_gains[:, f].tobytes() == single.tx_gains[:, 0].tobytes()
            assert stacked.rx_gains[:, f].tobytes() == single.rx_gains[:, 0].tobytes()

    @pytest.mark.parametrize("n_nlos", [0, 2])
    def test_bulk_fading_draw_matches_redraws(self, n_nlos):
        # A grid of fading epochs over several angle epochs gives, gain for
        # gain, what each (angle, fading) cell draws alone: a chunk's rows
        # do not depend on how the chunk is cut.
        config = rl.SystemConfig(n_nlos_tx_paths=n_nlos, n_ris_rx_paths=5)
        angles, los_gains = draw_angle_epochs(
            config, surface_geometry(config), *streams(BASE_SEED, [(40 + a,) for a in range(2)]))
        tx_gains, rx_gains = draw_fading_gains(
            config, angles["n_elements"], los_gains,
            *streams(BASE_SEED, [[(30, a, f) for f in range(3)] for a in range(2)]),
        )
        for a in range(2):
            for f in range(3):
                tx, rx = draw_fading_gains(config, angles["n_elements"][a:a + 1],
                                           los_gains[a:a + 1],
                                           *streams(BASE_SEED, [[(30, a, f)]]))
                assert tx_gains[a, f].tobytes() == tx[0, 0].tobytes()
                assert rx_gains[a, f].tobytes() == rx[0, 0].tobytes()

    def test_gains_may_carry_an_epoch_axis(self):
        # Gains over F fading epochs of the same angles give F end-to-end
        # matrices, each the dense oracle's for that epoch, whether the
        # common phases are per epoch or shared.
        config = small_config()
        hops = with_fading(config, draw_scene(config, BASE_SEED, 33),
                           [rl.substream(BASE_SEED, 34, f) for f in range(3)])
        assert hops.tx_gains.shape[:2] == hops.rx_gains.shape[:2] == (1, 3)
        slopes, commons = random_profiles(hops, rl.substream(BASE_SEED, 35))
        per_epoch = commons + np.arange(3)[None, :, None]
        for phases in (commons, per_epoch):
            h = composite(hops, slopes, phases)
            assert h.shape == (1, 3, config.n_rx, config.n_tx)
            for f in range(3):
                dense = dense_composite(hops, slopes, phases, f=f)
                assert np.linalg.norm(h[0, f] - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_minimum_angle_separation_enforced(self):
        # The surface is the resolving aperture, so the clearance rule
        # binds the frequencies seen at the surface: transmit-side
        # arrivals and receive-side departures, jointly per surface, at one
        # mainlobe of the smallest surface.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=6)
        for i in range(200):
            hops = draw_scene(config, BASE_SEED, 15, i)
            threshold = 2.0 * math.pi / hops.n_elements.min()
            for k in range(config.n_ris):
                freqs = np.concatenate([hops.tx_arrival[0, k], hops.rx_departure[0, k]])
                gaps = np.abs(freqs[:, None] - freqs[None, :])
                gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
                off = gaps[~np.eye(len(freqs), dtype=bool)]
                assert off.min() >= threshold - 1e-12

    def test_exhausted_sampler_is_a_package_error(self):
        # One attempt per draw on a packed circle: some draw must land too
        # close to an earlier one, and the failure is a RislinkError that
        # the CLI maps to an exit code instead of a traceback.
        with pytest.raises(rl.SamplingError):
            _draw_separated_freqs(rl.substream(BASE_SEED, 24), 40, np.array([0.0]), 10.0,
                                  max_attempts=1)
        assert issubclass(rl.SamplingError, rl.RislinkError)

    @pytest.mark.parametrize("keep_away", [
        (),
        (0.0,),
        (math.pi,),
        (-math.pi,),
        (np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0)),
        (math.pi - 1e-9, -math.pi + 1e-9, 0.5),
    ])
    def test_scalar_gap_check_matches_array_oracle(self, keep_away):
        # The sampler tests each draw's circular gaps with Python floats;
        # the draws, and what they leave of the stream, must be bitwise
        # those of the gap computed over a numpy array.
        for key in range(20):
            separation = 2.0 * math.pi / (8 + 4 * key)
            rng, oracle_rng = rl.substream(BASE_SEED, 25, key), rl.substream(BASE_SEED, 25, key)
            got = _draw_separated_freqs(rng, 6, np.array(keep_away), separation)
            expected = _draw_separated_freqs_oracle(oracle_rng, 6, np.array(keep_away), separation)
            assert got.tolist() == expected.tolist()
            assert rng.random(4).tolist() == oracle_rng.random(4).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        count=st.integers(min_value=0, max_value=40),
        keep_away=st.one_of(
            st.just([]),
            st.lists(st.sampled_from([math.pi, -math.pi, float(np.nextafter(math.pi, 0.0)),
                                      float(np.nextafter(-math.pi, 0.0)), 0.0, -0.0]),
                     min_size=1, max_size=4),
            st.lists(st.floats(min_value=-math.pi, max_value=math.pi), max_size=8),
            st.integers(min_value=2, max_value=60).map(
                lambda n: np.linspace(-math.pi, math.pi, n).tolist()),
            st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=6),
        ),
        separation=st.one_of(st.floats(min_value=1e-4, max_value=0.5),
                             st.floats(min_value=0.5, max_value=100.0)),
        max_attempts=st.sampled_from([1, 2, 3, 10, 1000]),
        key=st.integers(min_value=0, max_value=2**16),
    )
    def test_batched_sampler_matches_scalar_oracle(self, count, keep_away, separation,
                                                   max_attempts, key):
        # The batched sampler consumes the stream exactly as one scalar
        # draw per try: the same draws, the same generator state after
        # them, and a SamplingError under the same attempt budget.  Large
        # separations are capped at the relaxed packing threshold.
        rng, oracle_rng = rl.substream(BASE_SEED, 27, key), rl.substream(BASE_SEED, 27, key)
        args = (count, np.array(keep_away), separation, max_attempts)
        if count + len(keep_away) == 0:
            # No threshold to relax (the oracle divides by zero): nothing
            # is drawn and the generator is left untouched.
            assert _draw_separated_freqs(rng, *args).shape == (0,)
            assert rng.random(4).tolist() == oracle_rng.random(4).tolist()
            return
        try:
            expected = _draw_separated_freqs_oracle(oracle_rng, *args)
        except rl.SamplingError:
            with pytest.raises(rl.SamplingError):
                _draw_separated_freqs(rng, *args)
            return
        got = _draw_separated_freqs(rng, *args)
        assert got.tolist() == expected.tolist()
        assert rng.random(4).tolist() == oracle_rng.random(4).tolist()

    @pytest.mark.parametrize("wrap", [(), (math.pi, -math.pi), (math.pi,), (-math.pi,)],
                             ids=["no-edges", "both-edges", "pi", "minus-pi"])
    @pytest.mark.parametrize("below_edge, above_edge", [
        ("low", "low"), ("low", "high"), ("high", "high"), ("high", "sep"), ("sep", "low"),
        ("sep", "sep"),
    ])
    def test_plain_differences_decide_as_the_gap_test(self, below_edge, above_edge, wrap):
        # The first try's neighbours sit a few ulps either side of
        # separation -/+ 2 * _GAP_MARGIN (or of separation itself) from it,
        # wrapped onto the circle, with +-pi taken as well or not: the
        # draws and the generator's end state must be the oracle's.
        separation = 0.2
        edges = dict(low=separation - 2.0 * channel._GAP_MARGIN, sep=separation,
                     high=separation + 2.0 * channel._GAP_MARGIN)

        def shifted(value, ulps):
            for _ in range(abs(ulps)):
                value = math.nextafter(value, math.copysign(math.inf, ulps))
            return value

        def on_circle(value):
            return (value + math.pi) % (2.0 * math.pi) - math.pi

        for key in range(12):
            first = math.pi * math.cos(rl.substream(BASE_SEED, 28, key).uniform(0.0, math.pi))
            for ulps in range(-3, 4):
                keep_away = [on_circle(first - shifted(edges[below_edge], ulps)),
                             on_circle(first + shifted(edges[above_edge], -ulps)), *wrap]
                rng, oracle_rng = rl.substream(BASE_SEED, 28, key), rl.substream(BASE_SEED, 28, key)
                got = _draw_separated_freqs(rng, 3, keep_away, separation)
                expected = _draw_separated_freqs_oracle(oracle_rng, 3, keep_away, separation)
                assert got.tolist() == expected.tolist(), (key, ulps)
                assert rng.random(4).tolist() == oracle_rng.random(4).tolist()

    def test_scalar_gap_equals_array_gap_across_the_wrap(self):
        edges = [math.pi, -math.pi, np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0),
                 0.0, -0.0, 1e-300, 2.0 * math.pi / 3.0]
        values = np.concatenate([edges, rl.substream(BASE_SEED, 26).uniform(-4.0, 4.0, 200)])
        two_pi = 2.0 * math.pi
        for freq in values.tolist():
            scalar = [abs((t - freq + math.pi) % two_pi - math.pi) for t in values.tolist()]
            assert scalar == _circular_gap(values, freq).tolist()

    def test_wrap_tries_clear_of_the_band_skip_the_gap_test(self, monkeypatch):
        # A try below the least or above the greatest taken frequency is
        # decided by the plain differences across the wrap when both clear
        # separation -/+ 2 * _GAP_MARGIN: the modular gap test, the only
        # place the sampler calls abs(), never runs, and the draws are still
        # the oracle's.
        separation, wraps, gap_tests = 0.25, [], []

        def counted_bisect(ordered, freq):
            i = bisect_right(ordered, freq)
            wraps.append(i in (0, len(ordered)))
            return i

        for key, keep_away in enumerate([[0.3], [-math.pi, math.pi], [-2.5, 1.0, 2.9]]):
            rng, oracle_rng = rl.substream(BASE_SEED, 29, key), rl.substream(BASE_SEED, 29, key)
            with monkeypatch.context() as patch:
                patch.setattr(channel, "bisect_right", counted_bisect)
                patch.setattr(channel, "abs", lambda x: gap_tests.append(x) or math.fabs(x),
                              raising=False)
                got = _draw_separated_freqs(rng, 8, keep_away, separation)
            expected = _draw_separated_freqs_oracle(oracle_rng, 8, np.array(keep_away), separation)
            assert got.tolist() == expected.tolist()
        assert sum(wraps) >= 10, wraps
        assert gap_tests == []

    def test_near_degenerate_geometry_still_draws(self):
        # Surfaces with very few elements would demand more angular
        # clearance than a full circle can hold; the sampler must relax
        # the threshold instead of spinning forever.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=10, gain_target=1e-8)
        hops = draw_scene(config, BASE_SEED, 16)
        assert 2.0 * math.pi / hops.n_elements.min() > math.pi / (3 + config.n_ris_rx_paths)
        assert hops.rx_gains.shape[-1] == 10


def _assert_array_draws_obey_the_model(config, key, n_angle):
    """The model's rules on a block of array draws: the line of sight from
    the geometry, surfaces sized from the drop, every surface-side
    frequency a mainlobe of the smallest surface from the others (relaxed
    to the packing limit), far-side frequencies in [-pi, pi], a rerun equal
    bit for bit, and angle errors only on the receive-side frequencies."""
    surfaces = surface_geometry(config)
    cells = [(70, key, a) for a in range(n_angle)]
    angles, los_gains = draw_angle_epochs(config, surfaces, *streams(BASE_SEED, cells))
    again, _ = draw_angle_epochs(config, surfaces, *streams(BASE_SEED, cells))
    assert all(angles[name].tobytes() == again[name].tobytes() for name in _ANGLE_ARRAYS)
    assert (angles["tx_arrival"][..., 0] == surfaces.los_arrival).all()
    assert (angles["tx_departure"][..., 0] == surfaces.los_departure).all()
    assert los_gains.tobytes() == np.sqrt(
        config.rician_factor * config.n_tx * angles["n_elements"] / (config.rician_factor + 1.0)
    ).tobytes()
    paths = 1 + config.n_nlos_tx_paths + config.n_ris_rx_paths
    for a in range(n_angle):
        replay = rl.substream(BASE_SEED, 70, key, a)
        losses, counts = receiver_losses(config, surfaces, drop_receiver(config, replay))
        assert (angles["losses"][a] == losses).all() and (angles["n_elements"][a] == counts).all()
        threshold = min(2.0 * math.pi / counts.min(), math.pi / paths)
        for k in range(config.n_ris):
            freqs = np.concatenate([angles["tx_arrival"][a, k], angles["rx_departure"][a, k]])
            gaps = _circular_gap(freqs[:, None], freqs[None, :])[~np.eye(paths, dtype=bool)]
            assert gaps.size == 0 or gaps.min() >= threshold - 1e-12
        far = np.concatenate([angles["tx_departure"][a], angles["rx_arrival"][a]], axis=None)
        assert (np.abs(far) <= math.pi).all()
        if config.angle_error_std:
            arrivals, departures = _angle_errors(
                config.angle_error_std, angles["rx_arrival"][a:a + 1],
                angles["rx_departure"][a:a + 1], *streams(BASE_SEED, [(71, key, a)]))
            arrivals, departures = arrivals[0], departures[0]
            errors = config.angle_error_std * rl.substream(BASE_SEED, 71, key, a).standard_normal(
                (config.n_ris, 2, config.n_ris_rx_paths))
            assert np.allclose(arrivals - angles["rx_arrival"][a], errors[:, 0], rtol=0,
                               atol=1e-14)
            assert np.allclose(departures - angles["rx_departure"][a], errors[:, 1], rtol=0,
                               atol=1e-14)
    return angles


_TINY_CONFIG = rl.SystemConfig(gain_target=1e-8, n_ris_rx_paths=12, angle_error_std=0.05)


class TestArrayAngleDraws:
    """The engine's array-native angle draws against the model's rules; the
    bits are pinned by :class:`TestArrayDrawPin`."""

    @pytest.mark.parametrize("overrides", [
        dict(n_nlos_tx_paths=0),
        dict(angle_error_std=0.05),
        dict(n_ris=2, n_rx=2, n_ris_rx_paths=7, angle_error_std=0.3),
        dict(n_rx=1, n_ris=1),
        dict(n_ris_rx_paths=30, n_nlos_tx_paths=3),
    ])
    def test_named_configs(self, overrides):
        _assert_array_draws_obey_the_model(rl.SystemConfig(**overrides), 0, 3)

    def test_tiny_surfaces_relax_the_threshold(self):
        config = _TINY_CONFIG
        angles = _assert_array_draws_obey_the_model(config, 1, 4)
        paths = 1 + config.n_nlos_tx_paths + config.n_ris_rx_paths
        # The mainlobe rule asks for more clearance than the circle holds.
        assert (2.0 * math.pi / angles["n_elements"].min(axis=1) > math.pi / paths).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_rx=st.integers(min_value=1, max_value=3),
        extra_ris=st.integers(min_value=0, max_value=2),
        n_tx_paths=st.integers(min_value=0, max_value=3),
        n_rx_paths=st.integers(min_value=1, max_value=16),
        sigma_e=st.sampled_from([0.0, 0.05, 0.5]),
        gain_target=st.sampled_from([1e-6, 2e-7, 1e-8]),
        n_angle=st.integers(min_value=1, max_value=3),
        key=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_configs(self, n_rx, extra_ris, n_tx_paths, n_rx_paths, sigma_e,
                            gain_target, n_angle, key):
        config = rl.SystemConfig(
            n_tx=8, n_rx=n_rx, n_ris=n_rx + extra_ris, n_nlos_tx_paths=n_tx_paths,
            n_ris_rx_paths=n_rx_paths, angle_error_std=sigma_e, gain_target=gain_target,
        )
        _assert_array_draws_obey_the_model(config, key, n_angle)

    def test_sampling_error_propagates(self, monkeypatch):
        # Under an attempt budget of one the sampler gives up; the array
        # draw must give up the same way instead of returning.
        sampler = channel._draw_separated_freqs
        monkeypatch.setattr(channel, "_draw_separated_freqs",
                            lambda *args: sampler(*args, max_attempts=1))
        config = rl.SystemConfig(n_ris_rx_paths=40)
        with pytest.raises(rl.SamplingError):
            draw_angle_epochs(config, surface_geometry(config), *streams(BASE_SEED, [(72,)]))


_NAMED_CONFIGS = [
    dict(n_nlos_tx_paths=0),
    dict(angle_error_std=0.05),
    dict(n_ris=2, n_rx=2, n_ris_rx_paths=7, angle_error_std=0.3),
    dict(n_rx=1, n_ris=1),
    dict(n_ris_rx_paths=30, n_nlos_tx_paths=3),
]


def _random_configs(count):
    """Seeded random configs (1-3 streams, up to two spare surfaces, 0-3
    transmit-side and 1-16 receive-side scattered paths, three surface
    sizes), cycling the angle error through 0, 0.05 and 0.5; each with its
    stream key and its number of angle epochs."""
    rng = rl.substream(BASE_SEED, 74)
    out = []
    for i in range(count):
        n_rx = int(rng.integers(1, 4))
        config = rl.SystemConfig(
            n_tx=8, n_rx=n_rx, n_ris=n_rx + int(rng.integers(0, 3)),
            n_nlos_tx_paths=int(rng.integers(0, 4)), n_ris_rx_paths=int(rng.integers(1, 17)),
            angle_error_std=(0.0, 0.05, 0.5)[i % 3],
            gain_target=(1e-6, 2e-7, 1e-8)[int(rng.integers(0, 3))],
        )
        out.append((config, int(rng.integers(0, 2**16)), int(rng.integers(1, 4))))
    return out


def _update(digest, *arrays):
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())


def _draw_digests(cases, n_fading=2):
    """sha256 of the array draws of every (config, key, angle epochs) case
    and of the stream states that each epoch's draws leave: every angle
    array and the line-of-sight gains; with angle error, each angle epoch's
    perturbed receive-side frequencies; the gains of ``n_fading`` fading
    epochs."""
    arrays, states = hashlib.sha256(), hashlib.sha256()
    for config, key, n_angle in cases:
        surfaces = surface_geometry(config)
        angle_keys, rng = streams(BASE_SEED, [(70, key, a) for a in range(n_angle)])
        angles, los_gains = draw_angle_epochs(config, surfaces, angle_keys, rng)
        _update(arrays, *(angles[name] for name in _ANGLE_ARRAYS), los_gains)
        left = row_states(
            lambda a, rng: draw_angle_epochs(config, surfaces, angle_keys[a:a + 1], rng),
            range(n_angle))
        if config.angle_error_std:
            error_keys = stream_keys(BASE_SEED, [(71, key, a) for a in range(n_angle)])
            arrivals, departures = angles["rx_arrival"], angles["rx_departure"]
            estimates = _angle_errors(config.angle_error_std, arrivals, departures, error_keys,
                                      rng)
            for a in range(n_angle):
                _update(arrays, estimates[0][a], estimates[1][a])
            left += row_states(lambda a, rng: _angle_errors(
                config.angle_error_std, arrivals[a:a + 1], departures[a:a + 1],
                error_keys[a:a + 1], rng,
            ), range(n_angle))
        fading_keys = stream_keys(BASE_SEED, [[(72, key, a, f) for f in range(n_fading)]
                                              for a in range(n_angle)])
        n_elements = angles["n_elements"]
        _update(arrays, *draw_fading_gains(config, n_elements, los_gains, fading_keys, rng))
        left += row_states(lambda af, rng: draw_fading_gains(
            config, n_elements[af[0]:af[0] + 1], los_gains[af[0]:af[0] + 1],
            fading_keys[af[0]:af[0] + 1, af[1]:af[1] + 1], rng,
        ), np.ndindex(n_angle, n_fading))
        for state in left:
            states.update(state.encode())
    return arrays.hexdigest(), states.hexdigest()


_ANGLE_ARRAYS = ("tx_arrival", "tx_departure", "rx_arrival", "rx_departure", "n_elements",
                 "losses")


class TestArrayDrawPin:
    """Frozen array draws: sha256 of every angle array, line-of-sight gain,
    angle error and fading gain, and of every generator's state after its
    draws, on the named configs and on 40 seeded random ones.  A change to
    the draws must keep both digests."""

    NAMED = [
        ("1bdd1b37cac26f3146fd52b5512117a8366c7a6990ad002ea70390bb8332891f",
         "4a3f2be152b5ad0d9233dc99539aa77c27ff1b66d5c6839b592750f1a1dee17f"),
        ("8792f7fd2aae05f00986e813b490756f6ce2b74476b31e3dc5c2351452278f81",
         "3a6ad718ade7e6a8e9bf62929d709deaba53325b40aaae5b23cd218c45a15de8"),
        ("f5a9c147da5b5e0e57a203417132024b0c7eb8580c90a15b1eb432115bb38301",
         "941a44fbe08f69353ab6d09fc118adc2b008236032416213af6ffded598c1206"),
        ("0ef97b6e7b44504c4f15a9729a5c1028838a36af31b2a935392fcfae0846cc76",
         "a2b58efbc012498ffdf91fb68c977b55cb274163c649771a2a175f8c7f3078cc"),
        ("f9479b431f2b69b31a558da6aedaea3bdef4dbdb691188ef55f288dad39ac996",
         "ed79a27e4d6ac4716a81fa72a7b4e9fd341d7038ddb20f147fb983555c67be18"),
    ]
    RANDOM = ("e984478bdb04220b67c1c34e866fa7f64137749a0a9f631d7d531599019d1396",
              "df845630e4daf7883897c9e71d05e51f7c1db53cfeac6cee7e75e999d553413f")
    # Surfaces so small that the sampler relaxes its threshold.
    TINY = ("d94318cfca7f82d774d18208567beec535e05f4b1abee4cc6ce0e0ea3ba2e865",
            "506c3edc9b2460d2d49a175147aa75f6e7fb5c5eb99f5bfde16e992271bf0711")
    # The selftest's scene at seed 7 with two fading epochs (arrays only).
    SCENE = "2f909d0806b8fbdad87c80432eecd4e130c49078bcd85bd93cb71126febe3353"

    @pytest.mark.parametrize("index", range(len(_NAMED_CONFIGS)))
    def test_named_configs_frozen(self, index):
        config = rl.SystemConfig(**_NAMED_CONFIGS[index])
        assert _draw_digests([(config, 0, 3)]) == self.NAMED[index]

    def test_random_configs_frozen(self):
        assert _draw_digests(_random_configs(40)) == self.RANDOM

    def test_tiny_surfaces_frozen(self):
        assert _draw_digests([(_TINY_CONFIG, 1, 4)]) == self.TINY

    def test_selftest_scene_frozen(self):
        # The selftest's scenes: angles on (seed, 0), fading epoch f's gains
        # on (seed, 0, 1 + f).
        digest = hashlib.sha256()
        hops = _draw_scene(rl.SystemConfig(), seed=7, n_fading=2)
        _update(digest, *(getattr(hops, f.name) for f in dataclasses.fields(hops)
                          if isinstance(getattr(hops, f.name), np.ndarray)))
        assert digest.hexdigest() == self.SCENE


def _inner_products_of(hops, slopes, commons) -> np.ndarray:
    """Every surface's inner products in a stack of one, shape (K, L_R, L_T)."""
    return _inner_products(
        slopes, commons, hops.rx_departure, hops.tx_arrival, hops.n_elements
    )[0, 0]


class TestCascadedFactorization:
    def test_assembly_matches_direct_sum(self):
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 5)
        slopes, commons = random_profiles(hops, rl.substream(BASE_SEED, 17))
        h = composite(hops, slopes, commons)[0, 0]
        direct = np.zeros((config.n_rx, config.n_tx), dtype=complex)
        for k in range(config.n_ris):
            gamma = phase_profile(int(hops.n_elements[0, k]), slopes[0, k], commons[0, 0, k])
            direct += hops.losses[0, k] * (
                hop_matrix(hops, RIS_RX, k) @ np.diag(gamma) @ hop_matrix(hops, TX_RIS, k)
            )
        assert np.linalg.norm(h - direct) / np.linalg.norm(direct) < 1e-13

    def test_factorization_reconstructs_exactly(self):
        rng = rl.substream(BASE_SEED, 18)
        for trial in range(100):
            n_rx = int(rng.integers(1, 4))
            n_ris = int(rng.integers(n_rx, 4))
            config = rl.SystemConfig(
                n_tx=int(rng.integers(max(n_rx, n_ris + 2), 13)),
                n_rx=n_rx,
                n_ris=n_ris,
                n_ris_rx_paths=int(rng.integers(1, 5)),
                n_nlos_tx_paths=int(rng.integers(0, 4)),
                gain_target=2e-7,
            )
            hops = draw_scene(config, BASE_SEED, 19, trial)
            slopes, commons = random_profiles(hops, rng)
            h = composite(hops, slopes, commons)[0, 0]
            dense = dense_composite(hops, slopes, commons)
            assert np.linalg.norm(h - dense) <= 1e-10 * np.linalg.norm(h)

    def test_stacked_epochs_match_single_epochs_bitwise(self):
        config = small_config()
        stacked_hops = with_fading(config, draw_scene(config, BASE_SEED, 30),
                               [rl.substream(BASE_SEED, 31, f) for f in range(4)])
        n_fading = stacked_hops.tx_gains.shape[1]
        phases = rl.substream(BASE_SEED, 32).uniform(-math.pi, math.pi, n_fading)
        # Surface 0 has a per-epoch common phase, the others one for all epochs.
        slopes = np.full((1, config.n_ris), 0.3 - (-0.2))
        commons = np.tile(0.4 * np.arange(config.n_ris), (1, n_fading, 1))
        commons[0, :, 0] = phases
        stacked = composite(stacked_hops, slopes, commons)[0]
        assert stacked.shape == (n_fading, config.n_rx, config.n_tx)
        for f in range(n_fading):
            hops = dataclasses.replace(stacked_hops, tx_gains=stacked_hops.tx_gains[:, f:f + 1],
                                       rx_gains=stacked_hops.rx_gains[:, f:f + 1])
            single = composite(hops, slopes, commons[:, f:f + 1])[0, 0]
            assert single.tobytes() == stacked[f].tobytes()

    def test_core_entries_match_per_path_products(self):
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 8)
        slopes, commons = random_profiles(hops, rl.substream(BASE_SEED, 22))
        inner = _inner_products_of(hops, slopes, commons)
        for k in range(config.n_ris):
            n_s = int(hops.n_elements[0, k])
            gamma = phase_profile(n_s, slopes[0, k], commons[0, 0, k])
            for l in range(config.n_ris_rx_paths):
                for j in range(config.n_nlos_tx_paths + 1):
                    a_dep = _response(n_s, hops.rx_departure[0, k, l])
                    a_arr = _response(n_s, hops.tx_arrival[0, k, j])
                    loss_gains = (hops.losses[0, k] * hops.rx_gains[0, 0, k, l]
                                  * hops.tx_gains[0, 0, k, j])
                    expected = loss_gains * np.vdot(a_dep, gamma * a_arr)
                    got = loss_gains * inner[k, l, j]
                    assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_accepts_structured_reflection_objects(self):
        # Profiles that align each surface's first receive-side path on its
        # line of sight, as a design does.
        config = small_config()
        hops = draw_scene(config, BASE_SEED, 9)
        slopes = hops.rx_departure[:, :, 0] - hops.tx_arrival[:, :, 0]
        commons = np.zeros((1, 1, config.n_ris))
        h = composite(hops, slopes, commons)[0, 0]
        oracle = dense_composite(hops, slopes, commons)
        assert np.linalg.norm(h - oracle) <= 1e-12 * np.linalg.norm(oracle)


_EPS = np.finfo(float).eps


def _kernel_oracle(delta: np.ndarray, n: int) -> np.ndarray:
    return np.exp(1j * np.outer(delta, np.arange(n))).mean(-1)


def _kernel_tolerance(delta: np.ndarray, n: int) -> np.ndarray:
    # The oracle rounds every phase i*delta, so its own error grows with
    # n*|delta|; the closed form stays within the same envelope.
    return _EPS * n * (np.abs(delta) + 2.0 * math.pi)


class TestDirichletKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 170, 211, 1000]),
        st.sampled_from([0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, -4.0 * math.pi]),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-16, max_value=1e-6),
            st.floats(min_value=-1e-6, max_value=-1e-16),
        ),
    )
    def test_matches_element_sum_near_multiples_of_two_pi(self, n, base, offset):
        delta = np.array([base + offset])
        got = dirichlet_kernel(delta, n)
        assert np.all(np.abs(got - _kernel_oracle(delta, n)) <= _kernel_tolerance(delta, n))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 170, 211, 1000]),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_matches_element_sum_everywhere(self, n, delta):
        delta = np.array([delta])
        got = dirichlet_kernel(delta, n)
        assert np.all(np.abs(got - _kernel_oracle(delta, n)) <= _kernel_tolerance(delta, n))

    def test_zero_offset_is_exactly_one(self):
        for n in (1, 2, 3, 170, 211, 1000):
            assert dirichlet_kernel(0.0, n) == 1.0

    def test_broadcasts_over_surfaces(self):
        delta = np.array([[0.0, 0.3], [1e-9, -2.0]])
        n = np.array([[170], [211]])
        got = dirichlet_kernel(delta, n)
        for idx in np.ndindex(delta.shape):
            expected = _kernel_oracle(delta[idx][None], int(n[idx[0], 0]))[0]
            assert abs(got[idx] - expected) <= 1e-13


def _adversarial(hops):
    """The stack with receive-side surface departures that collide with
    transmit-side arrivals: directly, shifted by 2*pi, and at the offset an
    aligned profile maps onto another path's arrival."""
    departures = hops.rx_departure.copy()
    for arrivals, row in zip(hops.tx_arrival[0], departures[0]):
        targets = (
            None,
            arrivals[1 % arrivals.size],
            arrivals[-1] + 2.0 * math.pi,
            row[0] + arrivals[-1] - arrivals[0] - 2.0 * math.pi,
        )
        for l, target in enumerate(targets[: row.size]):
            if target is not None:
                row[l] = target
    return dataclasses.replace(hops, rx_departure=departures)


class TestClosedFormAssembly:
    """Kernel assembly against the element-by-element oracle at the
    default surface sizes, on the profiles the schemes actually use."""

    def _profiles(self, config, hops):
        def designed(scheme, refine):
            selection = select_one(hops.rx_arrival[0], config.n_rx, scheme)
            return design_one(selection, hops, refine=refine)[1:]

        return {
            "aligned": designed("sm", refine=False),
            "refined": designed("bf", refine=True),
            "neutral": (np.zeros((1, config.n_ris)), np.zeros((1, 1, config.n_ris))),
        }

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_matches_dense_oracle(self, adversarial):
        config = rl.SystemConfig()
        for i in range(20):
            hops = draw_scene(config, BASE_SEED, 23, i)
            if adversarial:
                hops = _adversarial(hops)
            for name, (slopes, commons) in self._profiles(config, hops).items():
                h = composite(hops, slopes, commons)[0, 0]
                oracle = dense_composite(hops, slopes, commons)
                rel = np.linalg.norm(h - oracle) / np.linalg.norm(oracle)
                assert rel <= 1e-12, (name, i, rel)

    def test_adversarial_scene_hits_the_series_branch(self):
        # The collisions put some kernel arguments at (or within rounding
        # of) a multiple of 2*pi, where the sine ratio is 0/0.
        config = rl.SystemConfig()
        hops = _adversarial(draw_scene(config, BASE_SEED, 23, 0))
        inner = _inner_products_of(hops, np.zeros((1, config.n_ris)),
                                   np.zeros((1, 1, config.n_ris)))
        assert np.any(np.abs(inner - 1.0) < 1e-12)
