"""Array responses, multipath draws, and the composite channel assembly."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink import channel
from rislink.channel import (
    HopStack,
    _draw_separated_freqs,
    dirichlet_kernel,
    draw_angle_epochs,
    _inner_products,
    composite,
    draw_fading_gains,
)
from rislink.config import surface_geometry
from rislink.montecarlo import _angle_errors
from rislink.selftest import dense_composite, design_one, hop_matrix, select_one

from conftest import (
    BASE_SEED,
    candidate_matrix,
    draw_scene,
    profile_arrays,
    random_profiles,
    small_config,
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


def _inner(n: int, freq_a: float, freq_b: float) -> complex:
    return complex(np.vdot(rl.array_response(n, freq_a),
                           rl.array_response(n, freq_b)))


class TestArrayResponse:
    def test_two_element_broadside(self):
        assert np.allclose(
            rl.array_response(2, 0.0),
            np.array([1.0, 1.0]) / math.sqrt(2.0),
            atol=1e-15,
        )

    def test_four_element_alternating(self):
        assert np.allclose(
            rl.array_response(4, math.pi),
            np.array([1.0, -1.0, 1.0, -1.0]) / 2.0,
            atol=1e-12,
        )

    @given(
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_unit_norm(self, n, freq):
        assert math.isclose(
            float(np.linalg.norm(rl.array_response(n, freq))), 1.0, rel_tol=1e-12
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


def _single_surface_deployment(n_elements: int) -> rl.Deployment:
    return rl.Deployment(
        tx_position=np.zeros(2),
        rx_position=np.array([20.0, 0.0]),
        ris_positions=np.array([[10.0, 3.0]]),
        ris_element_counts=np.array([n_elements]),
        path_losses=np.array([1.0]),
        direction_cosines=np.array([0.5]),
    )


class TestMultipathDraws:
    def test_transmit_link_structure(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config)
        up = ups[0]
        assert up.n_out == int(deployment.ris_element_counts[0])
        assert up.n_in == config.n_tx
        assert up.gains.size == 1 + config.n_nlos_tx_paths
        down = downs[0]
        assert down.n_out == config.n_rx
        assert down.n_in == int(deployment.ris_element_counts[0])
        assert down.gains.size == config.n_ris_rx_paths

    def test_transmit_line_of_sight_gain(self):
        config = small_config(rician_factor=4.0)
        deployment, ups, _ = draw_scene(config, BASE_SEED, 1)
        for k, up in enumerate(ups):
            n_s = int(deployment.ris_element_counts[k])
            expected = math.sqrt(
                config.rician_factor * config.n_tx * n_s
                / (config.rician_factor + 1.0)
            )
            assert math.isclose(abs(up.gains[0]), expected, rel_tol=1e-12)
            # The deterministic component departs along the placement beam.
            assert math.isclose(
                up.departure_freqs[0],
                math.pi * deployment.direction_cosines[k],
                rel_tol=1e-12,
            )

    def test_transmit_power_normalization(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, rician_factor=10.0,
                                 n_nlos_tx_paths=2)
        deployment = _single_surface_deployment(24)
        total = 0.0
        n_draws = 3000
        for i in range(n_draws):
            up = rl.draw_tx_ris_channel(
                config, deployment, 0, rl.substream(BASE_SEED, 10, i)
            )
            total += float(np.linalg.norm(hop_matrix(up)) ** 2)
        expected = config.n_tx * 24
        assert abs(total / n_draws / expected - 1.0) < 0.02

    def test_receive_power_normalization(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=4)
        deployment = _single_surface_deployment(24)
        total = 0.0
        n_draws = 3000
        for i in range(n_draws):
            down = rl.draw_ris_rx_channel(
                config, deployment, 0, rl.substream(BASE_SEED, 11, i)
            )
            total += float(np.linalg.norm(hop_matrix(down)) ** 2)
        expected = config.n_rx * 24
        assert abs(total / n_draws / expected - 1.0) < 0.02

    def test_receive_gains_zero_mean(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=4)
        deployment = _single_surface_deployment(24)
        gains = np.concatenate([
            rl.draw_ris_rx_channel(
                config, deployment, 0, rl.substream(BASE_SEED, 12, i)
            ).gains
            for i in range(2000)
        ])
        scale = math.sqrt(config.n_rx * 24 / config.n_ris_rx_paths)
        assert abs(gains.mean()) / scale < 0.02

    def test_strong_rician_factor_collapses_to_line_of_sight(self):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, rician_factor=1e12)
        deployment = _single_surface_deployment(24)
        up = rl.draw_tx_ris_channel(config, deployment, 0,
                                    rl.substream(BASE_SEED, 13))
        rank_one = up.gains[0] * np.outer(
            rl.array_response(24, up.arrival_freqs[0]),
            rl.array_response(config.n_tx, up.departure_freqs[0]).conj(),
        )
        h = hop_matrix(up)
        assert np.linalg.norm(h - rank_one) / np.linalg.norm(h) < 1e-5

    def test_single_receive_path_gives_rank_one(self):
        config = small_config(n_ris_rx_paths=1)
        _, _, downs = draw_scene(config, BASE_SEED, 2)
        s = np.linalg.svd(hop_matrix(downs[0]), compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_same_seed_identical_draw(self):
        config = small_config()
        _, ups_a, downs_a = draw_scene(config, BASE_SEED, 3)
        _, ups_b, downs_b = draw_scene(config, BASE_SEED, 3)
        for a, b in zip(ups_a + downs_a, ups_b + downs_b):
            assert np.array_equal(a.gains, b.gains)
            assert np.array_equal(a.arrival_freqs, b.arrival_freqs)
            assert np.array_equal(a.departure_freqs, b.departure_freqs)

    def test_redraw_fading_keeps_angles(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 4)
        rng = rl.substream(BASE_SEED, 14)
        up2 = rl.redraw_fading(ups[0], config, deployment, rng)
        down2 = rl.redraw_fading(downs[0], config, deployment, rng)
        assert np.array_equal(up2.arrival_freqs, ups[0].arrival_freqs)
        assert np.array_equal(up2.departure_freqs, ups[0].departure_freqs)
        assert np.array_equal(down2.arrival_freqs, downs[0].arrival_freqs)
        assert np.array_equal(down2.departure_freqs, downs[0].departure_freqs)
        # The deterministic component survives; diffuse gains are redrawn.
        assert up2.gains[0] == ups[0].gains[0]
        assert not np.array_equal(up2.gains[1:], ups[0].gains[1:])
        assert not np.array_equal(down2.gains, downs[0].gains)
        # Only the gains are new: both epochs share the angle arrays.
        assert down2.arrival_freqs is downs[0].arrival_freqs
        assert down2.departure_freqs is downs[0].departure_freqs

    @pytest.mark.parametrize("name", ["gains", "arrival_freqs", "departure_freqs"])
    def test_path_arrays_are_read_only(self, name):
        _, ups, downs = draw_scene(small_config(), BASE_SEED, 4)
        for channel in (ups[0], downs[0]):
            with pytest.raises(ValueError):
                getattr(channel, name)[0] = 0.0

    def test_constructor_copies_writable_arrays(self):
        gains = np.array([1.0 + 1.0j, 2.0])
        freqs = np.array([0.1, 0.2])
        channel = rl.MultipathChannel("ris-rx", 0, 2, 8, gains, freqs, freqs)
        gains[0] = 0.0
        freqs[0] = 0.0
        assert channel.gains[0] == 1.0 + 1.0j
        assert channel.arrival_freqs[0] == 0.1
        assert channel.departure_freqs[0] == 0.1
        with pytest.raises(ValueError):
            rl.MultipathChannel("ris-rx", 0, 2, 8, gains, freqs, freqs[:1])

    def test_redraw_and_angle_error_leave_input_untouched(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 4)
        for channel in (ups[0], downs[0]):
            before = [np.copy(getattr(channel, name))
                      for name in ("gains", "arrival_freqs", "departure_freqs")]
            rl.redraw_fading(channel, config, deployment, rl.substream(BASE_SEED, 25))
            rl.inject_angle_error(channel, 0.05, rl.substream(BASE_SEED, 26))
            after = [channel.gains, channel.arrival_freqs, channel.departure_freqs]
            for old, new in zip(before, after):
                assert old.tobytes() == new.tobytes()

    def test_stacked_redraw_matches_epoch_by_epoch(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 4)
        keys = (27, 28, 29)
        stacked_rngs = [rl.substream(BASE_SEED, key) for key in keys]
        single_rngs = [rl.substream(BASE_SEED, key) for key in keys]
        for channel in (ups[0], downs[0], ups[1], downs[1]):
            stacked = rl.redraw_fading(channel, config, deployment, stacked_rngs)
            singles = [rl.redraw_fading(channel, config, deployment, rng) for rng in single_rngs]
            assert stacked.gains.shape == (len(keys), channel.gains.size)
            assert stacked.gains.tobytes() == np.stack([s.gains for s in singles]).tobytes()
            assert not stacked.gains.flags.writeable
            assert stacked.arrival_freqs is channel.arrival_freqs

    @pytest.mark.parametrize("n_nlos", [0, 2])
    def test_bulk_fading_draw_matches_redraws(self, n_nlos):
        # One normal draw per generator for every surface and both hops
        # gives, gain for gain, the per-surface redraws of that generator.
        config = rl.SystemConfig(n_nlos_tx_paths=n_nlos, n_ris_rx_paths=5)
        scenes = [draw_scene(config, BASE_SEED, 40 + a) for a in range(2)]
        keys = [[(a, f) for f in range(3)] for a in range(2)]
        tx_gains, rx_gains = draw_fading_gains(
            config,
            np.array([d.ris_element_counts for d, _, _ in scenes]),
            np.array([[up.gains[0] for up in ups] for _, ups, _ in scenes]),
            [[rl.substream(BASE_SEED, 30, *key) for key in row] for row in keys],
        )
        for a, (deployment, ups, downs) in enumerate(scenes):
            for f in range(3):
                rng = rl.substream(BASE_SEED, 30, a, f)
                for k, (up, down) in enumerate(zip(ups, downs)):
                    expected_tx = rl.redraw_fading(up, config, deployment, rng).gains
                    expected_rx = rl.redraw_fading(down, config, deployment, rng).gains
                    assert tx_gains[a, f, k].tobytes() == expected_tx.tobytes()
                    assert rx_gains[a, f, k].tobytes() == expected_rx.tobytes()

    def test_gains_may_carry_an_epoch_axis(self):
        freqs = np.array([0.1, 0.2])
        channel = rl.MultipathChannel("ris-rx", 0, 2, 8, np.ones((3, 2)), freqs, freqs)
        assert channel.gains.shape == (3, 2)
        for gains in (np.ones((3, 3)), np.ones((2, 3, 2)), np.ones(3)):
            with pytest.raises(ValueError):
                rl.MultipathChannel("ris-rx", 0, 2, 8, gains, freqs, freqs)

    def test_minimum_angle_separation_enforced(self):
        # The surface is the resolving aperture, so the clearance rule
        # binds the frequencies seen at the surface: transmit-side
        # arrivals and receive-side departures, jointly per surface.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=6)
        deployment = _single_surface_deployment(40)
        threshold = rl.min_angle_separation(deployment)
        assert math.isclose(threshold, 2.0 * math.pi / 40.0, rel_tol=1e-12)
        for i in range(200):
            rng = rl.substream(BASE_SEED, 15, i)
            up = rl.draw_tx_ris_channel(config, deployment, 0, rng)
            down = rl.draw_ris_rx_channel(
                config, deployment, 0, rng, keep_away=up.arrival_freqs
            )
            freqs = np.concatenate([up.arrival_freqs, down.departure_freqs])
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

    def test_scalar_gap_equals_array_gap_across_the_wrap(self):
        edges = [math.pi, -math.pi, np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0),
                 0.0, -0.0, 1e-300, 2.0 * math.pi / 3.0]
        values = np.concatenate([edges, rl.substream(BASE_SEED, 26).uniform(-4.0, 4.0, 200)])
        two_pi = 2.0 * math.pi
        for freq in values.tolist():
            scalar = [abs((t - freq + math.pi) % two_pi - math.pi) for t in values.tolist()]
            assert scalar == _circular_gap(values, freq).tolist()

    def test_near_degenerate_geometry_still_draws(self):
        # A surface with very few elements would demand more angular
        # clearance than a full circle can hold; the sampler must relax
        # the threshold instead of spinning forever.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=10)
        deployment = _single_surface_deployment(4)
        down = rl.draw_ris_rx_channel(config, deployment, 0,
                                      rl.substream(BASE_SEED, 16))
        assert down.gains.size == 10


def _per_surface_epoch(config, rng, error_rng):
    """One angle epoch drawn with the per-surface wrappers: deployment,
    then per surface both hops, then the angle error of each receive hop."""
    deployment = rl.place_deployment(config, rng)
    separation = rl.min_angle_separation(deployment)
    txs, rxs = [], []
    for k in range(config.n_ris):
        txs.append(rl.draw_tx_ris_channel(config, deployment, k, rng, separation))
        rxs.append(rl.draw_ris_rx_channel(config, deployment, k, rng, separation,
                                          keep_away=txs[-1].arrival_freqs))
    estimated = [rl.inject_angle_error(rx, config.angle_error_std, error_rng) for rx in rxs]
    return HopStack.from_channels(txs, rxs, deployment), estimated


def _angle_error_oracle(arrivals, departures, sigma_e, rng):
    """The angle error as first written: per surface, the arrivals' errors,
    then the departures'."""
    out = [(arr + sigma_e * rng.standard_normal(arr.size),
            dep + sigma_e * rng.standard_normal(dep.size))
           for arr, dep in zip(arrivals, departures)]
    return np.array([arr for arr, _ in out]), np.array([dep for _, dep in out])


def _state(rng) -> str:
    # The state holds small arrays, whose repr is exact.
    return repr(rng.bit_generator.state)


def _assert_array_draws_match_wrappers(config, key, n_angle):
    surfaces = surface_geometry(config)
    rngs = [rl.substream(BASE_SEED, 70, key, a) for a in range(n_angle)]
    angles, los_gains = draw_angle_epochs(config, surfaces, rngs)
    for a, stacked_rng in enumerate(rngs):
        rng = rl.substream(BASE_SEED, 70, key, a)
        error_rng, wrapper_error_rng, oracle_error_rng = (
            rl.substream(BASE_SEED, 71, key, a) for _ in range(3))
        hops, estimated = _per_surface_epoch(config, rng, wrapper_error_rng)
        for name in ("tx_arrival", "tx_departure", "rx_arrival", "rx_departure",
                     "n_elements", "losses"):
            got, expected = angles[name][a], getattr(hops, name)[0]
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert los_gains[a].tobytes() == hops.tx_gains[0, 0, :, 0].real.tobytes()
        assert _state(stacked_rng) == _state(rng)
        if config.angle_error_std:
            arrivals, departures = _angle_errors(
                config.angle_error_std, angles["rx_arrival"][a], angles["rx_departure"][a],
                error_rng,
            )
            oracle = _angle_error_oracle(angles["rx_arrival"][a], angles["rx_departure"][a],
                                         config.angle_error_std, oracle_error_rng)
            wrapper = (np.array([e.arrival_freqs for e in estimated]),
                       np.array([e.departure_freqs for e in estimated]))
            for got in ((arrivals, departures), wrapper):
                assert [g.tobytes() for g in got] == [o.tobytes() for o in oracle]
            assert _state(error_rng) == _state(wrapper_error_rng) == _state(oracle_error_rng)
    return angles


class TestArrayAngleDraws:
    """The engine's array-native angle draws against the per-surface wrappers."""

    @pytest.mark.parametrize("overrides", [
        dict(n_nlos_tx_paths=0),
        dict(angle_error_std=0.05),
        dict(n_ris=2, n_rx=2, n_ris_rx_paths=7, angle_error_std=0.3),
        dict(n_rx=1, n_ris=1),
        dict(n_ris_rx_paths=30, n_nlos_tx_paths=3),
    ])
    def test_named_configs(self, overrides):
        _assert_array_draws_match_wrappers(rl.SystemConfig(**overrides), 0, 3)

    def test_tiny_surfaces_relax_the_threshold(self):
        config = rl.SystemConfig(gain_target=1e-8, n_ris_rx_paths=12, angle_error_std=0.05)
        angles = _assert_array_draws_match_wrappers(config, 1, 4)
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
        _assert_array_draws_match_wrappers(config, key, n_angle)

    def test_sampling_error_propagates(self, monkeypatch):
        # Under an attempt budget of one, the per-surface draw gives up; the
        # array draw must give up the same way instead of returning.
        sampler = channel._draw_separated_freqs
        monkeypatch.setattr(channel, "_draw_separated_freqs",
                            lambda *args: sampler(*args, max_attempts=1))
        config = rl.SystemConfig(n_ris_rx_paths=40)
        with pytest.raises(rl.SamplingError):
            _per_surface_epoch(config, rl.substream(BASE_SEED, 72), rl.substream(BASE_SEED, 73))
        with pytest.raises(rl.SamplingError):
            draw_angle_epochs(config, surface_geometry(config), [rl.substream(BASE_SEED, 72)])


def _composite_of(ups, profiles, downs, deployment) -> np.ndarray:
    """The composite of one angle epoch's hops under per-surface profiles."""
    hops = HopStack.from_channels(ups, downs, deployment)
    return composite(hops, *profile_arrays(profiles))[0, 0]


def _inner_products_of(ups, profiles, downs, deployment) -> np.ndarray:
    """Every surface's inner products under per-surface profiles, shape
    (K, L_R, L_T)."""
    hops = HopStack.from_channels(ups, downs, deployment)
    return _inner_products(
        *profile_arrays(profiles), hops.rx_departure, hops.tx_arrival, hops.n_elements
    )[0, 0]


class TestCascadedFactorization:
    def test_assembly_matches_direct_sum(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 5)
        gammas = random_profiles(deployment, rl.substream(BASE_SEED, 17))
        h = _composite_of(ups, gammas, downs, deployment)
        direct = np.zeros((config.n_rx, config.n_tx), dtype=complex)
        for k in range(config.n_ris):
            direct += deployment.path_losses[k] * (
                hop_matrix(downs[k]) @ np.diag(gammas[k].phase_vector()) @ hop_matrix(ups[k])
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
            deployment, ups, downs = draw_scene(config, BASE_SEED, 19, trial)
            gammas = random_profiles(deployment, rng)
            h = _composite_of(ups, gammas, downs, deployment)
            dense = dense_composite(ups, [g.phase_vector() for g in gammas], downs, deployment)
            assert np.linalg.norm(h - dense) <= 1e-10 * np.linalg.norm(h)

    def test_stacked_epochs_match_single_epochs_bitwise(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 30)
        rngs = [rl.substream(BASE_SEED, 31, f) for f in range(4)]
        stacked_ups = [rl.redraw_fading(up, config, deployment, rngs) for up in ups]
        stacked_downs = [rl.redraw_fading(down, config, deployment, rngs) for down in downs]
        phases = rl.substream(BASE_SEED, 32).uniform(-math.pi, math.pi, len(rngs))
        # Surface 0 has a per-epoch common phase, the others one for all epochs.
        slopes = np.full((1, config.n_ris), 0.3 - (-0.2))
        commons = np.tile(0.4 * np.arange(config.n_ris), (1, len(rngs), 1))
        commons[0, :, 0] = phases
        stacked = composite(
            HopStack.from_channels(stacked_ups, stacked_downs, deployment), slopes, commons
        )[0]
        assert stacked.shape == (len(rngs), config.n_rx, config.n_tx)
        for f in range(len(rngs)):
            hops = HopStack.from_channels(
                [dataclasses.replace(up, gains=up.gains[f]) for up in stacked_ups],
                [dataclasses.replace(down, gains=down.gains[f]) for down in stacked_downs],
                deployment,
            )
            single = composite(hops, slopes, commons[:, f:f + 1])[0, 0]
            assert single.tobytes() == stacked[f].tobytes()

    def test_core_entries_match_per_path_products(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 8)
        gammas = random_profiles(deployment, rl.substream(BASE_SEED, 22))
        inner = _inner_products_of(ups, gammas, downs, deployment)
        for k in range(config.n_ris):
            n_s = int(deployment.ris_element_counts[k])
            for l in range(config.n_ris_rx_paths):
                for j in range(config.n_nlos_tx_paths + 1):
                    a_dep = rl.array_response(n_s, downs[k].departure_freqs[l])
                    a_arr = rl.array_response(n_s, ups[k].arrival_freqs[j])
                    loss_gains = deployment.path_losses[k] * downs[k].gains[l] * ups[k].gains[j]
                    expected = loss_gains * np.vdot(a_dep, gammas[k].phase_vector() * a_arr)
                    got = loss_gains * inner[k, l, j]
                    assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_accepts_structured_reflection_objects(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 9)
        gammas = [
            rl.align_phases(
                downs[k].departure_freqs[0],
                ups[k].arrival_freqs[0],
                int(deployment.ris_element_counts[k]),
                ris_index=k,
            )
            for k in range(config.n_ris)
        ]
        h = _composite_of(ups, gammas, downs, deployment)
        oracle = dense_composite(ups, [g.phase_vector() for g in gammas], downs, deployment)
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


def _adversarial_downs(ups, downs):
    """Receive hops whose surface departures collide with transmit-side
    arrivals: directly, shifted by 2*pi, and at the offset an aligned
    profile maps onto another path's arrival."""
    out = []
    for up, down in zip(ups, downs):
        arrivals = up.arrival_freqs
        departures = down.departure_freqs.copy()
        targets = (
            None,
            arrivals[1 % arrivals.size],
            arrivals[-1] + 2.0 * math.pi,
            departures[0] + arrivals[-1] - arrivals[0] - 2.0 * math.pi,
        )
        for l, target in enumerate(targets[: departures.size]):
            if target is not None:
                departures[l] = target
        out.append(dataclasses.replace(down, departure_freqs=departures))
    return out


class TestClosedFormAssembly:
    """Kernel assembly against the element-by-element oracle at the
    default surface sizes, on the profiles the schemes actually use."""

    def _profiles(self, config, deployment, ups, downs):
        candidates = candidate_matrix(downs)
        counts = deployment.ris_element_counts

        def designed(scheme, refine):
            selection = select_one(candidates, config.n_rx, scheme)
            _, slopes, commons = design_one(selection, (ups, downs), deployment, refine=refine)
            return [
                rl.RisConfiguration(k, int(n), slope=slopes[0, k], common_phase=commons[0, 0, k])
                for k, n in enumerate(counts)
            ]

        return {
            "aligned": designed("sm", refine=False),
            "refined": designed("bf", refine=True),
            "neutral": [
                rl.RisConfiguration.neutral(int(n), ris_index=k)
                for k, n in enumerate(deployment.ris_element_counts)
            ],
        }

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_matches_dense_oracle(self, adversarial):
        config = rl.SystemConfig()
        for i in range(20):
            deployment, ups, downs = draw_scene(config, BASE_SEED, 23, i)
            if adversarial:
                downs = _adversarial_downs(ups, downs)
            for name, gammas in self._profiles(config, deployment, ups, downs).items():
                h = _composite_of(ups, gammas, downs, deployment)
                phases = [g.phase_vector() for g in gammas]
                oracle = dense_composite(ups, phases, downs, deployment)
                rel = np.linalg.norm(h - oracle) / np.linalg.norm(oracle)
                assert rel <= 1e-12, (name, i, rel)

    def test_adversarial_scene_hits_the_series_branch(self):
        # The collisions put some kernel arguments at (or within rounding
        # of) a multiple of 2*pi, where the sine ratio is 0/0.
        config = rl.SystemConfig()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 23, 0)
        downs = _adversarial_downs(ups, downs)
        neutral = [rl.RisConfiguration.neutral(int(n)) for n in deployment.ris_element_counts]
        inner = _inner_products_of(ups, neutral, downs, deployment)
        assert np.any(np.abs(inner - 1.0) < 1e-12)
