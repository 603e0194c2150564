"""Array responses, multipath draws, and the exact cascaded factorization."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink.channel import _draw_separated_freqs, dirichlet_kernel, surface_inner_products
from rislink.selftest import dense_composite, hop_matrix

from conftest import BASE_SEED, candidate_matrix, draw_scene, random_gammas, small_config


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

    def test_near_degenerate_geometry_still_draws(self):
        # A surface with very few elements would demand more angular
        # clearance than a full circle can hold; the sampler must relax
        # the threshold instead of spinning forever.
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=2, n_ris_rx_paths=10)
        deployment = _single_surface_deployment(4)
        down = rl.draw_ris_rx_channel(config, deployment, 0,
                                      rl.substream(BASE_SEED, 16))
        assert down.gains.size == 10


class TestCascadedFactorization:
    def test_assembly_matches_direct_sum(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 5)
        gammas = random_gammas(deployment, rl.substream(BASE_SEED, 17))
        h = rl.assemble_composite(ups, gammas, downs, deployment)
        direct = np.zeros((config.n_rx, config.n_tx), dtype=complex)
        for k in range(config.n_ris):
            direct += deployment.path_losses[k] * (
                hop_matrix(downs[k]) @ np.diag(gammas[k]) @ hop_matrix(ups[k])
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
            gammas = random_gammas(deployment, rng)
            h = rl.assemble_composite(ups, gammas, downs, deployment)
            deco = rl.cascaded_decomposition(ups, gammas, downs, deployment)
            rebuilt = deco.rx_factor @ deco.core @ deco.tx_factor.conj().T
            assert np.linalg.norm(h - rebuilt) <= 1e-10 * np.linalg.norm(h)

    def test_stacked_epochs_match_single_epochs_bitwise(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 30)
        rngs = [rl.substream(BASE_SEED, 31, f) for f in range(4)]
        stacked_ups = [rl.redraw_fading(up, config, deployment, rngs) for up in ups]
        stacked_downs = [rl.redraw_fading(down, config, deployment, rngs) for down in downs]
        phases = rl.substream(BASE_SEED, 32).uniform(-math.pi, math.pi, len(rngs))
        # Surface 0 has a per-epoch common phase, the others one for all epochs.
        gammas = [
            rl.align_phases(0.3, -0.2, int(n), k).with_common_phase(phases if k == 0 else 0.4 * k)
            for k, n in enumerate(deployment.ris_element_counts)
        ]
        stacked = rl.cascaded_decomposition(stacked_ups, gammas, stacked_downs, deployment)
        composite = stacked.composite()
        assert stacked.core.shape[0] == composite.shape[0] == len(rngs)
        for f in range(len(rngs)):
            single = rl.cascaded_decomposition(
                [dataclasses.replace(up, gains=up.gains[f]) for up in stacked_ups],
                [g.with_common_phase(phases[f]) if k == 0 else g for k, g in enumerate(gammas)],
                [dataclasses.replace(down, gains=down.gains[f]) for down in stacked_downs],
                deployment,
            )
            assert single.core.tobytes() == stacked.core[f].tobytes()
            assert single.composite().tobytes() == composite[f].tobytes()
        assert stacked.rx_factor.tobytes() == single.rx_factor.tobytes()
        assert stacked.tx_factor.tobytes() == single.tx_factor.tobytes()

    def test_core_is_block_diagonal(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 6)
        gammas = random_gammas(deployment, rl.substream(BASE_SEED, 20))
        deco = rl.cascaded_decomposition(ups, gammas, downs, deployment)
        l_r = config.n_ris_rx_paths
        l_t = config.n_nlos_tx_paths + 1
        assert deco.core.shape == (config.n_ris * l_r, config.n_ris * l_t)
        mask = np.zeros_like(deco.core, dtype=bool)
        for k in range(config.n_ris):
            mask[k * l_r:(k + 1) * l_r, k * l_t:(k + 1) * l_t] = True
        assert np.all(deco.core[~mask] == 0.0)

    def test_factor_columns_are_array_responses(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 7)
        gammas = random_gammas(deployment, rl.substream(BASE_SEED, 21))
        deco = rl.cascaded_decomposition(ups, gammas, downs, deployment)
        l_r = config.n_ris_rx_paths
        l_t = config.n_nlos_tx_paths + 1
        for k in range(config.n_ris):
            for l in range(l_r):
                assert np.array_equal(
                    deco.rx_factor[:, k * l_r + l],
                    rl.array_response(config.n_rx, downs[k].arrival_freqs[l]),
                )
            for j in range(l_t):
                assert np.array_equal(
                    deco.tx_factor[:, k * l_t + j],
                    rl.array_response(config.n_tx, ups[k].departure_freqs[j]),
                )

    def test_core_entries_match_per_path_products(self):
        config = small_config()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 8)
        gammas = random_gammas(deployment, rl.substream(BASE_SEED, 22))
        deco = rl.cascaded_decomposition(ups, gammas, downs, deployment)
        l_r = config.n_ris_rx_paths
        l_t = config.n_nlos_tx_paths + 1
        for k in range(config.n_ris):
            n_s = int(deployment.ris_element_counts[k])
            for l in range(l_r):
                for j in range(l_t):
                    a_dep = rl.array_response(n_s, downs[k].departure_freqs[l])
                    a_arr = rl.array_response(n_s, ups[k].arrival_freqs[j])
                    expected = (
                        deployment.path_losses[k]
                        * downs[k].gains[l]
                        * ups[k].gains[j]
                        * np.vdot(a_dep, gammas[k] * a_arr)
                    )
                    got = deco.core[k * l_r + l, k * l_t + j]
                    assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_accepts_structured_reflection_objects(self):
        # Phase configurations take the closed-form kernel, raw vectors the
        # element sum, so the two agree to rounding, not bit for bit.
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
        raw = [g.phase_vector() for g in gammas]
        h_obj = rl.assemble_composite(ups, gammas, downs, deployment)
        h_raw = rl.assemble_composite(ups, raw, downs, deployment)
        oracle = dense_composite(ups, raw, downs, deployment)
        assert np.linalg.norm(h_obj - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert np.linalg.norm(h_raw - oracle) <= 1e-12 * np.linalg.norm(oracle)


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
        sm = rl.select_paths_sm(candidates, config.n_rx)
        bf = rl.select_paths_bf(candidates, config.n_rx)
        return {
            "aligned": rl.build_customized_channel(sm, (ups, downs), deployment).gammas,
            "refined": rl.build_customized_channel(
                bf, (ups, downs), deployment, refine=True).gammas,
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
                h = rl.assemble_composite(ups, gammas, downs, deployment)
                phases = [g.phase_vector() for g in gammas]
                oracle = dense_composite(ups, phases, downs, deployment)
                rel = np.linalg.norm(h - oracle) / np.linalg.norm(oracle)
                assert rel <= 1e-12, (name, i, rel)

    def test_mixed_structured_and_raw_list(self):
        config = rl.SystemConfig()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 23, 1)
        aligned = self._profiles(config, deployment, ups, downs)["aligned"]
        mixed = [aligned[0]] + [g.phase_vector() for g in aligned[1:]]
        h = rl.assemble_composite(ups, mixed, downs, deployment)
        oracle = dense_composite(ups, [g.phase_vector() for g in aligned], downs, deployment)
        assert np.linalg.norm(h - oracle) / np.linalg.norm(oracle) <= 1e-12

    def test_adversarial_scene_hits_the_series_branch(self):
        # The collisions put some kernel arguments at (or within rounding
        # of) a multiple of 2*pi, where the sine ratio is 0/0.
        config = rl.SystemConfig()
        deployment, ups, downs = draw_scene(config, BASE_SEED, 23, 0)
        downs = _adversarial_downs(ups, downs)
        neutral = [rl.RisConfiguration.neutral(int(n)) for n in deployment.ris_element_counts]
        inner = surface_inner_products(
            neutral,
            np.array([d.departure_freqs for d in downs]),
            np.array([u.arrival_freqs for u in ups]),
            deployment.ris_element_counts,
        )
        assert np.any(np.abs(inner - 1.0) < 1e-12)
