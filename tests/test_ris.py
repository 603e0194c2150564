"""Reflection phase alignment, common-phase refinement, and leakage."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rislink as rl
from rislink.channel import _inner_products, _response_matrix
from rislink.customize import _common_phases
from rislink.selftest import design_one, phase_profile, select_one

from conftest import BASE_SEED, design_row, draw_scene, model_channel


def _reflect_gain(phase: np.ndarray, n: int, arrival: float, departure: float) -> complex:
    """Scalar gain of one reflected path through a surface's reflection
    coefficients."""
    a_departure, a_arrival = _response_matrix(n, [departure, arrival]).T
    return complex(np.vdot(a_departure, phase * a_arrival))


class TestPhaseAlignment:
    def test_neutral_configuration_is_identity(self):
        assert np.array_equal(phase_profile(16, 0.0), np.ones(16, dtype=complex))

    def test_per_element_phase_formula(self):
        expected = np.exp(1j * np.arange(8) * (0.3 - 1.1))
        assert np.allclose(phase_profile(8, 0.3 - 1.1), expected, atol=1e-12)
        rotated = np.exp(1j * (np.arange(8) * (0.3 - 1.1) + 0.7))
        assert np.allclose(phase_profile(8, 0.3 - 1.1, 0.7), rotated, atol=1e-12)

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.integers(min_value=1, max_value=400),
    )
    def test_aligned_path_has_unit_gain(self, arrival, departure, n):
        gain = _reflect_gain(phase_profile(n, departure - arrival), n, arrival, departure)
        assert math.isclose(abs(gain), 1.0, rel_tol=1e-9)

    def test_alignment_is_never_beaten_by_random_phases(self):
        rng = rl.substream(BASE_SEED, 30)
        n = 64
        arrival, departure = 0.7, -1.9
        aligned = abs(_reflect_gain(phase_profile(n, departure - arrival), n, arrival, departure))
        for _ in range(500):
            random_gamma = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
            assert abs(_reflect_gain(random_gamma, n, arrival, departure)) \
                <= aligned + 1e-9

    def test_unaligned_path_obeys_aperture_crosstalk_bound(self):
        n = 211
        gamma = phase_profile(n, 0.5 - 0.0)
        # A second path arriving 0.2 rad off the aligned one passes with
        # at most the aperture-kernel magnitude at that offset.
        other = abs(_reflect_gain(gamma, n, 0.2, 0.5))
        kernel = abs(np.vdot(*_response_matrix(n, [0.0, 0.2]).T))
        assert math.isclose(other, kernel, rel_tol=1e-9)
        assert other < 0.05

    def test_common_phase_preserves_magnitude(self):
        gamma = phase_profile(32, -0.9 - 0.4)
        rotated = phase_profile(32, -0.9 - 0.4, 1.234)
        g0 = _reflect_gain(gamma, 32, 0.4, -0.9)
        g1 = _reflect_gain(rotated, 32, 0.4, -0.9)
        assert math.isclose(abs(g0), abs(g1), rel_tol=1e-12)
        assert math.isclose(
            float(np.angle(g1 * np.conj(g0))), 1.234, rel_tol=1e-9
        )


def _common_phase(gain_r, gain_t, arrival, n_rx) -> float:
    """One common phase from the design's array path."""
    return float(_common_phases(np.array([gain_r]), np.array([gain_t]), np.array([arrival]),
                                n_rx)[0])


class TestCommonPhaseRefinement:
    def test_synthetic_rotation_formula(self):
        theta_r, theta_t, arrival = 0.8, -1.3, 0.6
        n_rx = 4
        phi = _common_phase(np.exp(1j * theta_r), np.exp(1j * theta_t), arrival, n_rx)
        expected = -(theta_r + theta_t + (n_rx - 1) / 2.0 * arrival)
        delta = (phi - expected) % (2.0 * math.pi)
        assert min(delta, 2.0 * math.pi - delta) < 1e-9

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            _common_phase(0j, 1.0 + 0j, 0.3, 4)
        with pytest.raises(ValueError):
            _common_phase(1.0 + 0j, -0.0 + 0j, 0.3, 4)

    def test_refined_contributions_add_coherently(self):
        # Synthetic single-path branches with arbitrary gain phases:
        # after per-branch refinement, each branch's contribution at the
        # receive-array center reference is real and positive, so the
        # branches add coherently there.
        n_rx = 4
        rng = rl.substream(BASE_SEED, 31)
        total = 0.0
        magnitude_sum = 0.0
        for arrival in (0.9, -1.7, 2.4):
            gain_r = complex(*rng.normal(size=2))
            gain_t = complex(*rng.normal(size=2))
            phi = _common_phase(gain_r, gain_t, arrival, n_rx)
            center = (gain_r * gain_t * np.exp(1j * phi)
                      * np.exp(1j * 0.5 * (n_rx - 1) * arrival))
            assert abs(center.imag) / abs(center.real) < 1e-9
            assert center.real > 0.0
            total += center.real
            magnitude_sum += abs(center)
        assert math.isclose(total, magnitude_sum, rel_tol=1e-9)


class TestLeakage:
    """Leakage: the part of the exact shaped channel that the activated-paths
    model leaves out, relative to the whole channel."""

    def _leakage(self, key, config=None):
        config = config or rl.SystemConfig()
        hops = draw_scene(config, BASE_SEED, *key)
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        design = design_row(design_one(selection, hops)[0])
        leaked = np.linalg.norm(design.exact_h - model_channel(design))
        return float(leaked / np.linalg.norm(design.exact_h))

    def test_aligned_leakage_is_usually_small(self):
        n_scenes = 300
        small = sum(self._leakage((34, i)) < 0.2 for i in range(n_scenes))
        assert small >= 0.9 * n_scenes

    def test_leakage_shrinks_with_surface_size(self):
        ratios = {}
        for label, factor in (("base", 1.0), ("scaled", 4.0)):
            config = rl.SystemConfig(gain_target=1e-6 * factor)
            values = [self._leakage((35, i), config) for i in range(60)]
            ratios[label] = float(np.median(values))
        assert ratios["scaled"] < ratios["base"]


class TestEffectiveGain:
    def test_aligned_gain_magnitude_hits_target(self):
        # With the surface aligned on path (l, j), the effective gain is
        # the two-hop gain product times the achieved aperture gain,
        # i.e. |rho * g_r * g_t| * N_S * loss ~ target.
        config = rl.SystemConfig()
        hops = draw_scene(config, BASE_SEED, 37)
        k, l = 0, 2
        slopes = np.zeros((1, config.n_ris))
        slopes[0, k] = hops.rx_departure[0, k, l] - hops.tx_arrival[0, k, 0]
        inner = _inner_products(
            slopes, np.zeros((1, 1, config.n_ris)), hops.rx_departure, hops.tx_arrival,
            hops.n_elements,
        )[0, 0]
        rx_gain, tx_gain = hops.rx_gains[0, 0, k, l], hops.tx_gains[0, 0, k, 0]
        gain = hops.losses[0, k] * rx_gain * tx_gain * inner[k, l, 0]
        expected = hops.losses[0, k] * abs(rx_gain) * abs(tx_gain)
        assert math.isclose(abs(gain), expected, rel_tol=1e-9)
