"""Closed-form rate expressions, the Ei kernel, and crossing points."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rislink as rl
from rislink import analysis as an
from rislink.errors import ConfigurationError, NoCrossingError

from conftest import BASE_SEED


def _quad_ei(x: float) -> float:
    """Quadrature reference for the exponential integral at negative x."""
    value, _ = quad(lambda t: math.exp(t) / t, -np.inf, x, limit=400)
    return value


class TestExponentialIntegral:
    # Spot values frozen from an mpmath reference implementation
    # (50-digit working precision).
    @pytest.mark.parametrize("x,expected", [
        (-1.0, -0.21938393439552027),
        (-20.0, -9.8355252906498817e-11),
        (-1e-8, -17.843465089050833),
        (-0.06875, -2.1676490595749757),
        (-700.0, -1.4065187662340329e-307),
    ])
    def test_frozen_spot_values(self, x, expected):
        assert math.isclose(an.exp_integral_ei(x), expected, rel_tol=1e-11)

    def test_matches_quadrature_on_log_grid(self):
        for x in -np.logspace(math.log10(1e-6), math.log10(50.0), 60):
            assert abs(an.exp_integral_ei(float(x)) - _quad_ei(float(x))) \
                <= 1e-10

    def test_rejects_nonnegative_argument(self):
        for bad in (0.0, 0.5, 10.0):
            with pytest.raises(ValueError):
                an.exp_integral_ei(bad)

    def test_unconverged_continued_fraction_is_a_package_error(self):
        with pytest.raises(rl.ConvergenceError):
            an._e1_cf_scaled(math.nan)
        assert issubclass(rl.ConvergenceError, rl.RislinkError)

    def test_array_input(self):
        out = an.exp_integral_ei(np.array([-1.0, -20.0]))
        assert out.shape == (2,)
        assert math.isclose(out[0], -0.21938393439552027, rel_tol=1e-11)

    def test_scaled_variant_matches_plain(self):
        for c in (1e-6, 0.06875, 1.0, 5.0, 30.0):
            assert math.isclose(
                an.scaled_ei_neg(c),
                math.exp(c) * an.exp_integral_ei(-c),
                rel_tol=1e-9,
            )

    def test_scaled_variant_survives_large_argument(self):
        # exp(c) alone overflows here; the scaled form must not.
        value = an.scaled_ei_neg(800.0)
        assert math.isfinite(value)
        # Asymptotically -1/c + O(1/c^2).
        assert math.isclose(value, -1.0 / 800.0, rel_tol=2e-3)

    @given(st.floats(min_value=1e-6, max_value=100.0))
    def test_scaled_variant_is_negative_and_increasing_toward_zero(self, c):
        value = an.scaled_ei_neg(c)
        assert value < 0.0
        assert an.scaled_ei_neg(c * 2.0) > value


class TestErgodicRateForms:
    def test_default_stream_coefficient(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        assert np.allclose(params.c_values(), 0.06875, rtol=1e-12)

    def test_approximation_frozen_value(self):
        # Frozen from an mpmath reference (50-digit working precision).
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        assert math.isclose(
            an.se_sm_approx(params.c_values()), 13.3992733689171, rel_tol=1e-10
        )
        assert math.isclose(
            an.se_sm_approx(np.array([0.06875])), 3.34981834222927,
            rel_tol=1e-10,
        )

    def test_upper_bound_frozen_value(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        assert math.isclose(
            an.se_sm_upper(params.c_values()), 15.8336835849944, rel_tol=1e-10
        )
        assert math.isclose(
            an.se_sm_upper(np.array([0.06875])),
            math.log2(1.0 + 1.0 / 0.06875),
            rel_tol=1e-12,
        )

    @given(st.lists(st.floats(min_value=1e-8, max_value=1e6),
                    min_size=1, max_size=8))
    def test_approximation_below_upper_bound(self, c_list):
        c = np.array(c_list)
        assert an.se_sm_approx(c) <= an.se_sm_upper(c) + 1e-12

    def test_rate_vanishes_for_large_coefficient(self):
        assert an.se_sm_approx(np.array([1e8])) < 1e-6

    def test_beamform_upper_bound_formula(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        p = params.gain_profile
        coefficient = (
            params.transmit_power * params.n_tx * params.rician_factor
            / (params.noise_power * params.n_ris_rx_paths
               * (params.rician_factor + 1.0))
        )
        quad_sum = float(np.sum(p**2))
        cross = float(np.sum(p) ** 2 - np.sum(p**2))
        expected = math.log2(
            1.0
            + coefficient * (params.n_rx / params.n_ris)
            * (quad_sum + (math.pi / 4.0) * cross)
        )
        assert math.isclose(an.se_bf_upper(params), expected, rel_tol=1e-12)

    def test_beamform_upper_bound_single_surface(self):
        params = an.ClosedFormParams(
            transmit_power=1.0, noise_power=1e-13, rician_factor=10.0,
            n_tx=16, n_rx=1, n_ris=1, n_ris_rx_paths=10,
            gain_profile=np.array([1e-6]),
        )
        coefficient = 1.0 * 16 * 10.0 / (1e-13 * 10 * 11.0)
        expected = math.log2(1.0 + coefficient * 1e-12)
        assert math.isclose(an.se_bf_upper(params), expected, rel_tol=1e-12)

    def test_hopping_bound_reduces_at_single_slot(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        assert an.se_db_upper(params, 1) == an.se_bf_upper(params)

    def test_hopping_bound_scales_power_inside_log(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        single_snr = 2.0 ** an.se_bf_upper(params) - 1.0
        for m in (2, 3, 5):
            expected = math.log2(1.0 + m * single_snr) / m
            assert math.isclose(an.se_db_upper(params, m), expected,
                                rel_tol=1e-12)

    def test_hopping_bound_decreases_with_slots(self):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        values = [an.se_db_upper(params, m) for m in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSymmetricFunctions:
    def test_small_diagonal(self):
        values = [1.0, 4.0, 9.0]
        assert an.sym_func(values, 0) == 1.0
        assert an.sym_func(values, 1) == 14.0
        assert an.sym_func(values, 2) == 49.0
        assert an.sym_func(values, 3) == 36.0

    def test_equal_entries_pair_count(self):
        c = 0.7
        for k in (2, 3, 5, 8):
            expected = math.comb(k, 2) * c * c
            assert math.isclose(an.sym_func([c] * k, 2), expected,
                                rel_tol=1e-12)

    def test_order_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            an.sym_func([1.0], 2)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0),
                 min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_characteristic_polynomial_identity(self, values, x):
        product = float(np.prod([1.0 + x * v for v in values]))
        series = sum(
            x**n * an.sym_func(values, n) for n in range(len(values) + 1)
        )
        assert math.isclose(product, series, rel_tol=1e-9, abs_tol=1e-9)


def _random_params(rng, n_rx: int) -> an.ClosedFormParams:
    n_ris = int(rng.integers(n_rx, 7))
    return an.ClosedFormParams(
        transmit_power=1.0,
        noise_power=10.0 ** rng.uniform(-14.0, -11.0),
        rician_factor=10.0 ** rng.uniform(0.0, 2.0),
        n_tx=int(rng.choice([8, 16, 32, 64])),
        n_rx=n_rx,
        n_ris=n_ris,
        n_ris_rx_paths=int(rng.integers(2, 21)),
        gain_profile=np.full(n_ris, 10.0 ** rng.uniform(-7.0, -5.0)),
    )


def _scale(params: an.ClosedFormParams) -> float:
    c = params.gain_profile[0]
    return (
        params.noise_power * params.n_ris_rx_paths
        * (params.rician_factor + 1.0)
        / (params.n_tx * params.rician_factor * c * c)
    )


class TestClosedFormParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "transmit_power", "noise_power", "rician_factor", "n_tx", "n_slots", "gain_profile",
    ])
    def test_rejects_non_finite(self, name, value):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        if name == "gain_profile":
            value = np.concatenate(([value], params.gain_profile[1:]))
        with pytest.raises(ConfigurationError, match="must be finite"):
            dataclasses.replace(params, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("transmit_power", 1e300),    # stream SNR slope overflows: constants would be 0
        ("noise_power", 1e-310),      # the same through a subnormal noise power
        ("gain_profile", 1e-200),     # profile squared underflows: constants would be inf
        ("gain_profile", 3e-162),     # subnormal slope: its inverse overflows
        ("gain_profile", 1e200),      # profile squared overflows
    ])
    def test_rejects_floats_out_of_range(self, name, value):
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        if name == "gain_profile":
            value = np.full(params.n_ris, value)
        with pytest.raises(ConfigurationError, match="floating-point range"):
            dataclasses.replace(params, **{name: value})


class TestCrossingPoint:
    def test_two_stream_frozen_default(self):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2
        )
        value = an.crossing_point_two_stream(params)
        assert math.isclose(value, 0.323976742401447, rel_tol=1e-12)
        assert math.isclose(rl.watt2dbm(value), 25.1055, abs_tol=1e-3)
        assert math.isclose(an.crossing_point(params), value, rel_tol=1e-9)

    def test_three_stream_frozen_default(self):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=3
        )
        value = an.crossing_point_three_stream(params)
        assert math.isclose(value, 0.10674369034029174, rel_tol=1e-12)
        assert math.isclose(an.crossing_point(params), value, rel_tol=1e-9)

    def test_numeric_matches_closed_forms_on_random_sets(self):
        rng = rl.substream(BASE_SEED, 100)
        for trial in range(20):
            n_rx = int(rng.integers(2, 4))
            params = _random_params(rng, n_rx)
            numeric = an.crossing_point(params)
            k = params.n_ris
            if n_rx == 2:
                closed = math.pi * (k - 1) / 2.0 * _scale(params)
                assert math.isclose(
                    an.crossing_point_two_stream(params), closed,
                    rel_tol=1e-12,
                )
            else:
                y = (-3.0 + math.sqrt(9.0 + 3.0 * math.pi * (k - 1))) / 2.0
                closed = y * _scale(params)
                assert math.isclose(
                    an.crossing_point_three_stream(params), closed,
                    rel_tol=1e-12,
                )
            assert math.isclose(numeric, closed, rel_tol=1e-9)

    def test_solution_zeroes_the_characteristic_polynomial(self):
        rng = rl.substream(BASE_SEED, 101)
        for trial in range(20):
            n_rx = int(rng.integers(2, 5))
            params = _random_params(rng, n_rx)
            # Perturb the profile so the general path is exercised too.
            profile = params.gain_profile * rng.uniform(
                0.5, 2.0, params.n_ris
            )
            params = dataclasses.replace(params, gain_profile=profile)
            e_star = an.crossing_point(params)
            # The multiplexing side uses the leading n_rx profile entries
            # in caller order; symmetric functions ignore order anyway.
            d_full = profile**2
            d_top = d_full[:n_rx]
            x = (
                e_star * params.n_tx * params.rician_factor
                / (params.noise_power * params.n_ris_rx_paths
                   * (params.rician_factor + 1.0))
            )
            lhs = sum(
                x ** (n - 1) * an.sym_func(d_top, n)
                for n in range(2, n_rx + 1)
            )
            rhs = (
                (n_rx / params.n_ris)
                * (an.sym_func(d_full, 1)
                   + (math.pi / 2.0) * an.sym_func(profile, 2))
                - an.sym_func(d_top, 1)
            )
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_doubling_transmit_array_shifts_down_3db(self):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2
        )
        doubled = dataclasses.replace(params, n_tx=2 * params.n_tx)
        assert math.isclose(
            an.crossing_point(doubled), an.crossing_point(params) / 2.0,
            rel_tol=1e-9,
        )

    def test_doubling_gain_target_shifts_down_6db(self):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2
        )
        doubled = dataclasses.replace(params,
                                      gain_profile=2.0 * params.gain_profile)
        assert math.isclose(
            an.crossing_point(doubled), an.crossing_point(params) / 4.0,
            rel_tol=1e-9,
        )

    def test_three_stream_crossing_below_two_stream(self):
        base = an.ClosedFormParams.from_config(rl.SystemConfig())
        two = an.crossing_point_two_stream(
            dataclasses.replace(base, n_rx=2)
        )
        three = an.crossing_point_three_stream(
            dataclasses.replace(base, n_rx=3)
        )
        assert three < two

    def test_no_crossing_raises(self):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()),
            n_rx=2,
            gain_profile=np.array([1e-6, 1e-12, 1e-12, 1e-12]),
        )
        with pytest.raises(NoCrossingError):
            an.crossing_point(params)
