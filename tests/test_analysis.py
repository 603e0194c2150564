"""Closed-form rate expressions, the Ei kernel, and crossing points."""

from __future__ import annotations

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expi

import rislink as rl
from rislink import analysis as an
from rislink import selftest
from rislink.errors import ConfigurationError, NoCrossingError
from rislink.selftest import _outcome, evaluated_crossing_point

from conftest import BASE_SEED


def _quad_ei(x: float) -> float:
    """Quadrature reference for the exponential integral at negative x."""
    value, _ = quad(lambda t: math.exp(t) / t, -np.inf, x, limit=400)
    return value


def _oracle_ei_series(x: float) -> tuple[float, int]:
    """Scalar power series around zero: gamma + ln|x| + sum x^k/(k*k!),
    and the number of terms it took."""
    total = 0.5772156649015329 + math.log(abs(x))
    term = 1.0
    for k in range(1, 200):
        term *= x / k
        contribution = term / k
        total += contribution
        if abs(contribution) < 1e-22:
            break
    return total, k


def _oracle_e1_cf_scaled(z: float) -> float:
    """Scalar exp(z) * E1(z) by a modified-Lentz continued fraction."""
    tiny = 1e-300
    f = z + 1.0
    c = f
    d = 0.0
    for n in range(1, 500):
        a = -float(n * n)
        b = z + 2.0 * n + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise rl.ConvergenceError(f"E1 continued fraction did not converge at z={z}")


def _oracle_ei_neg(x: float) -> float:
    """Scalar Ei on the negative axis, one point at a time."""
    if not x < 0:
        raise ValueError("argument must be negative")
    if x > -6.0:
        return _oracle_ei_series(x)[0]
    return -math.exp(x) * _oracle_e1_cf_scaled(-x)


def _oracle_scaled_ei_neg(c: float) -> float:
    if c < 6.0:
        return math.exp(c) * _oracle_ei_series(-c)[0]
    return -_oracle_e1_cf_scaled(c)


_EI_EDGES = np.array([
    -1e-300, -1e-8, np.nextafter(-6.0, 0.0), -6.0, np.nextafter(-6.0, -np.inf),
    -700.0, -745.0, -1e5, -1e300,
])


def _seeded_ei_points(n: int = 20_000) -> np.ndarray:
    rng = rl.substream(BASE_SEED, 103)
    sets = [
        -(10.0 ** rng.uniform(-8.0, math.log10(700.0), n // 2)),
        -rng.uniform(5.0, 7.0, n // 4),                      # around the cutoff
        # The continued fraction's stop rule needs delta == 1.0 exactly,
        # which some z beyond about 1e15 never reach.
        -(10.0 ** rng.uniform(-300.0, 12.0, n - n // 2 - n // 4)),
    ]
    return np.concatenate([*sets, _EI_EDGES])


class TestArrayKernelMatchesScalarOracle:
    """The array kernels must equal the scalar kernels bit for bit."""

    def test_exp_integral_on_seeded_points(self):
        x = _seeded_ei_points()
        assert x.size >= 20_000
        expected = np.array([_oracle_ei_neg(float(v)) for v in x])
        assert an.exp_integral_ei(x).tobytes() == expected.tobytes()

    def test_exp_integral_keeps_shape(self):
        x = _seeded_ei_points(2_000)[:2_000].reshape(40, 50)
        out = an.exp_integral_ei(x)
        assert out.shape == (40, 50)
        expected = np.array([_oracle_ei_neg(float(v)) for v in x.ravel()])
        assert out.ravel().tobytes() == expected.tobytes()
        assert an.exp_integral_ei(np.empty((0, 3))).shape == (0, 3)
        assert an.exp_integral_ei(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("x", [*_EI_EDGES.tolist(), -0.06875, -1.0, -20.0])
    def test_scalar_and_zero_d_return_float(self, x):
        for arg in (x, np.float64(x), np.array(x)):
            value = an.exp_integral_ei(arg)
            assert type(value) is float
            assert repr(value) == repr(_oracle_ei_neg(x))

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, 0.5, math.inf])
    def test_rejects_nan_zero_and_positive(self, bad):
        with pytest.raises(ValueError):
            an.exp_integral_ei(bad)
        with pytest.raises(ValueError):
            an.exp_integral_ei(np.array([-1.0, bad, -20.0]))

    def test_scaled_variant_on_seeded_points(self):
        c = -_seeded_ei_points(4_000)
        expected = [_oracle_scaled_ei_neg(float(v)) for v in c]
        assert [an.scaled_ei_neg(float(v)) for v in c] == expected

    def test_unconverged_entry_raises_like_the_scalar_kernel(self):
        # The scalar stop rule never fires here: delta never lands on
        # exactly 1.0.  The array kernel settles such an entry one ulp
        # from 1.0 instead, and leaves its neighbours bit for bit.
        z = 1.364716119505658e82
        with pytest.raises(rl.ConvergenceError):
            _oracle_e1_cf_scaled(z)
        settled = an._e1_cf_scaled(np.array([6.0, z, 20.0]))
        assert settled[[0, 2]].tolist() == [_oracle_e1_cf_scaled(6.0), _oracle_e1_cf_scaled(20.0)]
        assert math.isclose(settled[1], 1.0 / z, rel_tol=1e-12)
        ei = an.exp_integral_ei(np.array([-1.0, -z]))
        assert ei.tolist() == [_oracle_ei_neg(-1.0), -0.0]

    def test_stream_sum_matches_scalar_sum(self):
        rng = rl.substream(BASE_SEED, 104)
        for n in (1, 2, 4, 9, 12, 17):
            c = 10.0 ** rng.uniform(-6.0, 3.0, n)
            expected = -sum(_oracle_scaled_ei_neg(float(v)) for v in c) / math.log(2.0)
            assert repr(an.se_sm_approx(c)) == repr(float(expected))

    def test_rows_match_one_row_at_a_time(self):
        rng = rl.substream(BASE_SEED, 105)
        for n in (0, 1, 3, 2, 12, 4):
            block = 10.0 ** rng.uniform(-6.0, 3.0, (6, n))
            got = an.se_sm_approx(block)
            assert type(got) is np.ndarray and got.shape == (6,)
            assert got.tolist() == [an.se_sm_approx(c) for c in block]
        assert an.se_sm_approx(np.empty((0, 3))).shape == (0,)
        for bad in (0.0, -1.0, math.nan):
            for position in ((0, 0), (2, 1)):
                block = np.full((3, 2), 0.5)
                block[position] = bad
                with pytest.raises(ValueError):
                    an.se_sm_approx(block)


class TestSeriesStopOrder:
    """The array series runs its entries as one trailing slice in ascending
    |x|, which needs the term count not to decrease in |x|."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        magnitudes=st.lists(st.floats(5e-324, 6.0), min_size=2, max_size=2),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
    )
    @example(magnitudes=[1e-300, 1e-300], signs=[-1.0, 1.0])
    @example(magnitudes=[1e-300, 1e-8], signs=[-1.0, -1.0])
    @example(magnitudes=[5.9, 5.9], signs=[1.0, -1.0])
    def test_term_count_does_not_decrease_in_magnitude(self, magnitudes, signs):
        (small, s_sign), (large, l_sign) = sorted(zip(magnitudes, signs))
        assert _oracle_ei_series(s_sign * small)[1] <= _oracle_ei_series(l_sign * large)[1]
        if small == large:
            assert _oracle_ei_series(s_sign * small)[1] == _oracle_ei_series(l_sign * large)[1]

    def test_term_count_on_seeded_points(self):
        x = _seeded_ei_points()
        near = np.sort(x[x > -6.0])[::-1]     # ascending |x|, -1e-300 first
        assert near[0] == -1e-300
        counts = [_oracle_ei_series(float(v))[1] for v in near]
        assert counts == sorted(counts) and counts[0] == 1 and counts[-1] > 40

    def test_ties_and_signs_match_the_oracle(self):
        x = _seeded_ei_points(2_000)
        x = x[x > -6.0]
        mixed = np.concatenate([x, -x, x[::7]])   # ties, and both signs of each |x|
        expected = np.array([_oracle_ei_series(float(v))[0] for v in mixed])
        assert an._ei_series(mixed).tobytes() == expected.tobytes()


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

    def test_continued_fraction_settles_for_huge_arguments(self):
        # Above about 1e15 the update ratio can alternate one ulp either
        # side of 1.0; the settled value must still follow the asymptotic
        # series exp(z) E1(z) = 1/z (1 - 1/z + 2/z^2 - ...).
        z = 10.0 ** rl.substream(BASE_SEED, 106).uniform(15.0, 40.0, 3_000)
        series = (1.0 - 1.0 / z + 2.0 / z / z) / z
        assert np.max(np.abs(an._e1_cf_scaled(z) - series) / series) <= 1e-12
        c = np.array([6.875e20, 6.25e298, np.finfo(float).max])
        assert np.all(np.abs(an.scaled_ei_neg(c) * c + 1.0) <= 1e-12)

    @pytest.mark.parametrize("kernel, value", [
        (an.exp_integral_ei, -math.inf), (an.exp_integral_ei, math.nan),
        (an.exp_integral_ei, np.array([-1.0, math.nan])),
        (an.scaled_ei_neg, math.inf), (an.scaled_ei_neg, math.nan),
    ])
    def test_rejects_non_finite_argument(self, kernel, value):
        # Infinities used to reach the continued fraction and fail there as
        # unconverged, and nan was reported as a sign error.
        with pytest.raises(ValueError, match="^argument must be finite and"):
            kernel(value)

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


class TestSelftestEiCheck:
    """The selftest's Ei check and its numpy quadrature oracle."""

    SCALARS = (-0.06875, -1.0, -5.5, -30.0)
    GRID = -np.logspace(-8.0, math.log10(700.0), 241)

    def test_quadrature_matches_scipy(self):
        # Measured: at most 8.5e-14 off quad at the check's four points,
        # 3.2e-14 off expi on its grid and 3.6e-14 on the dense grid.
        ours = selftest.ei_quadrature(np.array(self.SCALARS))
        assert np.max(np.abs(ours - [_quad_ei(x) for x in self.SCALARS])) <= 2e-13
        for grid in (self.GRID, -np.logspace(-8.0, math.log10(700.0), 20_001)):
            assert np.max(np.abs(selftest.ei_quadrature(grid) - expi(grid))) <= 1e-13

    @pytest.mark.parametrize("array_call, offset", [(True, 2e-12), (False, 2e-10)])
    def test_perturbed_kernel_fails(self, array_call, offset, monkeypatch, capsys):
        # The kernel off by a little at one grid point of the array call,
        # or at one of the scalar calls, fails the check and only it.
        kernel, calls = an.exp_integral_ei, []

        def perturbed(x):
            calls.append(x)
            out = kernel(x)
            if array_call and np.ndim(x):
                out[120] += offset
            elif not array_call and x == -5.5:
                out += offset
            return out

        monkeypatch.setattr(an, "exp_integral_ei", perturbed)
        assert selftest.run() == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL exp-integral"]
        # The scalar calls come first, in order, then the one array call.
        reached = [*self.SCALARS, self.GRID] if array_call else [*self.SCALARS[:3]]
        assert [np.asarray(x).tolist() for x in calls] == [np.asarray(x).tolist() for x in reached]


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
        assert an._symmetric_sums(values, 0)[0] == 1.0
        assert an._symmetric_sums(values, 1)[1] == 14.0
        assert an._symmetric_sums(values, 2)[2] == 49.0
        assert an._symmetric_sums(values, 3)[3] == 36.0

    def test_equal_entries_pair_count(self):
        c = 0.7
        for k in (2, 3, 5, 8):
            expected = math.comb(k, 2) * c * c
            assert math.isclose(an._symmetric_sums([c] * k, 2)[2], expected,
                                rel_tol=1e-12)

    def test_order_out_of_range_rejected(self):
        # The crossing polynomial takes orders up to the stream count over
        # one entry per surface, so more streams than surfaces are refused
        # before any sum is formed.
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        with pytest.raises(ConfigurationError, match="n_rx <= n_ris"):
            dataclasses.replace(params, n_rx=params.n_ris + 1)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0),
                 min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_characteristic_polynomial_identity(self, values, x):
        product = float(np.prod([1.0 + x * v for v in values]))
        series = sum(
            x**n * an._symmetric_sums(values, n)[n] for n in range(len(values) + 1)
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


    @pytest.mark.parametrize("name, value", [
        ("n_tx", 16.5), ("n_rx", 2.5), ("n_ris", 4.5), ("n_ris_rx_paths", 3.5), ("n_slots", 2.7),
        ("n_tx", np.float64(16.0)), ("n_slots", "2"),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        # n_tx=16.5 used to move the beamforming bound, n_slots=2.7 gave a
        # fractional-slot bound and n_rx=2.5 failed in slicing with a bare
        # TypeError.
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{name} must be an integer, got {value!r}")):
            dataclasses.replace(params, **{name: value})

    @pytest.mark.parametrize("n_slots", [2.9, 2.0, "2"])
    def test_hopping_bound_rejects_non_integer_slots(self, n_slots):
        # 2.9 slots used to give the 2-slot bound.
        params = an.ClosedFormParams.from_config(rl.SystemConfig())
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"n_slots must be an integer, got {n_slots!r}")):
            an.se_db_upper(params, n_slots)

    @pytest.mark.parametrize("powers", [np.array([]), np.array([[0.5, 1.0], [2.0, 4.0]])],
                             ids=["empty", "2-D"])
    def test_rejects_power_columns_it_cannot_evaluate(self, powers):
        # An empty column used to raise a bare IndexError; a 2-D one was
        # accepted, and then the closed forms disagreed on its shape.
        with pytest.raises(ConfigurationError, match="^transmit power must be a number or a "
                                                     "non-empty 1-D column"):
            an.ClosedFormParams.from_config(rl.SystemConfig(), powers)

    def test_list_column_is_stored_as_an_array(self):
        config = rl.SystemConfig()
        listed = an.ClosedFormParams.from_config(config, [0.5, 1.0])
        column = an.ClosedFormParams.from_config(config, np.array([0.5, 1.0]))
        assert type(listed.transmit_power) is np.ndarray
        assert np.array_equal(an.se_bf_upper(listed), an.se_bf_upper(column))
        assert np.array_equal(listed.c_values(), column.c_values())

    def test_numpy_integer_counts_stored_as_int(self):
        counts = dict(n_tx=np.int64(16), n_rx=np.int32(4), n_ris=np.uint8(4),
                      n_ris_rx_paths=np.int64(10), n_slots=np.int16(2))
        params = an.ClosedFormParams.from_config(rl.SystemConfig(n_slots=2))
        converted = dataclasses.replace(params, **counts)
        for name, value in counts.items():
            assert type(getattr(converted, name)) is int and getattr(converted, name) == value
        assert an.se_db_upper(converted) == an.se_db_upper(params, np.int64(2))


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
                x ** (n - 1) * an._symmetric_sums(d_top, n)[n]
                for n in range(2, n_rx + 1)
            )
            rhs = (
                (n_rx / params.n_ris)
                * (an._symmetric_sums(d_full, 1)[1]
                   + (math.pi / 2.0) * an._symmetric_sums(profile, 2)[2])
                - an._symmetric_sums(d_top, 1)[1]
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

    @staticmethod
    def _pinned_sets(n_sets: int = 300):
        rng = rl.substream(BASE_SEED, 102)
        sets = []
        for j in range(n_sets):
            n_rx = 2 + j % 3
            n_ris = int(rng.integers(n_rx, 9))
            sets.append(an.ClosedFormParams(
                transmit_power=float(rng.uniform(0.01, 10.0)),
                noise_power=float(10.0 ** rng.uniform(-14.0, -11.0)),
                rician_factor=float(rng.uniform(0.1, 100.0)),
                n_tx=int(rng.integers(n_rx, 65)), n_rx=n_rx, n_ris=n_ris,
                n_ris_rx_paths=int(rng.integers(1, 33)),
                gain_profile=1e-6 * rng.uniform(0.6, 1.4, size=n_ris),
            ))
        return sets

    def test_roots_frozen_on_seeded_sets(self):
        # Repr-exact: the bisection must take the same decisions.
        import hashlib

        roots = [an.crossing_point(params) for params in self._pinned_sets()]
        assert [repr(r) for r in roots[:3]] == \
            ["0.89074940723615", "0.022860899160579803", "0.007221781168953938"]
        assert hashlib.sha256(repr(roots).encode()).hexdigest() == \
            "7f2d977e80e42b12c99819d668f7126ff4e2e81938e547df8bcc06304fbd8591"

    @pytest.mark.parametrize("profile", [
        [1e100] * 4,            # coefficients overflow to inf
        [1e-100] * 4,           # coefficients underflow to zero
    ])
    def test_polynomial_out_of_float_range_rejected(self, profile):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()),
            gain_profile=np.array(profile),
        )
        for solver in (an.crossing_point, an.crossing_point_three_stream):
            with pytest.raises(ConfigurationError, match="crossing-point polynomial"):
                solver(dataclasses.replace(params, n_rx=3))

    @pytest.mark.parametrize("n_rx, profile", [
        (2, [1e-80, 1e-80, 1.0, 1.0]),      # doubling reaches inf
        (3, [1e-50, 1e-50, 1e-50, 1e5]),    # x**2 overflows first
    ])
    def test_bracket_beyond_float_range_is_no_crossing(self, n_rx, profile):
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()),
            n_rx=n_rx, gain_profile=np.array(profile),
        )
        with pytest.raises(NoCrossingError, match="representable"):
            an.crossing_point(params)

    @pytest.mark.parametrize("n_rx, solver", [
        (2, an.crossing_point_two_stream),
        (3, an.crossing_point_three_stream),
    ])
    def test_closed_forms_reject_a_unit_coefficient_of_zero(self, n_rx, solver):
        # The power coefficient divided by 1e300 W underflows to 0, so the
        # root lies at no representable power; the bisection says so too.
        params = an.ClosedFormParams.from_config(rl.SystemConfig(
            n_rx=n_rx, transmit_power=1e300, noise_power=1e30, rician_factor=1e-300,
            gain_target=1e10,
        ))
        for solve in (solver, an.crossing_point):
            with pytest.raises(NoCrossingError, match="at a representable power"):
                solve(params)

    def test_subnormal_root_stops_when_the_midpoint_repeats(self, monkeypatch):
        # A root near 1e-320: the relative width test underflows, so only
        # the repeated midpoint ends the bisection.
        monkeypatch.setattr(an, "_crossing_polynomial", lambda params: ([1e300], 1e-20))
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2
        )
        # The power, 1e-320 / unit coefficient, underflows to 0 W, which is
        # no crossing at a representable power.
        with pytest.raises(NoCrossingError, match="representable"):
            an.crossing_point(params)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n_rx=st.integers(2, 8),
        extra=st.integers(0, 3),
        shape=st.lists(st.floats(0.5, 1.5), min_size=11, max_size=11),
        profile_exp=st.floats(-30.0, 4.0),
        noise_exp=st.floats(-30.0, 4.0),
        power_exp=st.floats(-30.0, 4.0),
    )
    @example(n_rx=2, extra=2, shape=[1.0] * 11, profile_exp=75.0, noise_exp=-300.0,
             power_exp=-300.0)   # the root underflows to 0 W
    def test_replay_matches_evaluated_bisection(self, n_rx, extra, shape, profile_exp,
                                                noise_exp, power_exp):
        try:
            params = an.ClosedFormParams(
                transmit_power=10.0**power_exp, noise_power=10.0**noise_exp,
                rician_factor=3.0, n_tx=64, n_rx=n_rx, n_ris=n_rx + extra,
                n_ris_rx_paths=8,
                gain_profile=10.0**profile_exp * np.array(shape[: n_rx + extra]),
            )
        except ConfigurationError:
            return
        assert _outcome(an.crossing_point, params) == \
            _outcome(evaluated_crossing_point, params)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        coeff_exps=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=7),
        rhs_exp=st.floats(-320.0, 307.0),
    )
    def test_replay_matches_on_extreme_polynomials(self, coeff_exps, rhs_exp):
        coeffs = [10.0**e for e in coeff_exps]
        rhs = 10.0**rhs_exp
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2, noise_power=1e20
        )
        with mock.patch.object(an, "_crossing_polynomial", lambda params: (coeffs, rhs)):
            assert _outcome(an.crossing_point, params) == \
                _outcome(evaluated_crossing_point, params)

    @pytest.mark.parametrize("coeffs, rhs, noise_power, outcome", [
        ([1e-160, 1e-308], 1.0, 1e-13, "NoCrossingError"),  # x**2 overflows past the root
        ([1e-300], 1e10, 1e-13, "NoCrossingError"),         # doubling reaches inf
        ([1e300], 1e-20, 1e-13, "NoCrossingError"),         # the power underflows to 0 W
        ([1e300], 1e-15, 1e20, "root"),                     # subnormal X: not certified
        ([1e-107, 1e47], 1e-261, 1e20, "root"),             # x**2 underflows near the root
        ([1.7e308, 1e308], 1e308, 1e-13, "root"),           # Horner's running value overflows
    ])
    def test_edges_fall_back_to_the_evaluated_loop(self, coeffs, rhs, noise_power, outcome,
                                                   monkeypatch):
        monkeypatch.setattr(an, "_crossing_polynomial", lambda params: (coeffs, rhs))
        assert an._replay_band(tuple(enumerate(coeffs, start=1)), rhs) == (0.0, math.inf)
        params = dataclasses.replace(
            an.ClosedFormParams.from_config(rl.SystemConfig()), n_rx=2, noise_power=noise_power
        )
        got = _outcome(an.crossing_point, params)
        assert got == _outcome(evaluated_crossing_point, params)
        assert (got if got.endswith("Error") else "root") == outcome

    def test_pinned_sets_take_few_polynomial_evaluations(self, monkeypatch):
        # Newton takes no _poly call: the certification takes two and the
        # bisection about 0.4 per root (2.41 measured).  A silent fall-back
        # to the evaluated loop costs about 87 per root.
        calls = []
        poly = an._poly

        def counted(terms, x):
            calls.append(x)
            return poly(terms, x)

        monkeypatch.setattr(an, "_poly", counted)
        sets = self._pinned_sets()
        for params in sets:
            an.crossing_point(params)
        assert len(calls) / len(sets) <= 2.5

    def test_no_crossing_raises(self):
        # A non-positive right-hand side: every solver of the profile's
        # stream count raises the one error of the crossing polynomial.
        closed_forms = {2: an.crossing_point_two_stream, 3: an.crossing_point_three_stream}
        for n_rx, closed_form in closed_forms.items():
            params = dataclasses.replace(
                an.ClosedFormParams.from_config(rl.SystemConfig()),
                n_rx=n_rx,
                gain_profile=np.array([1e-6, 1e-12, 1e-12, 1e-12]),
            )
            for solve in (an.crossing_point, closed_form, evaluated_crossing_point):
                with pytest.raises(NoCrossingError,
                                   match="^bounds do not cross at positive power$"):
                    solve(params)

    @pytest.mark.parametrize("powers", [[1.0], [0.1, 1.0]])
    @pytest.mark.parametrize("n_rx, closed_form", [
        (2, an.crossing_point_two_stream),
        (3, an.crossing_point_three_stream),
    ])
    def test_power_column_rejected(self, powers, n_rx, closed_form, monkeypatch):
        # A bundle on a column of transmit powers has no one crossing
        # point: every solver says so before it solves.
        monkeypatch.setattr(an, "_symmetric_sums", None)
        params = an.ClosedFormParams.from_config(rl.SystemConfig(n_rx=n_rx), np.array(powers))
        for solve in (an.crossing_point, closed_form, evaluated_crossing_point):
            with pytest.raises(ValueError, match="^crossing point needs one transmit power"):
                solve(params)
