"""Public functions reject out-of-range input with a named error, each on
the guard of its own (every case fails with that guard removed)."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import rislink as rl
from rislink import analysis as an
from rislink.customize import check_selection
from rislink.errors import ConfigurationError, SelectionInfeasibleError


def _params(**changes) -> an.ClosedFormParams:
    return dataclasses.replace(an.ClosedFormParams.from_config(rl.SystemConfig()), **changes)


@pytest.mark.parametrize("call, error, message", [
    (lambda: an.se_sm_upper([1.0, 0.0]), ValueError, "stream constants must be positive"),
    (lambda: an.se_db_upper(_params(), 0), ConfigurationError, "need at least one slot"),
    (lambda: an.crossing_point(_params(n_rx=1)), ConfigurationError,
     "crossing point needs at least two streams"),
    (lambda: an.crossing_point_two_stream(_params(n_rx=3)), ValueError,
     "closed form is specific to two streams"),
    (lambda: an.crossing_point_three_stream(_params(n_rx=2)), ValueError,
     "closed form is specific to three streams"),
    (lambda: rl.path_loss(0.0, 50.0, 0.1), ConfigurationError,
     "distances and wavelength must be positive"),
    (lambda: rl.ris_element_count(0.0, 1e-6), ConfigurationError,
     "gain_target and loss must be positive"),
    (lambda: check_selection(10, 4, 2, "beamform", 0), SelectionInfeasibleError,
     "need at least one slot"),
    (lambda: check_selection(10, 2, 3, "multiplex"), SelectionInfeasibleError,
     "need n_ris >= n_rx >= 1 for multiplexing"),
    (lambda: rl.apply_axis(rl.SystemConfig(), "E_W", 1.0), ConfigurationError,
     "unknown sweep axis 'E_W'; expected one of E_dBm, kappa_dB, L_R, L_T, M_R, N_T, N_R, K, "
     "C, sigma_e"),
], ids=[
    "se_sm_upper-zero-constant", "se_db_upper-zero-slots", "crossing_point-one-stream",
    "two_stream-three-streams", "three_stream-two-streams", "path_loss-zero-distance",
    "ris_element_count-zero-target", "check_selection-zero-slots",
    "check_selection-few-surfaces", "apply_axis-unknown-axis",
])
def test_rejects_with_named_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _plan(**changes) -> rl.TrialPlan:
    fields = dict(axis_name="E_dBm", axis_values=(0.0,), schemes=("sm",), n_angle_epochs=1,
                  n_fading_epochs=1, base_seed=0)
    return rl.TrialPlan(**{**fields, **changes})


@pytest.mark.parametrize("call, message", [
    (lambda: _plan(gamma_th="10"), "gamma_th must be a real number, got '10'"),
    (lambda: _plan(gamma_th=None), "gamma_th must be a real number, got None"),
    (lambda: _plan(schemes=None), "schemes must be a sequence of names, got None"),
    (lambda: _plan(schemes=3), "schemes must be a sequence of names, got 3"),
    (lambda: _params(noise_power="1"), "noise_power must be a real number, got '1'"),
    (lambda: _params(rician_factor=None), "rician_factor must be a real number, got None"),
    (lambda: _params(noise_power=1j), "noise_power must be a real number, got 1j"),
    (lambda: _params(gain_profile="abc"), "gain_profile must be numbers, got 'abc'"),
    (lambda: _params(gain_profile=[1e-6, None, 1e-6, 1e-6]),
     "gain_profile must be numbers, got [1e-06, None, 1e-06, 1e-06]"),
    (lambda: _params(gain_profile=[[1e-6], [1e-6, 1e-6]]),
     "gain_profile must be numbers, got [[1e-06], [1e-06, 1e-06]]"),
    (lambda: rl.SystemConfig(noise_power="1"), "noise_power must be a real number, got '1'"),
    (lambda: rl.SystemConfig(rician_factor=None),
     "rician_factor must be a real number, got None"),
    (lambda: rl.SystemConfig(noise_power=10**400), "noise_power must be finite"),
    (lambda: _params(rician_factor=10**400), "rician_factor must be finite"),
    (lambda: _plan(gamma_th=-10**5000), "gamma_th must be finite"),
], ids=[
    "TrialPlan-text-threshold", "TrialPlan-None-threshold", "TrialPlan-None-schemes",
    "TrialPlan-int-schemes", "ClosedFormParams-text-noise", "ClosedFormParams-None-kappa",
    "ClosedFormParams-complex-noise", "ClosedFormParams-text-profile",
    "ClosedFormParams-None-in-profile", "ClosedFormParams-ragged-profile",
    "SystemConfig-text-noise", "SystemConfig-None-kappa", "SystemConfig-huge-int-noise",
    "ClosedFormParams-huge-int-kappa", "TrialPlan-huge-int-threshold",
])
def test_non_numeric_scalars_name_the_field(call, message):
    # These used to escape as bare TypeErrors, ValueErrors and
    # OverflowErrors from math.isfinite, iteration or numpy's float
    # conversion.
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def test_numeric_scalars_still_pass():
    # numpy and integer scalars are real numbers; a tuple, a generator and
    # a numpy array of names are sequences of schemes.
    assert _plan(gamma_th=np.float64(3.0)).gamma_th == 3.0
    assert _plan(gamma_th=2).gamma_th == 2
    assert _plan(schemes=(s for s in ("sm", "bf"))).schemes == ("sm", "bf")
    assert _plan(schemes=np.array(["bf"])).schemes == ("bf",)
    assert _params(noise_power=np.float32(1e-13), rician_factor=10).rician_factor == 10
    assert _params(gain_profile=(1e-6, 1e-6, 2e-6, 1e-6)).gain_profile.dtype == float
    assert rl.SystemConfig(noise_power=np.float64(1e-12)).noise_power == 1e-12
