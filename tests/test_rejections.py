"""Public functions reject out-of-range input with a named error, each on
the guard of its own (every case fails with that guard removed)."""

from __future__ import annotations

import dataclasses
import re

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
