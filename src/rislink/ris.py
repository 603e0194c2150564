"""Surface phase-profile construction.

A surface applies one programmable phase per element.  Every profile the
simulator designs is linear in the element index: element ``i`` applies
``i * slope + c`` radians.  A slope equal to the departing minus the
arriving spatial frequency of a chosen path pair retargets that pair, so
its effective gain collapses to the product of the two path gains and the
cascaded loss; the scalar common phase ``c`` co-phases the surviving
terms at the receiver.  What the profiles leave unshaped (the leakage)
is, per row of a :class:`rislink.customize.DesignStack`, ``exact_h``
minus ``(r_active * xi_active) @ t_active^H``.  Profiles are designed as
arrays of slopes and common phases (:func:`rislink.customize.design_slots`).
"""

from __future__ import annotations

import cmath


def common_phase_refinement(
    rx_path_gain: complex,
    tx_los_gain: complex,
    rx_arrival_freq: float,
    n_rx: int,
) -> float:
    """Common phase that co-phases one retargeted path at the receive array.

    Cancels the two path-gain phases plus the phase accumulated at the
    center of the receive array, so that pairwise combining terms add with
    non-negative real parts.
    """
    if rx_path_gain == 0 or tx_los_gain == 0:
        raise ValueError("path gains must be nonzero to define a phase")
    return -(
        cmath.phase(rx_path_gain)
        + cmath.phase(tx_los_gain)
        + 0.5 * (n_rx - 1) * rx_arrival_freq
    )
