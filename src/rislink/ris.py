"""Surface phase-profile construction and evaluation.

A surface applies one programmable phase per element.  Linear-in-element
profiles retarget a chosen (departing, arriving) path pair so that its
effective gain collapses to the product of the two path gains and the
cascaded loss; a scalar common phase on top of the profile co-phases the
surviving terms at the receiver.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import CascadedDecomposition


@dataclass(frozen=True, eq=False)
class RisConfiguration:
    """Phase state of one surface: a linear profile plus a common phase.

    Element ``i`` applies ``i * slope + common_phase`` radians.
    ``aligned_path`` records which (receiver-side, transmitter-side) path
    pair the profile retargets, or ``None`` for a neutral surface.
    """

    ris_index: int
    n_elements: int
    slope: float = 0.0
    aligned_path: tuple[int, int] | None = None
    common_phase: float = 0.0

    @property
    def phases(self) -> np.ndarray:
        """Per-element profile in radians, without the common phase."""
        return self.slope * np.arange(self.n_elements, dtype=float)

    def phase_vector(self) -> np.ndarray:
        """Unit-modulus reflection coefficients of every element."""
        return np.exp(1j * (self.phases + self.common_phase))

    def with_common_phase(self, common_phase: float) -> "RisConfiguration":
        return dataclasses.replace(self, common_phase=common_phase)

    @classmethod
    def neutral(cls, n_elements: int, ris_index: int = 0) -> "RisConfiguration":
        """All-zero profile (surface reflects without reshaping)."""
        return cls(ris_index=ris_index, n_elements=n_elements)


def align_phases(
    departure_freq: float,
    arrival_freq: float,
    n_elements: int,
    ris_index: int = 0,
    aligned_path: tuple[int, int] | None = None,
) -> RisConfiguration:
    """Linear profile that rotates an arriving response onto a departing one.

    Element ``i`` gets phase ``i * (departure_freq - arrival_freq)``, which
    makes the surface's inner product between the two responses exactly one
    and leaves every well-separated path pair near zero.
    """
    return RisConfiguration(
        ris_index=ris_index,
        n_elements=n_elements,
        slope=departure_freq - arrival_freq,
        aligned_path=aligned_path,
    )


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


def leakage_norm(
    decomposition: CascadedDecomposition,
    active: Iterable[tuple[int, int, int]],
) -> float:
    """Frobenius norm of the composite contribution of non-activated gains.

    ``active`` lists (surface, receiver-side path, transmitter-side path)
    triples whose core entries are zeroed before re-assembling; what
    remains is the interference floor the phase profiles did not shape.
    """
    residual = decomposition.core.copy()
    for k, rx_path, tx_path in active:
        row = k * decomposition.n_rx_paths_per_ris + rx_path
        col = k * decomposition.n_tx_paths_per_ris + tx_path
        residual[row, col] = 0.0
    leaked = decomposition.rx_factor @ residual @ decomposition.tx_factor.conj().T
    return float(np.linalg.norm(leaked))
