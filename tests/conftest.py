"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import fields, replace

import numpy as np

import rislink as rl
from rislink.channel import (
    RIS_RX,
    TX_RIS,
    HopStack,
    _draw_separated_freqs,
    _los_gain,
    _scatter_scale,
    _separation,
    draw_fading_gains,
)
from rislink.config import drop_receiver, receiver_losses, surface_geometry
from rislink import transceive
from rislink.transceive import SchemeResult

BASE_SEED = 20240601


def small_config(**overrides) -> rl.SystemConfig:
    """A compact system that keeps per-test channel draws cheap."""
    defaults = dict(n_tx=8, n_rx=2, n_ris=3, n_ris_rx_paths=4, gain_target=2e-7)
    defaults.update(overrides)
    return rl.SystemConfig(**defaults)


def _complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def _scattered_hop(config, link, n_s, keep_away, rng, separation):
    """One hop's scattered paths with their gains, drawn in this order:
    frequencies at the surface (kept ``separation`` away from each other
    and from ``keep_away``), frequencies at the far end, then the gains,
    real parts before imaginary parts."""
    count = config.n_nlos_tx_paths if link == TX_RIS else config.n_ris_rx_paths
    at_surface = _draw_separated_freqs(rng, count, keep_away, separation)
    far = math.pi * np.cos(rng.uniform(0.0, math.pi, size=count))
    return at_surface, far, _scatter_scale(config, link, n_s, count) * _complex_normal(rng, count)


def draw_scene(config: rl.SystemConfig, seed: int = BASE_SEED, *key: int) -> HopStack:
    """One angle epoch's hops with their gains, a stack of one row.

    One generator draws, in this order: the receiver drop, every surface's
    transmit-side hop, then every surface's receive-side hop (kept away from
    that surface's transmit-side arrivals); each hop draws its surface-side
    frequencies, far-side frequencies and scattered gains.  The engine
    instead interleaves the two hops of each surface and draws the gains
    from separate fading generators.
    """
    rng = rl.substream(seed, *key) if key else rl.substream(seed, 0)
    surfaces = surface_geometry(config)
    losses, counts = receiver_losses(config, surfaces, drop_receiver(config, rng))
    separation = _separation(counts)
    tx = [_scattered_hop(config, TX_RIS, n_s, surfaces.los_arrival[k:k + 1], rng, separation)
          for k, n_s in enumerate(counts.tolist())]

    def with_los(i, los):
        return np.array([np.concatenate(([los[k]], paths[i])) for k, paths in enumerate(tx)])

    tx_arrival = with_los(0, surfaces.los_arrival)
    rx = [_scattered_hop(config, RIS_RX, n_s, tx_arrival[k], rng, separation)
          for k, n_s in enumerate(counts.tolist())]
    return HopStack(
        n_rx=config.n_rx, n_tx=config.n_tx,
        tx_arrival=tx_arrival[None], tx_departure=with_los(1, surfaces.los_departure)[None],
        tx_gains=with_los(2, _los_gain(config, counts)).astype(complex)[None, None],
        rx_arrival=np.array([paths[1] for paths in rx])[None],
        rx_departure=np.array([paths[0] for paths in rx])[None],
        rx_gains=np.array([paths[2] for paths in rx], dtype=complex)[None, None],
        n_elements=counts[None], losses=losses[None],
    )


def key_of(rng: np.random.Generator) -> np.ndarray:
    """The Philox key of a generator, such as one ``rl.substream`` built."""
    return rng.bit_generator.state["state"]["key"]


def stream_keys(seed: int, cells) -> np.ndarray:
    """The Philox keys of ``rl.substream(seed, *cell)`` for every key tuple
    of a (nested) list of cells: shape (..., 2)."""
    if isinstance(cells, tuple):
        return key_of(rl.substream(seed, *cells))
    return np.array([stream_keys(seed, cell) for cell in cells], dtype=np.uint64)


def streams(seed: int, cells) -> tuple[np.ndarray, np.random.Generator]:
    """What a draw takes in place of one ``rl.substream(seed, *cell)`` per
    cell: the cells' keys (:func:`stream_keys`) and a generator to re-key."""
    return stream_keys(seed, cells), rl.substream(seed)


def with_fading(config: rl.SystemConfig, hops: HopStack, rngs) -> HopStack:
    """A stack of one angle epoch with the gains of one fading epoch per
    generator in ``rngs``, each on that generator's key, on the same angle
    arrays."""
    tx_gains, rx_gains = draw_fading_gains(
        config, hops.n_elements, hops.tx_gains[:, 0, :, 0].real,
        np.array([[key_of(rng) for rng in rngs]]), rl.substream(0),
    )
    return replace(hops, tx_gains=tx_gains, rx_gains=rx_gains)


def design_row(design, angle_index: int = 0, fading_index: int = 0):
    """The design of one row of a ``DesignStack``, with the leading axes
    dropped."""
    return replace(
        design,
        r_active=design.r_active[angle_index, 0],
        t_active=design.t_active[angle_index, 0],
        xi_active=design.xi_active[angle_index, fading_index],
        exact_h=design.exact_h[angle_index, fading_index],
    )


def row_powers(config: rl.SystemConfig, designs) -> np.ndarray:
    """The config's transmit power as the runners' column over the angle
    rows of ``designs``."""
    return np.full(designs[0].exact_h.shape[0], config.transmit_power)


def slot_links(designs, powers: np.ndarray, multiplex: bool) -> list:
    """Each slot's transceiver over its design's rows, angle row ``a`` at
    ``powers[a]``, as the runners build it for ``transceive.payload_errors``."""
    slot = transceive._multiplex_slot if multiplex else transceive._beam_combiner
    return [slot(design, powers) for design in designs]


def model_channel(design) -> np.ndarray:
    """The activated-paths model of one row's design,
    ``(r_active * xi_active) @ t_active^H``: what the leakage leaves out."""
    return (design.r_active * design.xi_active) @ design.t_active.conj().T


def random_profiles(hops: HopStack, rng: np.random.Generator):
    """Linear phase profiles of a stack of one with independent uniform
    slopes (1, K) and common phases (1, 1, K)."""
    slopes, commons = rng.uniform(-np.pi, np.pi, (2, hops.n_elements.shape[1]))
    return slopes[None], commons[None, None]


def common_phase_refinement(
    rx_path_gain: complex, tx_los_gain: complex, rx_arrival_freq: float, n_rx: int
) -> float:
    """Scalar oracle of one common phase (``customize._common_phases``):
    cancels the two path-gain phases plus the phase accumulated at the
    centre of the receive array."""
    if rx_path_gain == 0 or tx_los_gain == 0:
        raise ValueError("path gains must be nonzero to define a phase")
    return -(
        cmath.phase(rx_path_gain)
        + cmath.phase(tx_los_gain)
        + 0.5 * (n_rx - 1) * rx_arrival_freq
    )


def scalar_phase_design(selection, slot: int, estimate: HopStack, refine: bool):
    """Scalar oracle of ``customize.design_slots``'s common phases (A, F or
    1, K) and designed gains (A, F, n_active): one scalar at a time, on
    numpy scalars, as the design loops ran before they became arrays."""
    n_fading = estimate.rx_gains.shape[1]
    n_angle, n_active = selection.active.shape
    commons = np.zeros((n_angle, n_fading if refine else 1, estimate.n_elements.shape[1]))
    xi_active = np.empty((n_angle, n_fading, n_active), dtype=complex)
    for a in range(n_angle):
        for i, (k, l) in enumerate(zip(selection.active[a].tolist(),
                                       selection.paths[a, slot].tolist())):
            rx_gains, tx_gains = estimate.rx_gains[a, :, k, l], estimate.tx_gains[a, :, k, 0]
            phases = [0.0] * n_fading
            if refine:
                phases = [
                    common_phase_refinement(rx, tx, estimate.rx_arrival[a, k, l], estimate.n_rx)
                    for rx, tx in zip(rx_gains, tx_gains)
                ]
                commons[a, :, k] = phases
            loss = estimate.losses[a, k]
            xi_active[a, :, i] = [
                loss * rx * tx * cmath.exp(1j * phase)
                for rx, tx, phase in zip(rx_gains, tx_gains, phases)
            ]
    return commons, xi_active


ResultRow = namedtuple("ResultRow", [f.name for f in fields(SchemeResult)])


def result_rows(result: SchemeResult) -> list[ResultRow]:
    """The rows of a column result in (angle epoch, fading epoch) order,
    every field as Python scalars (``post_combine_snr`` a tuple)."""
    n_rows = result.se_bits_per_hz.size
    return [
        ResultRow(se, model, tuple(snr), outage, errors, sent)
        for se, model, snr, outage, errors, sent in zip(
            result.se_bits_per_hz.ravel().tolist(), result.se_model_bits_per_hz.ravel().tolist(),
            result.post_combine_snr.reshape(n_rows, -1).tolist(), result.outage.ravel().tolist(),
            result.bit_errors.ravel().tolist(), result.bits_sent.ravel().tolist(),
        )
    ]


def assert_same_columns(got: SchemeResult, expected: SchemeResult, context=None) -> None:
    """Every field of ``got`` has the dtype, shape and bytes of ``expected``'s."""
    for f in fields(SchemeResult):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (f.name, context)
