"""Transceivers of the four schemes over the exact shaped channel.

Precoders always live on the transmit DFT responses of the activated
surfaces; combiners live on the receive responses (multiplexing) or on the
matched filter of the realized channel (beamforming).  Per-realization
spectral efficiency is evaluated on the exact composite channel; the
activated-gain (diagonalized) model supplies the per-stream SNRs used for
outage calls and is reported separately as a companion value.

The path-hopping schemes run one shaped channel per slot and combine slot
outputs coherently; the single-configuration runners are literally the
one-slot case of the same code so reductions are bit-exact.  Designs over
stacked fading epochs run in one pass and give one result per epoch, equal
bit for bit to running each epoch on its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import SystemConfig
from .customize import CustomizedChannel

DEFAULT_OUTAGE_THRESHOLD = 10.0  # linear SNR, i.e. 10 dB


@dataclass(frozen=True)
class SchemeResult:
    """Per-realization outcome of one scheme.

    ``se_bits_per_hz`` is evaluated on the exact channel;
    ``se_model_bits_per_hz`` and ``post_combine_snr`` come from the
    activated-gain model (outage is called on the latter).  Bit counters
    are zero unless the result came from a symbol-level trial.
    """

    scheme: str
    se_bits_per_hz: float
    se_model_bits_per_hz: float
    post_combine_snr: tuple[float, ...]
    outage: bool
    bit_errors: int = 0
    bits_sent: int = 0


def _multiplex_precoder(custom: CustomizedChannel, config: SystemConfig) -> np.ndarray:
    n_streams = custom.t_active.shape[1]
    return math.sqrt(config.transmit_power / n_streams) * custom.t_active


def _beam_precoder(custom: CustomizedChannel, config: SystemConfig) -> np.ndarray:
    n_active = custom.t_active.shape[1]
    return math.sqrt(config.transmit_power / n_active) * custom.t_active.sum(axis=1)


def _multiplex_slot(custom: CustomizedChannel, config: SystemConfig):
    """One slot's precoder, stream matrix ``R^H H F`` and the per-stream
    rotation that turns its diagonal real and positive."""
    f = _multiplex_precoder(custom, config)
    g = custom.r_active.conj().T @ custom.exact_h @ f
    return f, g, np.exp(-1j * np.angle(np.diagonal(g, axis1=-2, axis2=-1)))


def _beam_combiner(custom: CustomizedChannel, config: SystemConfig) -> np.ndarray:
    """One slot's matched-filter combiner ``H f``."""
    return custom.exact_h @ _beam_precoder(custom, config)


def _check_slots(customs: Sequence[CustomizedChannel]) -> None:
    if len(customs) != customs[0].selection.n_slots:
        raise ValueError(
            f"got {len(customs)} slot channels for a "
            f"{customs[0].selection.n_slots}-slot selection"
        )
    for m, custom in enumerate(customs):
        if custom.slot != m:
            raise ValueError(f"slot channel {m} was built for slot {custom.slot}")


def _run_multiplex(
    customs: Sequence[CustomizedChannel],
    config: SystemConfig,
    scheme: str,
    gamma_th: float,
    slots: Sequence[tuple] | None = None,
) -> SchemeResult | list[SchemeResult]:
    """Shared multiplexing runner: per-slot combine, rotate, sum, detect.

    Each slot's combiner is the activated receive-response stack with its
    columns phase-rotated onto the realized per-stream gains, so slot
    outputs add coherently; stacking slots leaves per-stream noise at
    ``n_slots * noise_power``.  ``slots`` passes precomputed
    :func:`_multiplex_slot` terms.  Stacked designs give a list of
    per-epoch results.
    """
    _check_slots(customs)
    n_slots = len(customs)
    noise_power = config.noise_power
    n_streams = customs[0].r_active.shape[1]
    slots = slots or [_multiplex_slot(custom, config) for custom in customs]
    effective = np.zeros(slots[0][1].shape, dtype=complex)
    model_amplitude = np.zeros(customs[0].xi_active.shape)
    for custom, (_, g, rotation) in zip(customs, slots):
        effective += rotation[..., :, None] * g
        model_amplitude += np.abs(custom.xi_active)

    stacked_noise = n_slots * noise_power
    _, logdet = np.linalg.slogdet(
        np.eye(n_streams) + effective @ np.swapaxes(effective.conj(), -1, -2) / stacked_noise
    )
    se = logdet / math.log(2.0) / n_slots

    snr = (
        model_amplitude**2
        * config.transmit_power
        / (n_streams * n_slots * noise_power)
    )
    se_model = np.sum(np.log2(1.0 + snr), axis=-1) / n_slots
    results = [
        SchemeResult(
            scheme=scheme,
            se_bits_per_hz=float(epoch_se),
            se_model_bits_per_hz=float(epoch_model),
            post_combine_snr=tuple(epoch_snr.tolist()),
            outage=bool(epoch_snr.min() < gamma_th),
        )
        for epoch_se, epoch_model, epoch_snr in zip(
            np.atleast_1d(se), np.atleast_1d(se_model), np.atleast_2d(snr)
        )
    ]
    return results if np.ndim(se) else results[0]


def _run_beamform(
    customs: Sequence[CustomizedChannel],
    config: SystemConfig,
    scheme: str,
    gamma_th: float,
    combiners: Sequence[np.ndarray] | None = None,
) -> SchemeResult | list[SchemeResult]:
    """Shared beamforming runner: matched-filter stacking across slots.

    ``combiners`` passes precomputed :func:`_beam_combiner` outputs.
    Stacked designs give a list of per-epoch results."""
    _check_slots(customs)
    n_slots = len(customs)
    n_active = customs[0].t_active.shape[1]
    exact_power = 0.0
    model_sum = 0.0
    combiners = combiners or [_beam_combiner(custom, config) for custom in customs]
    for custom, matched in zip(customs, combiners):
        # Per epoch, the 1-D norm and the scalar power of a single-epoch
        # run: a norm over the last axis sums in another order, and the
        # array square (x*x) need not round like the scalar pow(x, 2).
        exact_power += np.array([np.linalg.norm(v) ** 2 for v in np.atleast_2d(matched)])
        model_sum += np.array([
            s**2 for s in np.abs(np.atleast_2d(custom.xi_active)).sum(axis=-1)
        ])

    results = []
    for epoch_power, epoch_model in zip(exact_power.tolist(), model_sum.tolist()):
        se = math.log2(1.0 + epoch_power / config.noise_power) / n_slots
        snr_model = config.transmit_power * epoch_model / (n_active * config.noise_power)
        results.append(SchemeResult(
            scheme=scheme,
            se_bits_per_hz=se,
            se_model_bits_per_hz=math.log2(1.0 + snr_model) / n_slots,
            post_combine_snr=(snr_model,),
            outage=bool(snr_model < gamma_th),
        ))
    return results if combiners[0].ndim == 2 else results[0]


def run_sm(
    custom: CustomizedChannel,
    config: SystemConfig,
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD,
) -> SchemeResult | list[SchemeResult]:
    """Spatial multiplexing: equal-power streams on the activated paths."""
    return _run_multiplex([custom], config, "sm", gamma_th)


def run_ds(
    customs: Sequence[CustomizedChannel],
    config: SystemConfig,
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD,
) -> SchemeResult | list[SchemeResult]:
    """Multiplexing with per-slot path hopping, combined coherently."""
    return _run_multiplex(customs, config, "ds", gamma_th)


def run_bf(
    custom: CustomizedChannel,
    config: SystemConfig,
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD,
) -> SchemeResult | list[SchemeResult]:
    """Single-stream beamforming with matched-filter reception."""
    return _run_beamform([custom], config, "bf", gamma_th)


def run_db(
    customs: Sequence[CustomizedChannel],
    config: SystemConfig,
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD,
) -> SchemeResult | list[SchemeResult]:
    """Beamforming with per-slot path hopping, combined coherently."""
    return _run_beamform(customs, config, "db", gamma_th)


def _qpsk_bits(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.integers(0, 2, size=shape)


def _qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-coded QPSK: leading bit keys the real sign, trailing the imaginary."""
    return ((1.0 - 2.0 * bits[..., 0, :]) + 1j * (1.0 - 2.0 * bits[..., 1, :])) / math.sqrt(2.0)


def _qpsk_detect(observations: np.ndarray) -> np.ndarray:
    """Sign detection; valid whenever the effective stream gain is real positive."""
    return np.stack(
        [(observations.real < 0).astype(np.int64), (observations.imag < 0).astype(np.int64)],
        axis=-2,
    )


def _awgn(rng: np.random.Generator, noise_power: float, shape: tuple[int, ...]) -> np.ndarray:
    scale = math.sqrt(noise_power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def ber_trial(
    scheme: str,
    customs: Sequence[CustomizedChannel],
    config: SystemConfig,
    symbols: int,
    rng: np.random.Generator,
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD,
) -> SchemeResult:
    """Push Gray-coded QPSK payload through the exact channel and count errors.

    ``symbols`` channel uses are simulated at once; the multiplexing
    schemes carry one QPSK symbol per stream per use.  Slot outputs are
    combined coherently before per-stream sign detection, exactly as in
    the spectral-efficiency runners.
    """
    if symbols < 1:
        raise ValueError("need at least one symbol")
    if scheme in ("sm", "ds"):
        slots = [_multiplex_slot(custom, config) for custom in customs]
        base = _run_multiplex(customs, config, scheme, gamma_th, slots)
        n_streams = customs[0].r_active.shape[1]
        bits = _qpsk_bits(rng, (n_streams, 2, symbols))
        sent = _qpsk_modulate(bits)
        combined = np.zeros((n_streams, symbols), dtype=complex)
        for custom, (f, _, rotation) in zip(customs, slots):
            received = custom.exact_h @ (f @ sent)
            received += _awgn(rng, config.noise_power, received.shape)
            combined += rotation[:, None] * (custom.r_active.conj().T @ received)
        detected = _qpsk_detect(combined)
    elif scheme in ("bf", "db"):
        combiners = [_beam_combiner(custom, config) for custom in customs]
        base = _run_beamform(customs, config, scheme, gamma_th, combiners)
        bits = _qpsk_bits(rng, (2, symbols))
        sent = _qpsk_modulate(bits)
        combined = np.zeros(symbols, dtype=complex)
        for matched in combiners:
            received = np.outer(matched, sent)
            received += _awgn(rng, config.noise_power, received.shape)
            combined += matched.conj() @ received
        detected = _qpsk_detect(combined)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    errors = int(np.count_nonzero(detected != bits))
    return dataclasses.replace(base, bit_errors=errors, bits_sent=int(bits.size))
