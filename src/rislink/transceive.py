"""Transceivers of the four schemes over the exact shaped channel.

Precoders always live on the transmit DFT responses of the activated
surfaces; combiners live on the receive responses (multiplexing) or on the
matched filter of the realized channel (beamforming).  Per-realization
spectral efficiency is evaluated on the exact composite channel; the
activated-gain (diagonalized) model supplies the per-stream SNRs used for
outage calls and is reported separately as a companion value.

The path-hopping schemes run one shaped channel per slot and combine slot
outputs coherently.  A runner takes a list of
:class:`rislink.customize.DesignStack`, the slots in order, over rows of
angle and fading epochs, the transmit power as a column over the angle
rows and the noise power, and makes one straight pass: it builds every
slot's link (precoder, stream matrix and rotation, or matched filter),
pushes a bit-error payload, if given one, through those links
(:func:`payload_errors`, detecting after every slot), then accumulates the
slots and builds each scheme's :class:`SchemeResult` once, off its prefix
of the slots and with that prefix's bit counts.  So the
single-configuration schemes are literally the one-slot case of the same
code, one pass over a hopping design serves both schemes of its family bit
for bit, and every result field is a column over the rows, each row equal
bit for bit to running it on its own at its own power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import rekey
from .customize import DesignStack

DEFAULT_OUTAGE_THRESHOLD = 10.0  # linear SNR, i.e. 10 dB


@dataclass(frozen=True, eq=False)
class SchemeResult:
    """One scheme's outcomes over (angle epoch, fading epoch) rows: every
    field is an (A, F) column, ``post_combine_snr`` (A, F, streams).

    ``se_bits_per_hz`` is evaluated on the exact channel;
    ``se_model_bits_per_hz`` and ``post_combine_snr`` come from the
    activated-gain model (outage is called on the latter).  The int64 bit
    counters are zero for a runner given no payload.
    """

    se_bits_per_hz: np.ndarray
    se_model_bits_per_hz: np.ndarray
    post_combine_snr: np.ndarray
    outage: np.ndarray
    bit_errors: np.ndarray
    bits_sent: np.ndarray


def _result(errors: np.ndarray, sent: int, se, se_model, snr, outage) -> SchemeResult:
    """The columns shaped over the (A, F) rows of a prefix's bit ``errors``,
    the SNR with a stream axis, and ``sent`` bits in every row."""
    rows = errors.shape
    return SchemeResult(se.reshape(rows), se_model.reshape(rows), snr.reshape(rows + (-1,)),
                        outage.reshape(rows), errors, np.full(rows, sent, dtype=np.int64))


# The precoders scale the angle rows of a design by their transmit powers
# ``powers`` (A,): a real factor, so each row rounds as its scalar product.
def _multiplex_precoder(design: DesignStack, powers: np.ndarray) -> np.ndarray:
    n_streams = design.t_active.shape[-1]
    return np.sqrt(powers / n_streams)[:, None, None, None] * design.t_active


def _beam_precoder(design: DesignStack, powers: np.ndarray) -> np.ndarray:
    n_active = design.t_active.shape[-1]
    return np.sqrt(powers / n_active)[:, None, None] * design.t_active.sum(axis=-1)


def _multiplex_slot(design: DesignStack, powers: np.ndarray):
    """One slot's precoder, stream matrix ``R^H H F`` and the per-stream
    rotation that turns its diagonal real and positive."""
    f = _multiplex_precoder(design, powers)
    g = np.swapaxes(design.r_active.conj(), -1, -2) @ design.exact_h @ f
    return f, g, np.exp(-1j * np.angle(np.diagonal(g, axis1=-2, axis2=-1)))


def _beam_combiner(design: DesignStack, powers: np.ndarray) -> np.ndarray:
    """One slot's matched-filter combiner ``H f``."""
    return (design.exact_h @ _beam_precoder(design, powers)[..., None])[..., 0]


def _beam_powers(matched: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v) ** 2`` of every row ``v`` of ``matched``, bit for
    bit: the sums of squares as batched dot products on the real and
    imaginary views, with the norm's strides (a sum over the last axis adds
    in another order), then the scalar ``** 2`` (``x * x`` may differ)."""
    re, im = (part.reshape(-1, 1, part.shape[-1]) for part in (matched.real, matched.imag))
    squares = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.array([x**2 for x in np.sqrt(squares).ravel().tolist()])


# A block's payload: QPSK symbols per row, each row's Philox key keys[a, f]
# (A, F, 2) and the generator to re-key to them.
_Payload = tuple[int, np.ndarray, np.random.Generator]


def _bit_counts(designs: Sequence[DesignStack], links: list, noise_power: float,
                payload: _Payload | None, multiplex: bool) -> tuple[int, np.ndarray]:
    """:func:`payload_errors` of a ``payload`` on the slot ``links``; without
    a payload, no bits sent and no errors."""
    if payload is None:
        return 0, np.zeros((len(designs),) + designs[0].exact_h.shape[:-2], dtype=np.int64)
    return payload_errors(designs, links, noise_power, *payload, multiplex)


def _run_multiplex(
    designs: Sequence[DesignStack],
    powers: np.ndarray,
    noise_power: float,
    slots: dict[str, int],
    gamma_th: float,
    payload: _Payload | None = None,
) -> dict[str, SchemeResult]:
    """Shared multiplexing runner: per-slot combine, rotate, sum, detect.

    ``designs`` are the slots in order.  Angle row ``a`` transmits at
    ``powers[a]``.  Each slot's combiner is the activated receive-response
    stack with its columns phase-rotated onto the realized per-stream
    gains, so slot outputs add coherently; stacking m slots leaves
    per-stream noise at ``m * noise_power``.  Links first, then the
    ``payload`` (if any) on them, then each scheme of ``slots`` (scheme ->
    slot count) reads its result off its prefix of the slots.
    """
    links = [_multiplex_slot(design, powers) for design in designs]
    sent, errors = _bit_counts(designs, links, noise_power, payload, True)
    n_streams = designs[0].r_active.shape[-1]
    effective = 0j
    model_amplitude = 0.0
    out = {}
    for n_slots, (design, (_, g, rotation)) in enumerate(zip(designs, links), 1):
        effective += rotation[..., :, None] * g
        model_amplitude += np.abs(design.xi_active)
        readers = [scheme for scheme, count in slots.items() if count == n_slots]
        if not readers:
            continue
        stacked_noise = n_slots * noise_power
        _, logdet = np.linalg.slogdet(
            np.eye(n_streams) + effective @ np.swapaxes(effective.conj(), -1, -2) / stacked_noise
        )
        se = logdet / math.log(2.0) / n_slots
        snr = (
            model_amplitude**2
            * powers[:, None, None]
            / (n_streams * n_slots * noise_power)
        )
        se_model = np.sum(np.log2(1.0 + snr), axis=-1) / n_slots
        outage = snr.min(axis=-1) < gamma_th
        for scheme in readers:
            out[scheme] = _result(errors[n_slots - 1], sent, se, se_model, snr, outage)
    return out


def _run_beamform(
    designs: Sequence[DesignStack],
    powers: np.ndarray,
    noise_power: float,
    slots: dict[str, int],
    gamma_th: float,
    payload: _Payload | None = None,
) -> dict[str, SchemeResult]:
    """Shared beamforming runner: matched-filter stacking across slots.

    ``designs`` are the slots in order.  Angle row ``a`` transmits at
    ``powers[a]``.  Matched filters first, then the ``payload`` (if any) on
    them, then each scheme of ``slots`` (scheme -> slot count) reads its
    result off its prefix of the slots."""
    links = [_beam_combiner(design, powers) for design in designs]
    sent, errors = _bit_counts(designs, links, noise_power, payload, False)
    rows = designs[0].exact_h.shape[:-2]
    n_active = designs[0].t_active.shape[-1]
    row_powers = np.repeat(powers, rows[1])
    exact_power = 0.0
    model_sum = 0.0
    out = {}
    for n_slots, (design, matched) in enumerate(zip(designs, links), 1):
        exact_power += _beam_powers(matched)
        model_sum += np.array([
            s**2 for s in np.abs(design.xi_active).reshape(-1, n_active).sum(axis=-1).tolist()
        ])
        readers = [scheme for scheme, count in slots.items() if count == n_slots]
        if not readers:
            continue
        # The rates take math.log2 row by row: np.log2 may round otherwise.
        se = np.array(list(map(math.log2, (1.0 + exact_power / noise_power).tolist())))
        snr = row_powers * model_sum / (n_active * noise_power)
        se_model = np.array(list(map(math.log2, (1.0 + snr).tolist())))
        for scheme in readers:
            out[scheme] = _result(errors[n_slots - 1], sent, se / n_slots, se_model / n_slots,
                                  snr, snr < gamma_th)
    return out


# Gray-coded QPSK points indexed by 2 * leading bit + trailing bit: the
# leading bit keys the real sign, the trailing bit the imaginary sign.
_QPSK_POINTS = (
    (1.0 - 2.0 * np.array([0, 0, 1, 1])) + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1]))
) / math.sqrt(2.0)


def _qpsk_modulate(
    bits: np.ndarray, index: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """QPSK points of ``bits`` (bit pairs on the second-to-last axis),
    optionally written into the work arrays ``index`` and ``out``."""
    index = np.multiply(bits[..., 0, :], 2, out=index)
    np.add(index, bits[..., 1, :], out=index)
    # The index is always in range; "clip" spares the copy that the default
    # mode makes of an explicit output.
    return np.take(_QPSK_POINTS, index, out=out, mode="clip")


def _bit_errors(observations: np.ndarray, negative: np.ndarray, flips: np.ndarray) -> int:
    """Sign-detection errors against the sent bits as booleans (a set bit
    sends a negative component); valid whenever the effective stream gain
    is real positive.  ``flips`` is boolean work space of the
    observations' shape."""
    np.less(observations.real, 0, out=flips)
    np.not_equal(flips, negative[..., 0, :], out=flips)
    errors = np.count_nonzero(flips)
    np.less(observations.imag, 0, out=flips)
    np.not_equal(flips, negative[..., 1, :], out=flips)
    return int(errors + np.count_nonzero(flips))


def _awgn(
    rng: np.random.Generator, noise_power: float, received: np.ndarray, scratch: np.ndarray
) -> None:
    """Add complex Gaussian noise of power ``noise_power`` to ``received``
    in place.  The real parts are drawn first, then the imaginary parts,
    into ``scratch`` of shape ``(2,) + received.shape``."""
    rng.standard_normal(out=scratch)
    scratch *= math.sqrt(noise_power / 2.0)
    received.real += scratch[0]
    received.imag += scratch[1]


def payload_errors(
    designs: Sequence[DesignStack],
    links: Sequence,
    noise_power: float,
    symbols: int,
    keys: np.ndarray,
    rng: np.random.Generator,
    multiplex: bool,
) -> tuple[int, np.ndarray]:
    """Push Gray-coded QPSK payload through the exact slot channels of a
    block of rows.

    ``designs`` holds each slot's design over (A, F) rows and ``links``
    each slot's transceiver as the runner built it: the precoder, stream
    matrix and rotation of :func:`_multiplex_slot`, or the matched filter
    of :func:`_beam_combiner`.  Row (a, f) draws on Philox key
    ``keys[a, f]``, shape (A, F, 2), with ``rng`` re-keyed to it
    (:func:`rislink.channel.rekey`).

    ``symbols`` channel uses are simulated at once per row; multiplexing
    carries one QPSK symbol per stream per use, beamforming one per use.
    Slot outputs are combined coherently, exactly as in the
    spectral-efficiency runners, and sign-detected after every slot.
    Returns the bits sent per row and the cumulative bit errors, shape
    (slots, A, F): entry ``[m, a, f]`` is what a pass over
    ``designs[:m + 1]`` counts in row (a, f) on the same key,
    because each row draws its bits and then each slot's noise in slot
    order.  The work arrays are allocated once per call; every row
    writes each of them before it reads it.
    """
    if symbols < 1:
        raise ValueError("need at least one symbol")
    if len(links) != len(designs):
        raise ValueError(f"got {len(links)} slot transceivers for {len(designs)} slot designs")
    n_angle, n_fading, n_rx, n_tx = designs[0].exact_h.shape
    if keys.shape != (n_angle, n_fading, 2):
        raise ValueError(f"payload keys of shape {keys.shape} do not match the designs' "
                         f"{n_angle} x {n_fading} rows")
    per_use = (designs[0].r_active.shape[-1], symbols) if multiplex else (symbols,)
    index = np.empty(per_use, dtype=np.int64)
    points = np.empty(per_use, dtype=complex)
    negative = np.empty(per_use[:-1] + (2, symbols), dtype=bool)
    precoded = np.empty((n_tx, symbols), dtype=complex) if multiplex else None
    received = np.empty((n_rx, symbols), dtype=complex)
    noise = np.empty((2, n_rx, symbols))
    projected = np.empty(per_use, dtype=complex)
    rotated = np.empty(per_use, dtype=complex) if multiplex else None
    combined = np.empty(per_use, dtype=complex)
    flips = np.empty(per_use, dtype=bool)
    errors = np.zeros((len(designs), n_angle, n_fading), dtype=np.int64)
    for a, row_keys in enumerate(keys.tolist()):
        for f, key in enumerate(row_keys):
            bits = rekey(rng, key).integers(0, 2, size=negative.shape)
            sent = _qpsk_modulate(bits, index, points)
            np.not_equal(bits, 0, out=negative)
            combined.fill(0)
            for m, (design, link) in enumerate(zip(designs, links)):
                # Complex products keep the operand order and shapes of the
                # plain expressions and never write onto an input: whether
                # numpy fuses a complex multiply-add depends on all three (a
                # 1 x 1 product written in place does not fuse), and fusing
                # moves last bits.
                if multiplex:
                    precoder, _, rotation = link
                    np.matmul(design.exact_h[a, f], np.matmul(precoder[a, 0], sent, out=precoded),
                              out=received)
                    _awgn(rng, noise_power, received, noise)
                    np.matmul(design.r_active[a, 0].conj().T, received, out=projected)
                    combined += np.multiply(rotation[a, f][:, None], projected, out=rotated)
                else:
                    matched = link[a, f]
                    np.outer(matched, sent, out=received)
                    _awgn(rng, noise_power, received, noise)
                    combined += np.matmul(matched.conj(), received, out=projected)
                errors[m, a, f] = _bit_errors(combined, negative, flips)
    return int(negative.size), errors
