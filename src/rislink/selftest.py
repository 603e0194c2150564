"""Fast invariant checks behind the ``selftest`` CLI verb.

Each check is independent, cheap and needs numpy alone (the Ei kernel is
checked against the quadrature of :func:`ei_quadrature`); failures report
the observed value so a broken install is diagnosable without the tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np

from . import analysis
from .channel import (
    RIS_RX,
    TX_RIS,
    HopStack,
    _response_matrix,
    composite,
    draw_angle_epochs,
    draw_fading_gains,
)
from .config import SystemConfig, receiver_losses, surface_geometry
from .customize import (
    FAMILIES,
    SearchTerms,
    _bounded_minima,
    _candidate_gram,
    _head_prefixes,
    _slab_objective,
    design_slots,
    select_paths_stack,
)
from .errors import NoCrossingError, RislinkError
from .montecarlo import (
    TrialPlan,
    _angle_errors,
    _philox,
    _stream_keys,
    _stream_pools,
    estimate_ergodic_se,
    substream,
)
from .transceive import DEFAULT_OUTAGE_THRESHOLD, _run_beamform, _run_multiplex


def _draw_scene(config, seed=7, n_fading=1) -> HopStack:
    """One angle epoch and ``n_fading`` fading epochs of the engine's
    draws, a stack of that many rows: the angles on substream ``(seed,
    0)``, fading epoch ``f``'s gains on ``(seed, 0, 1 + f)``."""
    keys = _stream_keys(_stream_pools(seed, [(0,)]), [(), *((1 + f,) for f in range(n_fading))])
    rng = _philox(keys[0, 0])
    angles, los_gains = draw_angle_epochs(config, surface_geometry(config), keys[:, 0], rng)
    tx_gains, rx_gains = draw_fading_gains(config, angles["n_elements"], los_gains, keys[:, 1:],
                                           rng)
    return HopStack(tx_gains=tx_gains, rx_gains=rx_gains, **angles)


def row_states(draw, rows) -> list[str]:
    """The stream state that each row's draws leave, as the exact ``repr``
    of its Philox state: ``draw(row, rng)`` draws ``row`` alone, re-keying
    the fresh generator ``rng`` to it.  A draw of a block of rows re-keys
    one generator, which keeps only the last row's state."""
    states = []
    for row in rows:
        rng = substream(0)
        draw(row, rng)
        states.append(repr(rng.bit_generator.state))
    return states


def hop_matrix(hops: HopStack, link: str, k: int, a: int = 0, f: int = 0) -> np.ndarray:
    """Dense oracle of one hop: surface ``k``'s transmitter-to-surface
    (``link`` ``TX_RIS``, elements by transmit antennas) or
    surface-to-receiver (``RIS_RX``, receive antennas by elements) matrix
    in row (a, f) of a stack, as a sum of rank-one path terms."""
    n_s = int(hops.n_elements[a, k])
    if link == TX_RIS:
        n_out, n_in, out_freqs, in_freqs = n_s, hops.n_tx, hops.tx_arrival, hops.tx_departure
        gains = hops.tx_gains
    else:
        n_out, n_in, out_freqs, in_freqs = hops.n_rx, n_s, hops.rx_arrival, hops.rx_departure
        gains = hops.rx_gains
    a_out = _response_matrix(n_out, out_freqs[a, k]) * gains[a, f, k]
    return a_out @ _response_matrix(n_in, in_freqs[a, k]).conj().T


def phase_profile(n_elements: int, slope: float, common: float = 0.0) -> np.ndarray:
    """Reflection coefficients of a linear profile: element ``i`` applies
    ``i * slope + common`` radians."""
    return np.exp(1j * (slope * np.arange(n_elements, dtype=float) + common))


def dense_composite(hops: HopStack, slopes, commons, a: int = 0, f: int = 0) -> np.ndarray:
    """Dense oracle of row (a, f)'s end-to-end matrix under linear profiles,
    with slopes (A, K) and common phases (A, F or 1, K) as
    :func:`rislink.channel.composite` takes them: ``sum_k loss_k *
    H_rx_k @ diag(gamma_k) @ H_tx_k`` with every surface element
    materialized.  The simulator never builds it; tests and these checks
    compare against it."""
    commons = commons[:, f if commons.shape[1] > 1 else 0]
    return sum(
        hops.losses[a, k] * (hop_matrix(hops, RIS_RX, k, a, f)
                             * phase_profile(int(n_s), slopes[a, k], commons[a, k]))
        @ hop_matrix(hops, TX_RIS, k, a, f)
        for k, n_s in enumerate(hops.n_elements[a])
    )


def select_one(candidates, n_rx, scheme, n_slots=1):
    """:func:`select_paths_stack` for the family of ``scheme`` on one angle
    epoch's candidates, shape (n_ris, n_paths): a stack of one."""
    family = next((f for f, members in FAMILIES.items() if scheme in members), scheme)
    return select_paths_stack(np.asarray(candidates)[None], n_rx, {family: n_slots})[family]


def design_one(selection, estimate: HopStack, slot=0, refine=False, exact: HopStack | None = None):
    """:func:`design_slots` for one angle epoch's selection on a stack of
    that angle epoch as the designer knows it; ``exact`` realizes the
    channel on other hops.  Gains stacked over F fading epochs give F
    rows.  Returns the design, slopes and common phases."""
    return design_slots(selection, slot, estimate, estimate if exact is None else exact, refine)


def evaluated_crossing_point(params) -> float:
    """Oracle of :func:`analysis.crossing_point`: the same doubling bracket
    and bisection with the sign of the gap evaluated at every point.  The
    solver must return its root repr-equal, or raise the same error."""
    coeffs, rhs = analysis._crossing_polynomial(params)
    terms = tuple(enumerate(coeffs, start=1))

    def gap(x: float) -> float:
        return sum([c * x**n for n, c in terms]) - rhs

    hi = 1.0
    try:
        while not gap(hi) > 0:
            hi *= 2.0
            if hi == math.inf:
                raise OverflowError
    except OverflowError:
        raise NoCrossingError("bounds do not cross at a representable power") from None
    lo = 0.0
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return analysis._crossing_watts(params, 0.5 * (lo + hi))


def ei_quadrature(x) -> np.ndarray:
    """Oracle of :func:`analysis.exp_integral_ei`: Ei(x) = -E1(-x), E1(z) the
    integral of exp(-e^v) over [ln z, 6.7] (A&S 5.1.1, t = e^v; exp(-e^6.7)
    underflows to 0) by 200-node Gauss-Legendre, in one array product."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    lower = np.log(-np.asarray(x, dtype=float))
    half = 0.5 * (6.7 - lower)
    v = np.multiply.outer(half, nodes + 1.0) + lower[..., None]
    return -half * (np.exp(-np.exp(v)) @ weights)


def _check_geometry() -> str:
    config = SystemConfig()
    centre = np.array([config.rx_center_distance, 0.0])
    counts = tuple(receiver_losses(config, surface_geometry(config), centre)[1].tolist())
    expected = (211, 174, 174, 211)
    assert counts == expected, f"element counts {counts} != {expected}"
    return f"counts {counts}"


def _check_kernel_assembly() -> str:
    config = SystemConfig()
    hops = _draw_scene(config, seed=13)
    selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
    _, aligned_slopes, aligned_commons = design_one(selection, hops)
    # Slopes (1, K) and common phases (1, 1, K) of a stack of one.
    zeros = np.zeros((1, 1, config.n_ris))
    slopes, commons = substream(13, 1).uniform(-np.pi, np.pi, (2, 1, 1, config.n_ris))
    profiles = {
        "aligned": (aligned_slopes, aligned_commons),
        "neutral": (zeros[0], zeros),
        "random": (slopes[0], commons),
    }
    worst = 0.0
    for name, (slope, common) in profiles.items():
        kernel = composite(hops, slope, common)[0, 0]
        dense = dense_composite(hops, slope, common)
        rel = float(np.linalg.norm(kernel - dense) / np.linalg.norm(dense))
        assert rel <= 1e-12, f"{name} profile: kernel vs dense residual {rel:.3e}"
        worst = max(worst, rel)
    sizes = sorted(set(hops.n_elements[0].tolist()))
    return f"residual {worst:.2e} at {sizes} elements"


def _check_alignment() -> str:
    n = 167
    rng = substream(3, 0)
    dep, arr = np.pi * (2 * rng.random(2) - 1)
    a_dep, a_arr = _response_matrix(n, [dep, arr]).T
    gain = abs(np.vdot(a_dep, phase_profile(n, dep - arr) * a_arr))
    assert abs(gain - 1.0) < 1e-9, f"aligned gain {gain}"
    return f"aligned gain {float(gain):.12f}"


def _check_exp_integral() -> str:
    scalars = (-0.06875, -1.0, -5.5, -30.0)
    # One array call across the series/continued-fraction cutoff at -6.
    grid = -np.logspace(-8.0, math.log10(700.0), 241)
    oracle = ei_quadrature(np.concatenate([scalars, grid]))
    for x, reference in zip(scalars, oracle):
        ours = analysis.exp_integral_ei(x)
        assert abs(ours - reference) < 1e-10, f"Ei({x}) = {ours} vs {reference}"
    worst = float(np.max(np.abs(analysis.exp_integral_ei(grid) - oracle[len(scalars):])))
    assert worst < 1e-12, f"array Ei off the quadrature by {worst:.3e}"
    return f"matches the quadrature at 4 points and on {grid.size} to {worst:.1e}"


def _check_selection() -> str:
    from itertools import combinations

    config = SystemConfig(n_ris=3, n_rx=2, n_ris_rx_paths=3)
    freqs = _draw_scene(config, seed=5).rx_arrival[0]
    selection = select_one(freqs, config.n_rx, "sm")

    def objective(pairs):
        cols = _response_matrix(config.n_rx, [freqs[k, l] for k, l in pairs])
        return float(np.linalg.norm(cols.conj().T @ cols - np.eye(config.n_rx)) ** 2)

    flat = [(k, l) for k in range(config.n_ris) for l in range(config.n_ris_rx_paths)]
    best = min(
        (pairs for pairs in combinations(flat, config.n_rx)
         if len({k for k, _ in pairs}) == config.n_rx),
        key=objective,
    )
    got = tuple(zip(selection.active[0].tolist(), selection.paths[0, 0].tolist()))
    assert math.isclose(objective(got), objective(best), rel_tol=1e-12), (got, best)
    return f"pairs {got}"


def _check_bounded_search() -> str:
    config = SystemConfig(n_ris_rx_paths=20)
    candidates = np.array([_draw_scene(config, seed).rx_arrival[0] for seed in (17, 19, 23)])
    terms = SearchTerms(_candidate_gram(candidates, config.n_rx))
    groups = [np.arange(20) + 20 * k for k in range(config.n_ris)]
    evaluated = []
    for target in (0.0, 1.0):
        unary, pairs = terms.gather([(groups, target)])
        found, counts = _bounded_minima(unary, pairs)
        heads = _head_prefixes(unary)
        for r, bounded in enumerate(found):
            every_slab = np.full(len(heads[0]), r)
            objective = _slab_objective(unary, pairs, every_slab, heads).reshape(-1)
            k = int(np.argmin(objective))
            unpruned = (float(objective[k]), k)
            assert repr(bounded) == repr(unpruned), f"target {target}: {bounded} != {unpruned}"
        evaluated.append(counts.tolist())
    return (
        f"sm, bf targets evaluate {evaluated[0]}, {evaluated[1]} of {len(heads[0])} "
        "prefixes per row"
    )


# sha256 of the draws that ``_check_draws`` makes, as they were frozen;
# any change to the draw order or arithmetic moves it.
_DRAWS_DIGEST = "addf73cd5d2598b9dfaa28878b9182dd89a430adb653d8c39746f3268590308a"


def _check_draws() -> str:
    # Two angle epochs of the default config with angle error, two fading
    # epochs each, and the stream state each epoch's draws leave.
    config = SystemConfig(angle_error_std=0.05)
    surfaces = surface_geometry(config)
    keys = _stream_keys(_stream_pools(29, [(0,), (1,)]), [(), (1,), (2, 0), (2, 1)])
    rng = _philox(keys[0, 0])
    angles, los_gains = draw_angle_epochs(config, surfaces, keys[:, 0], rng)
    arrays = [angles[name] for name in ("tx_arrival", "tx_departure", "rx_arrival",
                                        "rx_departure", "n_elements", "losses")] + [los_gains]
    arrivals, departures = angles["rx_arrival"], angles["rx_departure"]
    errors = _angle_errors(config.angle_error_std, arrivals, departures, keys[:, 1], rng)
    arrays.extend(estimate[a] for a in range(2) for estimate in errors)
    n_elements = angles["n_elements"]
    arrays.extend(draw_fading_gains(config, n_elements, los_gains, keys[:, 2:], rng))
    states = row_states(
        lambda a, rng: draw_angle_epochs(config, surfaces, keys[a:a + 1, 0], rng), range(2))
    states += row_states(lambda a, rng: _angle_errors(
        config.angle_error_std, arrivals[a:a + 1], departures[a:a + 1], keys[a:a + 1, 1], rng,
    ), range(2))
    states += row_states(lambda af, rng: draw_fading_gains(
        config, n_elements[af[0]:af[0] + 1], los_gains[af[0]:af[0] + 1],
        keys[af[0]:af[0] + 1, 2 + af[1]:3 + af[1]], rng,
    ), np.ndindex(2, 2))
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
    for state in states:
        # The state holds arrays, whose repr is exact at these sizes.
        digest.update(state.encode())
    assert digest.hexdigest() == _DRAWS_DIGEST, (
        f"draw digest {digest.hexdigest()} != pinned {_DRAWS_DIGEST}"
    )
    return f"{len(arrays)} arrays and {len(states)} stream states match the pinned digest"


def _check_substreams() -> str:
    # Keys of 0-5 integers of up to three words on seeds of up to six, drawn
    # by numpy's default generator, against SeedSequence's Philox states.
    rng = np.random.default_rng(41)
    for j in range(64):
        seed = int(rng.integers(0, 2**63)) << (32 * (j % 5))
        key = [int(rng.integers(0, 2**63)) >> int(rng.integers(0, 64)) << 32 * int(rng.integers(3))
               for _ in range(j % 6)]
        ours = substream(seed, *key).bit_generator.state
        oracle = np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)).state
        assert repr(ours) == repr(oracle), f"seed {seed}, key {key}: {ours} != {oracle}"
    # A chunk's keys in blocks, as the engine derives them: rows and tails
    # whose words reach 2^32 and past, so tails of one, two and three
    # words each take their own pass.
    rows = [(0, 3), (1, 2**32 + 1), (2**40, 7)]
    tails = [(1,), (3,), (0, 2), (2**32 + 9, 2), (5, 4), (2**33, 4)]
    blocks = 0
    for seed in (7, 2**64 + 5, 2**130 + 3):
        keys = _stream_keys(_stream_pools(seed, rows), tails)
        for r, row in enumerate(rows):
            for t, tail in enumerate(tails):
                sequence = np.random.SeedSequence(seed, spawn_key=row + tail)
                oracle = sequence.generate_state(2, np.uint64)
                assert keys[r, t].tolist() == oracle.tolist(), (
                    f"seed {seed}, key {row + tail}: block key {keys[r, t]} != {oracle}")
                blocks += 1
    return (f"64 keys on seeds of up to 191 bits and {blocks} block keys of a chunk match "
            "SeedSequence's Philox keys")


def _outcome(solver, params) -> str:
    """The repr of the solver's root, or the name of the error it raised."""
    try:
        return repr(solver(params))
    except (RislinkError, ValueError) as exc:
        return type(exc).__name__


def _check_crossing_replay() -> str:
    rng = substream(31, 0)
    sets = []
    for j in range(140):
        n_rx = 2 + j % 7
        n_ris = int(rng.integers(n_rx, n_rx + 4))
        sets.append(analysis.ClosedFormParams(
            transmit_power=float(rng.uniform(0.01, 10.0)),
            noise_power=float(10.0 ** rng.uniform(-14.0, -11.0)),
            rician_factor=float(rng.uniform(0.1, 100.0)),
            n_tx=int(rng.integers(n_rx, 65)), n_rx=n_rx, n_ris=n_ris,
            n_ris_rx_paths=int(rng.integers(1, 33)),
            gain_profile=1e-6 * rng.uniform(0.6, 1.4, size=n_ris),
        ))
    # Extreme scaling: the root lies beyond the largest float.
    sets.append(replace(sets[0], n_ris=4, gain_profile=np.array([1e-80, 1e-80, 1.0, 1.0])))
    for params in sets:
        ours = _outcome(analysis.crossing_point, params)
        oracle = _outcome(evaluated_crossing_point, params)
        assert ours == oracle, f"n_rx {params.n_rx}: {ours} != evaluated {oracle}"
    return f"{len(sets)} sets match the evaluated bisection"


def _check_power_and_run() -> str:
    config = SystemConfig(n_ris=2, n_rx=2, n_ris_rx_paths=4, n_nlos_tx_paths=1)
    hops = _draw_scene(config, seed=9)
    design = design_one(select_one(hops.rx_arrival[0], config.n_rx, "sm"), hops)[0]
    result = _run_multiplex([design], np.array([config.transmit_power]), config.noise_power,
                            {"sm": 1}, DEFAULT_OUTAGE_THRESHOLD)["sm"]
    assert result.se_bits_per_hz.item() > 0, "non-positive spectral efficiency"
    assert np.isfinite(result.se_model_bits_per_hz.item())
    return f"sm SE {result.se_bits_per_hz.item():.3f} bits/s/Hz"


def _check_payload() -> str:
    config = SystemConfig(n_ris=2, n_rx=2, n_ris_rx_paths=4, n_nlos_tx_paths=1,
                          transmit_power=1e-2)
    hops = _draw_scene(config, seed=9, n_fading=3)
    # The middle row is drowned: the last row follows an error-heavy row.
    drown = np.array([1.0, 1e-3, 1.0])[None, :, None, None]
    counts = []
    for multiplex, scheme in ((True, "sm"), (False, "bf")):
        run = _run_multiplex if multiplex else _run_beamform
        selection = select_one(hops.rx_arrival[0], config.n_rx, scheme)
        design = design_one(selection, hops, refine=not multiplex)[0]
        design = replace(design, exact_h=design.exact_h * drown)

        def counts_and_state(rows, cells):
            # Bit errors and bits sent per row, row f on key (37, family,
            # f), and the stream state that the last row leaves.
            keys = _stream_keys(_stream_pools(37, [(int(multiplex),)]), [(f,) for f in cells])
            rng = _philox(keys[0, 0])
            result = run([rows], np.array([config.transmit_power]), config.noise_power,
                         {scheme: 1}, DEFAULT_OUTAGE_THRESHOLD, (500, keys, rng))
            return (result[scheme].bit_errors[0].tolist(), result[scheme].bits_sent[0].tolist(),
                    repr(rng.bit_generator.state))

        block = counts_and_state(design, range(3))
        alone = [
            counts_and_state(replace(design, xi_active=design.xi_active[:, f:f + 1],
                                     exact_h=design.exact_h[:, f:f + 1]), [f])
            for f in range(3)
        ]
        rows_alone = tuple(sum(parts, []) for parts in zip(*(row[:2] for row in alone)))
        assert block == (*rows_alone, alone[-1][2]), (
            f"{scheme} block {block[0]} != rows alone {[row[0] for row in alone]}"
        )
        counts.append(f"{'/'.join(map(str, block[0]))} of {block[1][0]}")
    return f"sm, bf errors {', '.join(counts)} bits per row equal as a block and row by row"


def _check_determinism() -> str:
    config = SystemConfig(n_ris=2, n_rx=2, n_ris_rx_paths=4)
    plan = TrialPlan(axis_name="E_dBm", axis_values=(20.0,), schemes=("sm",),
                     n_angle_epochs=2, n_fading_epochs=2, base_seed=77)
    one = estimate_ergodic_se(plan, config)
    two = estimate_ergodic_se(plan, config)
    assert one.means == two.means, (one.means, two.means)
    return f"mean {one.means['sm'][0]:.6f} on two runs"


_CHECKS = (
    ("geometry", _check_geometry),
    ("kernel-assembly", _check_kernel_assembly),
    ("phase-alignment", _check_alignment),
    ("exp-integral", _check_exp_integral),
    ("path-selection", _check_selection),
    ("bounded-search", _check_bounded_search),
    ("substreams", _check_substreams),
    ("draws", _check_draws),
    ("crossing-replay", _check_crossing_replay),
    ("transceive", _check_power_and_run),
    ("payload", _check_payload),
    ("determinism", _check_determinism),
)


def run() -> int:
    failures = 0
    for name, check in _CHECKS:
        try:
            detail = check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - selftest must report, not crash
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
    if failures:
        print(f"{failures} of {len(_CHECKS)} checks failed")
        return 1
    print(f"all {len(_CHECKS)} checks passed")
    return 0
