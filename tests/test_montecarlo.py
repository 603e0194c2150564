"""Sweep engine: seeding, axis handling, estimators, and statistics."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rislink as rl
import rislink.montecarlo as mc
from rislink import cli, transceive
from rislink.channel import (
    HopStack,
    draw_angle_epochs,
    draw_fading_gains,
    rekey,
)
from rislink.config import surface_geometry
from rislink.errors import ConfigurationError
from rislink.selftest import design_one, select_one

from conftest import (
    BASE_SEED,
    _complex_normal,
    assert_same_columns,
    key_of,
    result_rows,
    row_powers,
    slot_links,
    small_config,
    streams,
)


def _plan(**overrides) -> rl.TrialPlan:
    defaults = dict(
        axis_name="E_dBm", axis_values=(20.0,), schemes=("sm",),
        n_angle_epochs=4, n_fading_epochs=3, base_seed=BASE_SEED,
    )
    defaults.update(overrides)
    return rl.TrialPlan(**defaults)


class TestSubstreams:
    def test_deterministic(self):
        a = rl.substream(7, 1, 2).standard_normal(8)
        b = rl.substream(7, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = rl.substream(7, 1, 2).standard_normal(8)
        b = rl.substream(7, 1, 3).standard_normal(8)
        c = rl.substream(8, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _seed_sequence_cases(count: int):
    """Seeds and keys of 0-5 integers, each of 1 to 200 bits, so that seeds
    and key integers reach 2^32, 2^64 and 2^128 (a seed of 2^128 or more
    takes SeedSequence's extra-entropy branch); every third case extends an
    earlier one's key, so cached prefixes are reused.  Drawn from numpy's
    default generator, which does not go through ``substream``."""
    rng = np.random.default_rng(20240617)

    def integer() -> int:
        return int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63)) << int(rng.integers(0, 138))

    cases = []
    for j in range(count):
        if j % 3 == 2:
            seed, key = cases[int(rng.integers(len(cases)))]
            cases.append((seed, key + (integer(),)))
        else:
            cases.append((integer(), tuple(integer() for _ in range(int(rng.integers(0, 6))))))
    return cases


class TestSubstreamKeys:
    """``substream`` hashes its key into numpy's pool of the seed itself;
    key, state and draws must be those of ``Philox(SeedSequence(seed,
    spawn_key=key))``."""

    def test_keys_and_draws_match_seed_sequence(self):
        cases = _seed_sequence_cases(600)
        sizes = [max((seed, *key)).bit_length() for seed, key in cases]
        assert max(seed for seed, _ in cases) >= 2**128 and max(sizes) > 160
        assert {min(len(key), 5) for _, key in cases} == set(range(6))
        for seed, key in cases:
            ours = rl.substream(seed, *key)
            sequence = np.random.SeedSequence(seed, spawn_key=key)
            oracle = np.random.Generator(np.random.Philox(sequence))
            assert np.array_equal(key_of(ours), sequence.generate_state(2, np.uint64)), (seed, key)
            assert repr(ours.bit_generator.state) == repr(oracle.bit_generator.state)
            assert ours.standard_normal(7).tobytes() == oracle.standard_normal(7).tobytes()
            assert ours.integers(0, 2**64, 3, dtype=np.uint64).tobytes() == \
                oracle.integers(0, 2**64, 3, dtype=np.uint64).tobytes()

    @pytest.mark.parametrize("seed, key", [
        (-1, ()), (-(2**70), (3,)), (5, (-1,)), (2**130, (2, -3)), (5, (1, 2, -(2**64))),
        (1.5, ()), (2.0, (1,)), (5, (1.5,)), (5, (2.0,)), (5, (np.float64(3.0),)),
    ])
    def test_bad_inputs_raise_like_seed_sequence(self, seed, key):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence(seed, spawn_key=key)
        with pytest.raises(expected.type):
            rl.substream(seed, *key)


# The engine's key shapes: each chunk row's (grid index, angle epoch)
# prefix, and the tails of its angle, angle-error, fading and payload
# substreams, with key words of one, two and three 32-bit words.
_BLOCK_ROWS = [(0, 0), (3, 2**32 + 7), (2**40 + 1, 5)]
_FADING_INDICES = [0, 9, 2**32 + 3, 2**64 + 1]
_ENGINE_TAILS = [(mc._ANGLES,), (mc._MISMATCH,)] + [
    (f, purpose) for purpose in (mc._FADING, mc._PAYLOAD) for f in _FADING_INDICES
]


class TestBlockKeys:
    """The engine derives a chunk's Philox keys in array passes and re-keys
    one generator before each row; every prefix pool, key, and re-keyed
    row's draws must be those of numpy's ``SeedSequence`` for that cell."""

    @pytest.mark.parametrize("seed", [BASE_SEED, 2**64 + 11, 2**128 + 5])
    def test_block_keys_equal_substream_keys(self, seed):
        pools = mc._stream_pools(seed, _BLOCK_ROWS)
        for r, row in enumerate(_BLOCK_ROWS):
            expected = np.random.SeedSequence(seed, spawn_key=row).pool
            assert pools[0][r].tolist() == expected.tolist(), row
        # All tails in one call, so tails of different word counts meet in
        # one block, and each purpose's tails alone, as the engine asks.
        blocks = [(_ENGINE_TAILS, mc._stream_keys(pools, _ENGINE_TAILS))]
        blocks += [([tail], mc._stream_keys(pools, [tail])) for tail in _ENGINE_TAILS[:2]]
        blocks += [(tails, mc._stream_keys(pools, tails))
                   for tails in (_ENGINE_TAILS[2:6], _ENGINE_TAILS[6:])]
        for tails, keys in blocks:
            assert keys.shape == (len(_BLOCK_ROWS), len(tails), 2) and keys.dtype == np.uint64
            for r, row in enumerate(_BLOCK_ROWS):
                for t, tail in enumerate(tails):
                    sequence = np.random.SeedSequence(seed, spawn_key=row + tail)
                    expected = sequence.generate_state(2, np.uint64)
                    assert keys[r, t].tolist() == expected.tolist(), (row, tail)

    @pytest.mark.parametrize("seed", [BASE_SEED, 2**64 + 11, 2**128 + 5])
    def test_rekeyed_rows_draw_as_fresh_substreams(self, seed):
        # Each row leaves Philox partway through its buffer (three doubles
        # of a four-word block) and with a stored 32-bit half (five bits),
        # so a re-key that kept either would shift the next row's draws.
        keys = mc._stream_keys(mc._stream_pools(seed, _BLOCK_ROWS), _ENGINE_TAILS)
        rng = rl.substream(0)
        for row, row_keys in zip(_BLOCK_ROWS, keys):
            for tail, key in zip(_ENGINE_TAILS, row_keys):
                sequence = np.random.SeedSequence(seed, spawn_key=row + tail)
                fresh = np.random.Generator(np.random.Philox(sequence))
                rekey(rng, key.tolist())
                for draw in (lambda g: g.random(3), lambda g: g.integers(0, 2, 5),
                             lambda g: g.standard_normal(3)):
                    assert draw(rng).tobytes() == draw(fresh).tobytes(), (row, tail)
                assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
                assert rng.bit_generator.state["has_uint32"] == 1

    def test_philox_needs_no_earlier_seed(self):
        # A fresh process builds a generator on a key before any seed is
        # hashed, as a draw handed only its keys does.
        code = ("import numpy as np; from rislink.montecarlo import _philox; "
                "print(_philox(np.array([1, 2], dtype=np.uint64)).bit_generator.state)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120,
                              env={**os.environ, "PYTHONPATH": str(Path(mc.__file__).parents[1])})
        assert done.returncode == 0, done.stderr
        expected = np.random.Philox(key=[1, 2], counter=0).state
        assert done.stdout.strip() == str(expected)


class TestFadingStatistics:
    def test_unit_variance_complex_gaussian(self):
        rng = rl.substream(BASE_SEED, 110)
        samples = _complex_normal(rng, 200_000)
        power = np.abs(samples) ** 2
        assert abs(power.mean() - 1.0) < 0.01
        assert abs(samples.mean()) < 0.01

    def test_independent_magnitude_product_mean(self):
        # E|conj(b1) b2| = (E|b|)^2 = pi/4 for independent unit-variance
        # circular Gaussians.
        rng = rl.substream(BASE_SEED, 111)
        pairs = _complex_normal(rng, (2, 1_000_000))
        values = np.abs(np.conj(pairs[0]) * pairs[1])
        assert abs(values.mean() / (math.pi / 4.0) - 1.0) < 0.01

    def test_scaled_power_is_chi_square_two(self):
        rng = rl.substream(BASE_SEED, 112)
        samples = np.abs(math.sqrt(2.0) * _complex_normal(rng, 100_000)) ** 2
        result = stats.kstest(samples, "chi2", args=(2,))
        assert result.pvalue > 0.01


class TestAngleErrorInjection:
    def _angles(self):
        config = rl.SystemConfig()
        angles, _ = draw_angle_epochs(config, surface_geometry(config),
                                      *streams(BASE_SEED, [(113,)]))
        return angles["rx_arrival"], angles["rx_departure"]

    def test_zero_sigma_is_identity(self):
        arrivals, departures = self._angles()
        got = mc._angle_errors(0.0, arrivals, departures, *streams(BASE_SEED, [(116,)]))
        assert [g.tobytes() for g in got] == [arrivals.tobytes(), departures.tobytes()]

    def test_transmit_hop_never_perturbed(self):
        # The error draw holds two normals per receive-side path and none
        # for the transmit side, whose geometry is known exactly.
        arrivals, departures = self._angles()
        rng, replay = rl.substream(BASE_SEED, 117), rl.substream(BASE_SEED, 117)
        mc._angle_errors(0.3, arrivals, departures, key_of(rng)[None], rng)
        replay.standard_normal(2 * arrivals.size)
        assert repr(rng.bit_generator.state) == repr(replay.bit_generator.state)

    def test_perturbs_frequencies_not_gains(self):
        arrivals, departures = self._angles()
        sigma = 0.05
        perturbed = mc._angle_errors(sigma, arrivals, departures, *streams(BASE_SEED, [(118,)]))
        assert not np.array_equal(perturbed[0], arrivals)
        assert not np.array_equal(perturbed[1], departures)
        # Additive real Gaussian on the spatial frequencies, so offsets
        # stay small at this sigma.
        assert np.max(np.abs(perturbed[0] - arrivals)) < 6.0 * sigma

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            rl.SystemConfig(angle_error_std=-0.1)
        with pytest.raises(ConfigurationError):
            rl.apply_axis(rl.SystemConfig(), "sigma_e", -0.1)


class TestPlanValidation:
    @pytest.mark.parametrize("overrides", [
        dict(axis_name="bogus"),
        dict(axis_values=()),
        dict(axis_values=(10.0, 0.0)),
        dict(schemes=()),
        dict(schemes=("xx",)),
        dict(n_angle_epochs=0),
        dict(n_fading_epochs=0),
        dict(schemes=("sm", "sm")),
        dict(gamma_th=-1.0),
        dict(base_seed=-1),
        dict(axis_values=(1e15, 1e15, 1.000000000000000125e15)),
        dict(gamma_th=math.nan),
        dict(gamma_th=math.inf),
    ])
    def test_rejects_bad_plans(self, overrides):
        with pytest.raises(ConfigurationError):
            _plan(**overrides)

    @pytest.mark.parametrize("name, value", [
        ("n_angle_epochs", 2.5), ("n_fading_epochs", 3.0), ("base_seed", 3.0),
        ("base_seed", "3"), ("n_angle_epochs", None),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            _plan(**{name: value})

    def test_numpy_integers_stored_as_int(self):
        # A numpy seed used to fail deep in the key derivation.
        plan = _plan(n_angle_epochs=np.int64(2), n_fading_epochs=np.int32(2),
                     base_seed=np.uint64(3))
        for name in ("n_angle_epochs", "n_fading_epochs", "base_seed"):
            assert type(getattr(plan, name)) is int
        plain = _plan(n_angle_epochs=2, n_fading_epochs=2, base_seed=3)
        assert plan == plain
        config = rl.SystemConfig()
        assert rl.estimate_ergodic_se(plan, config) == rl.estimate_ergodic_se(plain, config)

    @pytest.mark.parametrize("estimate", [rl.estimate_ergodic_se, rl.estimate_outage,
                                          rl.estimate_ber])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected_without_warning(self, estimate, value):
        # A power grid builds no config per point, so the plan itself checks
        # that the grid is finite, before numpy sees a value.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="must be finite"):
                estimate(_plan(axis_values=(0.0, value)), rl.SystemConfig())

    def test_array_grid_stored_as_float_tuple(self):
        # A numpy grid of two or more values used to fail on its truth value.
        plan = _plan(axis_values=np.array([0.0, 20.0]), schemes=["sm", "bf"])
        plain = _plan(axis_values=(0.0, 20.0), schemes=("sm", "bf"))
        assert type(plan.axis_values) is tuple and type(plan.schemes) is tuple
        assert all(type(v) is float for v in plan.axis_values)
        assert plan == plain
        config = rl.SystemConfig()
        assert cli.format_csv(rl.estimate_ergodic_se(plan, config)) == \
            cli.format_csv(rl.estimate_ergodic_se(plain, config))

    def test_integer_axes_reject_fractions(self):
        plan = _plan(axis_name="K", axis_values=(4.2,))
        with pytest.raises(ConfigurationError):
            rl.estimate_ergodic_se(plan, rl.SystemConfig())

    @pytest.mark.parametrize("axis", ["L_R", "L_T", "M_R", "N_T", "N_R", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_integer_axes_reject_non_finite(self, axis, value):
        with pytest.raises(ConfigurationError):
            rl.apply_axis(rl.SystemConfig(), axis, value)

    @pytest.mark.parametrize("axis", ["E_dBm", "kappa_dB"])
    def test_axis_overflow_is_a_configuration_error(self, axis):
        with pytest.raises(ConfigurationError, match="out of range"):
            rl.apply_axis(rl.SystemConfig(), axis, 4000.0)

    def test_axis_names_cover_all_sweeps(self):
        assert mc.AXIS_NAMES == (
            "E_dBm", "kappa_dB", "L_R", "L_T", "M_R",
            "N_T", "N_R", "K", "C", "sigma_e",
        )

    def test_axis_application(self):
        config = rl.SystemConfig()
        cases = [
            ("E_dBm", 30.0, "transmit_power", 1.0),
            ("kappa_dB", 10.0, "rician_factor", 10.0),
            ("L_R", 5.0, "n_ris_rx_paths", 5),
            ("L_T", 3.0, "n_nlos_tx_paths", 3),
            ("M_R", 2.0, "n_slots", 2),
            ("N_T", 32.0, "n_tx", 32),
            ("N_R", 2.0, "n_rx", 2),
            ("K", 6.0, "n_ris", 6),
            ("C", 2e-6, "gain_target", 2e-6),
            ("sigma_e", 0.05, "angle_error_std", 0.05),
        ]
        for axis, value, field, expected in cases:
            plan = _plan(axis_name=axis, axis_values=(value,))
            applied = mc.apply_axis(config, axis, value)
            got = getattr(applied, field)
            assert got == expected and type(got) is type(expected)


def _one_point_chunk(config, schemes, grid_index, angle_indices, n_fading_epochs, base_seed,
                     gamma_th, payload_symbols=None):
    """A chunk of one grid point's angle epochs through the chunk engine:
    each scheme's columns over its (angle epoch, fading epoch) rows."""
    return mc._run_chunk(config, surface_geometry(config), schemes,
                         [(grid_index, a) for a in angle_indices],
                         np.full(len(angle_indices), config.transmit_power), n_fading_epochs,
                         base_seed, gamma_th, payload_symbols)


def _angle_epoch(config, schemes, grid_index, epoch_index, n_fading_epochs, base_seed, gamma_th,
                 payload_symbols=None):
    """One angle epoch through the chunk engine: a chunk of one angle epoch."""
    return _one_point_chunk(config, schemes, grid_index, range(epoch_index, epoch_index + 1),
                            n_fading_epochs, base_seed, gamma_th, payload_symbols)


def _joined(parts, axis):
    """Column results of consecutive row blocks, concatenated along ``axis``."""
    return transceive.SchemeResult(*(
        np.concatenate([getattr(part, f.name) for part in parts], axis=axis)
        for f in dataclasses.fields(transceive.SchemeResult)
    ))


def _per_epoch_oracle(config, schemes, grid_index, epoch_index, n_fading_epochs, base_seed,
                      gamma_th, payload_symbols=None):
    """The engine one fading epoch at a time: design and run every epoch
    on a stack of one row, every scheme with its own selection and designs.
    Returns each scheme's columns over the angle epoch's (1, F) rows."""
    angles, los_gains = draw_angle_epochs(
        config, surface_geometry(config),
        *streams(base_seed, [(grid_index, epoch_index, mc._ANGLES)]),
    )
    estimated = {}
    if config.angle_error_std > 0:
        arrivals, departures = mc._angle_errors(
            config.angle_error_std, angles["rx_arrival"], angles["rx_departure"],
            *streams(base_seed, [(grid_index, epoch_index, mc._MISMATCH)]),
        )
        estimated = dict(rx_arrival=arrivals, rx_departure=departures)
    candidates = estimated.get("rx_arrival", angles["rx_arrival"])[0]
    selections = {
        scheme: select_one(candidates, config.n_rx, scheme,
                           config.n_slots if scheme in ("ds", "db") else 1)
        for scheme in schemes
    }
    out = {scheme: [] for scheme in schemes}
    for fading_index in range(n_fading_epochs):
        fading_cell = (grid_index, epoch_index, fading_index, mc._FADING)
        tx_gains, rx_gains = draw_fading_gains(config, angles["n_elements"], los_gains,
                                               *streams(base_seed, [[fading_cell]]))
        exact = HopStack(tx_gains=tx_gains, rx_gains=rx_gains, **angles)
        estimate = dataclasses.replace(exact, **estimated)
        for scheme in schemes:
            selection = selections[scheme]
            multiplex = scheme in ("sm", "ds")
            designs = [
                design_one(selection, estimate, slot=m, refine=not multiplex, exact=exact)[0]
                for m in range(selection.n_slots)
            ]
            run = transceive._run_multiplex if multiplex else transceive._run_beamform
            powers = row_powers(config, designs)
            result = run(designs, powers, config.noise_power, {scheme: len(designs)},
                         gamma_th)[scheme]
            if payload_symbols is not None:
                payload_cell = (grid_index, epoch_index, fading_index, mc._PAYLOAD)
                family = "multiplex" if multiplex else "beamform"
                sent, errors = transceive.payload_errors(
                    designs, slot_links(designs, powers, multiplex), config.noise_power,
                    payload_symbols[family], *streams(base_seed, [[payload_cell]]), multiplex,
                )
                result.bit_errors[0, 0], result.bits_sent[0, 0] = errors[-1, 0, 0], sent
            out[scheme].append(result)
    return {scheme: _joined(parts, axis=1) for scheme, parts in out.items()}


def _swept_columns(plan, config, min_bits=None):
    """Run a sweep (SE, or BER with ``min_bits``) and record its engine
    calls: every grid point's columns as its chunks computed them, joined
    in row order, and the number of ``_run_chunk`` calls."""
    calls = []
    original = mc._run_chunk

    def recording(*args, **kwargs):
        rows = inspect.signature(original).bind(*args, **kwargs).arguments["rows"]
        calls.append((rows, original(*args, **kwargs)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_run_chunk", recording)
        mc._sweep(plan, config, "se" if min_bits is None else "ber", min_bits)
    columns = []
    for g in range(len(plan.axis_values)):
        blocks = [(result, [i for i, (h, _) in enumerate(rows) if h == g])
                  for rows, result in calls]
        columns.append({
            scheme: _joined([mc._angle_rows(result[scheme], block) for result, block in blocks],
                            axis=0)
            for scheme in plan.schemes
        })
    return columns, len(calls)


class TestStackedEngine:
    """``_run_chunk`` runs a chunk of angle epochs, each with its fading
    epochs, as stacked rows; every result column of every angle epoch must
    hold the per-epoch engine's bytes."""

    @staticmethod
    def _assert_chunk_matches(config, schemes, grid_index, angle_indices, n_fading, seed,
                              payload=None):
        chunk = _one_point_chunk(config, schemes, grid_index, angle_indices, n_fading, seed,
                                 10.0, payload)
        oracles = [
            _per_epoch_oracle(config, schemes, grid_index, epoch_index, n_fading, seed, 10.0,
                              payload)
            for epoch_index in angle_indices
        ]
        for scheme in schemes:
            expected = _joined([oracle[scheme] for oracle in oracles], axis=0)
            assert_same_columns(chunk[scheme], expected, scheme)

    @pytest.mark.parametrize("path", ["se", "ber"])
    @pytest.mark.parametrize("sigma_e", [0.0, 0.05])
    @pytest.mark.parametrize("n_slots", [1, 2, 3])
    def test_matches_per_epoch_oracle(self, n_slots, sigma_e, path):
        schemes = ("sm", "bf", "ds", "db")
        payload = {"multiplex": 40, "beamform": 40} if path == "ber" else None
        for seed, grid_index, angle_indices, power in (
            (BASE_SEED, 0, range(0, 3), 1.0), (7, 3, range(2, 4), 1e-3),
        ):
            config = rl.SystemConfig(n_slots=n_slots, angle_error_std=sigma_e,
                                     transmit_power=power)
            self._assert_chunk_matches(config, schemes, grid_index, angle_indices, 4, seed,
                                       payload)

    @pytest.mark.parametrize("schemes", [
        ("ds",), ("db", "sm"), ("bf", "ds", "db"), ("sm", "ds"),
    ])
    def test_scheme_subsets_match_per_epoch_oracle(self, schemes):
        config = rl.SystemConfig(n_slots=2, n_rx=2)
        self._assert_chunk_matches(config, schemes, 1, range(0, 3), 3, 11)
        payload = {"multiplex": 60, "beamform": 60}
        self._assert_chunk_matches(config, schemes, 1, range(0, 3), 3, 11, payload)

    @pytest.mark.parametrize("sigma_e", [0.0, 0.05])
    def test_active_surfaces_differ_by_row(self, sigma_e, monkeypatch):
        # With more surfaces than streams, the multiplexing selection picks
        # a different surface subset per angle epoch of one chunk.
        selected = []
        original = mc.select_paths_stack

        def spying(*args, **kwargs):
            selected.append(original(*args, **kwargs))
            return selected[-1]

        monkeypatch.setattr(mc, "select_paths_stack", spying)
        config = rl.SystemConfig(n_rx=2, n_ris=4, n_slots=2, angle_error_std=sigma_e)
        payload = {"multiplex": 30, "beamform": 30}
        self._assert_chunk_matches(config, ("sm", "bf", "ds", "db"), 2, range(0, 6), 2, 5,
                                   payload)
        assert len({tuple(row) for row in selected[0]["multiplex"].active.tolist()}) > 1

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_chunks_cut_mid_angle_epoch(self, rows, monkeypatch):
        # Fading epochs split over several chunks, and chunks of several
        # angle epochs: the sweep's results are those of the per-epoch
        # engine, in (angle epoch, fading epoch) order.
        monkeypatch.setattr(mc, "CHUNK_ROWS", rows)
        config = rl.SystemConfig(n_slots=2, angle_error_std=0.05)
        schemes = ("sm", "bf", "ds", "db")
        for n_fading in (1, 2, 4):
            plan = _plan(schemes=schemes, n_angle_epochs=3, n_fading_epochs=n_fading)
            applied = mc.apply_axis(config, plan.axis_name, plan.axis_values[0])
            for min_bits in (None, 480 * n_fading):
                symbols = None if min_bits is None else \
                    mc._payload_sizes(plan, [applied], min_bits)[0]
                got = _swept_columns(plan, config, min_bits)[0][0]
                for scheme in schemes:
                    expected = _joined([
                        _per_epoch_oracle(applied, schemes, 0, e, n_fading, plan.base_seed,
                                          plan.gamma_th, symbols)[scheme]
                        for e in range(3)
                    ], axis=0)
                    assert_same_columns(got[scheme], expected, (scheme, n_fading))

    @pytest.mark.parametrize("n_slots", [1, 2])
    def test_columns_without_payload(self, n_slots):
        # (A, F) columns, the SNR with a stream axis, and zero int64 bit
        # counters.
        config = rl.SystemConfig(n_slots=n_slots, n_rx=2)
        schemes = ("sm", "bf", "ds", "db")
        chunk = _one_point_chunk(config, schemes, 0, range(1, 4), 5, BASE_SEED, 10.0)
        for scheme in schemes:
            result = chunk[scheme]
            for f in dataclasses.fields(result):
                assert getattr(result, f.name).shape[:2] == (3, 5), (scheme, f.name)
            streams = 2 if scheme in ("sm", "ds") else 1
            assert result.post_combine_snr.shape == (3, 5, streams)
            assert result.outage.dtype == bool
            for counts in (result.bit_errors, result.bits_sent):
                assert counts.dtype == np.int64 and not counts.any()

    def test_ladders_draw_each_slot_noise_once(self, monkeypatch):
        calls = []
        original = transceive._awgn

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(transceive, "_awgn", counting)
        schemes = ("sm", "bf", "ds", "db")
        n_fading = 3
        _angle_epoch(rl.SystemConfig(n_slots=2), schemes, 0, 0, n_fading, BASE_SEED, 10.0,
                        {"multiplex": 20, "beamform": 20})
        # One pass per family and fading epoch, one draw per slot: (sm, ds)
        # and (bf, db) each draw twice, not 1 + 2 times.
        assert len(calls) == 4 * n_fading

    def test_hopping_schemes_share_slot_zero(self, monkeypatch):
        built = []
        original = mc.design_slots

        def counting(selections, slot, *args, refine=False):
            built.append((refine, slot))
            return original(selections, slot, *args, refine=refine)

        monkeypatch.setattr(mc, "design_slots", counting)
        config = rl.SystemConfig(n_slots=2)
        _angle_epoch(config, ("sm", "bf", "ds", "db"), 0, 0, 3, BASE_SEED, 10.0)
        # One design per slot and family: sm/bf take slot 0 of ds/db's.
        assert sorted(built) == [(False, 0), (False, 1), (True, 0), (True, 1)]

    @pytest.mark.parametrize("payload, power_sweep", [
        (None, False), ({"multiplex": 20, "beamform": 20}, False), (None, True),
        ({"multiplex": 20, "beamform": 20}, True),
    ], ids=["no-payload", "payload", "no-payload-power-sweep", "payload-power-sweep"])
    def test_each_family_runs_each_slot_once(self, payload, power_sweep, monkeypatch):
        calls = []
        for name in ("_multiplex_slot", "_beam_combiner"):
            original = getattr(transceive, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(transceive, name, counting)
        config = rl.SystemConfig(n_slots=2)
        schemes = ("sm", "bf", "ds", "db")
        if power_sweep:
            # Five power points of 2 x 10 rows fit one chunk, whose runners
            # run once over all its rows, each row at its point's power.
            plan = _plan(axis_values=(0.0, 10.0, 20.0, 30.0, 40.0), schemes=schemes,
                         n_angle_epochs=2, n_fading_epochs=10)
            min_bits = None if payload is None else 4000
            assert _swept_columns(plan, config, min_bits)[1] == 1
        else:
            _angle_epoch(config, schemes, 0, 0, 3, BASE_SEED, 10.0, payload)
        # sm/bf read their results off the first slot of ds/db's pass, and
        # the payloads run on the slot transceivers of that pass.
        assert sorted(calls) == ["_beam_combiner"] * 2 + ["_multiplex_slot"] * 2


def _job_table(plan, config):
    """The job table of a sweep's grid, with no geometry or payload."""
    groups = mc.power_groups(config, plan.axis_name, plan.axis_values)
    return mc._jobs(plan, groups, [None] * len(groups), [None] * len(groups))


class TestJobTable:
    """A sweep lists its chunks up front: every (grid index, angle epoch)
    row once, grid-major, in jobs that stay inside one power group and hold
    at most ``max(1, CHUNK_ROWS // F)`` angle epochs; the sweep then runs
    the jobs in table order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n_angle=st.integers(1, 9), n_fading=st.integers(1, 40),
           sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           chunk_rows=st.integers(1, 64))
    def test_rows_once_grid_major_within_groups(self, n_angle, n_fading, sizes, chunk_rows):
        n_points = sum(sizes)
        plan = _plan(axis_values=tuple(map(float, range(n_points))), n_angle_epochs=n_angle,
                     n_fading_epochs=n_fading)
        group_of = [k for k, size in enumerate(sizes) for _ in range(size)]
        powers = np.arange(n_points) * 0.5 + 1.0
        offsets = np.cumsum([0, *sizes])
        groups = [(f"config {k}", powers[offsets[k]:offsets[k + 1]]) for k in range(len(sizes))]
        geometries = [f"geometry {k}" for k in range(len(sizes))]
        payloads = [{"multiplex": k} for k in range(len(sizes))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "CHUNK_ROWS", chunk_rows)
            jobs = mc._jobs(plan, groups, geometries, payloads)
        assert [row for job in jobs for row in job["rows"]] == \
            [(g, a) for g in range(n_points) for a in range(n_angle)]
        per_chunk = max(1, chunk_rows // n_fading)
        assert len(jobs) == sum(-(-size * n_angle // per_chunk) for size in sizes)
        for job in jobs:
            (k,) = {group_of[g] for g, _ in job["rows"]}
            assert (job["config"], job["surfaces"]) == (groups[k][0], geometries[k])
            assert job["payload"] is payloads[k]
            assert 1 <= len(job["rows"]) <= per_chunk
            assert job["powers"].tolist() == [powers[g] for g, _ in job["rows"]]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n_angle=st.integers(1, 3), n_fading=st.integers(1, 3), n_points=st.integers(1, 3),
           chunk_rows=st.integers(1, 8), power_axis=st.booleans(), payload=st.booleans())
    def test_sweep_runs_each_job_once_in_table_order(self, n_angle, n_fading, n_points,
                                                     chunk_rows, power_axis, payload):
        tables, calls = [], []
        jobs, run_chunk = mc._jobs, mc._run_chunk

        def listing(*args):
            tables.append(jobs(*args))
            return tables[-1]

        def running(**kwargs):
            assert len(tables) == 1  # the whole table exists before any run
            calls.append(kwargs)
            return run_chunk(**kwargs)

        axis = ("E_dBm", (0.0, 10.0, 20.0)) if power_axis else ("L_R", (2.0, 3.0, 4.0))
        plan = _plan(axis_name=axis[0], axis_values=axis[1][:n_points], schemes=("sm", "db"),
                     n_angle_epochs=n_angle, n_fading_epochs=n_fading)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "CHUNK_ROWS", chunk_rows)
            patch.setattr(mc, "_jobs", listing)
            patch.setattr(mc, "_run_chunk", running)
            mc._sweep(plan, small_config(n_slots=2), "ber" if payload else "se",
                      100 if payload else None)
        (table,) = tables
        assert len(calls) == len(table)
        for job, call in zip(table, calls):
            assert all(call[name] is value for name, value in job.items())


class TestPowerStacking:
    """A sweep runs the grid points whose configs differ only in transmit
    power as one stream of rows, cut into chunks across grid-point
    boundaries; every grid point's columns must hold the bytes of that
    point run alone at its grid index."""

    SCHEMES = ("sm", "bf", "ds", "db")

    @staticmethod
    def _alone(plan, config, min_bits):
        """Each grid point's columns from one chunk of its own rows."""
        configs = [mc.apply_axis(config, plan.axis_name, value) for value in plan.axis_values]
        payloads = [None] * len(configs)
        if min_bits is not None:
            payloads = mc._payload_sizes(plan, configs, min_bits)
        assert plan.n_angle_epochs * plan.n_fading_epochs <= mc.CHUNK_ROWS
        return [
            _one_point_chunk(cfg, plan.schemes, g, range(plan.n_angle_epochs),
                             plan.n_fading_epochs, plan.base_seed, plan.gamma_th, payload)
            for g, (cfg, payload) in enumerate(zip(configs, payloads))
        ]

    @classmethod
    def _assert_points_match(cls, plan, config, min_bits, chunk_rows, monkeypatch):
        expected = cls._alone(plan, config, min_bits)
        monkeypatch.setattr(mc, "CHUNK_ROWS", chunk_rows)
        got, _ = _swept_columns(plan, config, min_bits)
        for g, (point, alone) in enumerate(zip(got, expected)):
            for scheme in plan.schemes:
                assert_same_columns(point[scheme], alone[scheme], (g, scheme))

    @pytest.mark.parametrize("payload", [False, True], ids=["se", "ber"])
    @pytest.mark.parametrize("sigma_e", [0.0, 0.05])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 128])
    def test_power_grid_matches_points_run_alone(self, chunk_rows, sigma_e, payload,
                                                 monkeypatch):
        config = small_config(n_slots=2, angle_error_std=sigma_e)
        for n_fading in (1, 2, 4):
            plan = _plan(axis_values=(0.0, 10.0, 20.0, 30.0), schemes=self.SCHEMES,
                         n_angle_epochs=3, n_fading_epochs=n_fading)
            with pytest.MonkeyPatch.context() as patch:
                self._assert_points_match(plan, config, 400 if payload else None, chunk_rows,
                                          patch)

    @pytest.mark.parametrize("axis, values", [
        ("L_R", (2.0, 3.0, 5.0)), ("kappa_dB", (-5.0, 0.0, 10.0)),
    ])
    def test_other_axes_match_points_run_alone(self, axis, values, monkeypatch):
        config = small_config(n_slots=2, angle_error_std=0.05)
        plan = _plan(axis_name=axis, axis_values=values, schemes=self.SCHEMES,
                     n_angle_epochs=3, n_fading_epochs=2)
        self._assert_points_match(plan, config, 200, 5, monkeypatch)

    def test_power_points_share_chunks(self):
        # Five power points of 2 x 10 rows fit one job; an L_R grid
        # changes the draws, so each of its points is a job of its own.
        config = small_config(n_slots=2)
        plan = _plan(axis_values=(0.0, 10.0, 20.0, 30.0, 40.0), schemes=self.SCHEMES,
                     n_angle_epochs=2, n_fading_epochs=10)
        assert 5 * 2 * 10 <= mc.CHUNK_ROWS
        assert len(_job_table(plan, config)) == 1
        plan = dataclasses.replace(plan, axis_name="L_R", axis_values=(2.0, 3.0, 4.0))
        assert len(_job_table(plan, config)) == 3

    def test_peak_memory_flat_over_power_grid(self):
        # Twelve power points of just over one chunk of rows each peak
        # where one point of the same epochs does: chunks stay at most
        # CHUNK_ROWS rows, and each point is reduced once its rows are done.
        # Both sweeps run once first, traced, so that the substream key
        # caches are full and their churn costs neither run anything.
        config = rl.SystemConfig(n_slots=2)
        n_fading = 10
        n_angle = mc.CHUNK_ROWS // n_fading + 1
        plans = [_plan(axis_values=values, schemes=self.SCHEMES, n_angle_epochs=n_angle,
                       n_fading_epochs=n_fading)
                 for values in ((20.0,), tuple(np.arange(12.0) * 5.0))]
        peaks = []
        tracemalloc.start()
        try:
            for plan in plans:
                rl.estimate_ergodic_se(plan, config)
            for plan in plans:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                rl.estimate_ergodic_se(plan, config)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestRowResultPin:
    """Frozen engine rows: sha256 of the repr of every field of every row
    of each scheme's ``SchemeResult`` columns, as Python scalars after the
    scheme name, and of the bytes of every design's slopes, common
    phases, designed gains and exact channel, over seeded ``_run_chunk``
    calls of 40 configs (1-4 receive antennas, 1-3 slots, 0-2 scattered
    transmit paths, with and without angle error, 1-3 angle epochs by 1-5
    fading epochs, all four schemes, some with payloads).  A change to the
    engine must keep both digests."""

    DIGESTS = ("86809c7d6a52e593ba883df24e84d3f557a33f00e11074fbde4877b6f74e8f75",
               "62413f0dc49b0ccace6906ad045cc2cbc1a2f3e4cbea764edf823665eb3ec5c4")

    @staticmethod
    def _calls(count: int):
        rng = rl.substream(BASE_SEED, 401)
        for _ in range(count):
            n_rx = int(rng.integers(1, 5))
            n_slots = int(rng.integers(1, 4))
            config = rl.SystemConfig(
                n_tx=8, n_rx=n_rx, n_ris=int(rng.integers(n_rx, 5)),
                n_nlos_tx_paths=int(rng.integers(0, 3)),
                n_ris_rx_paths=int(rng.integers(n_slots, 7)), n_slots=n_slots,
                angle_error_std=(0.0, 0.05)[int(rng.integers(2))],
                transmit_power=float(10.0 ** rng.uniform(-4.0, 0.0)), gain_target=2e-7,
            )
            start = int(rng.integers(0, 5))
            angle_indices = range(start, start + int(rng.integers(1, 4)))
            payload = None
            if rng.integers(2):
                payload = {"multiplex": int(rng.integers(1, 30)),
                           "beamform": int(rng.integers(1, 30))}
            yield (config, ("sm", "bf", "ds", "db"), int(rng.integers(0, 4)), angle_indices,
                   int(rng.integers(1, 6)), int(rng.integers(0, 2**31)), 10.0, payload)

    def test_seeded_chunks_frozen(self, monkeypatch):
        results, designs = hashlib.sha256(), hashlib.sha256()
        original = mc.design_slots

        def recording(*args, **kwargs):
            design, slopes, commons = original(*args, **kwargs)
            for array in (slopes, commons, design.xi_active, design.exact_h):
                designs.update(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
            return design, slopes, commons

        monkeypatch.setattr(mc, "design_slots", recording)
        for args in self._calls(40):
            chunk = _one_point_chunk(*args)
            for scheme, result in chunk.items():
                for row in result_rows(result):
                    results.update(repr((scheme, (scheme, *row))).encode())
        assert (results.hexdigest(), designs.hexdigest()) == self.DIGESTS


class TestEstimators:
    def test_single_epoch_matches_direct_run(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=1, n_fading_epochs=1,
                     schemes=("sm", "bf"))
        result = rl.estimate_ergodic_se(plan, config)
        epoch = _angle_epoch(
            mc.apply_axis(config, plan.axis_name, plan.axis_values[0]), plan.schemes, 0, 0, 1,
            plan.base_seed, plan.gamma_th,
        )
        for scheme in plan.schemes:
            assert result.means[scheme][0] == \
                epoch[scheme].se_bits_per_hz.item()
            assert result.stderrs[scheme][0] == 0.0
            assert result.n_trials[scheme][0] == 1

    def test_mean_and_stderr_pool_all_trials(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=3, n_fading_epochs=2)
        result = rl.estimate_ergodic_se(plan, config)
        samples = [
            r.se_bits_per_hz
            for i in range(3)
            for r in result_rows(_angle_epoch(
                mc.apply_axis(config, plan.axis_name, plan.axis_values[0]), plan.schemes, 0, i, 2,
                plan.base_seed, plan.gamma_th,
            )["sm"])
        ]
        assert math.isclose(result.means["sm"][0], float(np.mean(samples)),
                            rel_tol=1e-12)
        assert math.isclose(
            result.stderrs["sm"][0],
            float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
            rel_tol=1e-12,
        )
        assert result.n_trials["sm"][0] == 6

    def test_closed_form_columns_by_scheme(self):
        config = rl.SystemConfig(n_slots=2)
        plan = _plan(schemes=("sm", "bf", "ds", "db"), n_angle_epochs=1,
                     n_fading_epochs=1)
        result = rl.estimate_ergodic_se(plan, config)
        applied = mc.apply_axis(config, plan.axis_name, plan.axis_values[0])
        params = mc.analysis.ClosedFormParams.from_config(applied)
        sm_cols = result.closed_form["sm"][0]
        assert math.isclose(sm_cols[0],
                            mc.analysis.se_sm_approx(params.c_values()),
                            rel_tol=1e-12)
        assert math.isclose(sm_cols[1],
                            mc.analysis.se_sm_upper(params.c_values()),
                            rel_tol=1e-12)
        bf_cols = result.closed_form["bf"][0]
        assert math.isnan(bf_cols[0])
        assert math.isclose(bf_cols[1], mc.analysis.se_bf_upper(params),
                            rel_tol=1e-12)
        db_cols = result.closed_form["db"][0]
        assert math.isclose(db_cols[1],
                            mc.analysis.se_db_upper(params, applied.n_slots),
                            rel_tol=1e-12)
        assert all(math.isnan(v) for v in result.closed_form["ds"][0])

    def test_model_metric_differs_from_exact(self):
        config = rl.SystemConfig()
        plan = _plan(n_angle_epochs=4, n_fading_epochs=2)
        exact = rl.estimate_ergodic_se(plan, config)
        model = rl.estimate_ergodic_se(plan, config, use_model=True)
        assert exact.metric == "se"
        assert model.metric == "se_model"
        assert exact.means["sm"][0] != model.means["sm"][0]

    def test_outage_zero_threshold_never_fires(self):
        config = rl.SystemConfig()
        plan = _plan(gamma_th=0.0, n_angle_epochs=3, n_fading_epochs=2)
        result = rl.estimate_outage(plan, config)
        assert result.means["sm"] == (0.0,)

    def test_hopping_reduces_outage(self):
        config = rl.SystemConfig(n_slots=2)
        plan = _plan(
            axis_values=(10.0,), schemes=("sm", "bf", "ds", "db"),
            n_angle_epochs=60, n_fading_epochs=5, gamma_th=10.0,
        )
        result = rl.estimate_outage(plan, config)
        assert result.means["ds"][0] <= result.means["sm"][0]
        assert result.means["db"][0] <= result.means["bf"][0]

    def test_angle_error_costs_rate_and_grows_with_power(self):
        config = rl.SystemConfig()
        gaps = []
        for power_dbm in (10.0, 30.0):
            cfg = dataclasses.replace(config,
                                      transmit_power=rl.dbm2watt(power_dbm))
            plan = _plan(
                axis_name="sigma_e", axis_values=(0.0, 0.05),
                schemes=("sm",), n_angle_epochs=60, n_fading_epochs=5,
            )
            result = rl.estimate_ergodic_se(plan, cfg)
            clean, noisy = result.means["sm"]
            assert noisy < clean
            gaps.append(clean - noisy)
        assert gaps[1] > gaps[0]

    # Selection-model means frozen repr-exact: no golden CSV covers the
    # ``se_model`` metric, so this pins the code that builds ``xi_active``.
    @pytest.mark.parametrize("sigma_e, expected", [
        (0.0, {
            "sm": (0.09473057918197629, 4.362431754086273),
            "bf": (0.27291054782759855, 4.448859505494985),
            "ds": (0.0680160592633888, 3.195815050897168),
            "db": (0.23122490887723035, 2.5394316890466584),
        }),
        (0.05, {
            "sm": (0.07851760915963894, 4.362431754086273),
            "bf": (0.2975250629033034, 4.875262965084722),
            "ds": (0.06677625666588817, 3.29650608575068),
            "db": (0.2637734785953114, 2.6774150612364305),
        }),
    ])
    def test_selection_model_means_frozen(self, sigma_e, expected):
        config = rl.SystemConfig(n_slots=2, angle_error_std=sigma_e)
        plan = _plan(axis_values=(0.0, 20.0), schemes=("sm", "bf", "ds", "db"),
                     n_angle_epochs=3, n_fading_epochs=3)
        result = rl.estimate_ergodic_se(plan, config, use_model=True)
        for scheme, means in expected.items():
            assert [repr(m) for m in result.means[scheme]] == [repr(m) for m in means]

    # Exact-rate means frozen repr-exact, written by the per-epoch engine:
    # the golden CSVs keep 12 digits, so a last-bit drift of the exact
    # log-det or matched-filter rate shows only here.
    @pytest.mark.parametrize("sigma_e, expected", [
        (0.0, {
            "sm": (0.09577394068750487, 4.374843683873725),
            "bf": (0.20770334280578054, 3.2825022256635212),
            "ds": (0.06925611098140246, 3.1860729872734175),
            "db": (0.15253029795706471, 2.2648114895476272),
        }),
        (0.05, {
            "sm": (0.022345119187871767, 1.1474137977265122),
            "bf": (0.007944905461249917, 0.8965968875387205),
            "ds": (0.014993086946659398, 0.6191955723188914),
            "db": (0.02388894503315819, 0.5908533165388543),
        }),
    ])
    def test_exact_rate_means_frozen(self, sigma_e, expected):
        config = rl.SystemConfig(n_slots=2, angle_error_std=sigma_e)
        plan = _plan(axis_values=(0.0, 20.0), schemes=("sm", "bf", "ds", "db"),
                     n_angle_epochs=3, n_fading_epochs=3)
        result = rl.estimate_ergodic_se(plan, config)
        for scheme, means in expected.items():
            assert [repr(m) for m in result.means[scheme]] == [repr(m) for m in means]

    @pytest.mark.parametrize("min_bits", [0, -5, 1000.5, math.nan, math.inf])
    def test_ber_rejects_empty_budget_before_any_epoch(self, min_bits, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("simulated an epoch")

        monkeypatch.setattr(mc, "_run_chunk", simulated)
        message = "payload bit" if min_bits < 1 else f"min_bits must be an integer, got {min_bits}"
        with pytest.raises(ConfigurationError, match=message):
            rl.estimate_ber(_plan(), rl.SystemConfig(), min_bits=min_bits)

    def test_ber_bit_budget_met(self):
        config = rl.SystemConfig()
        plan = _plan(schemes=("sm", "bf"), n_angle_epochs=2,
                     n_fading_epochs=2)
        result = rl.estimate_ber(plan, config, min_bits=10_000)
        for scheme in plan.schemes:
            assert result.n_trials[scheme][0] >= 10_000
            assert 0.0 <= result.means[scheme][0] <= 1.0


def _companions(schemes, configs):
    """Every scheme's (approximation, upper bound) pairs over a grid, run
    of consecutive configs that differ only in transmit power as one group."""
    groups = []
    for cfg in configs:
        if groups and cfg == groups[-1][0].replace(transmit_power=cfg.transmit_power):
            groups[-1][1].append(cfg.transmit_power)
        else:
            groups.append((cfg, [cfg.transmit_power]))
    return mc.closed_form_companions(schemes, [(cfg, np.array(p)) for cfg, p in groups])


class TestClosedFormCompanions:
    """Companion columns frozen repr-exact over n_rx 1-4 and 12, n_slots
    1-3 and powers -40..60 dBm, all in one heterogeneous grid."""

    SCHEMES = ("sm", "bf", "ds", "db")

    @staticmethod
    def _grid():
        configs = []
        for n_rx, n_ris in ((1, 4), (2, 4), (3, 4), (4, 4), (12, 12)):
            for n_slots in (1, 2, 3):
                base = rl.SystemConfig(n_rx=n_rx, n_ris=n_ris, n_slots=n_slots)
                configs.extend(mc.apply_axis(base, "E_dBm", p)
                               for p in np.arange(-40.0, 61.0, 5.0))
        return configs

    @pytest.mark.parametrize("index, expected", [
        (0, {"sm": (2.098462461715715e-06, 2.0984639878380296e-06),
             "bf": (math.nan, 7.0428412053881435e-06),
             "db": (math.nan, 7.0428412053881435e-06)}),
        (100, {"sm": (12.810932899554047, 14.388618320138542),
               "bf": (math.nan, 9.932727781819464),
               "db": (math.nan, 5.465994763189621)}),
        (314, {"sm": (155.95832697298985, 165.94055931344252),
               "bf": (math.nan, 20.68218444480324),
               "db": (math.nan, 7.4223821246268775)}),
    ])
    def test_spot_values_frozen(self, index, expected):
        companions = _companions(self.SCHEMES, self._grid())
        for scheme, pair in expected.items():
            assert repr(companions[scheme][index]) == repr(pair)
        assert repr(companions["ds"][index]) == repr((math.nan, math.nan))

    def test_closed_form_schemes_are_those_with_a_bound(self):
        # The list the closed-form sweep writes names exactly the schemes
        # whose columns are not all NaN.
        companions = _companions(self.SCHEMES, self._grid()[:3])
        bounded = [s for s in self.SCHEMES if not math.isnan(companions[s][0][1])]
        assert list(mc.CLOSED_FORM_SCHEMES) == bounded == ["sm", "bf", "db"]

    def test_whole_grid_frozen(self):
        import hashlib

        configs = self._grid()
        assert len(configs) == 315
        companions = _companions(self.SCHEMES, configs)
        text = repr([companions[s] for s in self.SCHEMES])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "aa224509771bdfda0a2270e081dd77d4d843c96ad3882ef777cce137177cb805"


class TestGridPointReducer:
    """One reducer turns each finished grid point into its CSV columns, and
    one builder makes the sweep table, for sweeps and closed forms alike."""

    @pytest.mark.parametrize("metric, min_bits", [("se", None), ("ber", 100)])
    def test_sweep_reduces_each_grid_point_once(self, metric, min_bits, monkeypatch):
        # Two angle epochs per chunk over three of them: chunks straddle
        # grid points, and each point still reaches the reducer whole.
        calls, reduce = [], mc._reduce

        def counted(metric, point):
            calls.append((metric, {s: r.se_bits_per_hz.shape for s, r in point.items()}))
            return reduce(metric, point)

        monkeypatch.setattr(mc, "CHUNK_ROWS", 4)
        monkeypatch.setattr(mc, "_reduce", counted)
        plan = _plan(axis_values=(0.0, 10.0, 20.0), schemes=("sm", "db"), n_angle_epochs=3,
                     n_fading_epochs=2)
        result = mc._sweep(plan, small_config(n_slots=2), metric, min_bits)
        assert calls == [(metric, {"sm": (3, 2), "db": (3, 2)})] * 3
        assert all(len(column) == 3 for column in result.means.values())

    def test_closed_form_sweep_columns(self):
        config = rl.SystemConfig(n_slots=2)
        values = (0.0, 20.0, 40.0)
        result = mc.closed_form_sweep(config, "E_dBm", values)
        companions = mc.closed_form_companions(
            mc.CLOSED_FORM_SCHEMES, mc.power_groups(config, "E_dBm", values))
        assert (result.metric, result.axis_name, result.axis_values, result.schemes) == \
            ("closed_form", "E_dBm", values, ("sm", "bf", "db"))
        assert repr(result.closed_form) == repr(companions)
        assert result.means == {"sm": tuple(a for a, _ in companions["sm"]),
                                "bf": tuple(u for _, u in companions["bf"]),
                                "db": tuple(u for _, u in companions["db"])}
        assert result.stderrs == dict.fromkeys(result.schemes, (0.0,) * 3)
        assert result.n_trials == dict.fromkeys(result.schemes, (0,) * 3)

    @pytest.mark.parametrize("axis, values, message", [
        # The grid is checked before the axis name and every point's config.
        ("E_W", (), "sweep grid must be non-empty"),
        ("E_W", (1.0,), "unknown sweep axis 'E_W'"),
        # Every point's config before any closed form: the first point's
        # closed forms leave the float range, the second point's config is
        # invalid.
        ("N_R", (2.0, 5.0), r"need at least n_rx surfaces \(n_ris >= n_rx\)"),
    ])
    def test_closed_form_sweep_check_order(self, axis, values, message):
        with pytest.raises(ConfigurationError, match=message):
            mc.closed_form_sweep(rl.SystemConfig(transmit_power=1e300), axis, values)


class TestWilsonInterval:
    def test_zero_errors_closed_form(self):
        z = 1.959963984540054
        n = 100
        expected = z * z / (2.0 * (n + z * z))
        assert math.isclose(rl.wilson_half_width(0, n), expected,
                            rel_tol=1e-12)

    def test_symmetric_in_error_count(self):
        # Also at the edges of the valid range, 0 and all of the sample.
        for errors in (10, 0):
            assert math.isclose(
                rl.wilson_half_width(errors, 100), rl.wilson_half_width(100 - errors, 100),
                rel_tol=1e-12,
            )

    def test_shrinks_with_sample_size(self):
        widths = [rl.wilson_half_width(n // 10, n)
                  for n in (100, 1_000, 10_000)]
        assert widths[0] > widths[1] > widths[2]

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            rl.wilson_half_width(0, 0)

    @pytest.mark.parametrize("errors, total", [(5, 3), (-0.5, 10), (-1, 1), (11, 10)])
    def test_rejects_errors_outside_the_sample(self, errors, total):
        with pytest.raises(ValueError, match=rf"got {errors} errors in {total}$"):
            rl.wilson_half_width(errors, total)
