"""Unit conversions, free-space loss, element sizing, and placement."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rislink as rl
from rislink import config as config_module
from rislink.config import drop_receiver, receiver_losses, surface_geometry
from rislink.errors import ConfigurationError, PlacementError

from conftest import BASE_SEED

SPEED_OF_LIGHT = 299_792_458.0


class TestUnitConversions:
    def test_known_values(self):
        assert math.isclose(rl.db2lin(10.0), 10.0, rel_tol=1e-12)
        assert rl.db2lin(0.0) == 1.0
        assert math.isclose(rl.db2lin(20.0), 100.0, rel_tol=1e-12)
        assert math.isclose(rl.dbm2watt(30.0), 1.0, rel_tol=1e-12)
        assert math.isclose(rl.dbm2watt(0.0), 1e-3, rel_tol=1e-12)
        assert math.isclose(rl.watt2dbm(1.0), 30.0, rel_tol=1e-12)

    @given(st.floats(min_value=-120.0, max_value=120.0))
    def test_db_roundtrip(self, value_db):
        assert math.isclose(10.0 * math.log10(rl.db2lin(value_db)), value_db, abs_tol=1e-9)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_dbm_roundtrip(self, value_dbm):
        assert math.isclose(
            rl.watt2dbm(rl.dbm2watt(value_dbm)), value_dbm, abs_tol=1e-9
        )


class TestPathLoss:
    def test_wavelength(self):
        config = rl.SystemConfig()
        assert math.isclose(
            config.wavelength, SPEED_OF_LIGHT / 3.5e9, rel_tol=1e-12
        )

    def test_reference_distance_pair(self):
        # Frozen against an mpmath reference evaluation (50-digit precision).
        config = rl.SystemConfig()
        assert math.isclose(
            rl.path_loss(150.0, 50.0, config.wavelength),
            6.19475772206e-09,
            rel_tol=1e-9,
        )

    def test_quarter_wavelength_identity(self):
        # Both hops at wavelength/(4*pi) make the product gain exactly one.
        wavelength = 0.085654988
        r = wavelength / (4.0 * math.pi)
        assert math.isclose(rl.path_loss(r, r, wavelength), 1.0, rel_tol=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_inverse_distance_product(self, r1, r2, wavelength):
        base = rl.path_loss(r1, r2, wavelength)
        assert math.isclose(rl.path_loss(2.0 * r1, r2, wavelength), base / 2.0,
                            rel_tol=1e-12)
        assert math.isclose(rl.path_loss(r1, 2.0 * r2, wavelength), base / 2.0,
                            rel_tol=1e-12)


class TestElementCount:
    def test_exact_target(self):
        assert rl.ris_element_count(3e-9, 3e-9) == 1
        assert rl.ris_element_count(12e-9, 3e-9) == 4

    def test_round_half_up(self):
        assert rl.ris_element_count(2.5 * 3e-9, 3e-9) == 3
        assert rl.ris_element_count(2.49 * 3e-9, 3e-9) == 2

    def test_floor_of_one(self):
        assert rl.ris_element_count(0.1 * 3e-9, 3e-9) == 1

    @given(
        st.floats(min_value=1e-10, max_value=1e-5),
        st.floats(min_value=0.5, max_value=1e4),
    )
    def test_achieved_gain_within_half_element(self, loss, ratio):
        target = ratio * loss
        count = rl.ris_element_count(target, loss)
        assert count >= 1
        assert abs(count * loss - target) <= 0.5 * loss * (1.0 + 1e-9)


def _drop(config, rng):
    """A receiver drop and the losses and element counts it gives."""
    rx_position = drop_receiver(config, rng)
    return (rx_position, *receiver_losses(config, surface_geometry(config), rx_position))


class TestPlacement:
    def test_default_counts_at_disk_center(self):
        config = rl.SystemConfig()
        _, counts = receiver_losses(
            config, surface_geometry(config), np.array([config.rx_center_distance, 0.0])
        )
        assert tuple(int(c) for c in counts) == (211, 174, 174, 211)

    def test_direction_cosines_on_dft_grid(self):
        config = rl.SystemConfig()
        cosines = surface_geometry(config).direction_cosines
        # Beams sit on the transmit DFT grid, strictly inside the visible
        # region, sorted by descending cosine, with no duplicates.
        steps = cosines * config.n_tx / 2.0
        assert np.allclose(steps, np.round(steps), atol=1e-12)
        assert np.all(np.abs(cosines) < 1.0)
        assert np.all(np.abs(cosines) > 0.0)
        assert np.all(np.diff(cosines) < 0.0)
        assert np.array_equal(cosines, np.array([0.25, 0.125, -0.125, -0.25]))

    def test_surface_positions_follow_cosines(self):
        config = rl.SystemConfig()
        surfaces = surface_geometry(config)
        x = config.ris_axis_distance
        for position, u, los_departure, distance in zip(
                surfaces.ris_positions, surfaces.direction_cosines, surfaces.los_departure,
                surfaces.tx_distances):
            assert math.isclose(position[0], x, rel_tol=1e-12)
            assert math.isclose(
                position[1], x * u / math.sqrt(1.0 - u * u), rel_tol=1e-12
            )
            # The cosine is the projection onto the transmit array line,
            # which runs along the second coordinate.
            assert distance == np.linalg.norm(position - surfaces.tx_position)
            assert math.isclose(position[1] / distance, u, rel_tol=1e-12)
            assert los_departure == math.pi * u

    def test_losses_match_two_hop_product(self):
        config = rl.SystemConfig()
        rx_position, losses, _ = _drop(config, rl.substream(BASE_SEED, 3))
        surfaces = surface_geometry(config)
        for position, loss in zip(surfaces.ris_positions, losses):
            r1 = np.linalg.norm(position - surfaces.tx_position)
            r2 = np.linalg.norm(rx_position - position)
            assert math.isclose(
                loss, rl.path_loss(r1, r2, config.wavelength), rel_tol=1e-12
            )

    def test_achieved_gains_near_target(self):
        config = rl.SystemConfig()
        _, losses, counts = _drop(config, rl.substream(BASE_SEED, 4))
        achieved = counts * losses
        assert np.all(
            np.abs(achieved - config.gain_target)
            <= 0.5 * losses * (1.0 + 1e-9)
        )

    def test_receiver_disk_is_uniform(self):
        config = rl.SystemConfig()
        center = np.array([config.rx_center_distance, 0.0])
        draws = np.array([
            drop_receiver(config, rl.substream(BASE_SEED, 5, i)) for i in range(4000)
        ])
        offsets = draws - center
        radii2 = np.sum(offsets**2, axis=1)
        radius = config.rx_disk_radius
        assert np.all(radii2 <= radius**2 * (1.0 + 1e-12))
        # Uniform disk: E[r^2] = R^2/2 and the mean offset vanishes.
        assert abs(radii2.mean() / (radius**2 / 2.0) - 1.0) < 0.05
        assert np.all(np.abs(offsets.mean(axis=0)) < 0.05 * radius)
        # Quadrant occupancy stays balanced.
        quadrants = (offsets[:, 0] > 0).astype(int) * 2 + (offsets[:, 1] > 0)
        counts = np.bincount(quadrants, minlength=4)
        assert counts.min() > 850 and counts.max() < 1150

    def test_rx_override_is_used(self):
        # The losses follow the receiver position they are given.
        config = rl.SystemConfig()
        surfaces = surface_geometry(config)
        rx = np.array([170.0, -20.0])
        losses, counts = receiver_losses(config, surfaces, rx)
        for position, distance, loss, count in zip(
                surfaces.ris_positions, surfaces.tx_distances, losses, counts):
            r2 = np.linalg.norm(rx - position)
            assert loss == rl.path_loss(distance, r2, config.wavelength)
            assert count == rl.ris_element_count(config.gain_target, loss)

    def test_same_seed_same_deployment(self):
        config = rl.SystemConfig()
        a = _drop(config, rl.substream(BASE_SEED, 7))
        b = _drop(config, rl.substream(BASE_SEED, 7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_too_few_usable_beams_raises(self):
        config = rl.SystemConfig(n_tx=2, n_rx=1, n_ris=1)
        with pytest.raises(PlacementError):
            surface_geometry(config)


def _norm_distances(surfaces, rx_position):
    """The receiver distances as ``np.linalg.norm`` computes them."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return np.linalg.norm(surfaces.ris_positions - np.asarray(rx_position), axis=1)


class TestReceiverDistances:
    """``receiver_losses`` computes each distance on Python floats; it must
    round as ``np.linalg.norm(axis=1)`` of the offsets, bit for bit."""

    # Surfaces at the origin, at tiny and huge coordinates and one ulp off
    # zero, so offsets underflow, go subnormal or approach overflow.
    ADVERSARIAL_SURFACES = [[0.0, 0.0], [1e-160, -1e-160], [1e150, -1e150], [5e-324, 0.0],
                            [-0.0, 3e-310], [1e-300, 1e150]]
    RECEIVERS = [
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (1e-160, 1e-160),
        (2.2250738585072014e-308, -1e-310), (1e150, 1e150), (-1e150, 1e150), (1.3e154, 0.0),
        (9e153, -9e153), (0.0, 1e150), (1e-300, -1e150), (1.5, 2.5), (-3e-200, 7e-170),
    ]

    @pytest.mark.parametrize("rx", RECEIVERS)
    def test_adversarial_offsets_match_norm(self, rx, monkeypatch):
        config = rl.SystemConfig(n_tx=16, n_ris=6)
        surfaces = dataclasses.replace(
            surface_geometry(config), ris_positions=np.array(self.ADVERSARIAL_SURFACES),
            tx_distances=np.full(6, 100.0))
        distances = []

        def recording_loss(dist_tx_ris, dist_ris_rx, wavelength):
            distances.append(dist_ris_rx)
            return 1e-8

        monkeypatch.setattr(config_module, "path_loss", recording_loss)
        expected = _norm_distances(surfaces, rx)
        if not np.isfinite(expected).all():
            with pytest.raises(ConfigurationError, match="^deployment distances leave"):
                receiver_losses(config, surfaces, np.array(rx))
            return
        receiver_losses(config, surfaces, np.array(rx))
        assert [d.hex() for d in distances] == [d.hex() for d in expected.tolist()]

    def test_receivers_on_the_default_geometry(self):
        # On a surface's axis (same x or same y), on a surface, at the
        # transmitter and at -0.0: losses and counts as the norm gives them.
        config = rl.SystemConfig()
        surfaces = surface_geometry(config)
        (x0, y0), (x1, y1) = surfaces.ris_positions[:2].tolist()
        receivers = [(x0, -0.0), (200.0, y0), (x1 + 1e-13, y1), (-0.0, 0.0),
                     (x1, math.nextafter(y1, 0.0)), (200.0, 50.0), (1e8, -1e8)]
        for rx in receivers:
            losses, counts = receiver_losses(config, surfaces, np.array(rx))
            expected = [rl.path_loss(a, b, config.wavelength)
                        for a, b in zip(surfaces.tx_distances.tolist(),
                                        _norm_distances(surfaces, rx).tolist())]
            assert [v.hex() for v in losses.tolist()] == [v.hex() for v in expected]
            assert counts.dtype == np.int64 and counts.tolist() == [
                rl.ris_element_count(config.gain_target, loss) for loss in expected]

    @pytest.mark.parametrize("overrides, rx, message", [
        (dict(), (1e200, 0.0), "deployment distances leave the floating-point range"),
        (dict(), (math.inf, 0.0), "deployment distances leave the floating-point range"),
        (dict(), (math.nan, 0.0), "deployment distances leave the floating-point range"),
        (dict(), (-1.4e154, 1.4e154), "deployment distances leave the floating-point range"),
        (dict(carrier_frequency=1e300), (200.0, 0.0),
         "cascaded path losses leave the floating-point range"),
        (dict(carrier_frequency=1e-290), (200.0, 0.0),
         "cascaded path losses leave the floating-point range"),
        (dict(gain_target=1e300), (200.0, 0.0), "surface element counts overflow"),
        # A count past int64 but finite overflows in numpy, not math.floor.
        (dict(gain_target=1e30), (200.0, 0.0), "surface element counts overflow"),
    ])
    def test_out_of_range_deployments_keep_their_messages(self, overrides, rx, message):
        config = rl.SystemConfig(**overrides)
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            receiver_losses(config, surface_geometry(config), np.array(rx))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_rx=5, n_tx=4),
        dict(n_ris=2, n_rx=4),
        dict(transmit_power=-1.0),
        dict(noise_power=0.0),
        dict(n_slots=0),
        dict(rician_factor=0.0),
        dict(gain_target=0.0),
        dict(n_ris_rx_paths=0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            rl.SystemConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "carrier_frequency", "rician_factor", "noise_power",
        "transmit_power", "gain_target", "dft_offset", "angle_error_std",
        "ris_axis_distance", "rx_center_distance", "rx_disk_radius",
    ])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            rl.SystemConfig().replace(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("n_tx", 16.5), ("n_rx", 2.0), ("n_ris", 4.0), ("n_nlos_tx_paths", np.float64(2.0)),
        ("n_ris_rx_paths", 3.5), ("n_slots", "2"), ("n_tx", None),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        # A fractional array size used to run (n_tx=16.5 gave a 16.5-element
        # array); others failed deep in the engine with a bare TypeError.
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            rl.SystemConfig().replace(**{name: value})

    def test_numpy_integer_counts_stored_as_int(self):
        counts = dict(n_tx=np.int64(8), n_rx=np.int32(2), n_ris=np.uint8(3),
                      n_nlos_tx_paths=np.int16(1), n_ris_rx_paths=np.int64(5),
                      n_slots=np.int64(2))
        config = rl.SystemConfig(**counts)
        for name, value in counts.items():
            assert type(getattr(config, name)) is int and getattr(config, name) == value
        assert config == rl.SystemConfig(**{k: int(v) for k, v in counts.items()})

    def test_pure_los_transmit_link_allowed(self):
        config = rl.SystemConfig(n_nlos_tx_paths=0)
        assert config.n_nlos_tx_paths == 0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        config = rl.SystemConfig(
            n_tx=8, n_rx=2, n_ris=3, rician_factor=3.5,
            transmit_power=0.25, n_slots=2, angle_error_std=0.02,
        )
        path = tmp_path / "system.json"
        rl.dump_config(config, path)
        loaded = rl.load_config(path)
        assert loaded == config

    def test_duplicate_key_rejected(self, tmp_path):
        # The later value would silently win; both lines are named instead.
        path = tmp_path / "run.cfg"
        path.write_text("n_tx = 16\n# comment\nn_rx = 2\nn_tx = 32\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=r":4: key 'n_tx' already set on line 1"):
            rl.load_config(path)

    def test_parse_config_value_types(self):
        assert rl.parse_config_value("n_tx", "8") == 8
        assert rl.parse_config_value("transmit_power", "0.5") == 0.5

    def test_parse_config_value_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            rl.parse_config_value("n_tx", "4.2")
        with pytest.raises(ConfigurationError):
            rl.parse_config_value("no_such_field", "1")
