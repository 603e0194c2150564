"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

import rislink as rl

BASE_SEED = 20240601


def small_config(**overrides) -> rl.SystemConfig:
    """A compact system that keeps per-test channel draws cheap."""
    defaults = dict(n_tx=8, n_rx=2, n_ris=3, n_ris_rx_paths=4, gain_target=2e-7)
    defaults.update(overrides)
    return rl.SystemConfig(**defaults)


def draw_scene(config: rl.SystemConfig, seed: int = BASE_SEED, *key: int):
    """Place a deployment and draw one full set of subchannels."""
    rng = rl.substream(seed, *key) if key else rl.substream(seed, 0)
    deployment = rl.place_deployment(config, rng)
    ups = [
        rl.draw_tx_ris_channel(config, deployment, k, rng)
        for k in range(config.n_ris)
    ]
    downs = [
        rl.draw_ris_rx_channel(
            config, deployment, k, rng, keep_away=ups[k].arrival_freqs
        )
        for k in range(config.n_ris)
    ]
    return deployment, ups, downs


def candidate_matrix(downs) -> np.ndarray:
    """Stack the receive-side arrival frequencies into the selection input."""
    return np.stack([down.arrival_freqs for down in downs])


def model_channel(design) -> np.ndarray:
    """The activated-paths model of one row's design,
    ``(r_active * xi_active) @ t_active^H``: what the leakage leaves out."""
    return (design.r_active * design.xi_active) @ design.t_active.conj().T


def profile_arrays(profiles):
    """Slopes (1, K) and common phases (1, 1, K) of per-surface
    :class:`rislink.RisConfiguration` profiles: one angle epoch's profiles
    as :func:`rislink.channel.composite` takes them."""
    slopes = np.array([[gamma.slope for gamma in profiles]])
    commons = np.array([[[gamma.common_phase for gamma in profiles]]])
    return slopes, commons


def random_profiles(deployment: rl.Deployment, rng: np.random.Generator):
    """Linear phase profiles with independent uniform slopes and common phases."""
    return [
        rl.RisConfiguration(k, int(count), slope=slope, common_phase=common)
        for k, (count, slope, common) in enumerate(zip(
            deployment.ris_element_counts,
            *rng.uniform(-np.pi, np.pi, (2, deployment.ris_element_counts.size)),
        ))
    ]
