"""Closed-form ergodic-SE engine.

Everything here is a pure function of a small parameter bundle: the
exponential-integral kernel, the multiplexing ergodic-SE approximation and
its Jensen upper bound, the beamforming upper bound (with and without
intra-symbol diversity), elementary symmetric functions, and the
transmit-power crossing point where the multiplexing bound overtakes the
beamforming bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Deployment, SystemConfig
from .errors import ConfigurationError, ConvergenceError, NoCrossingError

_EULER_GAMMA = 0.5772156649015329
_SERIES_CUTOFF = 6.0


def _ei_series(x: float) -> float:
    """Power series around zero: gamma + ln|x| + sum x^k/(k*k!)."""
    total = _EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, 200):
        term *= x / k
        contribution = term / k
        total += contribution
        if abs(contribution) < 1e-22:
            break
    return total


def _e1_cf_scaled(z: float) -> float:
    """exp(z) * E1(z) for z >= cutoff via a modified-Lentz continued fraction."""
    tiny = 1e-300
    f = z + 1.0
    c = f
    d = 0.0
    for n in range(1, 500):
        a = -float(n * n)
        b = z + 2.0 * n + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise ConvergenceError(f"E1 continued fraction did not converge at z={z}")


def _ei_neg_scalar(x: float) -> float:
    if not x < 0:
        raise ValueError("argument must be negative")
    if x > -_SERIES_CUTOFF:
        return _ei_series(x)
    return -math.exp(x) * _e1_cf_scaled(-x)


def exp_integral_ei(x):
    """Exponential integral Ei on the negative axis.

    Series expansion near zero, continued fraction in the tail; absolute
    accuracy well under 1e-12 across [-700, -1e-8].  Accepts a scalar or an
    array; every entry must be strictly negative.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    for idx, val in np.ndenumerate(arr):
        out[idx] = _ei_neg_scalar(float(val))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def scaled_ei_neg(c: float) -> float:
    """exp(c) * Ei(-c) for c > 0, overflow-free for large c."""
    if not c > 0:
        raise ValueError("argument must be positive")
    if c < _SERIES_CUTOFF:
        return math.exp(c) * _ei_series(-c)
    return -_e1_cf_scaled(c)


def se_sm_approx(c) -> float:
    """Ergodic multiplexing SE approximation: -(1/ln2) sum exp(c) Ei(-c).

    ``c`` holds one positive fading constant per stream (inverse mean
    stream SNR).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c <= 0):
        raise ValueError("stream constants must be positive")
    return float(-sum(scaled_ei_neg(v) for v in c) / math.log(2.0))


def se_sm_upper(c) -> float:
    """Jensen upper bound of the multiplexing ergodic SE: sum log2(1 + 1/c)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c <= 0):
        raise ValueError("stream constants must be positive")
    return float(np.sum(np.log2(1.0 + 1.0 / c)))


@dataclass(frozen=True)
class ClosedFormParams:
    """Scalar bundle plus per-surface gain profile for the closed forms.

    ``gain_profile[n]`` is the product of surface n's element count and its
    cascaded amplitude loss; its square is the diagonal profile entering
    every bound.  Multiplexing formulas use the first ``n_rx`` entries, so
    order the profile accordingly.
    """

    transmit_power: float
    noise_power: float
    rician_factor: float
    n_tx: int
    n_rx: int
    n_ris: int
    n_ris_rx_paths: int
    gain_profile: np.ndarray
    n_slots: int = 1

    def __post_init__(self) -> None:
        profile = np.atleast_1d(np.asarray(self.gain_profile, dtype=float))
        object.__setattr__(self, "gain_profile", profile)
        scalars = (
            self.transmit_power,
            self.noise_power,
            self.rician_factor,
            self.n_tx,
            self.n_rx,
            self.n_ris,
            self.n_ris_rx_paths,
            self.n_slots,
        )
        if not all(math.isfinite(s) for s in scalars) or not np.all(np.isfinite(profile)):
            raise ConfigurationError("closed-form parameters must be finite")
        if any(s <= 0 for s in scalars) or np.any(profile <= 0):
            raise ConfigurationError("closed-form parameters must be positive")
        if profile.shape != (self.n_ris,):
            raise ConfigurationError("gain profile needs one entry per surface")
        if self.n_rx > self.n_ris:
            raise ConfigurationError("need n_rx <= n_ris")

    @classmethod
    def from_config(
        cls, config: SystemConfig, deployment: Deployment | None = None
    ) -> "ClosedFormParams":
        """Bundle from a system config; equal-target profile unless a
        realized deployment supplies exact counts and losses."""
        if deployment is None:
            profile = np.full(config.n_ris, config.gain_target)
        else:
            profile = deployment.ris_element_counts * deployment.path_losses
        return cls(
            transmit_power=config.transmit_power,
            noise_power=config.noise_power,
            rician_factor=config.rician_factor,
            n_tx=config.n_tx,
            n_rx=config.n_rx,
            n_ris=config.n_ris,
            n_ris_rx_paths=config.n_ris_rx_paths,
            gain_profile=profile,
            n_slots=config.n_slots,
        )

    def power_coefficient(self) -> float:
        """Per-unit-profile SNR slope: E * n_tx * kappa / (sigma^2 L (kappa+1))."""
        return (
            self.transmit_power
            * self.n_tx
            * self.rician_factor
            / (
                self.noise_power
                * self.n_ris_rx_paths
                * (self.rician_factor + 1.0)
            )
        )

    def c_values(self) -> np.ndarray:
        """Per-stream fading constants of the multiplexing closed forms."""
        profile = self.gain_profile[: self.n_rx]
        return 1.0 / (self.power_coefficient() * profile**2)


def se_bf_upper(params: ClosedFormParams) -> float:
    """Jensen upper bound of the beamforming ergodic SE.

    The double-sum over surface pairs splits into the squared-profile sum
    plus pi/4 times the off-diagonal profile products (the mean magnitude
    of a product of independent unit Rayleigh gains).
    """
    profile = params.gain_profile
    squares = float(np.sum(profile**2))
    cross = float(np.sum(profile)) ** 2 - squares
    scale = params.power_coefficient() * params.n_rx / params.n_ris
    return math.log2(1.0 + scale * (squares + math.pi / 4.0 * cross))


def se_db_upper(params: ClosedFormParams, n_slots: int | None = None) -> float:
    """Beamforming-with-path-hopping upper bound.

    The stacked combiner collects ``n_slots`` times the signal energy at
    the cost of an ``1/n_slots`` rate prefactor.
    """
    m = params.n_slots if n_slots is None else int(n_slots)
    if m < 1:
        raise ConfigurationError("need at least one slot")
    boosted = ClosedFormParams(
        transmit_power=m * params.transmit_power,
        noise_power=params.noise_power,
        rician_factor=params.rician_factor,
        n_tx=params.n_tx,
        n_rx=params.n_rx,
        n_ris=params.n_ris,
        n_ris_rx_paths=params.n_ris_rx_paths,
        gain_profile=params.gain_profile,
        n_slots=m,
    )
    return se_bf_upper(boosted) / m


def sym_func(values, order: int) -> float:
    """Elementary symmetric polynomial of the given entries.

    Order 0 returns 1; the order may not exceed the number of entries.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if not 0 <= order <= values.size:
        raise ValueError(f"order {order} out of range for {values.size} entries")
    acc = np.zeros(order + 1)
    acc[0] = 1.0
    for v in values:
        upper = min(order, len(acc) - 1)
        for j in range(upper, 0, -1):
            acc[j] += v * acc[j - 1]
    return float(acc[order])


def _crossing_polynomial(params: ClosedFormParams):
    """Coefficients and right-hand side of the crossing-point equation.

    In the normalized power variable X, the bound gap is
    ``sum_{n>=2} tr_n(mux profile) X^(n-1) - rhs``; a positive root exists
    iff ``rhs > 0`` and is unique because every coefficient is positive.
    """
    profile = params.gain_profile
    mux_sq = profile[: params.n_rx] ** 2
    all_sq = profile**2
    rhs = (params.n_rx / params.n_ris) * (
        sym_func(all_sq, 1) + (math.pi / 2.0) * sym_func(profile, 2)
    ) - sym_func(mux_sq, 1)
    coeffs = [sym_func(mux_sq, n) for n in range(2, params.n_rx + 1)]
    return coeffs, rhs


def crossing_point(params: ClosedFormParams) -> float:
    """Transmit power (watts) where the multiplexing bound overtakes the
    beamforming bound.

    Solves the normalized polynomial by doubling to bracket and bisecting
    to 1e-13 relative width; raises :class:`NoCrossingError` when the
    beamforming bound never leads (right-hand side non-positive).
    """
    if params.n_rx < 2:
        raise ValueError("crossing point needs at least two streams")
    coeffs, rhs = _crossing_polynomial(params)
    if rhs <= 0:
        raise NoCrossingError("bounds do not cross at positive power")

    def gap(x: float) -> float:
        return sum(c * x**n for n, c in enumerate(coeffs, start=1)) - rhs

    hi = 1.0
    for _ in range(5000):
        if gap(hi) > 0:
            break
        hi *= 2.0
    else:
        raise NoCrossingError("failed to bracket the crossing point")
    lo = 0.0
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    x_root = 0.5 * (lo + hi)
    unit_coefficient = params.power_coefficient() / params.transmit_power
    return x_root / unit_coefficient


def crossing_point_two_stream(params: ClosedFormParams) -> float:
    """Closed-form crossing power for exactly two streams."""
    if params.n_rx != 2:
        raise ValueError("closed form is specific to two streams")
    coeffs, rhs = _crossing_polynomial(params)
    if rhs <= 0:
        raise NoCrossingError("bounds do not cross at positive power")
    x_root = rhs / coeffs[0]
    return x_root / (params.power_coefficient() / params.transmit_power)


def crossing_point_three_stream(params: ClosedFormParams) -> float:
    """Closed-form crossing power for exactly three streams."""
    if params.n_rx != 3:
        raise ValueError("closed form is specific to three streams")
    coeffs, rhs = _crossing_polynomial(params)
    if rhs <= 0:
        raise NoCrossingError("bounds do not cross at positive power")
    quad, lin = coeffs[1], coeffs[0]
    x_root = (-lin + math.sqrt(lin * lin + 4.0 * quad * rhs)) / (2.0 * quad)
    return x_root / (params.power_coefficient() / params.transmit_power)
