"""Closed-form ergodic-SE engine.

Everything here is a pure function of a small parameter bundle: the
exponential-integral kernel, the multiplexing ergodic-SE approximation and
its Jensen upper bound, the beamforming upper bound (with and without
intra-symbol diversity), elementary symmetric functions, and the
transmit-power crossing point where the multiplexing bound overtakes the
beamforming bound.

The Ei kernels run on arrays: every entry follows the scalar recurrence
in the scalar order with its own stop rule, and takes ``log`` and ``exp``
from :mod:`math`, so array results equal one-point-at-a-time results bit
for bit.  A parameter bundle may hold a column of transmit powers, and
every closed form but the crossing point then runs over the column in
one pass.  The crossing solvers take one power, run on Python floats and
reject polynomials whose coefficients leave the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, integer_field
from .errors import ConfigurationError, ConvergenceError, NoCrossingError

_EULER_GAMMA = 0.5772156649015329
_SERIES_CUTOFF = 6.0


def _math_map(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` from :mod:`math` on every entry.  numpy's vectorized log and
    exp may differ from libm in the last bit, so the kernels keep libm."""
    return np.fromiter(map(fn, memoryview(values)), dtype=float, count=values.size)


def _shaped(out: np.ndarray, arr: np.ndarray):
    """A float for 0-d input, else ``out`` in the input's shape."""
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _ei_series(x):
    """Power series around zero: gamma + ln|x| + sum x^k/(k*k!).

    Scalar or array; every entry stops after its first term below 1e-22 in
    magnitude, or after 199 terms.  Entries run in ascending |x|: rounding
    is monotone and sign-symmetric, so every term's magnitude, and with it
    the stop count, does not decrease in |x|, and the running entries are
    one trailing slice whose magnitudes are sorted.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    order = np.argsort(np.abs(flat))
    xs = flat[order]
    total = _EULER_GAMMA + _math_map(math.log, np.abs(xs))
    term = np.ones_like(xs)
    scratch = np.empty_like(xs)
    start = 0
    for k in range(1, 200):
        if start == xs.size:
            break
        running = scratch[start:]
        np.divide(xs[start:], k, out=running)
        term[start:] *= running
        np.divide(term[start:], k, out=running)
        total[start:] += running
        start += int(np.searchsorted(np.abs(running, out=running), 1e-22))
    out = np.empty_like(flat)
    out[order] = total
    return _shaped(out, arr)


def _e1_cf_scaled(z):
    """exp(z) * E1(z) for z >= cutoff via a modified-Lentz continued fraction.

    Scalar or array; every entry stops once its update ratio is within
    1e-16 of one (exactly one) and leaves the working arrays.  Beyond z of
    about 1e15 the ratio can alternate one ulp either side of one for
    ever; entries still running after 499 steps are rerun and settle at
    the first ratio within 2**-52 of one.  An entry that does not settle
    either (nan) raises :class:`ConvergenceError`.
    """
    tiny = 1e-300
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    out = np.empty_like(flat)
    active = np.arange(flat.size)
    for tol in (1e-16, 2.0**-52):
        if not active.size:
            break
        zs = flat[active]
        f = zs + 1.0
        c = f
        d = np.zeros_like(zs)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, 500):
                if not active.size:
                    break
                a = -float(n * n)
                b = zs + 2.0 * n + 1.0
                d = b + a * d
                d[d == 0.0] = tiny
                c = b + a / c
                c[c == 0.0] = tiny
                d = 1.0 / d
                delta = c * d
                f *= delta
                done = np.abs(delta - 1.0) <= tol
                if done.any():
                    out[active[done]] = 1.0 / f[done]
                    keep = ~done
                    active, zs, f, c, d = active[keep], zs[keep], f[keep], c[keep], d[keep]
    if active.size:
        raise ConvergenceError(f"E1 continued fraction did not converge at z={flat[active[0]]}")
    return _shaped(out, arr)


def exp_integral_ei(x):
    """Exponential integral Ei on the negative axis.

    Series expansion near zero, continued fraction in the tail; within
    3.6e-15 absolute and 5.8e-12 relative across [-700, -1e-8].  Accepts a
    scalar or an array; every entry must be finite and strictly negative.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((-math.inf < arr) & (arr < 0)):
        raise ValueError("argument must be finite and negative")
    flat = arr.ravel()
    out = np.empty_like(flat)
    near = flat > -_SERIES_CUTOFF
    out[near] = _ei_series(flat[near])
    tail = flat[~near]
    out[~near] = -_math_map(math.exp, tail) * _e1_cf_scaled(-tail)
    return _shaped(out, arr)


def scaled_ei_neg(c):
    """exp(c) * Ei(-c) for c > 0, overflow-free for large c.

    Accepts a scalar or an array; every entry must be finite and strictly
    positive.
    """
    arr = np.asarray(c, dtype=float)
    if not np.all((0 < arr) & (arr < math.inf)):
        raise ValueError("argument must be finite and positive")
    flat = arr.ravel()
    out = np.empty_like(flat)
    near = flat < _SERIES_CUTOFF
    head = flat[near]
    out[near] = _math_map(math.exp, head) * _ei_series(-head)
    out[~near] = -_e1_cf_scaled(flat[~near])
    return _shaped(out, arr)


def se_sm_approx(c):
    """Ergodic multiplexing SE approximation: -(1/ln2) sum exp(c) Ei(-c).

    ``c`` holds one positive fading constant per stream (inverse mean
    stream SNR) and gives a float; a 2-D array of such rows, one per
    transmit power, gives an array, with all its constants in one Ei
    kernel call.  Each row sums in stream order.
    """
    block = np.asarray(c, dtype=float)
    rows = scaled_ei_neg(block.ravel()).reshape(np.atleast_2d(block).shape)
    # Negating the terms, not the sum, keeps 0.0 for a row of no streams.
    sums = sum(-rows.T, np.zeros(len(rows))) / math.log(2.0)
    return sums if block.ndim == 2 else float(sums[0])


# Below this, 1 + x rounds away over half of x's bits, and its rounding
# error (up to 2^-53) can exceed the margin of the bound over the
# multiplexing approximation (about x^2 / 2), so the bounds take
# log2(1 + x) as log1p(x) / ln 2.  Above it they keep log2(1 + x).
_LOG1P_BELOW = 2.0**-26


def se_sm_upper(c):
    """Jensen upper bound of the multiplexing ergodic SE: sum log2(1 + 1/c),
    a float for one row of stream constants, an array for a 2-D array."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c <= 0):
        raise ValueError("stream constants must be positive")
    snr = 1.0 / c
    terms = np.log2(1.0 + snr)
    if snr.min() < _LOG1P_BELOW:
        terms = np.where(snr < _LOG1P_BELOW, np.log1p(snr) / math.log(2.0), terms)
    sums = np.add.reduce(terms, axis=-1)
    return sums if c.ndim == 2 else float(sums)


@dataclass(frozen=True)
class ClosedFormParams:
    """Scalar bundle plus per-surface gain profile for the closed forms.

    ``gain_profile[n]`` is the product of surface n's element count and its
    cascaded amplitude loss; its square is the diagonal profile entering
    every bound.  Multiplexing formulas use the first ``n_rx`` entries, so
    order the profile accordingly.  The transmit power is a number or a
    non-empty 1-D column (stored as an array) of one point per power, each
    checked as its own bundle would be, and every closed form gives one
    value per power; the crossing solvers need one.
    """

    transmit_power: float | np.ndarray
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
        for name in ("n_tx", "n_rx", "n_ris", "n_ris_rx_paths", "n_slots"):
            value = getattr(self, name)
            if not isinstance(value, float) or math.isfinite(value):  # nan fails as non-finite
                object.__setattr__(self, name, integer_field(name, value))
        powers = np.asarray(self.transmit_power)
        if powers.ndim > 1 or not powers.size or powers.dtype.kind not in "biuf":
            raise ConfigurationError(
                f"transmit power must be a number or a non-empty 1-D column, "
                f"got {self.transmit_power!r}")
        if powers.ndim:
            object.__setattr__(self, "transmit_power", powers)
        powers = powers.ravel()
        # The first point, then the first point that fails a check, names
        # the failure, as one bundle per point in column order would.
        self._check_point(float(powers[0]))
        if powers.size > 1:
            with np.errstate(over="ignore", invalid="ignore"):
                good = (powers > 0.0) & self._in_range(self.power_coefficient(powers))
            self._check_point(float(powers[np.argmin(good)]))

    def _check_point(self, transmit_power: float) -> None:
        values = (transmit_power, self.noise_power, self.rician_factor, self.n_tx, self.n_rx,
                  self.n_ris, self.n_ris_rx_paths, self.n_slots)
        values += tuple(self.gain_profile.ravel().tolist())
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError("closed-form parameters must be finite")
        if any(v <= 0 for v in values):
            raise ConfigurationError("closed-form parameters must be positive")
        if self.gain_profile.shape != (self.n_ris,):
            raise ConfigurationError("gain profile needs one entry per surface")
        if self.n_rx > self.n_ris:
            raise ConfigurationError("need n_rx <= n_ris")
        self._check_range(self.power_coefficient(transmit_power))

    def _in_range(self, coefficient):
        """Whether 1 / (coefficient * profile^2) is finite and positive, at
        each coefficient: 1 / x is finite iff x > 2**-1024."""
        entries = self.gain_profile.ravel().tolist()
        high, low = max(entries), min(entries)
        steepest, flattest = coefficient * (high * high), coefficient * (low * low)
        return (steepest < math.inf) & (flattest > 2.0**-1024)

    def _check_range(self, coefficient) -> None:
        if not np.asarray(self._in_range(coefficient)).all():
            raise ConfigurationError("closed-form parameters leave the floating-point range")

    @classmethod
    def from_config(cls, config: SystemConfig, transmit_power=None) -> "ClosedFormParams":
        """Bundle from a system config, on the equal-gain-target profile, at
        the config's transmit power unless a power or column is given."""
        return cls(
            transmit_power=config.transmit_power if transmit_power is None else transmit_power,
            noise_power=config.noise_power,
            rician_factor=config.rician_factor,
            n_tx=config.n_tx,
            n_rx=config.n_rx,
            n_ris=config.n_ris,
            n_ris_rx_paths=config.n_ris_rx_paths,
            gain_profile=np.full(config.n_ris, config.gain_target),
            n_slots=config.n_slots,
        )

    def power_coefficient(self, transmit_power=None):
        """Per-unit-profile SNR slope: E * n_tx * kappa / (sigma^2 L (kappa+1)),
        at the bundle's transmit power E unless another is given; one per
        power of a column."""
        power = self.transmit_power if transmit_power is None else transmit_power
        return (
            power
            * self.n_tx
            * self.rician_factor
            / (
                self.noise_power
                * self.n_ris_rx_paths
                * (self.rician_factor + 1.0)
            )
        )

    def c_values(self) -> np.ndarray:
        """Per-stream fading constants of the multiplexing closed forms, one
        row per power of a column."""
        profile = self.gain_profile[: self.n_rx]
        return 1.0 / np.multiply.outer(self.power_coefficient(), profile**2)


def _bf_bound(params: ClosedFormParams, coefficient):
    profile = params.gain_profile
    squares = float(np.add.reduce(profile**2))
    cross = float(np.add.reduce(profile)) ** 2 - squares
    gain = squares + math.pi / 4.0 * cross
    snrs = [point * params.n_rx / params.n_ris * gain for point in np.ravel(coefficient).tolist()]
    bounds = [math.log1p(s) / math.log(2.0) if s < _LOG1P_BELOW else math.log2(1.0 + s)
              for s in snrs]
    return bounds[0] if np.ndim(coefficient) == 0 else np.array(bounds)


def se_bf_upper(params: ClosedFormParams):
    """Jensen upper bound of the beamforming ergodic SE.

    The double-sum over surface pairs splits into the squared-profile sum
    plus pi/4 times the off-diagonal profile products (the mean magnitude
    of a product of independent unit Rayleigh gains).
    """
    return _bf_bound(params, params.power_coefficient())


def se_db_upper(params: ClosedFormParams, n_slots: int | None = None):
    """Beamforming-with-path-hopping upper bound.

    The stacked combiner collects ``n_slots`` times the signal energy at
    the cost of an ``1/n_slots`` rate prefactor.
    """
    m = params.n_slots if n_slots is None else integer_field("n_slots", n_slots)
    if m < 1:
        raise ConfigurationError("need at least one slot")
    with np.errstate(over="ignore", invalid="ignore"):
        coefficient = params.power_coefficient(m * params.transmit_power)
        params._check_range(coefficient)
    return _bf_bound(params, coefficient) / m


def _symmetric_sums(values: list[float], order: int) -> list[float]:
    """Elementary symmetric polynomials of orders 0..order, on floats.

    Each order's accumulator takes the same steps whatever the top order.
    """
    acc = [1.0] + [0.0] * order
    for v in values:
        for j in range(order, 0, -1):
            acc[j] += v * acc[j - 1]
    return acc


def _crossing_polynomial(params: ClosedFormParams):
    """Coefficients and right-hand side of the crossing-point equation.

    In the normalized power variable X, the bound gap is
    ``sum_{n>=2} tr_n(mux profile) X^(n-1) - rhs``; a positive root exists
    iff ``rhs > 0`` and is unique because every coefficient is positive.
    Raises, in this order, :class:`ConfigurationError` for fewer than two
    streams, ``ValueError`` for a column of transmit powers,
    :class:`ConfigurationError` when a coefficient over- or underflows or
    the right-hand side is not finite, and :class:`NoCrossingError` when
    the right-hand side is not positive.
    """
    if params.n_rx < 2:
        raise ConfigurationError("crossing point needs at least two streams")
    if isinstance(params.transmit_power, np.ndarray) and params.transmit_power.ndim:
        raise ValueError("crossing point needs one transmit power, not a column")
    profile = params.gain_profile.tolist()
    squares = [v * v for v in profile]
    mux = _symmetric_sums(squares[: params.n_rx], params.n_rx)
    # The order-1 sum of the squares and the order-2 sum of the profile,
    # each accumulator taking the steps of its _symmetric_sums pass.
    square_sum = linear = pairs = 0.0
    for v, square in zip(profile, squares):
        square_sum += square
        pairs += v * linear
        linear += v
    rhs = (params.n_rx / params.n_ris) * (square_sum + (math.pi / 2.0) * pairs) - mux[1]
    coeffs = mux[2:]
    if not (all(0.0 < c < math.inf for c in coeffs) and math.isfinite(rhs)):
        raise ConfigurationError("crossing-point polynomial leaves the floating-point range")
    if rhs <= 0:
        raise NoCrossingError("bounds do not cross at positive power")
    return coeffs, rhs


def _poly(terms, x: float) -> float:
    """``sum c * x**n`` over ``terms``, added left to right."""
    return sum([c * x**n for n, c in terms])


def _replay_band(terms, rhs: float) -> tuple[float, float]:
    """Certified replay thresholds of :func:`crossing_point`, or (0, inf)."""
    m = len(terms)
    gamma = (m + 4) * 2.0**-52
    eta = (sum([c for _, c in terms]) + m) * 2.0**-1072
    descending = [c for _, c in reversed(terms)] + [0.0]  # degrees m, ..., 1, 0
    try:
        x = min([(rhs / c) ** (1.0 / n) for n, c in terms])
        for _ in range(100):
            # Horner's rule for S(x) and S'(x); an overflow gives inf or
            # nan, and a nan point fails the certification below.
            value, slope = descending[0], 0.0
            for c in descending[1:]:
                slope = slope * x + value
                value = value * x + c
            step = (value - rhs) / slope
            x -= step
            if not step > 1e-8 * x:
                break
        below, above = x * (1.0 - 8.0 * gamma), x * (1.0 + 8.0 * gamma)
        if (eta <= 0.5 * gamma * rhs and _poly(terms, below) + eta < (1.0 - 2.0 * gamma) * rhs
                and _poly(terms, above) - eta > (1.0 + 2.0 * gamma) * rhs):
            upper = above * (1.0 + 2.0 * gamma)
            if max(1.0, 4.0 * upper) ** m < math.inf:  # else the loop's x**n may raise
                return below * (1.0 - 2.0 * gamma), upper
    except OverflowError:
        pass
    return 0.0, math.inf


def crossing_point(params: ClosedFormParams) -> float:
    """Transmit power (watts) where the multiplexing bound overtakes the
    beamforming bound.

    Solves the normalized polynomial by doubling to bracket and bisecting
    to 1e-13 relative width (or until the midpoint repeats an endpoint);
    raises :class:`NoCrossingError` when the beamforming bound never leads
    (right-hand side non-positive), or the bracket or the power (0 W
    included) leaves the float range.

    Decisions far from the root are replayed, not evaluated.  ``gap``'s
    sign is that of S^ - rhs, where S^, the computed S(x) = sum c_n x^n
    over m terms, has |S^ - S| <= gamma S + eta: gamma = (m + 4) 2^-52
    covers pow, product and sum, and eta <= gamma rhs / 2 underflow.  With
    r the root and t = 2 gamma, S superlinear gives g(x) <= -t rhs for
    x <= r (1 - t) and g(x) >= t S(x) / (1 + t) for x >= r (1 + t), so
    there the computed sign is the true one.  Newton falls monotonically
    to r from the right (g is increasing and convex for X > 0), and sums
    at x^ (1 -/+ s) beyond the error bound certify a bracket [a, b] of r;
    points up to a (1 - t) or from b (1 + t) are replayed.  If Newton or
    the certification fails, or x**n could overflow below twice the upper
    threshold, every point is evaluated.
    """
    coeffs, rhs = _crossing_polynomial(params)
    terms = tuple(enumerate(coeffs, start=1))
    lower, upper = _replay_band(terms, rhs)

    def gap(x: float) -> float:
        return _poly(terms, x) - rhs

    # Bracketing past the float range: x**n raises OverflowError, and
    # doubling past the largest float gives inf.
    hi = 1.0
    try:
        while not (hi >= upper or hi > lower and gap(hi) > 0):
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
        if mid >= upper or mid > lower and gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return _crossing_watts(params, 0.5 * (lo + hi))


def _crossing_watts(params: ClosedFormParams, x_root: float) -> float:
    """Transmit power (watts) of a root of the normalized crossing
    polynomial; :class:`NoCrossingError` unless it is positive and finite
    (a unit coefficient that underflows to 0 puts it beyond the floats)."""
    unit_coefficient = params.power_coefficient() / params.transmit_power
    power = x_root / unit_coefficient if unit_coefficient > 0 else math.inf
    if not 0.0 < power < math.inf:
        raise NoCrossingError("bounds do not cross at a representable power")
    return power


def crossing_point_two_stream(params: ClosedFormParams) -> float:
    """Closed-form crossing power for exactly two streams."""
    if params.n_rx != 2:
        raise ValueError("closed form is specific to two streams")
    coeffs, rhs = _crossing_polynomial(params)
    return _crossing_watts(params, rhs / coeffs[0])


def crossing_point_three_stream(params: ClosedFormParams) -> float:
    """Closed-form crossing power for exactly three streams."""
    if params.n_rx != 3:
        raise ValueError("closed form is specific to three streams")
    coeffs, rhs = _crossing_polynomial(params)
    quad, lin = coeffs[1], coeffs[0]
    # Root of quad*x^2 + lin*x = rhs without the cancellation of -lin + sqrt(...).
    root_term = math.hypot(lin, 2.0 * math.sqrt(quad) * math.sqrt(rhs))
    return _crossing_watts(params, rhs / (0.5 * lin + 0.5 * root_term))
