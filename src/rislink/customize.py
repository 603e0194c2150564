"""Path selection and per-surface phase design for each transmission scheme.

Scheme tags used throughout the package:

- ``sm``: spatial multiplexing over one surface/path pair per receive stream,
- ``bf``: single-stream beamforming over every surface,
- ``ds``: multiplexing with per-slot path hopping (intra-symbol diversity),
- ``db``: beamforming with per-slot path hopping.

The selectors score candidate receive responses by how close their Gram
matrix is to a target (identity for multiplexing, all-ones for
beamforming); searches are exhaustive with deterministic lexicographic
tie-breaking so equal inputs always yield equal selections.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .channel import MultipathChannel, _response_matrix, assemble_composite
from .config import Deployment
from .errors import SearchSpaceError, SelectionInfeasibleError
from .ris import RisConfiguration, align_phases, common_phase_refinement

SCHEME_TAGS = ("sm", "bf", "ds", "db")
DEFAULT_SEARCH_CAP = 10_000_000

Subchannels = tuple[Sequence[MultipathChannel], Sequence[MultipathChannel]]


@dataclass(frozen=True)
class PathSelection:
    """Outcome of a selection search.

    ``active_ris`` lists the surfaces that carry a retargeted path, in
    ascending order.  ``slot_paths[m][i]`` is the receiver-side path index
    assigned to ``active_ris[i]`` during slot ``m``; single-configuration
    schemes have exactly one slot.  ``slot_objectives`` holds the realized
    Gram-mismatch objective of every slot.
    """

    scheme: str
    active_ris: tuple[int, ...]
    slot_paths: tuple[tuple[int, ...], ...]
    slot_objectives: tuple[float, ...]

    @property
    def n_slots(self) -> int:
        return len(self.slot_paths)

    @property
    def objective_value(self) -> float:
        return self.slot_objectives[0]


def _candidate_gram(candidates: np.ndarray, n_rx: int) -> np.ndarray:
    """Gram matrix of receive responses for all (surface, path) candidates.

    ``candidates`` has shape (n_ris, n_paths); column ``k * n_paths + l``
    of the response stack belongs to surface ``k``, path ``l``.
    """
    responses = _response_matrix(n_rx, np.asarray(candidates, dtype=float).ravel())
    return responses.conj().T @ responses


def _best_tuple(
    gram: np.ndarray,
    groups: Sequence[np.ndarray],
    target_off_diagonal: float,
    cap: int,
) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize the Gram mismatch over one index per group.

    ``groups`` holds flat candidate column indices.  The objective is the
    squared Frobenius distance between the selected columns' Gram matrix
    and a target with unit diagonal and ``target_off_diagonal`` elsewhere.
    Returns positional indices into each group (first minimizer in
    lexicographic order) and the objective value.
    """
    sizes = [len(g) for g in groups]
    if math.prod(sizes) > cap:
        raise SearchSpaceError(
            f"selection search of {math.prod(sizes)} tuples exceeds cap {cap}"
        )
    n_groups = len(groups)
    objective = np.zeros(sizes)
    diag = np.real(np.diagonal(gram))
    for a in range(n_groups):
        shape = [1] * n_groups
        shape[a] = sizes[a]
        objective += (np.abs(diag[groups[a]] - 1.0) ** 2).reshape(shape)
    for a in range(n_groups):
        for b in range(a + 1, n_groups):
            cross = np.abs(gram[np.ix_(groups[a], groups[b])] - target_off_diagonal) ** 2
            shape = [1] * n_groups
            shape[a] = sizes[a]
            shape[b] = sizes[b]
            objective += 2.0 * cross.reshape(shape)
    flat = int(np.argmin(objective))
    best = np.unravel_index(flat, sizes)
    return tuple(int(i) for i in best), float(objective.reshape(-1)[flat])


def select_paths_sm(
    candidates: np.ndarray,
    n_rx: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> PathSelection:
    """Pick ``n_rx`` (surface, path) pairs with the most orthogonal responses.

    ``candidates[k, l]`` is the receive-side spatial frequency of path ``l``
    through surface ``k``.  Minimizes the squared distance between the Gram
    matrix of the selected receive responses and the identity, over every
    surface subset of size ``n_rx`` and every path assignment; ties go to
    the lexicographically smallest (subset, assignment).
    """
    candidates = np.asarray(candidates, dtype=float)
    n_ris, n_paths = candidates.shape
    if not (n_ris >= n_rx >= 1):
        raise SelectionInfeasibleError("need n_ris >= n_rx >= 1 for multiplexing")
    space = math.comb(n_ris, n_rx) * n_paths**n_rx
    if space > cap:
        raise SearchSpaceError(f"selection search of {space} tuples exceeds cap {cap}")
    gram = _candidate_gram(candidates, n_rx)
    best_obj = math.inf
    best_subset: tuple[int, ...] = ()
    best_paths: tuple[int, ...] = ()
    for subset in combinations(range(n_ris), n_rx):
        groups = [np.arange(n_paths) + k * n_paths for k in subset]
        positions, obj = _best_tuple(gram, groups, 0.0, cap)
        if obj < best_obj:
            best_obj = obj
            best_subset = subset
            best_paths = positions
    return PathSelection(
        scheme="sm",
        active_ris=best_subset,
        slot_paths=(best_paths,),
        slot_objectives=(best_obj,),
    )


def select_paths_bf(
    candidates: np.ndarray,
    n_rx: int,
    active_ris: Sequence[int] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> PathSelection:
    """Pick one path per surface with maximally aligned receive responses.

    Activates every surface (or the given subset) and minimizes the squared
    distance between the selected responses' Gram matrix and the all-ones
    matrix (perfect alignment); ties go to the lexicographically smallest
    assignment.
    """
    candidates = np.asarray(candidates, dtype=float)
    n_ris, n_paths = candidates.shape
    active = tuple(range(n_ris)) if active_ris is None else tuple(sorted(active_ris))
    gram = _candidate_gram(candidates, n_rx)
    groups = [np.arange(n_paths) + k * n_paths for k in active]
    positions, obj = _best_tuple(gram, groups, 1.0, cap)
    return PathSelection(
        scheme="bf",
        active_ris=active,
        slot_paths=(positions,),
        slot_objectives=(obj,),
    )


def select_paths_diversity(
    candidates: np.ndarray,
    scheme: str,
    n_slots: int,
    n_rx: int,
    cap: int = DEFAULT_SEARCH_CAP,
    first: PathSelection | None = None,
) -> PathSelection:
    """Assign disjoint per-slot paths for the path-hopping schemes.

    Slot 0 reuses the single-configuration search (``sm`` rules for ``ds``,
    ``bf`` rules for ``db``); pass that search's result as ``first`` when
    it is already at hand.  Later slots greedily re-run the same search
    restricted to each active surface's unused paths, with the active
    surface set frozen.  Requires ``n_slots`` at most the per-surface path
    count.
    """
    if scheme not in ("ds", "db"):
        raise ValueError(f"unknown diversity scheme {scheme!r}")
    base_scheme = "sm" if scheme == "ds" else "bf"
    if first is not None and (first.scheme != base_scheme or first.n_slots != 1):
        raise ValueError(f"slot 0 of {scheme!r} needs a one-slot {base_scheme!r} selection")
    candidates = np.asarray(candidates, dtype=float)
    n_ris, n_paths = candidates.shape
    if n_slots < 1:
        raise SelectionInfeasibleError("need at least one slot")
    if n_slots > n_paths:
        raise SelectionInfeasibleError(
            f"{n_slots} slots need {n_slots} disjoint paths but only {n_paths} exist"
        )
    if first is None:
        first = (
            select_paths_sm(candidates, n_rx, cap)
            if scheme == "ds"
            else select_paths_bf(candidates, n_rx, cap=cap)
        )
    active = first.active_ris
    target = 0.0 if scheme == "ds" else 1.0
    gram = _candidate_gram(candidates, n_rx)

    used = {k: {path} for k, path in zip(active, first.slot_paths[0])}
    slot_paths = [first.slot_paths[0]]
    slot_objectives = [first.slot_objectives[0]]
    for _ in range(1, n_slots):
        groups = []
        remaining = []
        for k in active:
            free = np.array([l for l in range(n_paths) if l not in used[k]])
            remaining.append(free)
            groups.append(free + k * n_paths)
        positions, obj = _best_tuple(gram, groups, target, cap)
        chosen = tuple(int(remaining[i][p]) for i, p in enumerate(positions))
        for k, path in zip(active, chosen):
            used[k].add(path)
        slot_paths.append(chosen)
        slot_objectives.append(obj)
    return PathSelection(
        scheme=scheme,
        active_ris=active,
        slot_paths=tuple(slot_paths),
        slot_objectives=tuple(slot_objectives),
    )


@dataclass(frozen=True, eq=False)
class CustomizedChannel:
    """One slot's designed link: phase profiles plus the shaped channel.

    ``r_active`` / ``t_active`` hold the receive/transmit responses of the
    activated paths (one column per active surface, in
    ``selection.active_ris`` order).  ``xi_active`` holds the designed
    effective gains of those paths, and ``exact_h`` is the full composite
    channel realized under the designed phase profiles, including whatever
    the profiles did not shape.  A design over stacked fading epochs gives
    ``xi_active`` and ``exact_h`` (and refined common phases) a leading
    epoch axis; the responses depend on angles only and have none.
    """

    selection: PathSelection
    slot: int
    r_active: np.ndarray
    t_active: np.ndarray
    xi_active: np.ndarray
    gammas: tuple[RisConfiguration, ...]
    exact_h: np.ndarray

    def approx_h(self) -> np.ndarray:
        """Activated-paths-only model of the shaped channel."""
        return (self.r_active * self.xi_active[..., None, :]) @ self.t_active.conj().T

    def epoch(self, index: int) -> "CustomizedChannel":
        """The single-epoch design of fading epoch ``index`` of a stacked design."""
        return replace(
            self,
            xi_active=self.xi_active[index],
            exact_h=self.exact_h[index],
            gammas=tuple(
                gamma.with_common_phase(gamma.common_phase[index])
                if np.ndim(gamma.common_phase) else gamma
                for gamma in self.gammas
            ),
        )


def build_customized_channel(
    selection: PathSelection,
    subchannels: Subchannels,
    deployment: Deployment,
    slot: int = 0,
    refine: bool = False,
    exact_subchannels: Subchannels | None = None,
) -> CustomizedChannel:
    """Design phase profiles for one slot and realize the shaped channel.

    Each active surface gets a linear profile retargeting its assigned
    receiver-side path onto the transmitter line of sight; inactive
    surfaces keep an all-zero profile.  With ``refine`` set, a common phase
    per active surface co-phases the retargeted paths at the receiver
    (needed by the beamforming schemes).  ``subchannels`` is the
    ``(tx_ris, ris_rx)`` channel pair as known to the designer; pass
    ``exact_subchannels`` to realize ``exact_h`` on different (error-free)
    channels than the design saw.  Gains stacked over F fading epochs give
    an F-epoch design: profiles, responses and surface kernels are built
    once, and only the gain-dependent parts carry the epoch axis.
    """
    tx_ris, ris_rx = subchannels
    n_rx = ris_rx[0].n_out
    n_tx = tx_ris[0].n_in
    stacked = tx_ris[0].gains.ndim == 2
    gammas = [RisConfiguration.neutral(up.n_in, ris_index=k) for k, up in enumerate(ris_rx)]
    rx_freqs = []
    tx_freqs = []
    gains = []
    for k, rx_path in zip(selection.active_ris, selection.slot_paths[slot]):
        up, down = ris_rx[k], tx_ris[k]
        rx_gains = np.atleast_2d(up.gains)[:, rx_path]
        tx_gains = np.atleast_2d(down.gains)[:, 0]
        gamma = align_phases(
            up.departure_freqs[rx_path], down.arrival_freqs[0], up.n_in, k, (rx_path, 0)
        )
        commons = [0.0] * rx_gains.size
        if refine:
            commons = [
                common_phase_refinement(rx, tx, up.arrival_freqs[rx_path], n_rx)
                for rx, tx in zip(rx_gains, tx_gains)
            ]
            gamma = gamma.with_common_phase(np.array(commons) if stacked else commons[0])
        gammas[k] = gamma
        rx_freqs.append(up.arrival_freqs[rx_path])
        tx_freqs.append(down.departure_freqs[0])
        # The profile retargets exactly this pair: its inner product is
        # e^{ic}.  Scalar products epoch by epoch, because numpy's
        # vectorized complex product rounds differently (fused multiply-add).
        gains.append([
            deployment.path_losses[k] * rx * tx * cmath.exp(1j * common)
            for rx, tx, common in zip(rx_gains, tx_gains, commons)
        ])

    exact_tx, exact_rx = exact_subchannels if exact_subchannels is not None else (tx_ris, ris_rx)
    exact_h = assemble_composite(exact_tx, gammas, exact_rx, deployment)
    xi_active = np.array(gains).T.copy()  # (epochs, active surfaces)
    return CustomizedChannel(
        selection=selection,
        slot=slot,
        r_active=_response_matrix(n_rx, np.array(rx_freqs)),
        t_active=_response_matrix(n_tx, np.array(tx_freqs)),
        xi_active=xi_active if stacked else xi_active[0],
        gammas=tuple(gammas),
        exact_h=exact_h,
    )
