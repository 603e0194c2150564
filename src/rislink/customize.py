"""Path selection and per-surface phase design for each transmission scheme.

Scheme tags used throughout the package:

- ``sm``: spatial multiplexing over one surface/path pair per receive stream,
- ``bf``: single-stream beamforming over every surface,
- ``ds``: multiplexing with per-slot path hopping (intra-symbol diversity),
- ``db``: beamforming with per-slot path hopping.

The schemes come in two families (:data:`FAMILIES`), multiplexing and
beamforming, each a single-configuration scheme and its hopping scheme,
which adds slots to the same selection; a selection belongs to a family.
The selectors score candidate receive responses by how close their Gram
matrix is to a target (identity for multiplexing, all-ones for
beamforming); searches are exact, skipping by bound only what cannot win,
with deterministic lexicographic tie-breaking so equal inputs always
yield equal selections.  Selection and design work on stacks of angle
epochs, as arrays from search to design: :func:`select_paths_stack` takes
every angle epoch's candidate receive-side angles, builds their
:class:`SearchTerms` once, and runs every family's searches on them, one
stacked search per slot, into one :class:`SelectionStack` per family,
and :func:`design_slots` designs one of its slots for every (angle epoch,
fading epoch) row of a :class:`HopStack` into a :class:`DesignStack`.
One angle epoch is a stack of one.

Every profile is linear in the element index (element ``i`` applies ``i *
slope + c`` radians): its slope retargets one path pair onto the cascaded
loss times the two path gains, and ``c`` co-phases the retargeted paths at
the receiver.  What the profiles leave unshaped (the leakage) is, per row
of a :class:`DesignStack`, ``exact_h - (r_active * xi_active) @ t_active^H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Sequence

import numpy as np

from .channel import HopStack, _response_matrix, composite
from .errors import SearchSpaceError, SelectionInfeasibleError

SCHEME_TAGS = ("sm", "bf", "ds", "db")
# Scheme family -> (single-configuration scheme, path-hopping scheme).  A
# family runs one selection search, multiplexing or beamforming; its hopping
# scheme extends the single one: the selection and designs begin with the
# single scheme's, and the results continue the same slot sums.
FAMILIES = {"multiplex": ("sm", "ds"), "beamform": ("bf", "db")}
DEFAULT_SEARCH_CAP = 10_000_000
# Objective elements the bounded search evaluates at a time, and above
# which a stacked search of three or more groups bounds rather than runs
# dense (on a 2-core x86 host the two break even at about 2-5 x 10^4
# stacked elements of three or four groups and 5-8 x 10^4 of five).
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class SelectionStack:
    """One family's path selections over a stack of A angle epochs and M
    slots.

    ``active`` (A, n_active) lists, per angle epoch, the surfaces that carry
    a retargeted path, in ascending order.  ``paths[a, m, i]`` is the
    receiver-side path assigned to surface ``active[a, i]`` during slot
    ``m``, shape (A, M, n_active); both are int64.  ``objectives`` (A, M)
    holds the realized Gram-mismatch objective of every slot.  A family's
    single-configuration scheme reads slot 0, its hopping scheme a prefix of
    the slots.
    """

    active: np.ndarray
    paths: np.ndarray
    objectives: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.paths.shape[1]


def _candidate_gram(candidates: np.ndarray, n_rx: int) -> np.ndarray:
    """Gram matrix of receive responses for all (surface, path) candidates.

    ``candidates`` has shape (n_ris, n_paths), after any leading axes;
    column ``k * n_paths + l`` of the response stack belongs to surface
    ``k``, path ``l``.
    """
    candidates = np.asarray(candidates, dtype=float)
    responses = _response_matrix(n_rx, candidates.reshape(candidates.shape[:-2] + (-1,)))
    return np.swapaxes(responses.conj(), -1, -2) @ responses


class SearchTerms:
    """The selection objective's terms for a stack of angle epochs, shared
    by every search over them: one Gram matrix per angle epoch, shape
    (A, N, N), and the unary term ``|G_ii - 1|^2`` of every candidate."""

    def __init__(self, gram: np.ndarray) -> None:
        self.gram = gram
        self.unary = np.abs(np.real(np.diagonal(gram, axis1=-2, axis2=-1)) - 1.0) ** 2

    def gather(
        self, searches: Sequence[tuple[Sequence[np.ndarray | slice], float]]
    ) -> tuple[list[np.ndarray], dict[tuple[int, int], np.ndarray]]:
        """The terms of a stack of searches of equal group sizes, each
        search's A rows after the last's: per group, the unary terms of its
        indices, and per group pair ``a < b`` (keyed in lexicographic order)
        ``2 |G_ab - target|^2``.  Each search holds its target off-diagonal
        and its groups: all slices of the candidates, read through views, or
        all flat candidate indices of shape (A, S) or (S,), read by index
        (the same terms bit for bit).  Each search's terms are written into
        its block of C-ordered stack arrays."""
        n_angle = len(self.gram)
        rows = np.arange(n_angle)[:, None]
        sizes = [_group_size(g) for g in searches[0][0]]
        n_rows = n_angle * len(searches)
        unary = [np.empty((n_rows, size)) for size in sizes]
        pairs = {
            (a, b): np.empty((n_rows, sizes[a], sizes[b]))
            for a, b in combinations(range(len(sizes)), 2)
        }
        for j, (groups, target) in enumerate(searches):
            block = slice(j * n_angle, (j + 1) * n_angle)
            views = all(isinstance(g, slice) for g in groups)
            at = slice(None) if views else rows
            groups = groups if views else [np.asarray(g) for g in groups]
            for term, g in zip(unary, groups):
                term[block] = self.unary[at, g]
            for (a, b), term in pairs.items():
                ga, gb = groups[a], groups[b]
                index = (at, ga, gb) if views else (
                    rows[..., None], ga[..., :, None], gb[..., None, :])
                term[block] = 2.0 * np.abs(self.gram[index] - target) ** 2
        return unary, pairs


def _group_size(group: np.ndarray | slice) -> int:
    """A search group's size: a slice's length or an index array's last axis."""
    return group.stop - group.start if isinstance(group, slice) else np.shape(group)[-1]


def _head_prefixes(unary: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every index prefix over all groups but the last two, as one index
    array per head group, in C (lexicographic) order.  Terms carry a
    leading row axis."""
    return [h.ravel() for h in np.indices([u.shape[-1] for u in unary[:-2]])]


def _slab_objective(unary, pairs, rows: np.ndarray, heads: Sequence[np.ndarray]) -> np.ndarray:
    """Exact objective over slabs, one per entry of ``rows``.

    Every term carries a leading row axis (one row per search).  Slab ``i``
    belongs to row ``rows[i]`` and fixes head group ``g`` at ``heads[g][i]``
    (with no heads, a row's whole search space is one slab).  The result
    has shape (len(rows), *tail group sizes).  Every element sums zero, the
    unary terms in group order, then the pair terms in lexicographic order:
    one order for every slab and row, so objective values do not depend on
    how a search is cut or stacked.
    """
    n_head = len(heads)
    tail_sizes = [u.shape[1] for u in unary[n_head:]]
    objective = np.zeros([len(rows), *tail_sizes])
    for members, term in [*(((a,), u) for a, u in enumerate(unary)), *pairs.items()]:
        shape = [len(rows)] + [1] * len(tail_sizes)
        for g in members:
            if g >= n_head:
                shape[1 + g - n_head] = tail_sizes[g - n_head]
        # Head members come first, so the row and head indices stay adjacent.
        objective += term[(rows, *(heads[g] for g in members if g < n_head))].reshape(shape)
    return objective


def _prefix_bounds(unary, pairs, separable: bool = False) -> np.ndarray:
    """Lower bound of every head prefix's slab, per row: shape (rows,
    prefixes), prefixes in C order (see :func:`_bounded_minima`).  The
    ``separable`` bound takes each head group but the first at its own
    least pair term to a tail group: never above the tight bound, since a
    minimum of sums is at least the sum of the minima."""
    n_rows = len(unary[0])
    n_head = len(unary) - 2

    def spread(term: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        shape = [n_rows] + [1] * (n_head + 1)
        for axis, size in zip(axes, term.shape[1:]):
            shape[1 + axis] = size
        return term.reshape(shape)

    # After the row axis, axis 0 holds a tail group's index and axis a + 1
    # head group a's.  The pair terms are copied tail-major, so the least
    # over the tail index reduces across whole head grids in memory order.
    # The sum starts a new array of every prefix, so the rest adds in place.
    bound = sum(spread(unary[a], (a + 1,)) for a in range(n_head))
    for a, b in combinations(range(n_head), 2):
        bound += spread(pairs[a, b], (a + 1, b + 1))
    joint = 1 if separable else n_head
    for t in range(n_head, len(unary)):
        reach = spread(unary[t], (0,))
        for a in range(joint):
            reach = reach + spread(np.ascontiguousarray(np.swapaxes(pairs[a, t], 1, 2)), (0, a + 1))
        reach = reach.min(axis=1, keepdims=True)
        for a in range(joint, n_head):
            reach = reach + spread(pairs[a, t].min(axis=2), (a + 1,))
        bound += reach
    for a, b in combinations(range(n_head, len(unary)), 2):
        bound += spread(pairs[a, b].reshape(n_rows, -1).min(axis=1), ())
    return bound.reshape(n_rows, -1)


def _slab_bounds(unary, pairs, rows: np.ndarray, heads: Sequence[np.ndarray]) -> np.ndarray:
    """The tight :func:`_prefix_bounds` of the slabs ``rows`` and ``heads``
    (as in :func:`_slab_objective`), bit for bit, gathering at most
    ``_CHUNK_ELEMENTS >> 3`` tail terms at a time (64 KiB, below glibc's
    mmap threshold)."""
    n_head = len(heads)
    tail_pairs = [pairs[a, b].reshape(len(pairs[a, b]), -1).min(axis=1)
                  for a, b in combinations(range(n_head, len(unary)), 2)]
    block = max(1, (_CHUNK_ELEMENTS >> 3) // max(u.shape[1] for u in unary[n_head:]))
    bound = np.empty(len(rows))
    for start in range(0, len(rows), block):
        r, h = rows[start:start + block], [g[start:start + block] for g in heads]
        part = sum(unary[a][r, h[a]] for a in range(n_head))
        for a, b in combinations(range(n_head), 2):
            part += pairs[a, b][r, h[a], h[b]]
        for t in range(n_head, len(unary)):
            reach = unary[t][r]
            for a in range(n_head):
                reach += pairs[a, t][r, h[a]]
            # The least over a short last axis is far slower than across rows.
            part += np.ascontiguousarray(reach.T).min(axis=0)
        for least in tail_pairs:
            part += least[r]
        bound[start:start + block] = part
    return bound


def _bounded_minima(unary, pairs) -> tuple[list[tuple[float, int] | None], np.ndarray]:
    """Best-first branch and bound over the head prefixes of every row.

    A prefix's slab is bounded from below (Land & Doig, 1960) by the
    prefix's own terms, plus, for each tail group, the least of its unary
    term and its pair terms to the prefix, plus the least of each
    tail-tail pair term.  With two or more head groups and a bound grid
    (rows, prefixes, tail index) above one chunk, the separable
    :func:`_prefix_bounds` first prunes the prefixes, and only the rest
    get the tight bound.  Each row first evaluates the slab of its lowest
    first bound, then the other slabs in ascending tight bound order, in
    rounds of twice as many as the last, while their bound, less a 1e-12
    relative margin for summation order, does not exceed the least value
    found so far (Lawler & Wood, 1966): a slab beyond that cannot hold a
    minimizer or a tie.  The rounds run over one list of (row, prefix)
    entries sorted by row, bound and prefix, a chunk of objective
    elements at a time; each row's first minimizer is then the lowest
    flat position among its slab minima of least value.  Returns, per
    row, the (value, flat position) of the first minimizer, or None where
    a tight bound is not finite (it then proves nothing), and the number
    of slabs each row evaluated.
    """
    n_rows = len(unary[0])
    n_head = len(unary) - 2
    heads = _head_prefixes(unary)
    n_prefix = len(heads[0])
    tail = max(u.shape[1] for u in unary[n_head:])
    separable = n_head > 1 and n_rows * n_prefix * tail > _CHUNK_ELEMENTS
    # Tight bounds reduce (rows, tail index, prefix) grids of a chunk; the
    # separable ones keep (rows, prefix) grids below glibc's mmap threshold.
    block = max(1, (_CHUNK_ELEMENTS >> 3 if separable else _CHUNK_ELEMENTS // tail) // n_prefix)
    bound = np.concatenate([
        _prefix_bounds(
            [u[start:start + block] for u in unary],
            {key: p[start:start + block] for key, p in pairs.items()},
            separable,
        )
        for start in range(0, n_rows, block)
    ])
    live = np.isfinite(bound).all(axis=1)
    if separable:
        # Infinite pair terms of several head groups can together cover a
        # tail group where each alone does not: only the tight bound sees it.
        # (A row holding a NaN term is not live either way.)
        covered = np.flatnonzero(live & np.isinf([
            pairs[a, t].reshape(n_rows, -1).max(axis=1)
            for a, t in product(range(1, n_head), range(n_head, len(unary)))]).any(axis=0))
        tight = _slab_bounds(unary, pairs, np.repeat(covered, n_prefix),
                             [np.tile(h, len(covered)) for h in heads])
        live[covered] = np.isfinite(tight.reshape(len(covered), n_prefix)).all(axis=1)
    slab = math.prod(u.shape[1] for u in unary[n_head:])
    step = max(1, _CHUNK_ELEMENTS // slab)
    least = np.full(n_rows, math.inf)
    # Every evaluated slab's row, least value and its first flat position.
    seen = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))]

    def evaluate(rows: np.ndarray, prefixes: np.ndarray) -> None:
        for start in range(0, len(rows), step):
            r, p = rows[start:start + step], prefixes[start:start + step]
            objective = _slab_objective(unary, pairs, r, [h[p] for h in heads])
            objective = objective.reshape(len(r), slab)
            k = objective.argmin(axis=1)
            values = objective[np.arange(len(r)), k]
            np.minimum.at(least, r, values)
            seen.append((r, values, p * slab + k))

    rows = np.flatnonzero(live)
    first = bound.argmin(axis=1)[rows]
    evaluate(rows, first)
    bound *= 1.0 - 1e-12
    keep = bound <= least[:, None]
    keep[~live] = False
    keep[rows, first] = False
    r, p = np.nonzero(keep)
    cut = (_slab_bounds(unary, pairs, r, [h[p] for h in heads]) * (1.0 - 1e-12)
           if separable else bound[r, p])
    # numpy caches up to seven freed buffers of each size below 1 KiB: the
    # masks, of a new length every round, are views of two larger rows.
    masks = np.empty((2, max(len(r), 1024)), dtype=bool)
    keep = np.less_equal(cut, least[r], out=masks[0, :len(r)])
    r, p, cut = r[keep], p[keep], cut[keep]
    # Every row's queue, in ascending bound order (ties by prefix: lexsort
    # is stable), each entry ranked within its row.
    order = np.lexsort((cut, r))
    r, p, cut = r[order], p[order], cut[order]
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    size = 1
    while len(r):
        now = np.less(rank, size, out=masks[0, :len(r)])
        evaluate(r[now], p[now])
        # A row's queue is sorted, so past its first bound above the least
        # value found no entry can win: what is left of it drops out.
        later = np.less_equal(cut, least[r], out=masks[1, :len(r)])
        later[now] = False
        r, p, cut, rank = r[later], p[later], cut[later], rank[later] - size
        size *= 2
    rows, values, flats = (np.concatenate(part) for part in zip(*seen))
    minimizer = np.full(n_rows, n_prefix * slab)
    tie = values == least[rows]
    np.minimum.at(minimizer, rows[tie], flats[tie])
    found = zip(least.tolist(), minimizer.tolist(), live.tolist())
    return [(value, flat) if ok else None for value, flat, ok in found], np.bincount(
        rows, minlength=n_rows)


def _search(
    terms: SearchTerms,
    searches: Sequence[tuple[Sequence[np.ndarray], float]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exactly minimize the Gram mismatch over one index per group, for
    every (groups, target off-diagonal) search and every row of a stack of
    Gram matrices.

    A search's ``groups`` hold slices of the candidate columns or flat
    column indices, of shape (A, S) or (S,) for every row alike.  Its
    objective is the squared Frobenius distance between the selected
    columns' Gram matrix and a target with unit diagonal and the search's
    off-diagonal elsewhere.
    Returns, per search, every row's positional indices into each group
    (first minimizer in lexicographic order), shape (A, groups), and its
    objective value, shape (A,).

    Searches of equal group sizes run as one stack (see
    :meth:`SearchTerms.gather`), split back after.  A stack of more than
    two groups and more than ``_CHUNK_ELEMENTS`` objective elements (rows
    times tuples) runs one bounded search (see ``_bounded_minima``), and
    rows whose bound proves nothing join the rest, which evaluate every
    tuple of every row at once (faster for small stacks).  Both give the
    exhaustive minimizer and its objective bit for bit, whatever the
    stack.
    """
    stacks = {}
    for i, (groups, _) in enumerate(searches):
        stacks.setdefault(tuple(map(_group_size, groups)), []).append(i)
    results = [None] * len(searches)
    for sizes, members in stacks.items():
        unary, pairs = terms.gather([searches[i] for i in members])
        rows = len(unary[0])
        found = [None] * rows
        if len(sizes) > 2 and rows * math.prod(sizes) > _CHUNK_ELEMENTS:
            found = _bounded_minima(unary, pairs)[0]
        dense = np.array([r for r in range(rows) if found[r] is None], dtype=np.int64)
        values, flats = np.empty(rows), np.empty(rows, dtype=np.int64)
        for r, best in enumerate(found):
            if best is not None:
                values[r], flats[r] = best
        if len(dense):
            objective = _slab_objective(unary, pairs, dense, []).reshape(len(dense), -1)
            flats[dense] = np.argmin(objective, axis=1)
            values[dense] = objective[np.arange(len(dense)), flats[dense]]
        positions = np.stack(np.unravel_index(flats, sizes), axis=-1)
        n_angle = rows // len(members)
        for j, i in enumerate(members):
            block = slice(j * n_angle, (j + 1) * n_angle)
            results[i] = positions[block], values[block]
    return results


def check_selection(n_paths: int, n_ris: int, n_rx: int, family: str, n_slots: int = 1) -> None:
    """Reject an unknown family (``ValueError``), slots or surfaces that
    ``n_paths`` paths per surface cannot serve (``SelectionInfeasibleError``)
    and a first-slot search above ``DEFAULT_SEARCH_CAP`` tuples
    (``SearchSpaceError``)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    if n_slots < 1:
        raise SelectionInfeasibleError("need at least one slot")
    if n_slots > n_paths:
        raise SelectionInfeasibleError(
            f"{n_slots} slots need {n_slots} disjoint paths but only {n_paths} exist"
        )
    multiplex = family == "multiplex"
    if multiplex and not (n_ris >= n_rx >= 1):
        raise SelectionInfeasibleError("need n_ris >= n_rx >= 1 for multiplexing")
    space = math.comb(n_ris, n_rx) * n_paths**n_rx if multiplex else n_paths**n_ris
    if space > DEFAULT_SEARCH_CAP:
        raise SearchSpaceError(f"selection search of {space} tuples exceeds cap "
                               f"{DEFAULT_SEARCH_CAP}")


def select_paths_stack(
    candidates: np.ndarray,
    n_rx: int,
    slots: dict[str, int],
) -> dict[str, SelectionStack]:
    """Every family's path selection for every angle epoch of a stack.

    ``candidates`` (A, n_ris, n_paths) holds receive-side spatial
    frequencies: ``[a, k, l]`` is that of path ``l`` through surface ``k``
    in angle epoch ``a``.  One :class:`SearchTerms` of them serves every
    search.  ``slots`` maps each family of :data:`FAMILIES` to its slot
    count, and the result maps it to its :class:`SelectionStack`.
    Slot 0 runs the multiplexing search: ``n_rx`` (surface, path) pairs
    whose responses' Gram matrix is closest to the identity, over every
    surface subset of size ``n_rx`` and every path assignment.  Or it runs
    the beamforming search: one path on every surface, with the Gram matrix
    closest to all-ones (perfect alignment).  Ties go to the
    lexicographically smallest (subset, assignment).  Each later slot
    greedily re-runs the same search restricted to each active surface's
    unused paths, with the active surface set frozen, so ``n_slots`` is at
    most ``n_paths``; a prefix of a family's slots is its selection at that
    slot count.  Each slot runs as one :func:`_search` call over every
    family still running, so searches of equal group sizes stack (slot 0's
    surface subsets, with the beamforming search when ``n_rx == n_ris``; a
    later slot's hopping searches likewise).  Inputs that
    :func:`check_selection` rejects raise its errors.
    """
    n_angle, n_ris, n_paths = np.shape(candidates)
    for family, n_slots in slots.items():
        check_selection(n_paths, n_ris, n_rx, family, n_slots)
    terms = SearchTerms(_candidate_gram(candidates, n_rx))
    # Each family's search target off-diagonal, and its surface subsets
    # (beamforming has one, every surface): (subsets, n_active).
    targets = {family: 0.0 if family == "multiplex" else 1.0 for family in slots}
    subsets = {
        family: np.array(list(combinations(range(n_ris), n_rx if family == "multiplex" else n_ris)))
        for family in slots
    }
    found = iter(_search(terms, [
        ([slice(k * n_paths, (k + 1) * n_paths) for k in subset], targets[family])
        for family in slots for subset in subsets[family].tolist()
    ]))
    rows = np.arange(n_angle)
    active, paths, objectives = {}, {}, {}
    for family in slots:
        # Each subset's search: positions (subsets, A, n_active), values (subsets, A).
        positions, values = map(np.stack, zip(*islice(found, len(subsets[family]))))
        # The first subset of least objective wins, a NaN ranking as +inf:
        # it never beats a number, and beamforming's one subset always wins.
        best = np.where(np.isnan(values), math.inf, values).argmin(axis=0)
        active[family] = subsets[family][best]
        paths[family] = [positions[best, rows]]
        objectives[family] = [values[best, rows]]
    used = {family: np.zeros((n_angle, n_ris, n_paths), dtype=bool) for family in slots}
    rows = rows[:, None]
    for m in range(1, max(slots.values())):
        hopping = [family for family, n_slots in slots.items() if n_slots > m]
        frees = []
        for family in hopping:
            used[family][rows, active[family], paths[family][-1]] = True
            # Unused paths of each active surface in ascending order, m per
            # surface used so far: (A, n_active, n_paths - m).
            frees.append(np.nonzero(~used[family][rows, active[family]])[-1].reshape(
                active[family].shape + (n_paths - m,)))
        found = _search(terms, [
            (list(np.moveaxis(free + active[family][..., None] * n_paths, 1, 0)), targets[family])
            for family, free in zip(hopping, frees)
        ])
        for family, free, (positions, values) in zip(hopping, frees, found):
            paths[family].append(np.take_along_axis(free, positions[..., None], axis=-1)[..., 0])
            objectives[family].append(values)
    return {
        family: SelectionStack(active[family], np.stack(paths[family], axis=1),
                               np.stack(objectives[family], axis=1))
        for family in slots
    }


@dataclass(frozen=True, eq=False)
class DesignStack:
    """One slot's designs over a block of (angle epoch, fading epoch) rows.

    ``r_active`` / ``t_active`` hold the receive / transmit responses of
    the activated paths (one column per active surface, in the order of the
    selection's ``active``), shape (A, 1, n, n_active): they depend on the
    angles only.  ``xi_active`` holds the designed effective gains of
    those paths, shape (A, F, n_active), and ``exact_h`` the full
    composite channel realized under the designed profiles, including
    whatever the profiles did not shape, shape (A, F, n_rx, n_tx).  It has
    no slot index: a runner reads a list of them in slot order.
    """

    r_active: np.ndarray
    t_active: np.ndarray
    xi_active: np.ndarray
    exact_h: np.ndarray


def _phase(z: np.ndarray) -> np.ndarray:
    """``cmath.phase`` of every element: ``math.atan2`` of the parts
    (``np.arctan2`` rounds differently on some inputs)."""
    flat = z.ravel()
    return np.array(list(map(math.atan2, flat.imag.tolist(), flat.real.tolist()))).reshape(z.shape)


def _common_phases(rx_gains, tx_gains, rx_freqs, n_rx: int) -> np.ndarray:
    """Common phases that co-phase retargeted paths at the receive array,
    elementwise: each cancels its two path-gain phases and the phase at the
    array centre, so combining terms add with non-negative real parts.  A
    zero gain defines no phase and raises ``ValueError``."""
    if not (np.all(rx_gains != 0) and np.all(tx_gains != 0)):
        raise ValueError("path gains must be nonzero to define a phase")
    return -(_phase(rx_gains) + _phase(tx_gains) + 0.5 * (n_rx - 1) * rx_freqs)


def _designed_gains(losses, rx_gains, tx_gains, phases) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``loss * rx * tx * exp(1j * phase)``,
    rounded as the scalar complex products: in separate real operations
    (numpy's complex multiply may fuse a multiply-add), the loss as ``loss
    + 0j`` and ``exp(1j * c)`` from ``(1j * c).imag``, which is ``0.0 + c``."""
    re = losses * rx_gains.real - 0.0 * rx_gains.imag
    im = losses * rx_gains.imag + 0.0 * rx_gains.real
    re, im = re * tx_gains.real - im * tx_gains.imag, re * tx_gains.imag + im * tx_gains.real
    flat = np.ravel(phases + 0.0).tolist()
    cos, sin = (np.array(list(map(f, flat))).reshape(np.shape(phases))
                for f in (math.cos, math.sin))
    return re * cos - im * sin, re * sin + im * cos


def design_slots(
    selection: SelectionStack,
    slot: int,
    estimate: HopStack,
    exact: HopStack,
    refine: bool = False,
) -> tuple[DesignStack, np.ndarray, np.ndarray]:
    """Design slot ``slot`` of a family's selection over a stack.

    Each active surface gets a linear profile retargeting its assigned
    receiver-side path onto the transmitter line of sight; inactive
    surfaces keep an all-zero profile.  With ``refine`` set, a common phase
    per active surface and row co-phases the retargeted paths at the
    receiver (needed by the beamforming schemes).  ``estimate`` holds the
    hops as known to the designer and ``exact`` the hops the link realizes
    (they differ in the receive-side angles under angle error).  Returns
    the designs, and the profiles' slopes (A, K) and common phases
    (A, F or 1, K).  The common phases and designed gains are computed as
    arrays that round exactly as one scalar at a time would (see
    :func:`_common_phases` and :func:`_designed_gains`).
    """
    active, paths = selection.active, selection.paths[:, slot]
    n_angle = len(active)
    rows = np.arange(n_angle)[:, None]
    rx_freqs = estimate.rx_arrival[rows, active, paths]
    slopes = np.zeros(estimate.n_elements.shape)
    slopes[rows, active] = (
        estimate.rx_departure[rows, active, paths] - estimate.tx_arrival[rows, active, 0]
    )
    # Gains of each retargeted pair over the fading epochs: (A, n_active, F).
    rx_gains = np.moveaxis(estimate.rx_gains, 1, -1)[rows, active, paths]
    tx_gains = np.moveaxis(estimate.tx_gains, 1, -1)[rows, active, 0]
    n_fading = rx_gains.shape[-1]
    commons = np.zeros((n_angle, n_fading if refine else 1, slopes.shape[1]))
    phases = 0.0
    if refine:
        phases = _common_phases(rx_gains, tx_gains, rx_freqs[..., None], estimate.n_rx)
        commons[rows, :, active] = phases
    # The profile retargets exactly this pair: its inner product is e^{ic}.
    gains = _designed_gains(estimate.losses[rows, active][..., None], rx_gains, tx_gains, phases)
    xi_active = np.empty((n_angle, n_fading, active.shape[1]), dtype=complex)
    xi_active.real, xi_active.imag = (np.swapaxes(part, 1, 2) for part in gains)
    design = DesignStack(
        r_active=_response_matrix(estimate.n_rx, rx_freqs)[:, None],
        t_active=_response_matrix(estimate.n_tx, estimate.tx_departure[rows, active, 0])[:, None],
        xi_active=xi_active,
        exact_h=composite(exact, slopes, commons),
    )
    return design, slopes, commons
