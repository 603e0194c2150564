"""Path selection search and the design of the customized channel."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import rislink as rl
from rislink import customize
from rislink.channel import HopStack, _inner_products, _response_matrix, composite
from rislink.channel import draw_angle_epochs
from rislink.config import surface_geometry
from rislink.customize import SearchTerms, _candidate_gram
from rislink.errors import SearchSpaceError, SelectionInfeasibleError
from rislink.montecarlo import _angle_errors
from rislink.selftest import design_one, select_one

from conftest import (
    BASE_SEED,
    design_row,
    draw_scene,
    model_channel,
    scalar_phase_design,
    streams,
)


def _gram_objective(freqs, n_rx: int, off_diagonal: float) -> float:
    """Squared distance of the receive Gram matrix from its target."""
    r = _response_matrix(n_rx, freqs)
    gram = r.conj().T @ r
    target = np.full((len(freqs), len(freqs)), off_diagonal, dtype=complex)
    np.fill_diagonal(target, 1.0)
    return float(np.linalg.norm(gram - target) ** 2)


def _brute_force_sm(candidates: np.ndarray, n_rx: int):
    n_ris, n_paths = candidates.shape
    best = None
    for subset in itertools.combinations(range(n_ris), n_rx):
        for paths in itertools.product(range(n_paths), repeat=n_rx):
            freqs = [candidates[k, p] for k, p in zip(subset, paths)]
            objective = _gram_objective(freqs, n_rx, 0.0)
            if best is None or objective < best[0]:
                best = (objective, subset, paths)
    return best


def _brute_force_bf(candidates: np.ndarray, n_rx: int):
    n_ris, n_paths = candidates.shape
    active = tuple(range(n_ris))
    best = None
    for paths in itertools.product(range(n_paths), repeat=len(active)):
        freqs = [candidates[k, p] for k, p in zip(active, paths)]
        objective = _gram_objective(freqs, n_rx, 1.0)
        if best is None or objective < best[0]:
            best = (objective, active, paths)
    return best


def _search_oracle(gram, groups, target_off_diagonal):
    """The search objective as first written: a fresh array per added term."""
    sizes = [len(g) for g in groups]
    n_groups = len(groups)
    objective = np.zeros(sizes)
    diag = np.real(np.diagonal(gram))
    for a in range(n_groups):
        shape = [1] * n_groups
        shape[a] = sizes[a]
        objective = objective + (np.abs(diag[groups[a]] - 1.0) ** 2).reshape(shape)
    for a in range(n_groups):
        for b in range(a + 1, n_groups):
            cross = np.abs(gram[np.ix_(groups[a], groups[b])] - target_off_diagonal) ** 2
            shape = [1] * n_groups
            shape[a] = sizes[a]
            shape[b] = sizes[b]
            objective = objective + 2.0 * cross.reshape(shape)
    flat = int(np.argmin(objective))
    best = np.unravel_index(flat, sizes)
    return tuple(int(i) for i in best), float(objective.reshape(-1)[flat])


def _rows(found):
    """One search's positions and values as the oracle's per-row
    (index tuple, value) pairs."""
    positions, values = found
    return list(zip(map(tuple, positions.tolist()), values.tolist()))


def _search_one(gram, groups, target_off_diagonal):
    """The selection search on one Gram matrix: a stack of one."""
    terms = SearchTerms(gram[None])
    return _rows(customize._search(terms, [(groups, target_off_diagonal)])[0])[0]


class TestBestTuple:
    def test_in_place_objective_matches_oracle_repr_exact(self):
        rng = rl.substream(BASE_SEED, 60)
        for trial in range(200):
            n_ris = int(rng.integers(2, 5))
            n_paths = int(rng.integers(2, 7))
            n_rx = int(rng.integers(1, 5))
            candidates = rng.uniform(-math.pi, math.pi, (n_ris, n_paths))
            if trial % 2:
                # Duplicated candidate columns make exactly tied objectives.
                candidates[:, -1] = candidates[:, 0]
                candidates[-1] = candidates[0]
            gram = _candidate_gram(candidates, n_rx)
            groups = [np.arange(n_paths) + k * n_paths for k in range(n_ris)]
            for target in (0.0, 1.0):
                got = _search_one(gram, groups, target)
                assert repr(got) == repr(_search_oracle(gram, groups, target))

    @pytest.mark.parametrize(
        "key, mode", list(enumerate(["random", "duplicated", "unequal", "constant"]))
    )
    def test_bounded_search_matches_oracle_repr_exact(self, key, mode, monkeypatch):
        # Above one chunk of stacked elements with three or more groups, the
        # search skips slabs by bound; it must still return the oracle's
        # tuple and value on every row.
        evaluated = self._count_slabs(monkeypatch)
        rng = rl.substream(BASE_SEED, 61, key)
        path_ranges = {3: (29, 31), 4: (15, 31), 5: (10, 16)}
        n_rows = 4
        for trial in range(6):
            n_groups = 3 + trial % 3
            n_paths = int(rng.integers(*path_ranges[n_groups]))
            candidates = rng.uniform(-math.pi, math.pi, (n_rows, n_groups, n_paths))
            if mode == "duplicated":
                candidates[:, :, -1] = candidates[:, :, 0]
                candidates[:, -1] = candidates[:, 0]
            grams = _candidate_gram(candidates, int(rng.integers(1, 6)))
            if mode == "constant":
                grams = np.full_like(grams, 0.5 + 0.25j)
            groups = [np.arange(n_paths) + k * n_paths for k in range(n_groups)]
            if mode == "unequal":
                # As in the later hopping slots: each group keeps its unused paths.
                groups = [np.sort(rng.permutation(g)[: n_paths - int(rng.integers(0, 4))])
                          for g in groups]
            assert n_rows * math.prod(len(g) for g in groups) > customize._CHUNK_ELEMENTS
            for target in (0.0, 1.0):
                (got,) = map(_rows, customize._search(SearchTerms(grams), [(groups, target)]))
                for gram, row in zip(grams, got):
                    assert repr(row) == repr(_search_oracle(gram, groups, target))
                    if mode == "constant":
                        assert row[0] == (0,) * n_groups
        assert len(evaluated) == 12

    def test_stack_size_routes_dense_or_bounded(self, monkeypatch):
        # A stack of exactly one chunk of elements runs dense; one row more
        # runs bounded.  Both give the oracle's tuple and value.
        evaluated = self._count_slabs(monkeypatch)
        n_groups, n_paths = 4, 8
        rows = customize._CHUNK_ELEMENTS // n_paths**n_groups
        assert rows * n_paths**n_groups == customize._CHUNK_ELEMENTS
        candidates = rl.substream(BASE_SEED, 64).uniform(
            -math.pi, math.pi, (rows + 1, n_groups, n_paths))
        groups = [np.arange(n_paths) + k * n_paths for k in range(n_groups)]
        for n_rows, calls in ((rows, 0), (rows + 1, 1)):
            grams = _candidate_gram(candidates[:n_rows], 3)
            for target in (0.0, 1.0):
                del evaluated[:]
                (got,) = map(_rows, customize._search(SearchTerms(grams), [(groups, target)]))
                assert len(evaluated) == calls, (n_rows, target)
                for gram, row in zip(grams, got):
                    assert repr(row) == repr(_search_oracle(gram, groups, target))

    @staticmethod
    def _count_slabs(monkeypatch) -> list[list[int]]:
        """Record each stacked bounded search's per-row slab counts."""
        evaluated = []
        bounded = customize._bounded_minima

        def counted(unary, pairs):
            found, counts = bounded(unary, pairs)
            evaluated.append(counts.tolist())
            return found, counts

        monkeypatch.setattr(customize, "_bounded_minima", counted)
        return evaluated

    def test_bounded_search_prunes(self, monkeypatch):
        evaluated = self._count_slabs(monkeypatch)
        candidates = rl.substream(BASE_SEED, 62).uniform(-math.pi, math.pi, (3, 4, 30))
        grams = _candidate_gram(candidates, 4)
        groups = [np.arange(30) + k * 30 for k in range(4)]
        for target in (0.0, 1.0):
            (got,) = map(_rows, customize._search(SearchTerms(grams), [(groups, target)]))
            for gram, row in zip(grams, got):
                assert repr(row) == repr(_search_oracle(gram, groups, target))
        assert len(evaluated) == 2
        assert all(1 <= count < 30 * 30 for counts in evaluated for count in counts), evaluated

    def test_stacked_rows_match_oracle(self, monkeypatch):
        # One stacked bounded search over rows of every kind: each row must
        # give the oracle's tuple and value.  Rows whose bound is not finite
        # fall back to the dense search; the others stay bounded.
        evaluated = self._count_slabs(monkeypatch)
        rng = rl.substream(BASE_SEED, 63)
        n_groups, n_paths = 4, 24
        candidates = rng.uniform(-math.pi, math.pi, (7, n_groups, n_paths))
        candidates[5, :, -1] = candidates[5, :, 0]  # duplicated columns: exact ties
        candidates[5, -1] = candidates[5, 0]
        grams = _candidate_gram(candidates, 3)
        grams[1] = 0.5 + 0.25j  # constant: every tuple ties, the first wins
        grams[2] = 0.5 + 0.25j + 1e-9 * rng.standard_normal(grams[2].shape)
        # Each row keeps all but one path of each surface, as in a later slot.
        groups = [
            np.sort(np.array([rng.permutation(n_paths)[1:] for _ in grams]), axis=1) + k * n_paths
            for k in range(n_groups)
        ]
        head, tail = groups[0][:, 0], groups[-1][:, 0]
        grams[3, head[3], groups[1][3, 0]] = math.nan  # a head pair term
        grams[4, head[4], head[4]] = math.inf  # a head unary term
        grams[6, tail[6], tail[6]] = math.inf  # a tail unary term: still bounded
        assert len(grams) * (n_paths - 1) ** n_groups > customize._CHUNK_ELEMENTS
        for target in (0.0, 1.0):
            (got,) = map(_rows, customize._search(SearchTerms(grams), [(groups, target)]))
            for r, (gram, row) in enumerate(zip(grams, got)):
                oracle = _search_oracle(gram, [g[r] for g in groups], target)
                assert repr(row) == repr(oracle), (target, r)
            assert got[1][0] == (0,) * n_groups
        assert len(evaluated) == 2
        prefixes = (n_paths - 1) ** 2
        for counts in evaluated:
            assert counts[3] == counts[4] == 0, counts
            bounded_rows = [c for r, c in enumerate(counts) if r not in (3, 4)]
            assert all(1 <= c <= prefixes for c in bounded_rows), counts
            assert counts[1] == prefixes, counts  # every slab holds a tie
        # Row 0's multiplexing search takes hundreds of slabs over many rounds.
        assert 200 <= evaluated[0][0] < prefixes, evaluated


class TestSearchTermViews:
    """Slot 0's groups are contiguous candidate ranges, gathered through
    views; per-row groups are gathered by index.  The terms are the same
    bit for bit."""

    def test_slice_groups_give_the_index_terms(self):
        rng = rl.substream(BASE_SEED, 62)
        n_angle, n_ris, n_paths = 3, 4, 5
        gram = _candidate_gram(rng.uniform(-math.pi, math.pi, (n_angle, n_ris, n_paths)), 2)
        terms = SearchTerms(gram)
        for subset in ([0, 1, 2, 3], [1, 3], [0, 2, 3]):
            spans = [slice(k * n_paths, (k + 1) * n_paths) for k in subset]
            flat = [np.arange(n_paths) + k * n_paths for k in subset]
            per_row = [np.tile(g, (n_angle, 1)) for g in flat]
            for target in (0.0, 1.0):
                gathered = [terms.gather([(groups, target)]) for groups in (spans, flat, per_row)]
                # Stacked with a search gathered by index, each keeps its block.
                stacked = terms.gather([(spans, target), (per_row, 1.0 - target)])
                other = terms.gather([(per_row, 1.0 - target)])
                for unary, pairs in gathered[1:]:
                    assert [u.tobytes() for u in unary] == [u.tobytes() for u in gathered[0][0]]
                    assert pairs.keys() == gathered[0][1].keys()
                    assert all(p.tobytes() == gathered[0][1][key].tobytes()
                               for key, p in pairs.items())
                for mine, (unary, pairs) in ((slice(0, n_angle), gathered[0]),
                                             (slice(n_angle, None), other)):
                    assert all(s[mine].tobytes() == u.tobytes()
                               for s, u in zip(stacked[0], unary))
                    assert all(stacked[1][key][mine].tobytes() == p.tobytes()
                               for key, p in pairs.items())
                # The index terms themselves, row by row.
                unary, pairs = gathered[0]
                for a, g in enumerate(flat):
                    assert unary[a].tobytes() == terms.unary[:, g].tobytes()
                for (a, b), p in pairs.items():
                    for r in range(n_angle):
                        block = gram[r][np.ix_(flat[a], flat[b])]
                        assert p[r].tobytes() == (2.0 * np.abs(block - target) ** 2).tobytes()

    def test_slot_zero_reads_views_and_hopping_slots_index(self, monkeypatch):
        kinds = []
        gather = SearchTerms.gather

        def spy(self, searches):
            kinds.append([
                "views" if all(isinstance(g, slice) for g in groups)
                else "index" if all(np.ndim(g) == 2 for g in groups) else "mixed"
                for groups, _ in searches
            ])
            return gather(self, searches)

        monkeypatch.setattr(SearchTerms, "gather", spy)
        rng = rl.substream(BASE_SEED, 63)
        candidates = rng.uniform(-math.pi, math.pi, (2, 3, 4))
        customize.select_paths_stack(candidates, 2, {"multiplex": 3, "beamform": 2})
        # Slot 0: three two-surface subsets and the three-surface search,
        # in two stacks; slots 1 and 2: the per-row hopping searches.
        assert kinds == [["views"] * 3, ["views"], ["index"], ["index"], ["index"]]


class TestMultiplexSelection:
    def test_orthogonal_pair_reaches_zero(self):
        # With two receive antennas, responses half a cycle apart are
        # exactly orthogonal.  One such frequency per surface means the
        # optimum hits zero and must pick that pair.
        n_rx = 2
        candidates = np.array([
            [0.4, 1.0],
            [0.4 + math.pi, 1.3],
        ])
        selection = select_one(candidates, n_rx, "sm")
        assert selection.objectives[0, 0] < 1e-24
        assert selection.active[0].tolist() == [0, 1]
        assert selection.paths[0, 0].tolist() == [0, 0]

    def test_objective_matches_recomputation(self):
        rng = rl.substream(BASE_SEED, 40)
        candidates = rng.uniform(-math.pi, math.pi, (4, 6))
        selection = select_one(candidates, 3, "sm")
        freqs = [candidates[k, p] for k, p in
                 zip(selection.active[0], selection.paths[0, 0])]
        assert math.isclose(
            selection.objectives[0, 0],
            _gram_objective(freqs, 3, 0.0),
            rel_tol=1e-12,
        )

    def test_matches_brute_force_on_random_instances(self):
        rng = rl.substream(BASE_SEED, 41)
        for trial in range(100):
            n_rx = int(rng.integers(1, 4))
            n_ris = int(rng.integers(n_rx, 4))
            n_paths = int(rng.integers(1, 5))
            candidates = rng.uniform(-math.pi, math.pi, (n_ris, n_paths))
            selection = select_one(candidates, n_rx, "sm")
            objective, subset, paths = _brute_force_sm(candidates, n_rx)
            assert selection.active[0].tolist() == list(subset)
            assert selection.paths[0, 0].tolist() == list(paths)
            assert math.isclose(selection.objectives[0, 0], objective,
                                rel_tol=1e-12, abs_tol=1e-18)

    def test_matches_brute_force_at_default_size(self):
        rng = rl.substream(BASE_SEED, 42)
        candidates = rng.uniform(-math.pi, math.pi, (4, 10))
        selection = select_one(candidates, 4, "sm")
        objective, subset, paths = _brute_force_sm(candidates, 4)
        assert selection.active[0].tolist() == list(subset)
        assert selection.paths[0, 0].tolist() == list(paths)
        assert math.isclose(selection.objectives[0, 0], objective,
                            rel_tol=1e-12)

    def test_single_stream_trivial(self):
        candidates = np.array([[0.3, -1.2]])
        selection = select_one(candidates, 1, "sm")
        assert selection.active[0].tolist() == [0]
        assert selection.objectives[0, 0] == 0.0

    def test_nan_objective_never_wins(self):
        # A NaN candidate makes each search over its surface return a NaN
        # objective.  Multiplexing then picks among the other subsets as if
        # the surface were absent; beamforming's one subset wins with NaN.
        candidates = rl.substream(BASE_SEED, 64).uniform(-math.pi, math.pi, (3, 4))
        candidates[0, 1] = math.nan
        with np.errstate(invalid="ignore"):
            sm, bf = (select_one(candidates, 2, scheme) for scheme in ("sm", "bf"))
        without = select_one(candidates[1:], 2, "sm")
        assert sm.active.tolist() == (without.active + 1).tolist() == [[1, 2]]
        assert sm.paths.tobytes() == without.paths.tobytes()
        assert sm.objectives.tobytes() == without.objectives.tobytes()
        assert bf.active.tolist() == [[0, 1, 2]] and math.isnan(bf.objectives[0, 0])

    def test_search_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(customize, "DEFAULT_SEARCH_CAP", 100)
        candidates = np.zeros((4, 10))
        for scheme in ("sm", "bf"):
            with pytest.raises(SearchSpaceError):
                select_one(candidates, 4, scheme)

    def test_deterministic(self):
        rng = rl.substream(BASE_SEED, 43)
        candidates = rng.uniform(-math.pi, math.pi, (4, 10))
        a = select_one(candidates, 4, "sm")
        b = select_one(candidates, 4, "sm")
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


class TestBeamformSelection:
    def test_uses_every_surface(self):
        rng = rl.substream(BASE_SEED, 44)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        selection = select_one(candidates, 2, "bf")
        assert selection.active[0].tolist() == [0, 1, 2, 3]
        assert selection.paths.shape == (1, 1, 4)

    def test_matches_brute_force_on_random_instances(self):
        rng = rl.substream(BASE_SEED, 45)
        for trial in range(100):
            n_rx = int(rng.integers(1, 4))
            n_ris = int(rng.integers(n_rx, 4))
            n_paths = int(rng.integers(1, 5))
            candidates = rng.uniform(-math.pi, math.pi, (n_ris, n_paths))
            selection = select_one(candidates, n_rx, "bf")
            objective, active, paths = _brute_force_bf(candidates, n_rx)
            assert selection.active[0].tolist() == list(active)
            assert selection.paths[0, 0].tolist() == list(paths)
            assert math.isclose(selection.objectives[0, 0], objective,
                                rel_tol=1e-12, abs_tol=1e-18)

    def test_identical_frequencies_reach_zero(self):
        candidates = np.full((3, 4), 0.8)
        selection = select_one(candidates, 2, "bf")
        assert selection.objectives[0, 0] < 1e-24

    def test_single_surface_objective_zero(self):
        candidates = np.array([[0.5, -0.5]])
        selection = select_one(candidates, 2, "bf")
        assert selection.objectives[0, 0] < 1e-24


class TestDiversitySelection:
    def test_first_slot_matches_single_slot_rules(self):
        rng = rl.substream(BASE_SEED, 47)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        ds = select_one(candidates, 2, "ds", 2)
        sm = select_one(candidates, 2, "sm")
        assert np.array_equal(ds.active, sm.active)
        assert np.array_equal(ds.paths[:, :1], sm.paths)
        db = select_one(candidates, 2, "db", 2)
        bf = select_one(candidates, 2, "bf")
        assert np.array_equal(db.active, bf.active)
        assert np.array_equal(db.paths[:, :1], bf.paths)

    def test_active_set_is_shared_across_slots(self):
        rng = rl.substream(BASE_SEED, 48)
        candidates = rng.uniform(-math.pi, math.pi, (4, 6))
        for scheme in ("ds", "db"):
            selection = select_one(candidates, 2, scheme, 3)
            assert selection.paths.shape == (1, 3, selection.active.shape[1])
            assert selection.objectives.shape == (1, 3)

    def test_paths_disjoint_across_slots(self):
        rng = rl.substream(BASE_SEED, 49)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        for scheme in ("ds", "db"):
            selection = select_one(candidates, 2, scheme, 3)
            for used in selection.paths[0].T.tolist():
                assert len(set(used)) == len(used)

    def test_later_slots_optimal_over_remaining_paths(self):
        rng = rl.substream(BASE_SEED, 50)
        candidates = rng.uniform(-math.pi, math.pi, (4, 4))
        selection = select_one(candidates, 2, "ds", 2)
        active = selection.active[0]
        used = selection.paths[0, 0]
        best = None
        remaining = [
            [p for p in range(candidates.shape[1]) if p != used[i]]
            for i in range(len(active))
        ]
        for paths in itertools.product(*remaining):
            freqs = [candidates[k, p] for k, p in zip(active, paths)]
            objective = _gram_objective(freqs, 2, 0.0)
            if best is None or objective < best[0]:
                best = (objective, paths)
        assert tuple(selection.paths[0, 1].tolist()) == best[1]
        assert math.isclose(selection.objectives[0, 1], best[0],
                            rel_tol=1e-12)

    def test_full_depth_uses_each_path_once(self):
        rng = rl.substream(BASE_SEED, 51)
        n_paths = 3
        candidates = rng.uniform(-math.pi, math.pi, (3, n_paths))
        selection = select_one(candidates, 2, "ds", n_paths)
        for used in selection.paths[0].T.tolist():
            assert sorted(used) == list(range(n_paths))

    @pytest.mark.parametrize("n_rx, n_paths", [(2, 6), (3, 5), (4, 10)])
    def test_stacked_schemes_match_each_alone(self, n_rx, n_paths):
        # One call stacks both families' searches per slot: several surface
        # subsets for n_rx < n_ris, and multiplexing with beamforming when
        # n_rx == n_ris; the third slot is multiplexing's alone.  Duplicated
        # columns make exact ties, which the first subset and tuple must
        # still win.
        rng = rl.substream(BASE_SEED, 52, n_rx)
        candidates = rng.uniform(-math.pi, math.pi, (7, 4, n_paths))
        candidates[::2, :, -1] = candidates[::2, :, 0]
        candidates[::3, -1] = candidates[::3, 0]
        slots = {"multiplex": 3, "beamform": 2}
        stacked = customize.select_paths_stack(candidates, n_rx, slots)
        assert list(stacked) == list(slots)

        def arrays(selection, rows=slice(None), n_slots=None):
            return [(a.dtype, a.shape, a.tobytes()) for a in (
                selection.active[rows], selection.paths[rows, :n_slots],
                selection.objectives[rows, :n_slots])]

        for family, n_slots in slots.items():
            selection = stacked[family]
            n_active = n_rx if family == "multiplex" else 4
            assert [(dtype, shape) for dtype, shape, _ in arrays(selection)] == [
                (np.int64, (7, n_active)), (np.int64, (7, n_slots, n_active)),
                (np.float64, (7, n_slots))]
            for m in range(1, n_slots + 1):
                alone = customize.select_paths_stack(candidates, n_rx, {family: m})
                assert arrays(alone[family]) == arrays(selection, n_slots=m)
            hopping = customize.FAMILIES[family][1]
            for a, row in enumerate(candidates):
                one = select_one(row, n_rx, hopping, n_slots)
                assert arrays(one) == arrays(selection, slice(a, a + 1))
        if n_rx == 2:
            # Where surface 3 repeats surface 0, a pair with 3 but not 0
            # ties the same pair with 0, an earlier subset, bit for bit.
            active = stacked["multiplex"].active.tolist()
            assert any(3 in row for row in active)
            for row in active[::3]:
                assert 0 in row or 3 not in row

    def test_more_slots_than_paths_rejected(self):
        candidates = np.zeros((3, 2))
        with pytest.raises(SelectionInfeasibleError):
            select_one(candidates, 2, "ds", 3)

    def test_unknown_family_rejected(self):
        # Selections are keyed by family; a scheme tag is not one.
        candidates = rl.substream(BASE_SEED, 63).uniform(-math.pi, math.pi, (1, 3, 4))
        with pytest.raises(ValueError, match="unknown family 'sm'"):
            customize.select_paths_stack(candidates, 2, {"sm": 1})


class TestCustomizedChannel:
    """One slot's design on one angle epoch: a stack of one."""

    def _scene(self, key, config=None):
        config = config or rl.SystemConfig()
        return config, draw_scene(config, BASE_SEED, *key)

    def test_multiplex_gram_is_near_identity(self):
        config, hops = self._scene((52,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        design = design_row(design_one(selection, hops)[0])
        gram = design.r_active.conj().T @ design.r_active
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
        assert np.linalg.norm(gram - np.eye(config.n_rx)) ** 2 \
            <= selection.objectives[0, 0] + 1e-12

    def test_active_columns_match_selection(self):
        config, hops = self._scene((53,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        design = design_row(design_one(selection, hops)[0])
        for column, (k, path) in enumerate(
                zip(selection.active[0], selection.paths[0, 0])):
            assert np.array_equal(
                design.r_active[:, column],
                _response_matrix(config.n_rx, hops.rx_arrival[0, k, path:path + 1])[:, 0],
            )
            assert np.array_equal(
                design.t_active[:, column],
                _response_matrix(config.n_tx, hops.tx_departure[0, k, :1])[:, 0],
            )

    def test_gains_match_aligned_decomposition(self):
        config, hops = self._scene((54,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        design, slopes, commons = design_one(selection, hops)
        inner = _inner_products(
            slopes, commons, hops.rx_departure, hops.tx_arrival, hops.n_elements
        )[0, 0]
        for column, (k, path) in enumerate(
                zip(selection.active[0], selection.paths[0, 0])):
            gain = (hops.losses[0, k] * hops.rx_gains[0, 0, k, path] * hops.tx_gains[0, 0, k, 0]
                    * inner[k, path, 0])
            assert abs(design.xi_active[0, 0, column] - gain) <= 1e-15

    def test_inactive_surfaces_are_neutral(self):
        config, hops = self._scene((55,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        _, slopes, commons = design_one(selection, hops)
        assert slopes.shape == (1, config.n_ris)
        assert not commons.any()
        active = selection.active[0].tolist()
        for k in range(config.n_ris):
            if k not in active:
                assert slopes[0, k] == 0.0
            else:
                path = selection.paths[0, 0, active.index(k)]
                retarget = hops.rx_departure[0, k, path] - hops.tx_arrival[0, k, 0]
                assert slopes[0, k] == retarget

    def test_exact_channel_matches_assembly(self):
        config, hops = self._scene((56,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
        design, slopes, commons = design_one(selection, hops)
        h = composite(hops, slopes, commons)
        assert np.array_equal(design.exact_h, h)

    def test_approximation_error_is_modest(self):
        ratios = []
        for i in range(150):
            config, hops = self._scene((57, i))
            selection = select_one(hops.rx_arrival[0], config.n_rx, "sm")
            design = design_row(design_one(selection, hops)[0])
            ratios.append(
                np.linalg.norm(model_channel(design) - design.exact_h)
                / np.linalg.norm(design.exact_h)
            )
        assert float(np.median(ratios)) < 0.25

    def test_beamform_rank_one_when_departures_coincide(self):
        # If all selected receive-side arrival frequencies coincide, the
        # model matrix is an exact rank-one outer product.
        config, hops = self._scene((58,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "bf")
        design = design_row(design_one(selection, hops)[0])
        freqs = [hops.rx_arrival[0, k, p] for k, p in
                 zip(selection.active[0], selection.paths[0, 0])]
        approx = model_channel(design)
        s = np.linalg.svd(approx, compute_uv=False)
        spread = max(freqs) - min(freqs)
        if spread < 1e-12:
            assert s[1] / s[0] < 1e-10
        else:
            assert s[0] > 0.0

    def test_refinement_changes_only_common_phase(self):
        # The per-element profiles (slopes) are untouched; refinement only
        # adds a common phase per active surface.
        config, hops = self._scene((59,))
        selection = select_one(hops.rx_arrival[0], config.n_rx, "bf")
        plain, plain_slopes, plain_commons = design_one(
            selection, hops, refine=False)
        refined, refined_slopes, refined_commons = design_one(
            selection, hops, refine=True)
        assert np.allclose(np.abs(plain.xi_active), np.abs(refined.xi_active),
                           rtol=1e-12)
        assert np.array_equal(plain_slopes, refined_slopes)
        assert not plain_commons.any()
        assert np.any(refined_commons != plain_commons)

    def test_slot_index_selects_diversity_branch(self):
        config = rl.SystemConfig(n_slots=2)
        hops = draw_scene(config, BASE_SEED, 60)
        selection = select_one(hops.rx_arrival[0], config.n_rx, "ds", 2)
        slot0 = design_one(selection, hops, slot=0)[0]
        slot1 = design_one(selection, hops, slot=1)[0]
        assert not np.array_equal(slot0.r_active, slot1.r_active)

    def test_mismatched_design_keeps_true_exact_channel(self):
        # Selection and phase design run on the perturbed estimate, but
        # the exact channel must be assembled from the true draws.
        config, hops = self._scene((61,))
        arrivals, departures = _angle_errors(0.05, hops.rx_arrival, hops.rx_departure,
                                             *streams(BASE_SEED, [(62,)]))
        estimate = dataclasses.replace(hops, rx_arrival=arrivals, rx_departure=departures)
        selection = select_one(estimate.rx_arrival[0], config.n_rx, "sm")
        design, slopes, commons = design_one(selection, estimate, exact=hops)
        h_true = composite(hops, slopes, commons)
        assert np.array_equal(design.exact_h, h_true)
        h_design = composite(estimate, slopes, commons)
        assert not np.array_equal(design.exact_h, h_design)


def _adversarial_gains(rng, shape, zeros: bool) -> np.ndarray:
    """Gains of magnitude 1e-150 to 1e150: at random phases, on the axes
    with signed zero parts, within a few ulp of phase +-pi (or exactly at
    it), and, with ``zeros``, exactly zero with signed parts."""
    magnitude = 10.0 ** rng.uniform(-150.0, 150.0, shape)
    angle = rng.uniform(-math.pi, math.pi, shape)
    signs = rng.choice([-1.0, 1.0], (3,) + shape)
    tiny = signs[1] * magnitude * np.where(rng.random(shape) < 0.5, 0.0,
                                            10.0 ** rng.uniform(-18.0, -15.0, shape))
    on_real = rng.random(shape) < 0.5
    kinds = [
        (magnitude * np.cos(angle), magnitude * np.sin(angle)),
        (np.where(on_real, signs[0] * magnitude, signs[0] * 0.0),
         np.where(on_real, signs[1] * 0.0, signs[1] * magnitude)),
        (-magnitude, tiny),
        (signs[0] * 0.0, signs[1] * 0.0),
    ]
    kind = rng.integers(0, 4 if zeros else 3, shape)
    gains = np.empty(shape, dtype=complex)
    gains.real = np.choose(kind, [re for re, _ in kinds])
    gains.imag = np.choose(kind, [im for _, im in kinds])
    return gains


class TestArrayPhaseDesign:
    """``design_slots`` computes the common phases and designed gains as
    arrays; they must equal the scalar loops (``conftest.scalar_phase_design``)
    repr for repr, signed zeros included, on adversarial gains."""

    @staticmethod
    def _stack(config, rng, n_angle, n_fading, zeros):
        angles, _ = draw_angle_epochs(
            config, surface_geometry(config),
            *streams(BASE_SEED, [(60, n_angle, a) for a in range(n_angle)]),
        )
        n_ris, n_tx_paths = angles["tx_arrival"].shape[1:]
        return HopStack(
            tx_gains=_adversarial_gains(rng, (n_angle, n_fading, n_ris, n_tx_paths), zeros),
            rx_gains=_adversarial_gains(rng, (n_angle, n_fading, n_ris, config.n_ris_rx_paths),
                                        zeros),
            **angles,
        )

    @pytest.mark.parametrize("scheme", ["sm", "bf", "ds", "db"])
    @pytest.mark.parametrize("refine", [False, True])
    def test_matches_scalar_loops_on_adversarial_gains(self, scheme, refine):
        rng = rl.substream(BASE_SEED, 61, refine)
        checked = 0
        for n_rx in range(1, 5):
            n_slots = 2 if scheme in ("ds", "db") else 1
            config = rl.SystemConfig(n_tx=8, n_rx=n_rx, n_ris=4, n_ris_rx_paths=3,
                                     n_slots=n_slots, gain_target=2e-7)
            hops = self._stack(config, rng, 3, 40, zeros=not refine)
            family = next(f for f, members in customize.FAMILIES.items() if scheme in members)
            selection = customize.select_paths_stack(hops.rx_arrival, n_rx,
                                                     {family: n_slots})[family]
            for slot in range(n_slots):
                with np.errstate(all="ignore"):
                    design, _, commons = customize.design_slots(
                        selection, slot, hops, hops, refine=refine
                    )
                oracle_commons, oracle_xi = scalar_phase_design(selection, slot, hops, refine)
                assert repr(commons.tolist()) == repr(oracle_commons.tolist())
                assert repr(design.xi_active.tolist()) == repr(oracle_xi.tolist())
                checked += design.xi_active.size
        assert checked >= 4 * 3 * 40

    @pytest.mark.parametrize("zero", ["rx", "tx"])
    def test_zero_gain_rejected_by_refinement(self, zero):
        config = rl.SystemConfig(n_tx=8, n_rx=2, n_ris=3, n_ris_rx_paths=3, gain_target=2e-7)
        hops = self._stack(config, rl.substream(BASE_SEED, 62), 2, 3, zeros=False)
        selection = customize.select_paths_stack(hops.rx_arrival, 2, {"beamform": 1})["beamform"]
        k, l = selection.active[0, 0], selection.paths[0, 0, 0]
        gains = (hops.rx_gains[0, 1, k, l:l + 1] if zero == "rx" else hops.tx_gains[0, 1, k, :1])
        gains[:] = complex(-0.0, 0.0)
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            customize.design_slots(selection, 0, hops, hops, refine=True)
        with np.errstate(all="ignore"):
            design = customize.design_slots(selection, 0, hops, hops)[0]
        assert repr(design.xi_active.tolist()) == repr(
            scalar_phase_design(selection, 0, hops, False)[1].tolist()
        )
