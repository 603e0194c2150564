"""Path selection search and assembly of the customized channel."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import rislink as rl
from rislink.customize import DEFAULT_SEARCH_CAP, _best_tuple, _candidate_gram
from rislink.errors import SearchSpaceError, SelectionInfeasibleError

from conftest import BASE_SEED, candidate_matrix, draw_scene, small_config


def _gram_objective(freqs, n_rx: int, off_diagonal: float) -> float:
    """Squared distance of the receive Gram matrix from its target."""
    r = np.stack([rl.array_response(n_rx, f) for f in freqs], axis=1)
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


def _brute_force_bf(candidates: np.ndarray, n_rx: int, active=None):
    n_ris, n_paths = candidates.shape
    active = tuple(range(n_ris)) if active is None else tuple(active)
    best = None
    for paths in itertools.product(range(n_paths), repeat=len(active)):
        freqs = [candidates[k, p] for k, p in zip(active, paths)]
        objective = _gram_objective(freqs, n_rx, 1.0)
        if best is None or objective < best[0]:
            best = (objective, active, paths)
    return best


def _best_tuple_oracle(gram, groups, target_off_diagonal):
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
                got = _best_tuple(gram, groups, target, DEFAULT_SEARCH_CAP)
                assert repr(got) == repr(_best_tuple_oracle(gram, groups, target))


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
        selection = rl.select_paths_sm(candidates, n_rx)
        assert selection.slot_objectives[0] < 1e-24
        assert selection.active_ris == (0, 1)
        assert selection.slot_paths[0] == (0, 0)

    def test_objective_matches_recomputation(self):
        rng = rl.substream(BASE_SEED, 40)
        candidates = rng.uniform(-math.pi, math.pi, (4, 6))
        selection = rl.select_paths_sm(candidates, 3)
        freqs = [candidates[k, p] for k, p in
                 zip(selection.active_ris, selection.slot_paths[0])]
        assert math.isclose(
            selection.slot_objectives[0],
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
            selection = rl.select_paths_sm(candidates, n_rx)
            objective, subset, paths = _brute_force_sm(candidates, n_rx)
            assert selection.active_ris == subset
            assert selection.slot_paths[0] == paths
            assert math.isclose(selection.slot_objectives[0], objective,
                                rel_tol=1e-12, abs_tol=1e-18)

    def test_matches_brute_force_at_default_size(self):
        rng = rl.substream(BASE_SEED, 42)
        candidates = rng.uniform(-math.pi, math.pi, (4, 10))
        selection = rl.select_paths_sm(candidates, 4)
        objective, subset, paths = _brute_force_sm(candidates, 4)
        assert selection.active_ris == subset
        assert selection.slot_paths[0] == paths
        assert math.isclose(selection.slot_objectives[0], objective,
                            rel_tol=1e-12)

    def test_single_stream_trivial(self):
        candidates = np.array([[0.3, -1.2]])
        selection = rl.select_paths_sm(candidates, 1)
        assert selection.active_ris == (0,)
        assert selection.slot_objectives[0] == 0.0

    def test_search_cap_enforced(self):
        candidates = np.zeros((4, 10))
        with pytest.raises(SearchSpaceError):
            rl.select_paths_sm(candidates, 4, cap=100)

    def test_deterministic(self):
        rng = rl.substream(BASE_SEED, 43)
        candidates = rng.uniform(-math.pi, math.pi, (4, 10))
        a = rl.select_paths_sm(candidates, 4)
        b = rl.select_paths_sm(candidates, 4)
        assert a == b


class TestBeamformSelection:
    def test_uses_every_surface(self):
        rng = rl.substream(BASE_SEED, 44)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        selection = rl.select_paths_bf(candidates, 2)
        assert selection.active_ris == (0, 1, 2, 3)
        assert len(selection.slot_paths[0]) == 4

    def test_matches_brute_force_on_random_instances(self):
        rng = rl.substream(BASE_SEED, 45)
        for trial in range(100):
            n_rx = int(rng.integers(1, 4))
            n_ris = int(rng.integers(n_rx, 4))
            n_paths = int(rng.integers(1, 5))
            candidates = rng.uniform(-math.pi, math.pi, (n_ris, n_paths))
            selection = rl.select_paths_bf(candidates, n_rx)
            objective, active, paths = _brute_force_bf(candidates, n_rx)
            assert selection.active_ris == active
            assert selection.slot_paths[0] == paths
            assert math.isclose(selection.slot_objectives[0], objective,
                                rel_tol=1e-12, abs_tol=1e-18)

    def test_restricted_active_set(self):
        rng = rl.substream(BASE_SEED, 46)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        selection = rl.select_paths_bf(candidates, 2, active_ris=(0, 2))
        objective, active, paths = _brute_force_bf(candidates, 2, (0, 2))
        assert selection.active_ris == active
        assert selection.slot_paths[0] == paths

    def test_identical_frequencies_reach_zero(self):
        candidates = np.full((3, 4), 0.8)
        selection = rl.select_paths_bf(candidates, 2)
        assert selection.slot_objectives[0] < 1e-24

    def test_single_surface_objective_zero(self):
        candidates = np.array([[0.5, -0.5]])
        selection = rl.select_paths_bf(candidates, 2)
        assert selection.slot_objectives[0] < 1e-24


class TestDiversitySelection:
    def test_first_slot_matches_single_slot_rules(self):
        rng = rl.substream(BASE_SEED, 47)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        ds = rl.select_paths_diversity(candidates, "ds", 2, 2)
        sm = rl.select_paths_sm(candidates, 2)
        assert ds.active_ris == sm.active_ris
        assert ds.slot_paths[0] == sm.slot_paths[0]
        db = rl.select_paths_diversity(candidates, "db", 2, 2)
        bf = rl.select_paths_bf(candidates, 2)
        assert db.active_ris == bf.active_ris
        assert db.slot_paths[0] == bf.slot_paths[0]

    def test_active_set_is_shared_across_slots(self):
        rng = rl.substream(BASE_SEED, 48)
        candidates = rng.uniform(-math.pi, math.pi, (4, 6))
        for scheme in ("ds", "db"):
            selection = rl.select_paths_diversity(candidates, scheme, 3, 2)
            assert len(selection.slot_paths) == 3
            assert len(selection.slot_objectives) == 3
            for slot_paths in selection.slot_paths:
                assert len(slot_paths) == len(selection.active_ris)

    def test_paths_disjoint_across_slots(self):
        rng = rl.substream(BASE_SEED, 49)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        for scheme in ("ds", "db"):
            selection = rl.select_paths_diversity(candidates, scheme, 3, 2)
            for position in range(len(selection.active_ris)):
                used = [paths[position] for paths in selection.slot_paths]
                assert len(set(used)) == len(used)

    def test_later_slots_optimal_over_remaining_paths(self):
        rng = rl.substream(BASE_SEED, 50)
        candidates = rng.uniform(-math.pi, math.pi, (4, 4))
        selection = rl.select_paths_diversity(candidates, "ds", 2, 2)
        active = selection.active_ris
        used = selection.slot_paths[0]
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
        assert selection.slot_paths[1] == best[1]
        assert math.isclose(selection.slot_objectives[1], best[0],
                            rel_tol=1e-12)

    def test_full_depth_uses_each_path_once(self):
        rng = rl.substream(BASE_SEED, 51)
        n_paths = 3
        candidates = rng.uniform(-math.pi, math.pi, (3, n_paths))
        selection = rl.select_paths_diversity(candidates, "ds", n_paths, 2)
        for position in range(len(selection.active_ris)):
            used = sorted(paths[position] for paths in selection.slot_paths)
            assert used == list(range(n_paths))

    def test_more_slots_than_paths_rejected(self):
        candidates = np.zeros((3, 2))
        with pytest.raises(SelectionInfeasibleError):
            rl.select_paths_diversity(candidates, "ds", 3, 2)

    def test_unknown_scheme_rejected(self):
        candidates = np.zeros((3, 4))
        with pytest.raises(ValueError):
            rl.select_paths_diversity(candidates, "xx", 2, 2)

    def test_given_first_slot_gives_the_same_selection(self):
        rng = rl.substream(BASE_SEED, 52)
        candidates = rng.uniform(-math.pi, math.pi, (4, 5))
        for scheme, first in (("ds", rl.select_paths_sm(candidates, 2)),
                              ("db", rl.select_paths_bf(candidates, 2))):
            searched = rl.select_paths_diversity(candidates, scheme, 3, 2)
            reused = rl.select_paths_diversity(candidates, scheme, 3, 2, first=first)
            assert reused == searched

    def test_given_first_slot_must_follow_the_scheme_rules(self):
        candidates = rl.substream(BASE_SEED, 53).uniform(-math.pi, math.pi, (4, 5))
        with pytest.raises(ValueError):
            rl.select_paths_diversity(candidates, "ds", 2, 2,
                                      first=rl.select_paths_bf(candidates, 2))
        with pytest.raises(ValueError):
            rl.select_paths_diversity(candidates, "db", 2, 2,
                                      first=rl.select_paths_diversity(candidates, "db", 2, 2))


class TestCustomizedChannel:
    def _scene(self, key, config=None):
        config = config or rl.SystemConfig()
        deployment, ups, downs = draw_scene(config, BASE_SEED, *key)
        return config, deployment, ups, downs

    def test_multiplex_gram_is_near_identity(self):
        config, deployment, ups, downs = self._scene((52,))
        selection = rl.select_paths_sm(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        gram = custom.r_active.conj().T @ custom.r_active
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
        assert np.linalg.norm(gram - np.eye(config.n_rx)) ** 2 \
            <= selection.slot_objectives[0] + 1e-12

    def test_active_columns_match_selection(self):
        config, deployment, ups, downs = self._scene((53,))
        selection = rl.select_paths_sm(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        for column, (k, path) in enumerate(
                zip(selection.active_ris, selection.slot_paths[0])):
            assert np.array_equal(
                custom.r_active[:, column],
                rl.array_response(config.n_rx, downs[k].arrival_freqs[path]),
            )
            assert np.array_equal(
                custom.t_active[:, column],
                rl.array_response(config.n_tx, ups[k].departure_freqs[0]),
            )

    def test_gains_match_aligned_decomposition(self):
        config, deployment, ups, downs = self._scene((54,))
        selection = rl.select_paths_sm(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        deco = rl.cascaded_decomposition(ups, custom.gammas, downs, deployment)
        for column, (k, path) in enumerate(
                zip(selection.active_ris, selection.slot_paths[0])):
            assert abs(
                custom.xi_active[column] - deco.gain(k, path, 0)
            ) <= 1e-15

    def test_inactive_surfaces_are_neutral(self):
        config, deployment, ups, downs = self._scene((55,))
        selection = rl.select_paths_sm(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        assert len(custom.gammas) == config.n_ris
        for k, gamma in enumerate(custom.gammas):
            if k not in selection.active_ris:
                assert np.all(gamma.phases == 0.0)
            else:
                assert gamma.aligned_path is not None

    def test_exact_channel_matches_assembly(self):
        config, deployment, ups, downs = self._scene((56,))
        selection = rl.select_paths_sm(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        h = rl.assemble_composite(ups, custom.gammas, downs, deployment)
        assert np.array_equal(custom.exact_h, h)

    def test_approximation_error_is_modest(self):
        ratios = []
        for i in range(150):
            config, deployment, ups, downs = self._scene((57, i))
            selection = rl.select_paths_sm(candidate_matrix(downs),
                                           config.n_rx)
            custom = rl.build_customized_channel(selection, (ups, downs),
                                                 deployment)
            ratios.append(
                np.linalg.norm(custom.approx_h() - custom.exact_h)
                / np.linalg.norm(custom.exact_h)
            )
        assert float(np.median(ratios)) < 0.25

    def test_beamform_rank_one_when_departures_coincide(self):
        # If all selected receive-side arrival frequencies coincide, the
        # model matrix is an exact rank-one outer product.
        config, deployment, ups, downs = self._scene((58,))
        selection = rl.select_paths_bf(candidate_matrix(downs), config.n_rx)
        custom = rl.build_customized_channel(selection, (ups, downs),
                                             deployment)
        freqs = [downs[k].arrival_freqs[p] for k, p in
                 zip(selection.active_ris, selection.slot_paths[0])]
        approx = custom.approx_h()
        s = np.linalg.svd(approx, compute_uv=False)
        spread = max(freqs) - min(freqs)
        if spread < 1e-12:
            assert s[1] / s[0] < 1e-10
        else:
            assert s[0] > 0.0

    def test_refinement_changes_only_common_phase(self):
        config, deployment, ups, downs = self._scene((59,))
        selection = rl.select_paths_bf(candidate_matrix(downs), config.n_rx)
        plain = rl.build_customized_channel(selection, (ups, downs),
                                            deployment, refine=False)
        refined = rl.build_customized_channel(selection, (ups, downs),
                                              deployment, refine=True)
        assert np.allclose(np.abs(plain.xi_active), np.abs(refined.xi_active),
                           rtol=1e-12)
        refined_any = False
        for gp, gr in zip(plain.gammas, refined.gammas):
            # The per-element profile is untouched; refinement only adds
            # a constant rotation, so the phase-vector ratio is a single
            # unit scalar.
            assert np.array_equal(gp.phases, gr.phases)
            assert gp.aligned_path == gr.aligned_path
            ratio = gr.phase_vector() / gp.phase_vector()
            assert np.allclose(ratio, ratio[0], atol=1e-12)
            assert math.isclose(abs(ratio[0]), 1.0, rel_tol=1e-12)
            refined_any = refined_any or gr.common_phase != gp.common_phase
        assert refined_any

    def test_slot_index_selects_diversity_branch(self):
        config = rl.SystemConfig(n_slots=2)
        deployment, ups, downs = draw_scene(config, BASE_SEED, 60)
        selection = rl.select_paths_diversity(candidate_matrix(downs), "ds",
                                              2, config.n_rx)
        slot0 = rl.build_customized_channel(selection, (ups, downs),
                                            deployment, slot=0)
        slot1 = rl.build_customized_channel(selection, (ups, downs),
                                            deployment, slot=1)
        assert slot0.slot == 0 and slot1.slot == 1
        assert not np.array_equal(slot0.r_active, slot1.r_active)

    def test_mismatched_design_keeps_true_exact_channel(self):
        # Selection and phase design run on the perturbed estimate, but
        # the exact channel must be assembled from the true draws.
        config, deployment, ups, downs = self._scene((61,))
        rng = rl.substream(BASE_SEED, 62)
        est_downs = [rl.inject_angle_error(d, 0.05, rng) for d in downs]
        selection = rl.select_paths_sm(candidate_matrix(est_downs),
                                       config.n_rx)
        custom = rl.build_customized_channel(
            selection, (ups, est_downs), deployment,
            exact_subchannels=(ups, downs),
        )
        h_true = rl.assemble_composite(ups, custom.gammas, downs, deployment)
        assert np.array_equal(custom.exact_h, h_true)
        h_design = rl.assemble_composite(ups, custom.gammas, est_downs,
                                         deployment)
        assert not np.array_equal(custom.exact_h, h_design)
