import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomil.config import GenConfig
from gliomil.synth import (
    MarkerTuple,
    derive_glioma_class,
    estimate_cooccurrence,
    generate_bag,
    generate_dataset,
    rng_for_case,
    sample_case,
    signal_directions,
)


class TestClassDerivation:
    # exhaustive oracle: wildtype wins, then co-deletion, then CDKN/NMP escalation
    def expected(self, idh, codel, cdkn, nmp):
        if idh == 0:
            return 0
        if codel == 1:
            return 3
        if cdkn == 1 or nmp == 1:
            return 1
        return 2

    def test_all_sixteen_combinations(self):
        for idh, codel, cdkn, nmp in itertools.product((0, 1), repeat=4):
            m = MarkerTuple(idh, codel, cdkn, nmp)
            assert derive_glioma_class(m) == self.expected(idh, codel, cdkn, nmp), m


class TestCaseSampling:
    def test_codel_implies_idh_mutation(self):
        cfg = GenConfig()
        rng = np.random.default_rng(0)
        for _ in range(2000):
            m = sample_case(rng, cfg)
            assert not (m.codel_1p19q == 1 and m.idh_mut == 0)

    def test_nmp_strongly_implies_wildtype(self):
        cfg = GenConfig()
        rng = np.random.default_rng(1)
        draws = [sample_case(rng, cfg) for _ in range(10_000)]
        nmp_pos = [m for m in draws if m.nmp == 1]
        frac_wt = sum(m.idh_mut == 0 for m in nmp_pos) / len(nmp_pos)
        assert frac_wt >= 0.93  # target 0.95 with Monte-Carlo slack

    def test_case_streams_are_order_independent(self):
        cfg = GenConfig()
        a = sample_case(rng_for_case(0, "case0005"), cfg)
        # consuming another stream first must not disturb case0005
        _ = sample_case(rng_for_case(0, "case0003"), cfg)
        b = sample_case(rng_for_case(0, "case0005"), cfg)
        assert a == b

    def test_same_seed_same_sequence(self):
        cfg = GenConfig(n_cases=20)
        first = [b.markers for b in generate_dataset(cfg)]
        second = [b.markers for b in generate_dataset(cfg)]
        assert first == second


class TestBagGeneration:
    def test_shapes_and_class(self):
        cfg = GenConfig(n_patches=8, feat_dim=6)
        m = MarkerTuple(1, 0, 1, 0)
        bag = generate_bag(m, cfg, rng_for_case(0, "x"), case_id="x")
        assert bag.feats_high.shape == (8, 6)
        assert bag.feats_low.shape == (8, 6)
        assert bag.glioma_class == derive_glioma_class(m)

    def test_zero_signal_is_indistinguishable(self):
        """With no planted signal, IDH groups have identical feature law."""
        from scipy import stats

        cfg = GenConfig(signal_strength=0.0, n_patches=16, feat_dim=8)
        rng = np.random.default_rng(3)
        pooled, labels = [], []
        for i in range(1000):
            m = sample_case(rng, cfg)
            bag = generate_bag(m, cfg, rng_for_case(99, f"c{i}"))
            proj = bag.feats_high.mean(axis=0) @ signal_directions(8)["idh_mut"]
            pooled.append(proj)
            labels.append(m.idh_mut)
        pooled, labels = np.array(pooled), np.array(labels)
        _, p = stats.ttest_ind(pooled[labels == 1], pooled[labels == 0])
        assert p > 0.01

    @pytest.mark.parametrize("feat_dim", [3, 16])
    def test_signal_directions_are_computed_once_and_read_only(self, feat_dim):
        first, second = signal_directions(feat_dim), signal_directions(feat_dim)
        assert first is second
        for name, direction in first.items():
            assert direction is second[name]
            assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-12)
            with pytest.raises(ValueError, match="read-only"):
                direction[0] = 0.0
        with pytest.raises(TypeError):
            first["nmp"] = np.zeros(feat_dim)

    def test_linear_probe_separates_idh(self):
        """Mean-pooled high-mag features must be linearly separable at default strength."""
        cfg = GenConfig()
        rng = np.random.default_rng(4)
        feats, labels = [], []
        for i in range(200):
            m = sample_case(rng, cfg)
            bag = generate_bag(m, cfg, rng_for_case(7, f"c{i}"))
            feats.append(bag.feats_high.mean(axis=0))
            labels.append(m.idh_mut)
        x = np.column_stack([np.array(feats), np.ones(len(feats))])
        y = 2.0 * np.array(labels) - 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = np.mean(np.sign(x @ w) == y)
        assert acc >= 0.95

    @pytest.mark.parametrize("strength", [1e38, -1e38])
    def test_strongest_signal_stays_finite_in_float32(self, strength):
        """At the bound every marker set fits float32 when its signals share every row: at
        feat_dim 1 the IDH and 1p/19q directions are both +1, so they add to 2 * strength."""
        for k in (1, 2, 3, 4):
            cfg = GenConfig(n_patches=4, feat_dim=k, signal_strength=strength,
                            evidence_fraction=1.0)
            for markers in itertools.product((0, 1), repeat=4):
                bag = generate_bag(MarkerTuple(*markers), cfg, rng_for_case(0, "x"))
                assert np.isfinite(bag.feats_high).all() and np.isfinite(bag.feats_low).all()

    def test_nmp_signal_lives_at_low_magnification(self):
        cfg = GenConfig(evidence_fraction=1.0)
        on = generate_bag(MarkerTuple(0, 0, 0, 1), cfg, rng_for_case(1, "a"))
        off = generate_bag(MarkerTuple(0, 0, 0, 0), cfg, rng_for_case(1, "a"))
        d = signal_directions(cfg.feat_dim)["nmp"]
        shift_low = (on.feats_low - off.feats_low).mean(axis=0) @ d
        shift_high = np.abs((on.feats_high - off.feats_high).mean(axis=0) @ d)
        assert shift_low == pytest.approx(cfg.signal_strength, rel=1e-5)
        assert shift_high < 1e-5


class TestCooccurrence:
    def test_worked_example(self):
        rows = np.array([
            [1, 1, 0],
            [1, 0, 0],
            [0, 0, 0],
            [1, 1, 0],
        ])
        cooc = estimate_cooccurrence(rows)
        # P(codel|idh) = 2/3, P(idh|codel) = 1 -> average 5/6
        assert cooc.a[0, 1] == pytest.approx(5 / 6)
        assert cooc.a[1, 0] == pytest.approx(5 / 6)
        assert cooc.counts[0, 0] == 3 and cooc.counts[1, 1] == 2
        assert cooc.a[2, 2] == 0.0  # never-positive marker: defined as 0

    def test_diag_is_one_when_marker_present(self):
        rows = np.array([[1, 0, 1], [1, 1, 0]])
        cooc = estimate_cooccurrence(rows)
        assert cooc.a[0, 0] == 1.0 and cooc.a[1, 1] == 1.0 and cooc.a[2, 2] == 1.0

    def brute_force(self, rows):
        a = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                both = np.sum((rows[:, i] == 1) & (rows[:, j] == 1))
                ni, nj = np.sum(rows[:, i] == 1), np.sum(rows[:, j] == 1)
                p_ij = both / nj if nj else 0.0
                p_ji = both / ni if ni else 0.0
                a[i, j] = 0.5 * (p_ij + p_ji)
        return a

    @given(st.integers(0, 2**30 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, size=(int(rng.integers(1, 30)), 3))
        cooc = estimate_cooccurrence(rows)
        assert np.allclose(cooc.a, self.brute_force(rows), atol=1e-12)
        assert np.array_equal(cooc.a, cooc.a.T)
        assert cooc.a.min() >= 0.0 and cooc.a.max() <= 1.0
