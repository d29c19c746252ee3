import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor
from gliomil.config import TrainConfig
from gliomil.interaction import (
    cmg_modulate,
    confidence_weights,
    curriculum_m,
    dcc_overlap,
    dcc_surrogate,
    majority_vote,
    project_perp,
    rescale,
    top_m,
)


def padded_or_truncated(ref, length):
    """``ref`` zero-padded or truncated to ``length``, as projection over the common head sees it."""
    out = np.zeros(length)
    out[:min(ref.size, length)] = ref[:length]
    return out


def cv(values):
    """A bag's (N, 1) confidence column holding ``values``."""
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


class TestConfidenceWeights:
    def test_hand_example(self):
        feats = Tensor(np.array([[2.0, 3.0]]))
        pooled = Tensor(np.array([[0.5, 1.0]]))
        col = Tensor(np.array([[1.0], [-1.0]]))
        c = confidence_weights(feats, pooled, col)
        assert c.data.shape == (1, 1)
        assert c.data[0, 0] == pytest.approx(-2.0)

    def test_descending_order_with_stable_ties(self):
        c = cv([1.0, 3.0, 3.0, -1.0])
        assert top_m(c, 4).tolist() == [1, 2, 0, 3]
        assert top_m(c, 2).tolist() == [1, 2]
        assert top_m(c, 9).tolist() == [1, 2, 0, 3]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_top_m_matches_sorted_with_ties(self, data):
        """Drawn from a small integer set, the values tie often; ties go to the lower index."""
        n = data.draw(st.integers(1, 30))
        m = data.draw(st.integers(1, n + 3))
        v = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        expect = sorted(range(n), key=lambda i: (-v[i], i))[:m]
        assert top_m(cv(v), m).tolist() == expect

    def test_matches_loop(self):
        rng = np.random.default_rng(0)
        feats = Tensor(rng.normal(size=(6, 4)))
        pooled = Tensor(rng.normal(size=(1, 4)))
        col = Tensor(rng.normal(size=(4, 1)))
        c = confidence_weights(feats, pooled, col)
        for n in range(6):
            expect = (feats.data[n] * pooled.data.ravel()) @ col.data.ravel()
            assert c.data[n, 0] == pytest.approx(expect, abs=1e-12)


def schedule(start, decay, every):
    return TrainConfig(dcc_top_m=start, dcc_decay=decay, dcc_decay_every=every)


class TestCurriculum:
    def test_halving_schedule(self):
        s = schedule(start=8, decay=0.5, every=10)
        assert curriculum_m(0, s) == 8
        assert curriculum_m(9, s) == 8
        assert curriculum_m(10, s) == 4
        assert curriculum_m(25, s) == 2

    def test_clamped_below_by_one(self):
        s = schedule(start=8, decay=0.5, every=1)
        assert curriculum_m(50, s) == 1

    def test_m_above_patch_count_scores_as_patch_count(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5):
            a, b = cv(rng.normal(size=n)), cv(rng.normal(size=n))
            for m in (n + 1, 100):
                assert dcc_overlap(a, b, m) == dcc_overlap(a, b, n)
                assert (dcc_surrogate(a, b, m, temperature=0.7).item()
                        == dcc_surrogate(a, b, n, temperature=0.7).item())


class TestOverlap:
    def test_disjoint_and_identical(self):
        a, b = cv([5.0, 4.0, 0.0, 0.0]), cv([0.0, 0.0, 4.0, 5.0])
        assert dcc_overlap(a, b, 2) == 0.0
        assert dcc_overlap(a, a, 2) == 1.0

    def test_partial(self):
        a, b = cv([5.0, 4.0, 3.0, 0.0]), cv([5.0, 0.0, 3.0, 4.0])
        # top-2 sets {0,1} vs {0,3}
        assert dcc_overlap(a, b, 2) == 0.5

    @given(st.integers(0, 2**30 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, n + 1))
        a, b = cv(rng.normal(size=n)), cv(rng.normal(size=n))

        def brute_top(c):
            ranked = sorted(range(n), key=lambda i: (-c.data[i, 0], i))
            return set(ranked[:m])

        expect = len(brute_top(a) & brute_top(b)) / m
        assert dcc_overlap(a, b, m) == pytest.approx(expect)


class TestSurrogate:
    def test_hand_value_disjoint_tops(self):
        a, b = cv([1.0, 0.0]), cv([0.0, 1.0])
        loss = dcc_surrogate(a, b, 1, temperature=1.0)
        assert loss.item() == pytest.approx(1.0 - 1.0 / (1.0 + math.e), abs=1e-12)

    def test_zero_when_masses_concentrate_on_shared_top(self):
        a, b = cv([50.0, 0.0, 0.0]), cv([50.0, 0.0, 0.0])
        assert dcc_surrogate(a, b, 1, temperature=1.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n + 1))
            val = dcc_surrogate(cv(rng.normal(size=n)), cv(rng.normal(size=n)), m,
                                temperature=1.0).item()
            assert 0.0 <= val <= 1.0

    def test_decreases_as_mass_moves_onto_other_top(self):
        """1-d family: raising the other side's top patch in our confidences
        must monotonically lower the surrogate."""
        b = cv([0.0, 3.0, 0.0])  # top patch is index 1
        prev = None
        for t in np.linspace(-2.0, 2.0, 9):
            a = cv([1.0, t, -1.0])
            val = dcc_surrogate(a, b, 1, temperature=1.0).item()
            if prev is not None:
                assert val < prev + 1e-12
            prev = val

    def test_gradient_flows_to_confidence_columns(self):
        a = Tensor(np.array([[0.5], [-0.2], [0.1]]), requires_grad=True)
        b = cv([0.0, 1.0, 2.0])
        loss = dcc_surrogate(a, b, 1, temperature=0.7)
        ad.backward(loss)
        assert a.grad is not None and np.any(a.grad != 0.0)


class TestProjection:
    def test_projection_example(self):
        v = np.array([1.0, 1.0])
        project_perp(v, np.array([1.0, 0.0]))
        assert np.allclose(v, [0.0, 1.0], atol=1e-15)

    def test_rescale_example(self):
        v = np.array([3.0, 4.0])
        rescale(v, 10.0)
        assert np.allclose(v, [6.0, 8.0], atol=1e-12)

    def test_tiny_reference_is_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        project_perp(v, np.zeros(3))
        assert np.array_equal(v, [1.0, 2.0, 3.0])

    def test_orthogonality_and_idempotence(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, r = rng.normal(size=12), rng.normal(size=12)
            project_perp(p, r)
            assert abs(p @ r) <= 1e-10 * (np.linalg.norm(p) * np.linalg.norm(r) + 1e-30)
            again = p.copy()
            project_perp(again, r)
            assert np.allclose(again, p, atol=1e-12)

    def test_unequal_lengths_project_over_the_common_head(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vec = rng.normal(size=9)
            # a shorter reference acts as if zero-padded; vec's tail keeps its bits
            short = rng.normal(size=5)
            got, want = vec.copy(), vec.copy()
            project_perp(got, short)
            project_perp(want, padded_or_truncated(short, vec.size))
            np.testing.assert_allclose(got[:5], want[:5], rtol=0, atol=1e-12)
            assert got[5:].tobytes() == vec[5:].tobytes()
            # a longer reference acts as if truncated to vec's length
            long = rng.normal(size=13)
            got, want = vec.copy(), vec.copy()
            project_perp(got, long)
            project_perp(want, long[:vec.size])
            assert np.array_equal(got, want)


class TestMajorityVote:
    def test_majority_and_tie(self):
        assert majority_vote([1, 1, 0]) == 1
        assert majority_vote([0, 0, 1]) == 0
        assert majority_vote([1, 0]) == 1  # ties resolve positive
        assert majority_vote([]) == 1


def flat_grads(his_parts, mol_parts, shared_parts):
    """A flat gradient laid out histology, molecular, shared, with its group slices."""
    his = np.concatenate([np.ravel(a) for a in his_parts])
    mol = np.concatenate([np.ravel(a) for a in mol_parts])
    grad = np.concatenate([his, mol] + [np.ravel(a) for a in shared_parts])
    groups = {"histology": slice(0, his.size), "molecular": slice(his.size, his.size + mol.size)}
    return grad, groups


def toy_grads(mol, his):
    """A flat gradient with one-array groups and a one-entry shared tail, for hand-checking."""
    return flat_grads([np.asarray(his, dtype=np.float64)],
                      [np.asarray(mol, dtype=np.float64)], [np.array([7.0])])


class TestModulation:
    def test_toy_example_molecular_modulated(self):
        grad, groups = toy_grads([1.0, 1.0], [1.0, 0.0])
        record = cmg_modulate(grad, groups, nmp_majority=1)
        assert record.modulated_group == "molecular"
        # modulated in place: the caller's buffer holds the result
        assert np.allclose(grad[groups["molecular"]], [0.0, math.sqrt(2.0)], atol=1e-12)
        assert record.norm_before == math.sqrt(2.0)
        # coordinates outside the span are unchanged
        assert np.array_equal(grad[groups["histology"]], [1.0, 0.0])
        assert grad[-1] == 7.0

    def test_negative_majority_modulates_histology(self):
        grad, groups = toy_grads([1.0, 0.0], [1.0, 1.0])
        record = cmg_modulate(grad, groups, nmp_majority=0)
        assert record.modulated_group == "histology"
        assert np.allclose(grad[groups["histology"]], [0.0, math.sqrt(2.0)], atol=1e-12)
        assert np.array_equal(grad[groups["molecular"]], [1.0, 0.0])

    def test_guide_off_always_modulates_molecular(self):
        grad, groups = toy_grads([1.0, 1.0], [1.0, 0.0])
        record = cmg_modulate(grad, groups, nmp_majority=0, guide=False)
        assert record.modulated_group == "molecular"
        assert np.array_equal(grad[groups["histology"]], [1.0, 0.0])

    def test_rescale_off_keeps_raw_projection(self):
        grad, groups = toy_grads([1.0, 1.0], [1.0, 0.0])
        cmg_modulate(grad, groups, nmp_majority=1, apply_rescale=False)
        assert np.allclose(grad[groups["molecular"]], [0.0, 1.0], atol=1e-15)

    def test_record_holds_no_array(self):
        grad, groups = toy_grads([1.0, 1.0], [1.0, 0.0])
        record = cmg_modulate(grad, groups, nmp_majority=1)
        assert not any(isinstance(v, np.ndarray) for v in vars(record).values())

    def test_unequal_sizes_orthogonal_and_norm_preserving(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            grad, groups = flat_grads(
                [rng.normal(size=(3, 2)), rng.normal(size=(4,))],
                [rng.normal(size=(5, 3)), rng.normal(size=(2,))],
                [rng.normal(size=(2, 2))],
            )
            vote = trial % 2
            raw = grad.copy()
            record = cmg_modulate(grad, groups, nmp_majority=vote)
            # the span holds the result, orthogonal to the other span padded or truncated
            span = groups[record.modulated_group]
            other = groups["histology" if record.modulated_group == "molecular" else "molecular"]
            after = grad[span]
            ref = padded_or_truncated(grad[other], after.size)
            norms = np.linalg.norm(after) * np.linalg.norm(ref)
            assert abs(after @ ref) <= 1e-8 * max(norms, 1e-30)
            assert record.norm_before == math.sqrt(np.add.reduce(raw[span] * raw[span]))
            assert abs(np.linalg.norm(after) - record.norm_before) <= 1e-8
            # every coordinate outside the span is unchanged
            keep = np.ones(grad.size, dtype=bool)
            keep[span] = False
            assert np.array_equal(grad[keep], raw[keep])
