import numpy as np
import pytest

from qrot import (
    ComponentDecomposition,
    Grid1D,
    SupportSet,
    components,
    density_from_potentials,
    partition_check,
    solve,
    support_set,
    validate_instance,
)
from conftest import (
    bfs_components,
    brute_components,
    random_instance,
    two_point_offdiag,
    zero_cost_skewed,
)


def decomposition_cells(decomp):
    return {
        frozenset(
            (int(i), int(j)) for i, j in np.argwhere(decomp.labels == cid)
        )
        for cid in range(decomp.count)
    }


class TestSupportSet:
    def test_diagonal_density_mask(self):
        inst = two_point_offdiag(1.0)
        p, _ = solve(inst)
        s = support_set(density_from_potentials(inst, p))
        np.testing.assert_array_equal(s.mask, np.eye(2, dtype=bool))

    def test_constant_density_full_mask(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)))
        s = support_set(np.ones((2, 2)))
        assert s.mask.all()

    def test_skewed_zero_cost_mask(self):
        inst = zero_cost_skewed(0.25)
        p, _ = solve(inst)
        s = support_set(density_from_potentials(inst, p))
        expected = np.array([[True, True], [True, False]])
        np.testing.assert_array_equal(s.mask, expected)

    def test_threshold_scales_with_density(self):
        inst = two_point_offdiag(1.0, eps=0.001)
        p, _ = solve(inst)
        z = density_from_potentials(inst, p)
        s = support_set(z)
        assert s.tau == pytest.approx(1e-8 * z.max())
        np.testing.assert_array_equal(s.mask, np.eye(2, dtype=bool))

    def test_negative_threshold_rejected(self):
        inst = two_point_offdiag(1.0)
        z = np.ones((2, 2))
        with pytest.raises(Exception, match="nonnegative"):
            support_set(z, tau=-1.0)

    def test_warns_near_threshold(self):
        inst = two_point_offdiag(1.0)
        tau = 0.5
        z = np.array([[1.0, tau], [0.0, 1.0]])  # one entry exactly at the threshold
        with pytest.warns(UserWarning, match="threshold"):
            support_set(z, tau=tau)


class TestComponents:
    def test_identity_mask_two_components(self):
        from qrot import SupportSet

        s = SupportSet(mask=np.eye(2, dtype=bool), tau=0.0)
        d = components(s)
        assert d.count == 2
        assert decomposition_cells(d) == {frozenset({(0, 0)}), frozenset({(1, 1)})}

    def test_full_mask_single_component(self):
        from qrot import SupportSet

        s = SupportSet(mask=np.ones((2, 2), dtype=bool), tau=0.0)
        d = components(s)
        assert d.count == 1
        assert d.row_projections == ((0, 1),)
        assert d.col_projections == ((0, 1),)

    def test_block_diagonal_grid(self):
        from qrot import SupportSet

        mask = np.zeros((10, 10), dtype=bool)
        mask[:5, :5] = True
        mask[5:, 5:] = True
        d = components(SupportSet(mask=mask, tau=0.0))
        assert d.count == 2
        assert d.row_projections == (tuple(range(5)), tuple(range(5, 10)))
        assert d.col_projections == (tuple(range(5)), tuple(range(5, 10)))

    def test_unmatched_rows_flagged(self):
        from qrot import SupportSet

        mask = np.zeros((3, 2), dtype=bool)
        mask[0, 0] = True
        mask[2, 1] = True
        d = components(SupportSet(mask=mask, tau=0.0))
        assert d.unmatched_rows == (1,)
        assert d.unmatched_cols == ()

    def test_matches_bruteforce_closure(self):
        rng = np.random.default_rng(0)
        from qrot import SupportSet

        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 10 - n + 1))
            mask = rng.random((n, m)) < rng.uniform(0.1, 0.9)
            d = components(SupportSet(mask=mask, tau=0.0))
            assert decomposition_cells(d) == brute_components(mask)
            assert partition_check(d)

    def test_permutation_invariance_of_shapes(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=6, m=5, eps=0.05)
        p, report = solve(inst)
        assert report.converged
        s = support_set(density_from_potentials(inst, p))
        base = components(s)
        base_shapes = sorted(
            (len(r), len(c)) for r, c in zip(base.row_projections, base.col_projections)
        )
        rows = rng.permutation(inst.n)
        cols = rng.permutation(inst.m)
        permuted = validate_instance(
            inst.mu[rows],
            inst.nu[cols],
            inst.cost[np.ix_(rows, cols)],
            mu_tilde=inst.mu_tilde[rows],
            nu_tilde=inst.nu_tilde[cols],
            epsilon=inst.epsilon,
        )
        p2, report2 = solve(permuted)
        assert report2.converged
        d2 = components(support_set(density_from_potentials(permuted, p2)))
        shapes2 = sorted(
            (len(r), len(c)) for r, c in zip(d2.row_projections, d2.col_projections)
        )
        assert base_shapes == shapes2

    def test_idempotent_under_relabeling(self):
        from qrot import SupportSet

        rng = np.random.default_rng(9)
        mask = rng.random((4, 4)) < 0.4
        d1 = components(SupportSet(mask=mask, tau=0.0))
        d2 = components(SupportSet(mask=d1.labels >= 0, tau=0.0))
        np.testing.assert_array_equal(d1.labels, d2.labels)


def assert_matches_bfs(mask):
    d = components(SupportSet(mask=mask, tau=0.0))
    want = bfs_components(mask)
    np.testing.assert_array_equal(d.labels, want.pop("labels"))
    for field, value in want.items():
        assert getattr(d, field) == value, field
    return d


def staircase(n):
    """The path (0, 0), (0, 1), (1, 1), (1, 2), ... through an n x n mask."""
    mask = np.eye(n, dtype=bool)
    mask[np.arange(n - 1), np.arange(1, n)] = True
    return mask


class TestComponentsAtScale:
    """Exact agreement with a breadth-first search on masks far larger than
    the brute-force closure can handle."""

    @pytest.mark.parametrize("n", [100, 300])
    def test_permuted_paths(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            mask = staircase(n)[rng.permutation(n)][:, rng.permutation(n)]
            assert assert_matches_bfs(mask).count == 1
        # the same path cut into pieces at random cells
        mask = staircase(n)
        cuts = rng.choice(n - 1, size=n // 10, replace=False)
        mask[cuts, cuts + 1] = False
        mask = mask[rng.permutation(n)][:, rng.permutation(n)]
        assert assert_matches_bfs(mask).count == n // 10 + 1

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_near_percolation(self, degree):
        rng = np.random.default_rng(degree)
        n, m = 200, 170
        for _ in range(3):
            assert_matches_bfs(rng.random((n, m)) < degree / n)

    def test_unmatched_rows_and_columns(self):
        rng = np.random.default_rng(11)
        for n, m in [(120, 90), (90, 120)]:
            mask = rng.random((n, m)) < 3.0 / max(n, m)
            mask[rng.random(n) < 0.3] = False
            mask[:, rng.random(m) < 0.3] = False
            d = assert_matches_bfs(mask)
            assert d.unmatched_rows and d.unmatched_cols
        for n, m in [(1, 50), (50, 1)]:
            assert_matches_bfs(rng.random((n, m)) < 0.5)
        d = assert_matches_bfs(np.zeros((4, 3), dtype=bool))
        assert d.count == 0 and d.unmatched_rows == (0, 1, 2, 3)

    def test_solved_1d_support(self):
        inst = Grid1D.uniform(200).instance(0.01)
        p, report = solve(inst)
        assert report.converged
        mask = support_set(density_from_potentials(inst, p)).mask
        assert mask.sum() > 2 * inst.n
        assert assert_matches_bfs(mask).count == 1


class TestPartitionCheck:
    def test_component_outputs_pass(self):
        inst = zero_cost_skewed(0.25)
        p, _ = solve(inst)
        d = components(support_set(density_from_potentials(inst, p)))
        assert d.count == 1
        assert d.row_projections == ((0, 1),)
        assert d.col_projections == ((0, 1),)
        assert partition_check(d)

    def test_hand_built_overlap_fails(self):
        labels = np.array([[0, -1], [1, -1]])
        bogus = ComponentDecomposition(
            labels=labels,
            row_projections=((0, 1), (0, 1)),  # both components claim both rows
            col_projections=((0,), (0,)),
            count=2,
        )
        assert not partition_check(bogus)

    def test_missing_cover_fails(self):
        labels = np.array([[0, -1], [-1, 1]])
        bogus = ComponentDecomposition(
            labels=labels,
            row_projections=((0,),),
            col_projections=((0,),),
            count=1,
        )
        assert not partition_check(bogus)
