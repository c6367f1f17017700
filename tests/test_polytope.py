import numpy as np
import pytest

from qrot import (
    ComponentDecomposition,
    PolytopeDescription,
    Potentials,
    PotentialConsistencyError,
    SolverConfig,
    SupportSet,
    ValidationError,
    apply_shifts,
    components,
    compute_polytope,
    density_from_potentials,
    mirror_pairing,
    sample_shifts,
    solve,
    solve_symmetric,
    support_set,
    symmetric_shift_interval,
    validate_instance,
    verify_potentials,
)
from qrot.solver import _pw_roots
from conftest import (
    block_instance,
    brute_polytope,
    offdiag_family,
    random_instance,
    tiny_eps_symmetric_instance,
    two_point_offdiag,
    two_point_ondiag,
)


def analyze(inst, symmetric=False):
    p, report = (solve_symmetric if symmetric else solve)(inst)
    assert report.converged
    z = density_from_potentials(inst, p)
    s = support_set(z)
    d = components(s)
    pd = compute_polytope(inst, p, d, s)
    return p, z, s, d, pd


def grouped_rigid_instance(n=40, group=3):
    """Identity support; components in one group of ``group`` are forced equal.

    With uniform marginals and epsilon 1 the diagonal density is ``n``, so
    ``f_i + g_i = n``. Off-diagonal cost ``n`` inside a group and ``n + 1``
    across groups makes ``a[i, j] + a[j, i]`` vanish exactly inside a group.
    """
    groups = np.arange(n) // group
    cost = (n + (groups[:, None] != groups[None, :])) * (1.0 - np.eye(n))
    return validate_instance(np.ones(n) / n, np.ones(n) / n, cost)


def assert_matches_brute(inst, p, d, s):
    pd = compute_polytope(inst, p, d, s)
    a, dist, rigid, dimension = brute_polytope(inst, p, d, s)
    np.testing.assert_array_equal(pd.a, a)
    np.testing.assert_array_equal(pd.dist, dist)
    assert pd.rigid_pairs == rigid
    assert pd.dimension == dimension
    return pd


class TestPolytopeOracle:
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_block_instances(self, k):
        for seed in range(2):
            inst = block_instance(np.random.default_rng([k, seed]), k)
            p, z, s, d, _ = analyze(inst)
            assert d.count == k
            pd = assert_matches_brute(inst, p, d, s)
            assert pd.dimension == k

    def test_wide_weight_blocks(self):
        # +-50% weights at eps = 1/n: sweeps alone stopped with density just
        # below the support threshold on between-block cells, whose slack
        # compute_polytope then rejected (on 32 of these 40). Some instances
        # legitimately merge blocks, so the component count is not fixed.
        for seed in range(40):
            inst = block_instance(np.random.default_rng(seed), 80, spread=0.5)
            p, z, s, d, pd = analyze(inst)
            a, _, rigid, dimension = brute_polytope(inst, p, d, s)
            np.testing.assert_array_equal(pd.a, a)
            assert pd.rigid_pairs == rigid
            assert pd.dimension == dimension

    def test_rectangular_blocks(self):
        inst = block_instance(np.random.default_rng(21), 6, rows=2, cols=3)
        assert (inst.n, inst.m) == (12, 18)
        p, z, s, d, _ = analyze(inst)
        assert d.count == 6
        assert_matches_brute(inst, p, d, s)

    def test_rigid_groups(self):
        inst = grouped_rigid_instance()
        p, z, s, d, _ = analyze(inst)
        assert d.count == 40
        pd = assert_matches_brute(inst, p, d, s)
        # 13 groups of three and one singleton
        assert pd.dimension == 14
        assert len(pd.rigid_pairs) == 13 * 3

    def test_unmatched_row_and_column(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 1], 0] = True
        mask[2, [1, 2]] = True
        labels = np.full((4, 4), -1)
        labels[[0, 1], 0] = 0
        labels[2, [1, 2]] = 1
        s = SupportSet(mask=mask, tau=0.0)
        d = ComponentDecomposition(
            labels=labels,
            row_projections=((0, 1), (2,)),
            col_projections=((0,), (1, 2)),
            count=2,
            unmatched_rows=(3,),
            unmatched_cols=(3,),
        )
        built = components(s)
        np.testing.assert_array_equal(built.labels, labels)
        assert (built.row_projections, built.col_projections) == (
            d.row_projections,
            d.col_projections,
        )
        assert (built.unmatched_rows, built.unmatched_cols) == ((3,), (3,))
        rng = np.random.default_rng(5)
        inst = validate_instance(
            np.full(4, 0.25), np.full(4, 0.25), rng.uniform(1.0, 2.0, (4, 4)), epsilon=0.5
        )
        p = Potentials(f=rng.uniform(0.0, 0.5, 4), g=rng.uniform(0.0, 0.5, 4))
        pd = assert_matches_brute(inst, p, d, s)
        slack = -((p.f[:, None] + p.g[None, :] - inst.cost) / inst.epsilon)
        assert pd.a[0, 1] == slack[:2, 1:3].min()
        assert pd.a[1, 0] == slack[2, 0]
        # the unmatched row and column keep their values under a shift
        q = apply_shifts(p, d, np.array([0.0, 0.5]), inst.epsilon, pd)
        np.testing.assert_array_equal(q.f, p.f + inst.epsilon * np.array([0.0, 0.0, 0.5, 0.0]))
        np.testing.assert_array_equal(q.g, p.g - inst.epsilon * np.array([0.0, 0.5, 0.5, 0.0]))


class TestOwnSupport:
    def test_unconverged_symmetric_solve_at_tiny_epsilon(self):
        # the slack is the negated density of p, so an off-support cell of the
        # solve's own support never falls below -tau, converged or not
        inst = tiny_eps_symmetric_instance()
        p, report = solve_symmetric(inst, SolverConfig(max_sweeps=300))
        assert not report.converged
        s = support_set(density_from_potentials(inst, p))
        d = components(s)
        pd = compute_polytope(inst, p, d, s)
        assert np.all(pd.a >= 0)
        assert_matches_brute(inst, p, d, s)


class TestComputePolytope:
    def test_two_components_gamma(self):
        for gamma in (0.5, 1.0, 2.0):
            inst = two_point_offdiag(gamma)
            _, _, _, d, pd = analyze(inst)
            assert d.count == 2
            assert pd.a[0, 1] == pytest.approx(gamma, abs=1e-9)
            assert pd.a[1, 0] == pytest.approx(gamma, abs=1e-9)
            assert pd.dimension == 2
            assert pd.rigid_pairs == ()

    def test_boundary_gamma_zero_is_rigid(self):
        inst = two_point_offdiag(0.0)
        _, _, _, d, pd = analyze(inst)
        assert pd.rigid_pairs == ((0, 1),)
        assert pd.dimension == 1

    def test_single_component_full_support(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], 1.0 * (1 - np.eye(2)))
        _, _, _, d, pd = analyze(inst)
        assert d.count == 1
        assert pd.dimension == 1
        np.testing.assert_array_equal(pd.a, [[0.0]])

    def test_diagonal_entries_zero_and_feasible(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, eps=0.05)
        _, _, _, _, pd = analyze(inst)
        np.testing.assert_array_equal(np.diag(pd.a), 0.0)
        finite = np.isfinite(pd.a)
        assert np.all(pd.a[finite] >= -1e-9)
        assert np.all(np.diag(pd.dist) >= -1e-9)

    def test_triangle_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng, eps=0.05)
            _, _, _, _, pd = analyze(inst)
            finite = np.isfinite(pd.a)
            assert np.all(pd.dist[finite] <= pd.a[finite] + 1e-12)

    def test_transposition_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            inst = random_instance(rng, eps=0.05)
            p, z, s, d, pd = analyze(inst)
            transposed = validate_instance(
                inst.nu,
                inst.mu,
                inst.cost.T,
                mu_tilde=inst.nu_tilde,
                nu_tilde=inst.mu_tilde,
                epsilon=inst.epsilon,
            )
            pt, cdt, st, dt, pdt = analyze(transposed)
            assert d.count == dt.count
            # match components across the transposition by their projections
            match = {}
            for i in range(d.count):
                for j in range(dt.count):
                    if set(d.row_projections[i]) == set(dt.col_projections[j]) and set(
                        d.col_projections[i]
                    ) == set(dt.row_projections[j]):
                        match[i] = j
                        break
            assert len(match) == d.count
            for i in range(d.count):
                for j in range(d.count):
                    assert pd.a[i, j] == pytest.approx(
                        pdt.a[match[j], match[i]], abs=1e-9
                    )

    def test_inconsistent_potentials_rejected(self):
        inst = two_point_offdiag(1.0)
        p, z, s, d, pd = analyze(inst)
        # an off-family pair violates the slack system on this support
        bogus = Potentials(f=p.f + np.array([2.0, 0.0]), g=p.g)
        with pytest.raises(PotentialConsistencyError, match="inconsistent"):
            compute_polytope(inst, bogus, d, s)


class TestSampleShifts:
    def test_respects_constraints(self):
        inst = two_point_offdiag(1.0)
        _, _, _, _, pd = analyze(inst)
        shifts = sample_shifts(pd, 3, seed=7)
        assert len(shifts) == 3
        for alpha in shifts:
            assert alpha[0] == 0.0
            assert abs(alpha[0] - alpha[1]) <= 1.0 + 1e-9

    def test_rigid_pair_forces_equality(self):
        inst = two_point_offdiag(0.0)
        _, _, _, _, pd = analyze(inst)
        for alpha in sample_shifts(pd, 5, seed=1):
            assert alpha[0] == pytest.approx(alpha[1], abs=1e-9)

    def test_single_component_yields_zero(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], 1.0 * (1 - np.eye(2)))
        _, _, _, _, pd = analyze(inst)
        for alpha in sample_shifts(pd, 4, seed=3):
            np.testing.assert_array_equal(alpha, [0.0])

    def test_zero_components_yield_empty_vectors(self):
        empty = np.zeros((0, 0))
        pd = PolytopeDescription(n_components=0, a=empty, dist=empty, dimension=0, rigid_pairs=())
        shifts = sample_shifts(pd, 3, seed=0)
        assert len(shifts) == 3
        assert all(alpha.shape == (0,) for alpha in shifts)

    def test_deterministic_in_seed(self):
        inst = two_point_offdiag(1.0)
        _, _, _, _, pd = analyze(inst)
        a = sample_shifts(pd, 4, seed=42)
        b = sample_shifts(pd, 4, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestSampleShiftsAtScale:
    def check_samples(self, inst, samples=6, seed=5):
        p, z, s, d, pd = analyze(inst)
        shifts = sample_shifts(pd, samples, seed=seed)
        assert len(shifts) == samples
        finite = np.isfinite(pd.a)
        for alpha in shifts:
            assert alpha.shape == (d.count,)
            assert alpha[0] == 0.0
            excess = (alpha[:, None] - alpha[None, :] - pd.a)[finite]
            assert np.max(excess) <= 1e-9
            for i, j in pd.rigid_pairs:
                assert abs(alpha[i] - alpha[j]) <= 1e-9
            q = apply_shifts(p, d, alpha, inst.epsilon, pd)
            assert verify_potentials(inst, q, z)
        for x, y in zip(shifts, sample_shifts(pd, samples, seed=seed)):
            np.testing.assert_array_equal(x, y)
        stacked = np.array(shifts)
        free = [i for i in range(1, d.count) if pd.dist[i, 0] + pd.dist[0, i] > 1e-9]
        assert free
        assert all(np.ptp(stacked[:, i]) > 0 for i in free)
        return pd, stacked

    def test_block_instance(self):
        pd, _ = self.check_samples(block_instance(np.random.default_rng(40), 40))
        assert pd.n_components == 40 and pd.rigid_pairs == ()

    def test_rigid_pairs(self):
        pd, stacked = self.check_samples(grouped_rigid_instance())
        assert pd.rigid_pairs
        # the anchor's group is pinned at zero
        np.testing.assert_allclose(stacked[:, 1:3], 0.0, atol=1e-9)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["a", "dist"])
    def test_non_finite_matrix_rejected(self, name, entry):
        # every block bounds its difference, so a description never holds an infinity
        matrices = {"a": np.zeros((2, 2)), "dist": np.zeros((2, 2))}
        matrices[name][0, 1] = entry
        with pytest.raises(ValidationError, match=f"polytope matrix {name} has an entry"):
            PolytopeDescription(n_components=2, dimension=2, rigid_pairs=(), **matrices)


class TestApplyShifts:
    def test_known_shift_moves_second_component(self):
        inst = two_point_offdiag(1.0)
        p, z, s, d, pd = analyze(inst)
        alpha = np.array([0.0, 0.5])
        q = apply_shifts(p, d, alpha, inst.epsilon, pd)
        np.testing.assert_allclose(q.f, p.f + [0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(q.g, p.g - [0.0, 0.5], atol=1e-15)
        assert verify_potentials(inst, q, z, tol=1e-9)

    def test_zero_shift_is_identity(self):
        inst = two_point_offdiag(1.0)
        p, z, s, d, pd = analyze(inst)
        q = apply_shifts(p, d, np.zeros(2), inst.epsilon, pd)
        np.testing.assert_array_equal(q.f, p.f)
        np.testing.assert_array_equal(q.g, p.g)

    def test_sampled_shifts_all_verify(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            inst = random_instance(rng, eps=0.05)
            p, z, s, d, pd = analyze(inst)
            for alpha in sample_shifts(pd, 5, seed=trial):
                q = apply_shifts(p, d, alpha, inst.epsilon, pd)
                assert verify_potentials(inst, q, z, tol=1e-7)

    def test_violating_shift_rejected(self):
        inst = two_point_offdiag(1.0)
        p, z, s, d, pd = analyze(inst)
        with pytest.raises(ValidationError, match="constraint"):
            apply_shifts(p, d, np.array([0.0, 1.5]), inst.epsilon, pd)

    def test_epsilon_scaling_of_shifts(self):
        eps = 0.25
        inst = two_point_offdiag(1.0, eps=eps)
        p, z, s, d, pd = analyze(inst)
        # diagonal sum is c + eps * z = 0.5, so the off-diagonal slack is
        # (3 - 0.5) / eps for the balanced solver potentials
        assert pd.a[0, 1] == pytest.approx((3.0 - 0.5) / eps, abs=1e-8)
        # the stored potentials move by eps * alpha
        alpha = sample_shifts(pd, 1, seed=0)[0]
        q = apply_shifts(p, d, alpha, eps, pd)
        np.testing.assert_allclose(q.f - p.f, eps * np.array([0.0, alpha[1]]), atol=1e-12)
        assert verify_potentials(inst, q, z, tol=1e-8)


class TestVerifyPotentials:
    def test_family_members_accepted(self):
        gamma = 1.0
        inst = two_point_offdiag(gamma)
        p, report = solve(inst)
        z_star = density_from_potentials(inst, p)
        for alpha in np.linspace(0.0, gamma, 5):
            for beta in np.linspace(0.0, gamma, 5):
                assert verify_potentials(inst, offdiag_family(alpha, beta), z_star, tol=1e-8)

    def test_constraint_violation_rejected(self):
        gamma = 1.0
        inst = two_point_offdiag(gamma)
        p, _ = solve(inst)
        z_star = density_from_potentials(inst, p)
        assert not verify_potentials(
            inst, offdiag_family(0.0, gamma + 0.1), z_star, tol=1e-8
        )

    def test_symmetric_counterexample_interval(self):
        gamma = 1.0
        inst = two_point_ondiag(gamma)
        p, report = solve_symmetric(inst)
        z_star = density_from_potentials(inst, p)
        for alpha in np.linspace(1 - gamma / 2, 1 + gamma / 2, 5):
            candidate = Potentials(
                f=np.array([alpha, 2 - alpha]),
                g=np.array([alpha, 2 - alpha]),
                symmetric=True,
            )
            assert verify_potentials(inst, candidate, z_star, tol=1e-8)
        outside = Potentials(f=np.array([1.6, 0.4]), g=np.array([1.6, 0.4]), symmetric=True)
        assert not verify_potentials(inst, outside, z_star, tol=1e-8)


class TestCompleteness:
    def recover_g(self, inst, f):
        """One exact column pass: the unique g determined by a frozen f."""
        g, _ = _pw_roots(inst.cost.T - f[None, :], inst.mu_tilde, inst.epsilon * inst.nu_ratio)
        return g

    def grid_search_check(self, inst, span=2.0, points=9, tol=1e-6):
        p, report = solve(inst)
        assert report.converged
        z = density_from_potentials(inst, p)
        s = support_set(z)
        d = components(s)
        pd = compute_polytope(inst, p, d, s)
        grids = [np.linspace(p.f[i] - span, p.f[i] + span, points) for i in range(inst.n)]
        accepted = 0
        for f_candidate in np.stack(np.meshgrid(*grids), axis=-1).reshape(-1, inst.n):
            g_candidate = self.recover_g(inst, f_candidate)
            q = Potentials(f=f_candidate, g=g_candidate)
            if not verify_potentials(inst, q, z, tol=1e-8):
                continue
            accepted += 1
            # map back to a shift vector: constant on each component's rows
            alpha = np.zeros(d.count)
            for cid in range(d.count):
                rows = list(d.row_projections[cid])
                diffs = (f_candidate[rows] - p.f[rows]) / inst.epsilon
                assert np.max(np.abs(diffs - diffs[0])) <= tol
                alpha[cid] = diffs[0]
            finite = np.isfinite(pd.a)
            excess = (alpha[:, None] - alpha[None, :] - pd.a)[finite]
            assert np.max(excess) <= tol
        assert accepted >= 1  # at least the solved potentials themselves

    def test_two_point_instance(self):
        self.grid_search_check(two_point_offdiag(1.0))

    def test_random_three_by_three(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n=3, m=3, eps=0.1)
        self.grid_search_check(inst, span=1.0, points=7)


class TestSymmetricSlice:
    def test_counterexample_interval_reproduced(self):
        gamma = 1.0
        inst = two_point_ondiag(gamma)
        p, z, s, d, pd = analyze(inst, symmetric=True)
        mirror = mirror_pairing(d)
        assert sorted(mirror) == [0, 1] and mirror[mirror[0]] == 0
        lo, hi = symmetric_shift_interval(pd, mirror, (0, mirror[0]))
        # shifting f[0] by s keeps f = g; the reachable values of f[0]
        # recover the full symmetric family interval
        assert p.f[0] + lo == pytest.approx(1 - gamma / 2, abs=1e-8)
        assert p.f[0] + hi == pytest.approx(1 + gamma / 2, abs=1e-8)

    def test_many_mirror_pairs_match_brute_force(self):
        # swapped pairs: row 2t sends its mass to column 2t+1 and back, so
        # each pair of rows gives two components that mirror each other
        k = 10
        rng = np.random.default_rng(3)
        noise = rng.uniform(0.0, 1.0, (2 * k, 2 * k))
        cost = 3.0 + 0.5 * (noise + noise.T)
        for t in range(k):
            cost[2 * t, 2 * t + 1] = cost[2 * t + 1, 2 * t] = rng.uniform(0.0, 1.0)
        w = np.repeat(rng.uniform(0.8, 1.2, k), 2)
        inst = validate_instance(w / w.sum(), w / w.sum(), cost, epsilon=1.0 / (2 * k))
        p, z, s, d, pd = analyze(inst, symmetric=True)
        assert d.count == 2 * k
        mirror = mirror_pairing(d)
        brute = tuple(
            next(
                j
                for j in range(d.count)
                if set(d.row_projections[j]) == set(d.col_projections[i])
                and set(d.col_projections[j]) == set(d.row_projections[i])
            )
            for i in range(d.count)
        )
        assert mirror == brute
        assert mirror[:4] == (1, 0, 3, 2)
        for i in range(d.count):
            j = mirror[i]
            lo, hi = -np.inf, np.inf
            for a_ in range(d.count):
                for b_ in range(d.count):
                    coeff = float(a_ == i) - float(a_ == j) - float(b_ == i) + float(b_ == j)
                    if a_ == b_ or not np.isfinite(pd.dist[a_, b_]) or coeff == 0:
                        continue
                    if coeff > 0:
                        hi = min(hi, pd.dist[a_, b_] / coeff)
                    else:
                        lo = max(lo, pd.dist[a_, b_] / coeff)
            assert symmetric_shift_interval(pd, mirror, (i, j)) == (lo, hi)
            assert lo < 0.0 < hi

    def test_asymmetric_support_rejected(self):
        inst = block_instance(np.random.default_rng(8), 3, rows=2, cols=3)
        _, _, _, d, _ = analyze(inst)
        with pytest.raises(ValidationError, match="not symmetric"):
            mirror_pairing(d)

    def test_self_mirrored_component_is_pinned(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)))
        p, z, s, d, pd = analyze(inst, symmetric=True)
        mirror = mirror_pairing(d)
        assert mirror == (0,)
        assert symmetric_shift_interval(pd, mirror, (0, 0)) == (0.0, 0.0)
