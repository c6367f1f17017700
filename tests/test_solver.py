import numpy as np
import pytest

from qrot import (
    Potentials,
    RowEquation,
    SolverConfig,
    ValidationError,
    density_from_potentials,
    dual_objective,
    marginal_residuals,
    project,
    solve,
    solve_row_equation,
    solve_symmetric,
    sweep,
    validate_instance,
)
from qrot.solver import _pw_roots
from conftest import (
    bisect_root,
    random_instance,
    random_symmetric_instance,
    two_point_offdiag,
    two_point_ondiag,
)


class TestRowEquation:
    def test_single_breakpoint_pair(self):
        eq = RowEquation(np.array([0.0, 0.0]), np.array([0.5, 0.5]), 2.0)
        assert solve_row_equation(eq) == pytest.approx(2.0, abs=1e-14)

    def test_family_row_recovers_alpha(self):
        # row 0 of the off-diagonal-cost instance against g = (2-a, 2-b):
        # breakpoints (a - 2, b + gamma), the root is a whenever |a-b| <= gamma
        gamma = 1.0
        for alpha, beta in [(0.7, 0.4), (0.0, 1.0), (-2.0, -1.5)]:
            assert abs(alpha - beta) <= gamma
            eq = RowEquation(
                np.array([alpha - 2.0, beta + gamma]), np.array([0.5, 0.5]), 1.0
            )
            assert solve_row_equation(eq) == pytest.approx(alpha, abs=1e-13)

    def test_boundary_target_lands_on_breakpoint(self):
        eq = RowEquation(np.array([1.0, 3.0]), np.array([0.25, 0.75]), 0.5)
        assert solve_row_equation(eq) == pytest.approx(3.0, abs=1e-14)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            thresholds = rng.normal(scale=3.0, size=k)
            if rng.random() < 0.3 and k > 1:
                thresholds[1] = thresholds[0]  # exercise tied breakpoints
            weights = rng.uniform(0.1, 2.0, size=k)
            target = float(rng.uniform(0.01, 5.0))
            root = solve_row_equation(RowEquation(thresholds, weights, target))
            assert root == pytest.approx(bisect_root(thresholds, weights, target), abs=1e-11)
        # many-row kernel calls: ties, threshold scales 1e-8 to 1e8, m = 1,
        # rectangular shapes, targets far below the thresholds' spacing
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for rows, m in ((1, 1), (7, 1), (1, 9), (12, 5), (6, 40)):
                th = rng.normal(scale=scale, size=(rows, m))
                if m > 1:
                    th[::2, 1] = th[::2, 0]  # one tied pair in every other row
                    th[1::3] = th[1::3, :1]  # every breakpoint tied in every third row
                w = rng.uniform(0.1, 2.0, size=m)
                targets = rng.uniform(0.01, 5.0, size=rows) * rng.choice([1.0, scale, 1e-12])
                roots, passes = _pw_roots(th, w, targets)
                assert 1 <= passes <= m
                for r in range(rows):
                    tol = 1e-12 * (1.0 + np.abs(th[r]).max() + targets[r] / w.min())
                    expected = bisect_root(th[r], w, targets[r])
                    assert roots[r] == pytest.approx(expected, abs=tol)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValidationError, match="nonpositive target"):
            RowEquation(np.array([0.0]), np.array([1.0]), 0.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError, match="weights"):
            RowEquation(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)


class TestSweep:
    def test_first_row_pass_zeroes_row_residuals(self):
        inst = two_point_offdiag(1.0)
        p = sweep(inst, Potentials(np.zeros(2), np.zeros(2)))
        # after the full sweep the column equations hold exactly; check rows
        # against the g used during the row pass by redoing a row-only update
        row_only = Potentials(p.f, np.zeros(2))
        cd = density_from_potentials(inst, row_only)
        row, _ = marginal_residuals(inst, cd)
        np.testing.assert_allclose(row, 0.0, atol=1e-14)

    def test_fixed_point_is_a_potential_pair(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=5, m=4)
        p, report = solve(inst, SolverConfig(tol_residual=1e-12))
        assert report.converged
        q = sweep(inst, p)
        np.testing.assert_allclose(q.f, p.f, atol=1e-10)
        np.testing.assert_allclose(q.g, p.g, atol=1e-10)
        cd = density_from_potentials(inst, p)
        row, col = marginal_residuals(inst, cd)
        assert max(np.max(np.abs(row)), np.max(np.abs(col))) <= 1e-12

    def test_zero_cost_converges_in_one_sweep(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        p = sweep(inst, Potentials(np.zeros(2), np.zeros(2)))
        np.testing.assert_allclose(p.f, 1.0, atol=1e-15)
        np.testing.assert_allclose(p.g, 0.0, atol=1e-15)
        q = sweep(inst, p)  # fixed point
        np.testing.assert_allclose(q.f, p.f, atol=1e-15)
        cd = density_from_potentials(inst, p)
        np.testing.assert_allclose(cd.z, 1.0, atol=1e-15)

    def test_row_update_exactness_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng)
            g = rng.normal(size=inst.m)
            p = sweep(inst, Potentials(np.zeros(inst.n), g))
            # row equations were solved against the starting g
            z = np.maximum(0.0, (p.f[:, None] + g[None, :] - inst.cost) / inst.epsilon)
            row = z @ inst.nu_tilde - inst.mu_ratio
            scale = np.maximum(1.0, inst.mu_ratio)
            assert np.all(np.abs(row) <= 1e-14 * scale)


class TestSolve:
    def test_diagonal_instance(self):
        inst = two_point_offdiag(1.0)
        p, report = solve(inst)
        assert report.converged
        assert abs(report.duality_gap) <= 1e-10
        cd = density_from_potentials(inst, p)
        np.testing.assert_allclose(cd.z, 2.0 * np.eye(2), atol=1e-10)

    def test_full_support_regime(self):
        for eta in (0.5, 1.0, 1.5):
            inst = validate_instance(
                [0.5, 0.5], [0.5, 0.5], eta * (1.0 - np.eye(2))
            )
            p, report = solve(inst)
            assert report.converged
            expected = (1 + eta / 2) * np.eye(2) + (1 - eta / 2) * (1 - np.eye(2))
            cd = density_from_potentials(inst, p)
            np.testing.assert_allclose(cd.z, expected, atol=1e-10)
            # constant potentials summing to 1 + eta/2
            np.testing.assert_allclose(p.f, p.f[0], atol=1e-10)
            np.testing.assert_allclose(p.g, p.g[0], atol=1e-10)
            assert p.f[0] + p.g[0] == pytest.approx(1 + eta / 2, abs=1e-10)

    def test_agrees_with_projection_oracle(self):
        rng = np.random.default_rng(7)
        inst = validate_instance(
            np.full(6, 1 / 6),
            np.full(7, 1 / 7),
            rng.normal(size=(6, 7)),
        )
        p, report = solve(inst)
        assert report.converged
        cd = density_from_potentials(inst, p)
        cd_proj = project(inst)
        assert np.max(np.abs(cd.z - cd_proj.z)) <= 1e-6

    def test_normalizations(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, n=4, m=4)
        p_anchor, _ = solve(inst, SolverConfig(normalization="anchor_first_component_zero"))
        assert p_anchor.f[0] == 0.0
        p_mean, _ = solve(inst, SolverConfig(normalization="mean_zero_f"))
        assert np.mean(p_mean.f) == pytest.approx(0.0, abs=1e-12)
        # all normalizations give the same density
        z_a = density_from_potentials(inst, p_anchor).z
        z_m = density_from_potentials(inst, p_mean).z
        np.testing.assert_allclose(z_a, z_m, atol=1e-9)

    def test_monotone_dual_ascent(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(rng)
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            values = [dual_objective(inst, p)]
            for _ in range(30):
                p = sweep(inst, p)
                values.append(dual_objective(inst, p))
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12 * (1 + np.abs(values[:-1])))

    def test_non_convergence_reported_not_raised(self):
        inst = two_point_ondiag(1.0)
        p, report = solve_symmetric(inst, SolverConfig(max_sweeps=1))
        assert not report.converged
        assert report.iterations == 1
        assert np.all(np.isfinite(p.f))

    def test_potential_determinism_given_g(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            inst = random_instance(rng)
            g = rng.normal(size=inst.m)
            f_init_a = rng.normal(size=inst.n)
            f_init_b = rng.normal(size=inst.n)
            pa = sweep(inst, Potentials(f_init_a, g))
            pb = sweep(inst, Potentials(f_init_b, g))
            # the row pass depends only on g, never on the starting f
            assert np.max(np.abs(pa.f - pb.f)) <= 1e-12

    def test_primal_uniqueness_across_runs(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, n=5, m=6)
        runs = [
            solve(inst)[0],
            solve(inst, SolverConfig(normalization="none"))[0],
            solve(
                inst,
                SolverConfig(normalization="mean_zero_f"),
                init=Potentials(rng.normal(size=5), rng.normal(size=6)),
            )[0],
        ]
        densities = [density_from_potentials(inst, p).z for p in runs]
        for z in densities[1:]:
            assert np.max(np.abs(z - densities[0])) <= 1e-6

    def test_oscillation_bound_when_mu_is_reference(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mu = rng.uniform(0.2, 1, n)
            mu /= mu.sum()
            nu = rng.uniform(0.2, 1, m)
            nu /= nu.sum()
            nt = rng.uniform(0.2, 1, m)
            nt /= nt.sum()
            cost = rng.uniform(0, 1, (n, m))
            inst = validate_instance(mu, nu, cost, mu_tilde=mu, nu_tilde=nt)
            p, report = solve(inst)
            assert report.converged
            for i in range(n):
                for k in range(n):
                    bound = np.max(np.abs(cost[i] - cost[k]))
                    assert abs(p.f[i] - p.f[k]) <= bound + 1e-9

    def test_boundedness_after_balanced_centering(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng, equal_refs=True, cost_kind="gaussian", eps=1.0)
            p, report = solve(inst)
            assert report.converged
            alpha = -0.5 * (p.f.max() + p.f.min())
            assert np.max(np.abs(p.f + alpha)) <= 2 * np.max(np.abs(inst.cost)) + 1e-9


class TestSolveSymmetric:
    def test_counterexample_family(self):
        gamma = 1.0
        inst = two_point_ondiag(gamma)
        p, report = solve_symmetric(inst)
        assert report.converged
        assert p.symmetric
        np.testing.assert_array_equal(p.f, p.g)
        cd = density_from_potentials(inst, p)
        np.testing.assert_allclose(cd.z, 2.0 * (1 - np.eye(2)), atol=1e-9)
        assert p.f[0] + p.f[1] == pytest.approx(2.0, abs=1e-9)
        assert 1 - gamma / 2 - 1e-9 <= p.f[0] <= 1 + gamma / 2 + 1e-9

    def test_zero_cost_gives_constant_half(self):
        inst = validate_instance([0.25, 0.75], [0.25, 0.75], np.zeros((2, 2)))
        p, report = solve_symmetric(inst)
        assert report.converged
        np.testing.assert_allclose(p.f, 0.5, atol=1e-8)
        cd = density_from_potentials(inst, p)
        np.testing.assert_allclose(cd.z, 1.0, atol=1e-8)

    def test_matches_asymmetric_solver(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            inst = random_symmetric_instance(rng, n=5)
            p_sym, rep_sym = solve_symmetric(inst)
            p_asym, rep_asym = solve(inst)
            assert rep_sym.converged and rep_asym.converged
            z_sym = density_from_potentials(inst, p_sym).z
            z_asym = density_from_potentials(inst, p_asym).z
            assert np.max(np.abs(z_sym - z_asym)) <= 1e-6
            assert abs(rep_sym.dual_value - rep_asym.dual_value) <= 1e-8

    def test_asymmetric_input_rejected(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValidationError, match="asymmetric input"):
            solve_symmetric(inst)
        inst2 = validate_instance([0.3, 0.7], [0.5, 0.5], np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="asymmetric input"):
            solve_symmetric(inst2)


class TestSolverConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(tol_residual=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(max_sweeps=0)
        with pytest.raises(ValidationError):
            SolverConfig(normalization="bogus")


class TestSafeguard:
    def test_line_search_never_accepts_a_worse_point(self):
        from qrot.solver import _bisection_fallback, _symmetric_dual

        inst = two_point_ondiag(1.0)
        p, report = solve_symmetric(inst)
        assert report.converged
        f_opt = p.f
        dual_opt = _symmetric_dual(inst, f_opt)
        # a deliberately bad direction away from the optimum
        f_bad = f_opt + np.array([10.0, -10.0])
        f_back, dual_back = _bisection_fallback(inst, f_opt, f_bad, dual_opt)
        assert dual_back >= dual_opt - 1e-12

    def test_line_search_recovers_interior_maximum(self):
        from qrot.solver import _bisection_fallback, _symmetric_dual

        inst = two_point_ondiag(1.0)
        p, _ = solve_symmetric(inst)
        direction = np.array([1.0, -1.0])
        f_start = p.f - 0.4 * direction
        dual_start = _symmetric_dual(inst, f_start)
        # the segment passes through better points than either endpoint region
        f_found, dual_found = _bisection_fallback(
            inst, f_start, f_start + 2.0 * direction, dual_start
        )
        assert dual_found >= dual_start
