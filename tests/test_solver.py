import numpy as np
import pytest

import qrot.solver
from qrot import (
    Potentials,
    SolverConfig,
    ValidationError,
    density_from_potentials,
    dual_objective,
    marginal_residuals,
    project,
    solve,
    solve_symmetric,
    sweep,
    validate_instance,
)
from qrot.model import max_residual
from qrot.solver import _pw_roots
from conftest import (
    bisect_root,
    block_instance,
    random_instance,
    random_symmetric_instance,
    two_point_offdiag,
    two_point_ondiag,
)


def row_root(thresholds, weights, target):
    """Root of the single marginal equation ``sum_k w[k] (t - th[k])_+ = target``."""
    roots, _ = _pw_roots(thresholds, weights, [target])
    return float(roots[0])


class TestRowEquation:
    def test_single_breakpoint_pair(self):
        root = row_root(np.array([0.0, 0.0]), np.array([0.5, 0.5]), 2.0)
        assert root == pytest.approx(2.0, abs=1e-14)

    def test_family_row_recovers_alpha(self):
        # row 0 of the off-diagonal-cost instance against g = (2-a, 2-b):
        # breakpoints (a - 2, b + gamma), the root is a whenever |a-b| <= gamma
        gamma = 1.0
        for alpha, beta in [(0.7, 0.4), (0.0, 1.0), (-2.0, -1.5)]:
            assert abs(alpha - beta) <= gamma
            root = row_root(np.array([alpha - 2.0, beta + gamma]), np.array([0.5, 0.5]), 1.0)
            assert root == pytest.approx(alpha, abs=1e-13)

    def test_boundary_target_lands_on_breakpoint(self):
        root = row_root(np.array([1.0, 3.0]), np.array([0.25, 0.75]), 0.5)
        assert root == pytest.approx(3.0, abs=1e-14)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            thresholds = rng.normal(scale=3.0, size=k)
            if rng.random() < 0.3 and k > 1:
                thresholds[1] = thresholds[0]  # exercise tied breakpoints
            weights = rng.uniform(0.1, 2.0, size=k)
            target = float(rng.uniform(0.01, 5.0))
            root = row_root(thresholds, weights, target)
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


class TestSweep:
    def test_first_row_pass_zeroes_row_residuals(self):
        inst = two_point_offdiag(1.0)
        p = sweep(inst, Potentials(np.zeros(2), np.zeros(2)))
        # after the full sweep the column equations hold exactly; check rows
        # against the g used during the row pass by redoing a row-only update
        row_only = Potentials(p.f, np.zeros(2))
        z = density_from_potentials(inst, row_only)
        row, _ = marginal_residuals(inst, z)
        np.testing.assert_allclose(row, 0.0, atol=1e-14)

    def test_fixed_point_is_a_potential_pair(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=5, m=4)
        p, report = solve(inst, SolverConfig(tol_residual=1e-12))
        assert report.converged
        q = sweep(inst, p)
        np.testing.assert_allclose(q.f, p.f, atol=1e-10)
        np.testing.assert_allclose(q.g, p.g, atol=1e-10)
        z = density_from_potentials(inst, p)
        row, col = marginal_residuals(inst, z)
        assert max(np.max(np.abs(row)), np.max(np.abs(col))) <= 1e-12

    def test_zero_cost_converges_in_one_sweep(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        p = sweep(inst, Potentials(np.zeros(2), np.zeros(2)))
        np.testing.assert_allclose(p.f, 1.0, atol=1e-15)
        np.testing.assert_allclose(p.g, 0.0, atol=1e-15)
        q = sweep(inst, p)  # fixed point
        np.testing.assert_allclose(q.f, p.f, atol=1e-15)
        z = density_from_potentials(inst, p)
        np.testing.assert_allclose(z, 1.0, atol=1e-15)

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
        z = density_from_potentials(inst, p)
        np.testing.assert_allclose(z, 2.0 * np.eye(2), atol=1e-10)

    def test_full_support_regime(self):
        for eta in (0.5, 1.0, 1.5):
            inst = validate_instance(
                [0.5, 0.5], [0.5, 0.5], eta * (1.0 - np.eye(2))
            )
            p, report = solve(inst)
            assert report.converged
            expected = (1 + eta / 2) * np.eye(2) + (1 - eta / 2) * (1 - np.eye(2))
            z = density_from_potentials(inst, p)
            np.testing.assert_allclose(z, expected, atol=1e-10)
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
        z = density_from_potentials(inst, p)
        z_proj = project(inst)
        assert np.max(np.abs(z - z_proj)) <= 1e-6

    def test_normalizations(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, n=4, m=4)
        p_anchor, _ = solve(inst, SolverConfig(normalization="anchor_first_component_zero"))
        assert p_anchor.f[0] == 0.0
        p_mean, _ = solve(inst, SolverConfig(normalization="mean_zero_f"))
        assert np.mean(p_mean.f) == pytest.approx(0.0, abs=1e-12)
        # all normalizations give the same density
        z_a = density_from_potentials(inst, p_anchor)
        z_m = density_from_potentials(inst, p_mean)
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
        inst = random_symmetric_instance(np.random.default_rng(0), n=5)
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
        densities = [density_from_potentials(inst, p) for p in runs]
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


def one_d_instance(rng, n, eps):
    """Jittered-grid points, weights within 50% of uniform, nu = mu reversed."""
    x = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    y = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    mu = rng.uniform(0.5, 1.5, n)
    mu /= mu.sum()
    return validate_instance(mu, mu[::-1], (x[:, None] - y[None, :]) ** 2, epsilon=eps)


def record_newton_steps(monkeypatch):
    """Wrap ``_newton_step``; each call appends (taken, some row empty, some column empty)."""
    calls = []
    step = qrot.solver._newton_step

    def recording(inst, p, u, z, ref, system):
        result, system = step(inst, p, u, z, ref, system)
        on = z > 0
        calls.append((result is not None, not on.any(axis=1).all(), not on.any(axis=0).all()))
        return result, system

    monkeypatch.setattr(qrot.solver, "_newton_step", recording)
    return calls


class TestNewtonFinalizer:
    def test_small_epsilon_iteration_budget(self):
        # cyclic sweeps alone take 621 iterations on this instance
        inst = one_d_instance(np.random.default_rng(1), 300, 1e-3)
        p, report = solve(inst)
        assert report.converged
        assert report.iterations <= 60
        assert report.marginal_residual <= SolverConfig().tol_residual
        assert abs(report.duality_gap) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 3])
    def test_shortened_steps_at_small_epsilon(self, seed):
        # full Newton steps alone (one trial length, then a sweep) take 1,554
        # and 11,229 iterations here; with the backtracking search, 30 and 22
        inst = random_instance(np.random.default_rng(seed), 8, 8, eps=1e-3)
        p, report = solve(inst)
        assert report.converged
        assert report.iterations <= 60

    def test_empty_lines_fall_back_to_sweeps(self, monkeypatch):
        # mu / mu_tilde and nu / nu_tilde of 1e-9 on one row and one column
        rng = np.random.default_rng(3)
        mu = rng.uniform(0.5, 1.5, 5)
        mu[0] = 1e-9
        nu = rng.uniform(0.5, 1.5, 7)
        nu[-1] = 1e-9
        inst = validate_instance(
            mu / mu.sum(),
            nu / nu.sum(),
            rng.uniform(0.0, 1.0, (5, 7)),
            mu_tilde=np.full(5, 0.2),
            nu_tilde=np.full(7, 1 / 7),
            epsilon=0.01,
        )
        calls = record_newton_steps(monkeypatch)
        p, report = solve(inst, SolverConfig(normalization="none"))
        assert report.converged
        assert abs(report.duality_gap) <= 1e-12
        # the zero start has no support (positive cost), so the first step is a sweep
        assert calls[0] == (False, True, True)
        assert any(taken for taken, _, _ in calls)
        # knock the tiny row and column off the support of the optimum
        calls.clear()
        start = Potentials(p.f - np.eye(5)[0], p.g - np.eye(7)[-1])
        assert not (density_from_potentials(inst, start)[0] > 0).any()
        q, report = solve(inst, SolverConfig(normalization="none"), init=start)
        assert report.converged
        assert calls[0] == (False, True, True)
        assert any(taken for taken, _, _ in calls[1:])
        z = density_from_potentials(inst, q)
        assert np.max(np.abs(z - density_from_potentials(inst, p))) <= 1e-9

    @pytest.mark.parametrize("shape", [(7, 12), (12, 7)])
    def test_rectangular(self, monkeypatch, shape):
        inst = random_instance(np.random.default_rng(sum(shape)), *shape, eps=0.05)
        calls = record_newton_steps(monkeypatch)
        p, report = solve(inst)
        assert report.converged
        assert any(taken for taken, _, _ in calls)
        z = density_from_potentials(inst, p)
        assert np.max(np.abs(z - project(inst))) <= 1e-6

    def test_cost_ties(self, monkeypatch):
        rng = np.random.default_rng(8)
        cost = rng.integers(0, 3, (9, 9)) / 2.0  # three values, many tied rows and columns
        cost[:, 4] = cost[:, 3]
        inst = validate_instance(np.full(9, 1 / 9), np.full(9, 1 / 9), cost, epsilon=0.05)
        calls = record_newton_steps(monkeypatch)
        p, report = solve(inst)
        assert report.converged
        assert any(taken for taken, _, _ in calls)
        z = density_from_potentials(inst, p)
        assert np.max(np.abs(z - project(inst))) <= 1e-6

    def test_failed_line_searches_leave_the_sweep_solver(self, monkeypatch):
        # with no step length to try, every Newton step is refused
        inst = random_instance(np.random.default_rng(9), 6, 6, eps=0.2)
        p_newton, _ = solve(inst)
        calls = record_newton_steps(monkeypatch)
        monkeypatch.setattr(qrot.solver, "MAX_BACKTRACKS", 0)
        p, report = solve(inst)
        assert report.converged
        assert calls and not any(taken for taken, _, _ in calls)
        z = density_from_potentials(inst, p)
        z_newton = density_from_potentials(inst, p_newton)
        assert np.max(np.abs(z - z_newton)) <= 1e-9

    def test_dual_decrease_in_a_newton_step_raises(self, monkeypatch):
        inst = random_instance(np.random.default_rng(10), 4, 4)

        def lowering(inst, p, u, z, ref, system):
            q = Potentials(f=p.f - 1.0, g=p.g - 1.0)
            uq = qrot.solver._unclipped_density(inst, q.f, q.g)
            zq = density_from_potentials(inst, q)
            return (q, uq, zq, qrot.solver._dual_value(inst, q, zq)), system

        monkeypatch.setattr(qrot.solver, "_newton_step", lowering)
        with pytest.raises(RuntimeError, match="dual objective decreased"):
            solve(inst, init=solve(inst)[0])

    def test_newton_step_on_the_settled_support_is_exact(self):
        # once sweeps have settled the support, the dual is quadratic there
        # and one full Newton step lands on the optimum up to round-off
        inst = one_d_instance(np.random.default_rng(2), 60, 0.01)
        p = Potentials(np.zeros(inst.n), np.zeros(inst.m))
        z = density_from_potentials(inst, p)
        while max_residual(inst, z) > 1e-5:
            p = sweep(inst, p)
            z = density_from_potentials(inst, p)
        u = qrot.solver._unclipped_density(inst, p.f, p.g)
        (q, uq, zq, dual), _ = qrot.solver._newton_step(inst, p, u, z, inst.ref_weights, None)
        assert np.array_equal(zq > 0, z > 0)
        assert dual >= qrot.solver._dual_value(inst, p, z)
        assert max_residual(inst, zq) <= 1e-13


class TestSupportSystemReuse:
    """Newton steps on an unchanged support reuse its system and give the same bits."""

    @pytest.mark.parametrize(
        "make, solver",
        [
            (lambda: one_d_instance(np.random.default_rng(2), 60, 1e-3), solve),
            (lambda: block_instance(np.random.default_rng(0), 40), solve),
            (lambda: random_symmetric_instance(np.random.default_rng(6), 30, 0.01), solve_symmetric),
        ],
        ids=["band", "blocks", "self_transport"],
    )
    def test_reuse_changes_no_bit(self, monkeypatch, make, solver):
        inst = make()
        counts = {"steps": 0, "roots": 0}
        step, row_roots = qrot.solver._newton_step, qrot.solver._row_roots

        def counting_step(*args):
            counts["steps"] += 1
            return step(*args)

        def counting_roots(mask):
            counts["roots"] += 1
            return row_roots(mask)

        monkeypatch.setattr(qrot.solver, "_newton_step", counting_step)
        monkeypatch.setattr(qrot.solver, "_row_roots", counting_roots)
        p, report = solver(inst)
        assert report.converged
        steps, reused_roots = counts["steps"], counts["roots"]
        assert reused_roots < steps

        # every step builds its system afresh
        def fresh_step(inst, p, u, z, ref, system):
            return counting_step(inst, p, u, z, ref, None)

        monkeypatch.setattr(qrot.solver, "_newton_step", fresh_step)
        counts["roots"] = 0
        q, fresh = solver(inst)
        assert counts["roots"] > reused_roots
        np.testing.assert_array_equal(p.f, q.f)
        np.testing.assert_array_equal(p.g, q.g)
        assert report == fresh  # iterations and objective values, exactly


class TestSolveSymmetric:
    def test_counterexample_family(self):
        gamma = 1.0
        inst = two_point_ondiag(gamma)
        p, report = solve_symmetric(inst)
        assert report.converged
        assert p.symmetric
        np.testing.assert_array_equal(p.f, p.g)
        z = density_from_potentials(inst, p)
        np.testing.assert_allclose(z, 2.0 * (1 - np.eye(2)), atol=1e-9)
        assert p.f[0] + p.f[1] == pytest.approx(2.0, abs=1e-9)
        assert 1 - gamma / 2 - 1e-9 <= p.f[0] <= 1 + gamma / 2 + 1e-9

    def test_zero_cost_gives_constant_half(self):
        inst = validate_instance([0.25, 0.75], [0.25, 0.75], np.zeros((2, 2)))
        p, report = solve_symmetric(inst)
        assert report.converged
        np.testing.assert_allclose(p.f, 0.5, atol=1e-8)
        z = density_from_potentials(inst, p)
        np.testing.assert_allclose(z, 1.0, atol=1e-8)

    def test_matches_asymmetric_solver(self):
        rng = np.random.default_rng(18)
        instances = [random_symmetric_instance(rng, n=5) for _ in range(5)]
        # eps = 0.01; with sweeps alone the averages at (10, 14) and (30, 6)
        # miss the tolerance, see test_resolve_round_when_the_average_misses
        for n, seed in [(5, 8), (5, 0), (10, 14), (10, 1), (30, 6), (30, 0)]:
            rng = np.random.default_rng(seed)
            instances.append(random_symmetric_instance(rng, n=n, eps=0.01))
        for inst in instances:
            p_sym, rep_sym = solve_symmetric(inst)
            p_asym, rep_asym = solve(inst)
            assert rep_sym.converged and rep_asym.converged
            np.testing.assert_array_equal(p_sym.f, p_sym.g)
            assert rep_sym.marginal_residual <= SolverConfig().tol_residual
            z_sym = density_from_potentials(inst, p_sym)
            z_asym = density_from_potentials(inst, p_asym)
            assert np.max(np.abs(z_sym - z_asym)) <= 1e-6
            assert abs(rep_sym.dual_value - rep_asym.dual_value) <= 1e-8

    def test_resolve_round_when_the_average_misses(self, monkeypatch):
        # Newton steps make the first round exact to round-off, and its average
        # converges; with sweeps alone (no step length to try) the averages of
        # these instances miss the tolerance and a second round runs
        monkeypatch.setattr(qrot.solver, "MAX_BACKTRACKS", 0)
        starts = []
        inner = qrot.solver.solve

        def recording(inst, cfg=None, init=None):
            starts.append(init)
            return inner(inst, cfg, init)

        monkeypatch.setattr(qrot.solver, "solve", recording)
        for n, seed in [(10, 14), (30, 6)]:
            starts.clear()
            inst = random_symmetric_instance(np.random.default_rng(seed), n=n, eps=0.01)
            p, report = solve_symmetric(inst)
            assert report.converged
            assert report.marginal_residual <= SolverConfig().tol_residual
            assert len(starts) == 2 and starts[1].symmetric

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

    @pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan, 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError, match="tol_residual must be finite and positive"):
            SolverConfig(tol_residual=tol)
