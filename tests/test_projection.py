import numpy as np
import pytest

from qrot import (
    ProjectionError,
    density_from_potentials,
    marginal_residuals,
    primal_objective,
    project,
    project_point,
    solve,
    validate_instance,
)
from conftest import random_instance, two_point_offdiag, zero_cost_skewed


def weighted_inner(inst, a, b):
    return float(np.sum(a * b * inst.ref_weights))


class TestProject:
    def test_diagonal_instance(self):
        z = project(two_point_offdiag(1.0))
        np.testing.assert_allclose(z, 2.0 * np.eye(2), atol=1e-8)

    def test_zero_cost_projects_to_independent_coupling(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        z = project(inst)
        np.testing.assert_allclose(z, 1.0, atol=1e-8)
        np.testing.assert_allclose(z * inst.ref_weights, np.outer(inst.mu, inst.nu), atol=1e-8)

    def test_skewed_reference_sparse_support(self):
        inst = zero_cost_skewed(0.25)
        z = project(inst)
        expected_pi = np.array([[0.5, 0.25], [0.25, 0.0]])
        np.testing.assert_allclose(z * inst.ref_weights, expected_pi, atol=1e-8)

    def test_result_is_feasible_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            inst = random_instance(rng)
            z = project(inst, tol=1e-10)
            assert np.all(z >= 0)
            row, col = marginal_residuals(inst, z)
            assert max(np.max(np.abs(row)), np.max(np.abs(col))) <= 1e-9

    def test_non_convergence_raises_with_state(self):
        inst = two_point_offdiag(1.0)
        with pytest.raises(ProjectionError) as excinfo:
            project(inst, tol=1e-12, max_iter=2)
        err = excinfo.value
        assert err.state.z.shape == (2, 2)
        assert err.state.iteration == 2
        row, col = err.residuals
        assert row.shape == (2,)


class TestProjectPoint:
    def test_correction_stays_nonnegative(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=4, m=5)
        _, state = project_point(inst, rng.normal(size=(4, 5)))
        assert np.all(state.correction >= 0)
        assert state.last_change <= 1e-10

    def test_projection_of_feasible_point_is_itself(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        z_feasible = np.ones((2, 2))
        z, _ = project_point(inst, z_feasible)
        np.testing.assert_allclose(z, z_feasible, atol=1e-9)

    def test_variational_inequality(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=5, m=6, eps=1.0)
        z_star = project(inst)
        target = -inst.cost / inst.epsilon
        for _ in range(10):
            feasible, _ = project_point(inst, rng.normal(size=(5, 6)))
            assert weighted_inner(inst, z_star - target, feasible - z_star) >= -1e-6


class TestAgreementWithDualRoute:
    def test_density_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = random_instance(rng)
            p, report = solve(inst)
            assert report.converged
            z_dual = density_from_potentials(inst, p)
            z_proj = project(inst)
            assert np.max(np.abs(z_dual - z_proj)) <= 1e-6
            # the projection cannot beat the optimum
            assert primal_objective(inst, z_proj) >= primal_objective(inst, z_dual) - 1e-8
