import numpy as np
import pytest

from qrot import (
    Potentials,
    ValidationError,
    density_from_potentials,
    dual_objective,
    duality_gap,
    marginal_residuals,
    primal_objective,
    project,
    shift_potentials,
    solve,
    validate_instance,
    verify_potentials,
    with_epsilon,
)
from conftest import (
    offdiag_family,
    project_point,
    random_feasible_density,
    random_instance,
    two_point_offdiag,
)


class TestValidateInstance:
    def test_two_point_instance_valid(self):
        inst = two_point_offdiag(gamma=0.7)
        assert inst.n == inst.m == 2
        assert inst.epsilon == 1.0
        np.testing.assert_allclose(inst.mu.sum(), 1.0)
        np.testing.assert_allclose(inst.cost, 2.7 * (1 - np.eye(2)))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError, match=r"nonpositive weight at mu\[1\]"):
            validate_instance([0.5, 0.0], [0.5, 0.5], np.zeros((2, 2)))

    def test_cost_shape_mismatch(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((3, 2)))

    def test_nonfinite_cost_rejected(self):
        cost = np.zeros((2, 2))
        cost[0, 1] = np.inf
        with pytest.raises(ValidationError, match=r"nonfinite cost at cost\[0,1\]"):
            validate_instance([0.5, 0.5], [0.5, 0.5], cost)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValidationError, match="nonpositive epsilon"):
            validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)), epsilon=0.0)
        with pytest.raises(ValidationError, match="nonpositive epsilon"):
            with_epsilon(two_point_offdiag(1.0), -1.0)

    @pytest.mark.parametrize(
        "epsilon, message",
        [
            ("abc", "epsilon must be a number, got 'abc'"),
            (None, "epsilon must be a number, got None"),
            ([1.0], "epsilon must be a number, got [1.0]"),
            (np.nan, "nonfinite epsilon"),
            (np.inf, "nonfinite epsilon"),
            (-np.inf, "nonfinite epsilon"),
            ("nan", "nonfinite epsilon"),
            (-0.0, "nonpositive epsilon"),
        ],
    )
    def test_each_epsilon_fault_has_its_message(self, epsilon, message):
        with pytest.raises(ValidationError) as validated:
            validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)), epsilon=epsilon)
        with pytest.raises(ValidationError) as replaced:
            with_epsilon(two_point_offdiag(1.0), epsilon)
        assert str(validated.value) == str(replaced.value) == message

    def test_renormalization_warns_on_large_deviation(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            inst = validate_instance([0.5, 0.52], [0.5, 0.5], np.zeros((2, 2)))
        np.testing.assert_allclose(inst.mu.sum(), 1.0, atol=1e-15)

    def test_validation_is_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = rng.integers(1, 301, 2)
            mu, mu_tilde = rng.uniform(0.05, 1.0, (2, n))
            nu, nu_tilde = rng.uniform(0.05, 1.0, (2, m))
            with pytest.warns(UserWarning, match="renormalizing"):
                inst = validate_instance(mu, nu, np.zeros((n, m)), mu_tilde, nu_tilde)
            again = validate_instance(inst.mu, inst.nu, inst.cost, inst.mu_tilde, inst.nu_tilde)
            for name in ("mu", "nu", "mu_tilde", "nu_tilde"):
                assert getattr(again, name).tobytes() == getattr(inst, name).tobytes()

    def test_references_default_to_marginals(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        np.testing.assert_array_equal(inst.mu_tilde, inst.mu)
        np.testing.assert_array_equal(inst.nu_tilde, inst.nu)

    def test_arrays_are_immutable(self):
        inst = two_point_offdiag(1.0)
        with pytest.raises(ValueError):
            inst.mu[0] = 0.9


class TestDensityFromPotentials:
    def test_family_reproduces_diagonal_density(self):
        gamma = 1.0
        inst = two_point_offdiag(gamma)
        for alpha, beta in [(0.0, 0.0), (0.3, -0.5), (1.0, 1.0 + gamma)]:
            assert abs(alpha - beta) <= gamma
            z = density_from_potentials(inst, offdiag_family(alpha, beta))
            np.testing.assert_allclose(z, 2.0 * np.eye(2), atol=1e-14)

    def test_all_zero_inputs_give_zero_density(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)))
        z = density_from_potentials(inst, Potentials(np.zeros(2), np.zeros(2)))
        np.testing.assert_array_equal(z, np.zeros((2, 2)))

    def test_solved_density_matches_projection(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=3, m=3)
        p, report = solve(inst)
        assert report.converged
        z_dual = density_from_potentials(inst, p)
        z_proj = project(inst)
        assert np.max(np.abs(z_dual - z_proj)) <= 1e-6

    def test_lipschitz_in_potentials(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n=4, m=5)
        p = Potentials(rng.normal(size=4), rng.normal(size=5))
        q = Potentials(p.f + rng.normal(scale=0.1, size=4), p.g + rng.normal(scale=0.1, size=5))
        zp = density_from_potentials(inst, p)
        zq = density_from_potentials(inst, q)
        bound = (np.abs(p.f - q.f)[:, None] + np.abs(p.g - q.g)[None, :]) / inst.epsilon
        assert np.all(np.abs(zp - zq) <= bound + 1e-12)


class TestMarginalResiduals:
    def test_optimal_density_has_zero_residuals(self):
        inst = two_point_offdiag(1.0)
        z = 2.0 * np.eye(2)
        row, col = marginal_residuals(inst, z)
        np.testing.assert_allclose(row, 0.0, atol=1e-15)
        np.testing.assert_allclose(col, 0.0, atol=1e-15)

    def test_zero_density_has_negative_ratio_residual(self):
        inst = validate_instance([0.3, 0.7], [0.5, 0.5], np.zeros((2, 2)))
        z = np.zeros((2, 2))
        row, _ = marginal_residuals(inst, z)
        np.testing.assert_allclose(row, -inst.mu_ratio)

    def test_single_entry_perturbation(self):
        inst = two_point_offdiag(1.0)
        z = 2.0 * np.eye(2)
        z[0, 0] += 0.1
        row, col = marginal_residuals(inst, z)
        assert row[0] == pytest.approx(0.05, abs=1e-15)
        assert col[0] == pytest.approx(0.05, abs=1e-15)


class TestObjectives:
    def test_primal_at_diagonal_density(self):
        for gamma in (0.0, 1.0, 2.5):
            inst = two_point_offdiag(gamma)
            z = 2.0 * np.eye(2)
            # no transported mass off the diagonal, so only the penalty remains
            assert primal_objective(inst, z) == pytest.approx(1.0, abs=1e-14)

    def test_primal_of_independent_density_is_half_epsilon(self):
        for eps in (1.0, 0.25):
            inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)), epsilon=eps)
            z = np.ones((2, 2))
            assert primal_objective(inst, z) == pytest.approx(eps / 2, rel=1e-15)

    def test_primal_rescaling_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(rng)
            z = random_feasible_density(rng, inst)
            unit = validate_instance(
                inst.mu,
                inst.nu,
                inst.cost / inst.epsilon,
                mu_tilde=inst.mu_tilde,
                nu_tilde=inst.nu_tilde,
                epsilon=1.0,
            )
            lhs = primal_objective(inst, z)
            rhs = inst.epsilon * primal_objective(unit, z)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dual_constant_on_the_family(self):
        gamma = 2.0
        inst = two_point_offdiag(gamma)
        values = [
            dual_objective(inst, offdiag_family(alpha, beta))
            for alpha, beta in [(0, 0), (1.3, 2.0), (-4.0, -3.0), (0.0, gamma)]
        ]
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_dual_zero_for_zero_potentials_nonnegative_cost(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, cost_kind="uniform")
        p = Potentials(np.zeros(inst.n), np.zeros(inst.m))
        assert dual_objective(inst, p) == 0.0

    def test_dual_shift_invariance(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng)
        p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
        base = dual_objective(inst, p)
        for alpha in np.linspace(-5, 5, 7):
            shifted = shift_potentials(p, alpha)
            assert dual_objective(inst, shifted) == pytest.approx(base, abs=1e-12)

    def test_dual_rescaling_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            inst = random_instance(rng)
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            unit = validate_instance(
                inst.mu,
                inst.nu,
                inst.cost / inst.epsilon,
                mu_tilde=inst.mu_tilde,
                nu_tilde=inst.nu_tilde,
                epsilon=1.0,
            )
            scaled = Potentials(p.f / inst.epsilon, p.g / inst.epsilon)
            lhs = dual_objective(inst, p)
            rhs = inst.epsilon * dual_objective(unit, scaled)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDualityGap:
    def test_optimal_pair_has_zero_gap(self):
        inst = two_point_offdiag(1.0)
        p = offdiag_family(0.2, 0.9)
        z = 2.0 * np.eye(2)
        report = duality_gap(inst, p, z)
        assert abs(report.duality_gap) <= 1e-12
        assert report.marginal_residual <= 1e-14

    def test_suboptimal_primal_point_has_positive_gap(self):
        inst = two_point_offdiag(1.0)
        p = offdiag_family(0.0, 0.0)
        independent = np.ones((2, 2))
        report = duality_gap(inst, p, independent)
        assert report.duality_gap > 0.1

    def test_gap_decomposes_against_the_optimum(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, n=4, m=5)
        p, _ = solve(inst)
        z_star = density_from_potentials(inst, p)
        gap_star = duality_gap(inst, p, z_star).duality_gap
        # a feasible density from a random start of the projection solver
        z = project_point(inst, rng.normal(size=(4, 5)))
        report = duality_gap(inst, p, z)
        assert report.duality_gap >= -1e-9
        expected = primal_objective(inst, z) - primal_objective(inst, z_star) + gap_star
        assert report.duality_gap == pytest.approx(expected, abs=1e-12)

    def test_weak_duality_for_feasible_points(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            inst = random_instance(rng)
            z = random_feasible_density(rng, inst)
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            assert primal_objective(inst, z) >= dual_objective(inst, p) - 1e-9


class TestShiftPotentials:
    def test_shift_preserves_potentials(self):
        inst = two_point_offdiag(1.0)
        p, report = solve(inst)
        assert report.converged
        shifted = shift_potentials(p, 5.0)
        z = density_from_potentials(inst, shifted)
        row, col = marginal_residuals(inst, z)
        assert max(np.max(np.abs(row)), np.max(np.abs(col))) <= 1e-10

    def test_zero_shift_is_identity(self):
        p = offdiag_family(0.4, 0.1)
        q = shift_potentials(p, 0.0)
        np.testing.assert_array_equal(q.f, p.f)
        np.testing.assert_array_equal(q.g, p.g)

    def test_shift_moves_both_family_parameters_together(self):
        # a shift changes alpha and beta by the same amount, so it cannot
        # push |alpha - beta| past the constraint: the density is unchanged
        gamma = 0.5
        inst = two_point_offdiag(gamma)
        p = offdiag_family(0.25, 0.25 + gamma)
        for alpha in (-100.0, 3.7, 42.0):
            z = density_from_potentials(inst, shift_potentials(p, alpha))
            np.testing.assert_allclose(z, 2.0 * np.eye(2), atol=1e-12)

    def test_symmetric_potentials_reject_shift(self):
        p = Potentials(np.array([1.0, 0.5]), np.array([1.0, 0.5]), symmetric=True)
        with pytest.raises(ValidationError, match="symmetric"):
            shift_potentials(p, 1.0)


class TestTypes:
    def test_symmetric_flag_requires_equal_vectors(self):
        with pytest.raises(ValidationError, match="f = g"):
            Potentials(np.array([1.0, 0.0]), np.array([0.0, 1.0]), symmetric=True)

    def test_nonfinite_potentials_rejected(self):
        with pytest.raises(ValidationError, match=r"nonfinite potential at f\[1\]"):
            Potentials(np.array([0.0, np.nan]), np.array([0.0, 0.0]))

    @staticmethod
    def density_readers(inst):
        """The public functions that check a caller's density before reading it."""
        p = offdiag_family(0.0, 0.0)
        return [
            lambda z: marginal_residuals(inst, z),
            lambda z: primal_objective(inst, z),
            lambda z: duality_gap(inst, p, z),
            lambda z: verify_potentials(inst, p, z),
        ]

    def test_negative_density_rejected(self):
        inst = two_point_offdiag(1.0)
        z = np.array([[2.0, -0.1], [0.0, 2.0]])
        for read in self.density_readers(inst):
            with pytest.raises(ValidationError, match="coupling density must be nonnegative"):
                read(z)

    def test_density_shape_rejected(self):
        inst = two_point_offdiag(1.0)
        for read in self.density_readers(inst):
            with pytest.raises(
                ValidationError, match=r"dimension mismatch: z has shape \(2, 3\), expected \(2, 2\)"
            ):
                read(np.ones((2, 3)))

    def test_density_from_potentials_is_read_only(self):
        inst = two_point_offdiag(1.0)
        z = density_from_potentials(inst, offdiag_family(0.0, 0.0))
        assert isinstance(z, np.ndarray) and z.shape == (2, 2)
        with pytest.raises(ValueError):
            z[0, 0] = 1.0

    def test_pi_consistent_with_reference(self):
        # the primal objective reads the coupling weights pi = z * mu_tilde x nu_tilde
        rng = np.random.default_rng(1)
        inst = random_instance(rng)
        z = rng.uniform(0, 2, (inst.n, inst.m))
        pi = z * inst.ref_weights
        expected = np.sum(inst.cost * pi) + 0.5 * inst.epsilon * np.sum(z * pi)
        assert primal_objective(inst, z) == pytest.approx(expected, rel=1e-13)

    def test_pi_of_feasible_density_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            inst = random_instance(rng)
            z = random_feasible_density(rng, inst)
            assert (z * inst.ref_weights).sum() == pytest.approx(1.0, abs=1e-12)
