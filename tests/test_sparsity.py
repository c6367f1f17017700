import itertools

import numpy as np
import pytest

from qrot import (
    Grid1D,
    ValidationError,
    block_cost_spec,
    density_from_potentials,
    epsilon_sweep,
    monotone_coupling_1d,
    northwest_corner,
    project,
    refinement_study,
    solve,
    support_set,
    validate_instance,
    zero_cost_closed_form,
)
from qrot.sparsity import _neighborhood_mask
from conftest import zero_cost_skewed


def broadcast_neighborhood_mask(xs, ys, base_mask, delta):
    """The n x m x K broadcast form of the neighborhood test."""
    bi, bj = np.nonzero(base_mask)
    dx = xs[:, None] - xs[bi][None, :]
    dy = ys[:, None] - ys[bj][None, :]
    d2 = dx[:, None, :] ** 2 + dy[None, :, :] ** 2
    return np.any(d2 <= delta**2 + 1e-15, axis=2)


class TestMonotoneCoupling:
    def test_identical_two_point_marginals(self):
        plan = monotone_coupling_1d([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])
        np.testing.assert_allclose(plan, 0.5 * np.eye(2), atol=1e-15)

    def test_order_preserving_shift(self):
        plan = monotone_coupling_1d([0.0, 1.0], [0.5, 0.5], [0.5, 1.5], [0.5, 0.5])
        np.testing.assert_allclose(plan, 0.5 * np.eye(2), atol=1e-15)

    def test_minimizes_quadratic_cost_over_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            xs = np.sort(rng.uniform(0, 1, 5))
            ys = np.sort(rng.uniform(0, 1, 5))
            w = np.full(5, 0.2)
            plan = monotone_coupling_1d(xs, w, ys, w)
            cost = (xs[:, None] - ys[None, :]) ** 2
            value = float(np.sum(cost * plan))
            best = min(
                sum(cost[i, sigma[i]] for i in range(5)) / 5.0
                for sigma in itertools.permutations(range(5))
            )
            assert value == pytest.approx(best, abs=1e-12)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            monotone_coupling_1d([1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])

    def test_northwest_corner_marginals(self):
        rng = np.random.default_rng(1)
        mu = rng.uniform(0.1, 1, 6)
        mu /= mu.sum()
        nu = rng.uniform(0.1, 1, 4)
        nu /= nu.sum()
        plan = northwest_corner(mu, nu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-15)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-15)
        assert np.all(plan >= 0)


class TestEpsilonSweep:
    def test_containment_and_cauchy_trace(self):
        grid = Grid1D.uniform(12)
        res = epsilon_sweep(grid, [1.0, 0.1, 0.01, 0.001], delta=0.15)
        assert all(r.converged for r in res.reports)
        # support shrinks into the monotone plan's neighborhood
        assert res.containment[-1] == 1.0
        assert all(a <= b for a, b in zip(res.containment, res.containment[1:]))
        assert res.support_sizes[-1] < res.support_sizes[0]
        fs = [p.f for p in res.potentials_trace]
        gaps = [float(np.max(np.abs(a - b))) for a, b in zip(fs, fs[1:])]
        assert gaps[-1] < gaps[-2]

    def test_large_epsilon_approaches_independent_coupling(self):
        grid = Grid1D.uniform(8)
        inst = grid.instance(100.0)
        p, report = solve(inst)
        assert report.converged
        z = density_from_potentials(inst, p)
        assert support_set(z).mask.all()
        np.testing.assert_allclose(z, 1.0, atol=0.05)

    def test_sweep_value_matches_unit_epsilon_rescaling(self):
        grid = Grid1D.uniform(10)
        res = epsilon_sweep(grid, [0.5, 0.05], delta=0.2)
        for eps, report in zip(res.epsilons, res.reports):
            inst = grid.instance(eps)
            unit = validate_instance(
                inst.mu, inst.nu, inst.cost / eps, epsilon=1.0
            )
            p_unit, rep_unit = solve(unit)
            assert rep_unit.converged
            assert report.primal_value == pytest.approx(
                eps * rep_unit.primal_value, abs=1e-9
            )

    def test_increasing_epsilons_rejected(self):
        grid = Grid1D.uniform(5)
        with pytest.raises(ValidationError, match="decreasing"):
            epsilon_sweep(grid, [0.1, 1.0], delta=0.1)

    @pytest.mark.parametrize("delta", [-0.1, float("nan"), float("inf")])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            epsilon_sweep(Grid1D.uniform(12), [1.0, 0.1], delta=delta)

    def test_non_convergence_recorded_without_aborting(self):
        from qrot import SolverConfig

        grid = Grid1D.uniform(10)
        res = epsilon_sweep(grid, [1.0, 0.01], delta=0.1, cfg=SolverConfig(max_sweeps=2))
        assert len(res.reports) == 2
        assert not all(r.converged for r in res.reports)
        assert all(np.isfinite(p.f).all() for p in res.potentials_trace)


class TestNeighborhoodMask:
    def test_matches_broadcast_on_random_points(self):
        rng = np.random.default_rng(0)
        for n, m in ((1, 1), (7, 3), (30, 45), (60, 80)):
            xs = np.sort(rng.uniform(0.0, 1.0, n))
            ys = np.sort(rng.uniform(0.0, 1.0, m))
            for base in (
                monotone_coupling_1d(xs, np.ones(n) / n, ys, np.ones(m) / m) > 0,
                rng.random((n, m)) < 0.1,
                np.zeros((n, m), dtype=bool),
            ):
                for delta in (0.0, 0.03, 0.1, 2.0):
                    expected = broadcast_neighborhood_mask(xs, ys, base, delta)
                    np.testing.assert_array_equal(_neighborhood_mask(xs, ys, base, delta), expected)

    def test_matches_broadcast_at_exact_distance(self):
        # points on multiples of 1/8 put many cells at distance exactly delta,
        # e.g. (3/8, 4/8) from a base cell for delta = 5/8 (squares exact in binary)
        rng = np.random.default_rng(1)
        boundary_cells = 0
        for _ in range(20):
            xs = rng.integers(0, 9, 12) / 8.0
            ys = rng.integers(0, 9, 10) / 8.0
            base = rng.random((12, 10)) < 0.15
            bi, bj = np.nonzero(base)
            d2 = (xs[:, None, None] - xs[bi]) ** 2 + (ys[None, :, None] - ys[bj]) ** 2
            for delta in (0.125, 0.5, 0.625):
                got = _neighborhood_mask(xs, ys, base, delta)
                np.testing.assert_array_equal(got, broadcast_neighborhood_mask(xs, ys, base, delta))
                if bi.size:
                    boundary = d2.min(axis=2) == delta**2
                    assert got[boundary].all()
                    boundary_cells += int(boundary.sum())
        assert boundary_cells > 0

    def test_tied_coordinates(self):
        rng = np.random.default_rng(2)
        for n, m in ((9, 6), (40, 55)):
            xs = np.sort(rng.integers(0, 5, n)) / 4.0
            ys = np.sort(rng.integers(0, 4, m)) / 3.0
            for base in (
                monotone_coupling_1d(xs, np.ones(n) / n, ys, np.ones(m) / m) > 0,
                rng.random((n, m)) < 0.2,
            ):
                for delta in (0.0, 0.25, 1.0 / 3.0, 0.5):
                    expected = broadcast_neighborhood_mask(xs, ys, base, delta)
                    np.testing.assert_array_equal(_neighborhood_mask(xs, ys, base, delta), expected)

    def test_monotone_base_at_scale(self):
        rng = np.random.default_rng(3)
        n, m = 200, 150
        xs = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
        ys = (np.arange(m) + rng.uniform(0.0, 1.0, m)) / m
        mu, nu = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
        base = monotone_coupling_1d(xs, mu / mu.sum(), ys, nu / nu.sum()) > 0
        for delta in (0.0, 1e-4, 0.1, 0.5, 2.0):
            expected = broadcast_neighborhood_mask(xs, ys, base, delta)
            np.testing.assert_array_equal(_neighborhood_mask(xs, ys, base, delta), expected)

    def test_empty_base_rows(self):
        rng = np.random.default_rng(4)
        n, m = 30, 25
        xs = np.sort(rng.uniform(0.0, 1.0, n))
        ys = np.sort(rng.uniform(0.0, 1.0, m))
        base = rng.random((n, m)) < 0.3
        for empty in (slice(None, None, 2), slice(0, 10), slice(20, None), slice(1, None)):
            masked = base.copy()
            masked[empty] = False
            for delta in (0.0, 0.05, 0.2, 2.0):
                expected = broadcast_neighborhood_mask(xs, ys, masked, delta)
                np.testing.assert_array_equal(_neighborhood_mask(xs, ys, masked, delta), expected)


class TestZeroCostClosedForm:
    def test_equal_references_full_support(self):
        inst = validate_instance([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2)))
        result = zero_cost_closed_form(inst)
        assert result is not None
        p, z = result
        np.testing.assert_allclose(z, 1.0, atol=1e-15)
        np.testing.assert_allclose(z * inst.ref_weights, np.outer(inst.mu, inst.nu), atol=1e-15)

    def test_skewed_marginals_marker_and_solver_support(self):
        lam = 0.2
        inst = zero_cost_skewed(lam)
        assert zero_cost_closed_form(inst) is None
        p, report = solve(inst)
        assert report.converged
        z = density_from_potentials(inst, p)
        expected_f = np.array([2 - 4 * lam, -2 + 8 * lam])
        from qrot import Potentials, verify_potentials

        assert verify_potentials(
            inst, Potentials(expected_f, expected_f.copy()), z, tol=1e-8
        )
        mask = support_set(z).mask
        np.testing.assert_array_equal(mask, [[True, True], [True, False]])

    def test_above_quarter_closed_form_applies(self):
        lam = 0.3
        inst = zero_cost_skewed(lam)
        result = zero_cost_closed_form(inst)
        assert result is not None
        p, z = result
        r = inst.mu_ratio
        expected = r[:, None] + r[None, :] - 1.0
        np.testing.assert_allclose(z, expected, atol=1e-15)
        assert np.all(z > 0)

    def test_closed_form_verified_against_both_solvers(self):
        rng = np.random.default_rng(3)
        from qrot import verify_potentials

        for _ in range(5):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            mu = rng.uniform(0.5, 1, n)
            mu /= mu.sum()
            nu = rng.uniform(0.5, 1, m)
            nu /= nu.sum()
            inst = validate_instance(mu, nu, np.zeros((n, m)))
            result = zero_cost_closed_form(inst)
            assert result is not None  # references equal marginals: ratios are 1
            p, z = result
            p_solver, rep = solve(inst)
            z_dual = density_from_potentials(inst, p_solver)
            assert verify_potentials(inst, p, z_dual, tol=1e-8)
            z_proj = project(inst)
            assert np.max(np.abs(z - z_proj)) <= 1e-8

    def test_nonzero_cost_rejected(self):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], np.eye(2))
        with pytest.raises(ValidationError, match="nonzero cost"):
            zero_cost_closed_form(inst)


class TestRefinementStudy:
    def test_block_cost_multiplicity_persists(self):
        rows = refinement_study(block_cost_spec(1.0), [10])
        (row,) = rows
        assert row["n_components"] == 2
        assert row["dimension"] == 2
        assert row["max_finite_slack"] == pytest.approx(1.0, abs=1e-6)

    def test_single_atom_grid(self):
        rows = refinement_study(block_cost_spec(1.0), [1])
        assert rows[0]["n_components"] == 1
        assert rows[0]["dimension"] == 1

    def test_quadratic_cost_rows_emitted(self):
        spec = block_cost_spec(0.5)
        quad = type(spec)(
            mu_density=spec.mu_density,
            nu_density=spec.nu_density,
            cost=lambda x, y: (x - y) ** 2,
        )
        rows = refinement_study(quad, [5, 10])
        assert [r["grid"] for r in rows] == [5, 10]
        for r in rows:
            assert r["converged"]
            assert r["n_components"] >= 1
            assert 1 <= r["dimension"] <= r["n_components"]
