"""Property tests of the solver and of support components on generated inputs (Hypothesis).

Costs are ``scale * C`` with ``C`` in [0, 1] (or tied values from {0, 1/2,
1}) and ``scale`` from 1e-6 to 1e6; epsilon is ``scale * eps_rel`` with
``eps_rel`` from 1e-4 to 1. The density ``(f + g - cost) / epsilon`` is
then the same function of ``C`` and ``eps_rel`` at every scale, so the
absolute residual tolerance means the same at every scale, while the
potentials and objective values carry the scale. Examples are derandomized,
so every run checks the same instances. The Dykstra oracle is checked on a
smaller range (n, m up to 6, eps_rel from 1e-2), where its alternating
projections converge in well under a second per example. Support components
are checked against a breadth-first search on random masks up to 40 x 40
at every density from empty to full. The polytope of potentials is checked
against the per-block oracle on the solver's own support after a small
iteration budget, converged or not, including symmetric uniform-weight
instances down to eps_rel = 1e-14, where the density amplifies the rounding
of ``f + g - cost`` by up to 1e14. On block-cost and ``indicator_offdiag``
instances with several components, the polytope is checked to be finite.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrot.solver
from qrot import (
    SolverConfig,
    components,
    compute_polytope,
    density_from_potentials,
    primal_objective,
    project,
    solve,
    solve_symmetric,
    support_set,
    validate_instance,
)
from conftest import block_instance, brute_polytope, tiny_eps_symmetric_instance
from test_support import assert_matches_bfs

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_size=8, min_eps_exponent=-4.0):
    n = draw(st.integers(1, max_size))
    m = draw(st.integers(1, max_size))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    eps_rel = 10.0 ** draw(st.floats(min_eps_exponent, 0.0))
    ties = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = rng.integers(0, 3, (n, m)) / 2.0 if ties else rng.uniform(0.0, 1.0, (n, m))
    mu, nu, mu_tilde, nu_tilde = (rng.uniform(0.05, 1.0, k) for k in (n, m, n, m))
    return validate_instance(
        mu / mu.sum(),
        nu / nu.sum(),
        scale * cost,
        mu_tilde=mu_tilde / mu_tilde.sum(),
        nu_tilde=nu_tilde / nu_tilde.sum(),
        epsilon=scale * eps_rel,
    )


def single_atom(n, m, eps):
    rng = np.random.default_rng([n, m])
    return validate_instance(np.ones(n) / n, np.ones(m) / m, rng.uniform(0.0, 1.0, (n, m)), epsilon=eps)


@PROPERTY_SETTINGS
@given(instances())
@example(single_atom(1, 1, 1e-4))
@example(single_atom(1, 6, 1e-4))
@example(single_atom(6, 1, 1e-4))
def test_solve_converges_with_weak_duality_and_monotone_dual(inst):
    cfg = SolverConfig()
    values = []
    dual_value = qrot.solver._dual_value

    def recording(inst, p, z):
        values.append(dual_value(inst, p, z))
        return values[-1]

    with mock.patch.object(qrot.solver, "_dual_value", recording):
        p, report = solve(inst, cfg)

    assert report.converged
    assert report.marginal_residual <= cfg.tol_residual
    # one dual value at the start and one per sweep or Newton step, never decreasing
    assert len(values) == report.iterations + 1
    values = np.array(values)
    assert np.all(np.diff(values) >= -1e-12 * (1.0 + np.abs(values[:-1])))
    bound = 1e-9 * max(float(np.abs(inst.cost).max()), inst.epsilon)
    # weak duality against the independent coupling, which is feasible
    independent = np.outer(inst.mu_ratio, inst.nu_ratio)
    assert report.dual_value <= primal_objective(inst, independent) + bound
    assert abs(report.duality_gap) <= bound


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(instances(max_size=6, min_eps_exponent=-2.0))
def test_solve_density_matches_projection_oracle(inst):
    p, report = solve(inst, SolverConfig())
    assert report.converged
    z_solve = density_from_potentials(inst, p)
    z_project = project(inst)
    assert np.max(np.abs(z_solve - z_project)) <= 1e-6 * max(1.0, float(z_solve.max()))


@PROPERTY_SETTINGS
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_components_match_breadth_first_search(n, m, density, seed):
    assert_matches_bfs(np.random.default_rng(seed).random((n, m)) < density)


@st.composite
def symmetric_uniform_instances(draw):
    n = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    eps_rel = 10.0 ** draw(st.floats(-14.0, 0.0))
    ties = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = rng.integers(0, 3, (n, n)) / 2.0 if ties else rng.uniform(0.0, 1.0, (n, n))
    weights = np.full(n, 1.0 / n)
    return validate_instance(weights, weights, scale * (cost + cost.T) / 2, epsilon=scale * eps_rel)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.tuples(instances(min_eps_exponent=-6.0), st.just(False)),
        st.tuples(symmetric_uniform_instances(), st.just(True)),
    ),
    st.integers(1, 30),
)
@example((tiny_eps_symmetric_instance(), True), 300)
def test_polytope_matches_per_block_oracle(case, budget):
    inst, symmetric = case
    p, _ = (solve_symmetric if symmetric else solve)(inst, SolverConfig(max_sweeps=budget))
    s = support_set(density_from_potentials(inst, p))
    d = components(s)
    # the slack is the negated density of p, so the solve's own support is consistent
    pd = compute_polytope(inst, p, d, s)
    assert np.all(pd.a[~np.eye(d.count, dtype=bool)] >= 0)
    a, _, rigid, dimension = brute_polytope(inst, p, d, s)
    np.testing.assert_array_equal(pd.a, a)
    assert pd.rigid_pairs == rigid
    assert pd.dimension == dimension


@st.composite
def multi_component_instances(draw):
    """Block-cost instances with 2 to 12 blocks, or ``indicator_offdiag`` ones
    (cost ``2 + gamma`` off the diagonal) with epsilon small enough that the
    support is the diagonal: every row and column is its own component."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return block_instance(rng, draw(st.integers(2, 12)), rows=rows, cols=cols)
    n = draw(st.integers(2, 12))
    gamma = draw(st.floats(0.0, 10.0))
    # with f = g the diagonal density is n, so off the diagonal (f + g - cost) / eps
    # is n - (2 + gamma) / eps, negative here
    eps = (2.0 + gamma) / (n * draw(st.floats(1.5, 100.0)))
    weights = np.full(n, 1.0 / n)
    return validate_instance(weights, weights, (2.0 + gamma) * (1.0 - np.eye(n)), epsilon=eps)


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(multi_component_instances())
def test_polytope_of_several_components_is_finite(inst):
    # the analysis writes a and dist as plain JSON numbers, which have no infinity
    p, report = solve(inst)
    assert report.converged
    s = support_set(density_from_potentials(inst, p))
    d = components(s)
    assert d.count >= 2
    pd = compute_polytope(inst, p, d, s)
    assert pd.a.shape == pd.dist.shape == (d.count, d.count)
    assert np.isfinite(pd.a).all() and np.isfinite(pd.dist).all()
