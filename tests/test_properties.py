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
at every density from empty to full.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrot.solver
from qrot import (
    SolverConfig,
    coupling_from_z,
    density_from_potentials,
    primal_objective,
    project,
    solve,
    validate_instance,
)
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
    independent = coupling_from_z(inst, np.outer(inst.mu_ratio, inst.nu_ratio))
    assert report.dual_value <= primal_objective(inst, independent) + bound
    assert abs(report.duality_gap) <= bound


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(instances(max_size=6, min_eps_exponent=-2.0))
def test_solve_density_matches_projection_oracle(inst):
    p, report = solve(inst, SolverConfig())
    assert report.converged
    z_solve = density_from_potentials(inst, p).z
    z_project = project(inst).z
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
