"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a pass/fail line per
criterion is printed by the conftest hook. Criterion 8 is a bundle of
invariant suites sharing a 60 second budget, checked by the final test.
"""

import time

import numpy as np

from qrot import (
    Grid1D,
    Potentials,
    apply_shifts,
    block_cost_spec,
    components,
    compute_polytope,
    density_from_potentials,
    dual_objective,
    epsilon_sweep,
    primal_objective,
    project,
    project_point,
    refinement_study,
    sample_shifts,
    shift_potentials,
    solve,
    solve_symmetric,
    support_set,
    sweep,
    validate_instance,
    verify_potentials,
    zero_cost_closed_form,
)
from conftest import (
    brute_components,
    offdiag_family,
    random_feasible_density,
    random_instance,
    random_weights,
    two_point_offdiag,
    two_point_ondiag,
    zero_cost_skewed,
)

SUITE_TIMES = []


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def analyze(inst, symmetric=False):
    p, report = (solve_symmetric if symmetric else solve)(inst)
    z = density_from_potentials(inst, p)
    s = support_set(z)
    d = components(s)
    pd = compute_polytope(inst, p, d, s)
    return p, report, z, s, d, pd


def test_c01_two_point_diagonal_reproduction():
    start = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        inst = two_point_offdiag(gamma)
        p, report, z, s, d, pd = analyze(inst)
        assert report.converged
        assert np.max(np.abs(z - 2.0 * np.eye(2))) <= 1e-8
        assert abs(report.duality_gap) <= 1e-10
        assert d.count == 2
        assert abs(pd.a[0, 1] - gamma) <= 1e-8
        assert abs(pd.a[1, 0] - gamma) <= 1e-8
        for alpha in np.linspace(0.0, gamma, 5):
            for beta in np.linspace(0.0, gamma, 5):
                assert abs(alpha - beta) <= gamma
                assert verify_potentials(inst, offdiag_family(alpha, beta), z, tol=1e-8)
        assert not verify_potentials(
            inst, offdiag_family(0.0, gamma + 0.1), z, tol=1e-8
        )
        assert not verify_potentials(
            inst, offdiag_family(gamma + 0.1, 0.0), z, tol=1e-8
        )
    assert time.perf_counter() - start < 1.0


def test_c02_two_point_full_support_regime():
    for eta in (0.5, 1.0, 1.5):
        inst = validate_instance([0.5, 0.5], [0.5, 0.5], eta * (1.0 - np.eye(2)))
        p, report, z, s, d, pd = analyze(inst)
        assert report.converged
        expected = (1 + eta / 2) * np.eye(2) + (1 - eta / 2) * (1 - np.eye(2))
        assert np.max(np.abs(z - expected)) <= 1e-8
        assert d.count == 1
        assert pd.dimension == 1


def test_c03_boundary_gamma_zero_rigid():
    inst = two_point_offdiag(0.0)
    p, report, z, s, d, pd = analyze(inst)
    assert report.converged
    assert pd.rigid_pairs == ((0, 1),)
    assert pd.dimension == 1


def test_c04_self_transport_counterexample():
    gamma = 1.0
    inst = two_point_ondiag(gamma)
    p, report = solve_symmetric(inst)
    assert report.converged
    assert p.symmetric
    np.testing.assert_array_equal(p.f, p.g)
    z_star = density_from_potentials(inst, p)
    for alpha in (0.5, 1.0, 1.5):  # the interval [1 - gamma/2, 1 + gamma/2]
        candidate = Potentials(
            f=np.array([alpha, 2.0 - alpha]),
            g=np.array([alpha, 2.0 - alpha]),
            symmetric=True,
        )
        assert verify_potentials(inst, candidate, z_star, tol=1e-8)
    outside = Potentials(
        f=np.array([1.6, 0.4]), g=np.array([1.6, 0.4]), symmetric=True
    )
    assert not verify_potentials(inst, outside, z_star, tol=1e-8)


def test_c05_zero_cost_skewed_reference():
    for lam in (0.1, 0.25):
        inst = zero_cost_skewed(lam)
        assert zero_cost_closed_form(inst) is None  # sparse branch
        p, report, z, s, d, pd = analyze(inst)
        assert report.converged
        np.testing.assert_array_equal(s.mask, [[True, True], [True, False]])
        explicit = np.array([2.0 - 4.0 * lam, -2.0 + 8.0 * lam])
        assert verify_potentials(
            inst, Potentials(explicit, explicit.copy()), z, tol=1e-8
        )
    # above the threshold the closed form applies and the support is full
    lam = 0.3
    inst = zero_cost_skewed(lam)
    result = zero_cost_closed_form(inst)
    assert result is not None
    p_cf, z_cf = result
    ratios = inst.mu_ratio
    expected = ratios[:, None] + ratios[None, :] - 1.0
    np.testing.assert_allclose(z_cf, expected, atol=1e-12)
    assert np.all(z_cf > 0)
    assert support_set(z_cf).mask.all()


def test_c06_zero_cost_equal_references_independent_coupling():
    rng = np.random.default_rng(606)
    for _ in range(10):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        inst = validate_instance(
            random_weights(rng, n), random_weights(rng, m), np.zeros((n, m))
        )
        target = np.outer(inst.mu, inst.nu)
        p, report = solve(inst)
        assert report.converged
        assert np.max(np.abs(density_from_potentials(inst, p) * inst.ref_weights - target)) <= 1e-8
        assert np.max(np.abs(project(inst) * inst.ref_weights - target)) <= 1e-8


def test_c07_oracle_agreement_random_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(25):
        n, m = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        inst = validate_instance(
            random_weights(rng, n),
            random_weights(rng, m),
            rng.uniform(0.0, 1.0, (n, m)),
            mu_tilde=random_weights(rng, n),
            nu_tilde=random_weights(rng, m),
        )
        p, report = solve(inst)
        assert report.converged
        z_dual = density_from_potentials(inst, p)
        z_proj = project(inst)
        assert np.max(np.abs(z_dual - z_proj)) <= 1e-6
        assert abs(report.primal_value - report.dual_value) <= 1e-8
    assert time.perf_counter() - start < 30.0


# --- criterion 8: invariant suites, 60 s total budget -----------------------


def test_c08_weak_duality():
    def suite():
        rng = np.random.default_rng(801)
        for _ in range(200):
            inst = random_instance(rng, max_size=6)
            z = random_feasible_density(rng, inst)
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            assert primal_objective(inst, z) >= dual_objective(inst, p) - 1e-9

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_shift_invariance():
    def suite():
        rng = np.random.default_rng(802)
        for _ in range(200):
            inst = random_instance(rng, max_size=6)
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            base = dual_objective(inst, p)
            alpha = float(rng.uniform(-10, 10))
            assert abs(dual_objective(inst, shift_potentials(p, alpha)) - base) <= 1e-12

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_rescaling_identity():
    def suite():
        rng = np.random.default_rng(803)
        for _ in range(200):
            inst = random_instance(rng, max_size=6)
            unit = validate_instance(
                inst.mu,
                inst.nu,
                inst.cost / inst.epsilon,
                mu_tilde=inst.mu_tilde,
                nu_tilde=inst.nu_tilde,
                epsilon=1.0,
            )
            z = random_feasible_density(rng, inst)
            assert abs(
                primal_objective(inst, z) - inst.epsilon * primal_objective(unit, z)
            ) <= 1e-9
            p = Potentials(rng.normal(size=inst.n), rng.normal(size=inst.m))
            scaled = Potentials(p.f / inst.epsilon, p.g / inst.epsilon)
            assert abs(
                dual_objective(inst, p) - inst.epsilon * dual_objective(unit, scaled)
            ) <= 1e-9

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_oscillation_bound():
    def suite():
        rng = np.random.default_rng(804)
        for _ in range(200):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mu = random_weights(rng, n)
            cost = rng.uniform(0, 1, (n, m))
            inst = validate_instance(
                mu, random_weights(rng, m), cost, mu_tilde=mu, nu_tilde=random_weights(rng, m)
            )
            p, report = solve(inst)
            assert report.converged
            for i in range(n):
                for k in range(i + 1, n):
                    bound = float(np.max(np.abs(cost[i] - cost[k])))
                    assert abs(p.f[i] - p.f[k]) <= bound + 1e-9

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_boundedness_after_centering():
    def suite():
        rng = np.random.default_rng(805)
        for _ in range(200):
            inst = random_instance(rng, max_size=6, equal_refs=True, cost_kind="gaussian")
            p, report = solve(inst)
            assert report.converged
            alpha = -0.5 * (p.f.max() + p.f.min())
            assert np.max(np.abs(p.f + alpha)) <= 2.0 * np.max(np.abs(inst.cost)) + 1e-9

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_potential_determinism_given_g():
    def suite():
        rng = np.random.default_rng(806)
        for _ in range(200):
            inst = random_instance(rng, max_size=6)
            g = rng.normal(size=inst.m)
            pa = sweep(inst, Potentials(rng.normal(size=inst.n), g))
            pb = sweep(inst, Potentials(rng.normal(size=inst.n), g))
            assert np.max(np.abs(pa.f - pb.f)) <= 1e-12

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_component_oracle_equivalence():
    def suite():
        from qrot import SupportSet

        rng = np.random.default_rng(807)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 10 - n + 1))
            mask = rng.random((n, m)) < rng.uniform(0.1, 0.9)
            d = components(SupportSet(mask=mask, tau=0.0))
            cells = {
                frozenset((int(i), int(j)) for i, j in np.argwhere(d.labels == cid))
                for cid in range(d.count)
            }
            assert cells == brute_components(mask)

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_polytope_soundness():
    def suite():
        rng = np.random.default_rng(808)
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            inst = random_instance(rng, max_size=6, eps=float(rng.uniform(0.02, 0.3)))
            p, report, z, s, d, pd = analyze(inst)
            assert report.converged
            for alpha in sample_shifts(pd, 5, seed=trial):
                q = apply_shifts(p, d, alpha, inst.epsilon, pd)
                assert verify_potentials(inst, q, z, tol=1e-7)
                checked += 1

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_variational_inequality():
    def suite():
        rng = np.random.default_rng(809)
        for _ in range(10):
            inst = random_instance(rng, max_size=6)
            z_star = project(inst)
            target = -inst.cost / inst.epsilon
            for _ in range(20):
                feasible, _ = project_point(
                    inst, rng.normal(size=(inst.n, inst.m))
                )
                inner = np.sum(
                    (z_star - target) * (feasible - z_star) * inst.ref_weights
                )
                assert inner >= -1e-6

    _, elapsed = timed(suite)
    SUITE_TIMES.append(elapsed)


def test_c08_zz_total_budget():
    assert len(SUITE_TIMES) == 9
    assert sum(SUITE_TIMES) < 60.0


def test_c09_sparsity_sweep():
    start = time.perf_counter()
    grid = Grid1D.uniform(20)
    res = epsilon_sweep(grid, [1.0, 0.1, 0.01, 0.001], delta=0.1)
    assert all(r.converged for r in res.reports)
    assert res.containment[-1] == 1.0
    assert res.support_sizes[-1] < res.support_sizes[0]
    fs = [p.f for p in res.potentials_trace]
    drift_mid = float(np.max(np.abs(fs[1] - fs[2])))  # 0.1 -> 0.01
    drift_late = float(np.max(np.abs(fs[2] - fs[3])))  # 0.01 -> 0.001
    assert drift_late < drift_mid
    assert time.perf_counter() - start < 10.0


def test_c10_block_cost_refinement():
    gamma = 1.0
    rows = refinement_study(block_cost_spec(gamma), [10])
    (row,) = rows
    assert row["converged"]
    assert row["dimension"] == 2
    assert row["n_components"] == 2
    # both off-diagonal constraint slacks equal gamma
    spec = block_cost_spec(gamma)
    xs = (np.arange(10) + 0.5) / 10
    inst = validate_instance(
        np.full(10, 0.1), np.full(10, 0.1), spec.cost(xs[:, None], xs[None, :])
    )
    p, report, z, s, d, pd = analyze(inst)
    assert report.converged
    assert abs(pd.a[0, 1] - gamma) <= 1e-6
    assert abs(pd.a[1, 0] - gamma) <= 1e-6
