"""A snapshot of the public API of ``qrot``, so that a change to it is deliberate."""

import inspect

import qrot

CLASSES = {
    "ComponentDecomposition",
    "Instance",
    "PolytopeDescription",
    "PotentialConsistencyError",
    "Potentials",
    "ProjectionError",
    "SolveReport",
    "SolverConfig",
    "SupportSet",
    "SweepResult",
    "ValidationError",
}

FUNCTIONS = {
    "apply_shifts": "(p, decomp, alpha, eps, pd=None)",
    "components": "(s)",
    "compute_polytope": "(inst, p, decomp, s)",
    "density_from_potentials": "(inst, p)",
    "dual_objective": "(inst, p)",
    "duality_gap": "(inst, p, z)",
    "epsilon_sweep": "(loaded, epsilons, delta, cfg=None)",
    "marginal_residuals": "(inst, z)",
    "max_residual": "(inst, z)",
    "mirror_pairing": "(decomp)",
    "monotone_coupling_1d": "(xs, mu, ys, nu)",
    "primal_objective": "(inst, z)",
    "project": "(inst, tol=1e-10, max_iter=1000000)",
    "sample_shifts": "(pd, k, seed)",
    "shift_potentials": "(p, alpha)",
    "solve": "(inst, cfg=None, init=None)",
    "solve_symmetric": "(inst, cfg=None, init=None)",
    "support_set": "(z, tau=None)",
    "sweep": "(inst, p)",
    "sweep_to_csv": "(result, path)",
    "symmetric_shift_interval": "(pd, mirror, pair)",
    "validate_instance": "(mu, nu, cost, mu_tilde=None, nu_tilde=None, epsilon=1.0)",
    "verify_potentials": "(inst, p, z_star, tol=1e-08)",
    "with_epsilon": "(inst, epsilon)",
}


def public(predicate):
    return {
        name: obj
        for name, obj in vars(qrot).items()
        if not name.startswith("_") and predicate(obj)
    }


def test_public_classes():
    assert set(public(inspect.isclass)) == CLASSES


def test_public_functions_and_signatures():
    found = public(inspect.isfunction)
    assert {name: str(inspect.signature(fn)) for name, fn in found.items()} == FUNCTIONS
