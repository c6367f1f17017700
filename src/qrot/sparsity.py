"""Vanishing-regularization experiments.

For one-dimensional marginals with quadratic cost, the unregularized optimal
plan is the monotone rearrangement of sorted atoms, so the sparsity of the
regularized coupling can be measured exactly against it: as epsilon shrinks,
the support of the regularized coupling contracts into a neighborhood of the
monotone plan, and the rescaled potentials converge. Also covers the
zero-cost closed forms, where the optimal density is available explicitly
whenever the marginal/reference ratios are jointly large enough.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .model import (
    Potentials,
    ValidationError,
    density_from_potentials,
    validate_instance,
    with_epsilon,
)
from .polytope import compute_polytope
from .solver import SolverConfig, solve
from .support import components, support_set

__all__ = [
    "Grid1D",
    "SweepResult",
    "ContinuousSpec",
    "northwest_corner",
    "monotone_coupling_1d",
    "epsilon_sweep",
    "sweep_to_csv",
    "zero_cost_closed_form",
    "refinement_study",
]


def northwest_corner(mu, nu):
    """Greedy plan matching cumulative masses of two weight vectors."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    plan = np.zeros((mu.size, nu.size))
    remaining_mu = mu.copy()
    remaining_nu = nu.copy()
    i = j = 0
    while i < mu.size and j < nu.size:
        t = min(remaining_mu[i], remaining_nu[j])
        plan[i, j] = t
        remaining_mu[i] -= t
        remaining_nu[j] -= t
        # the min side lands on exact zero, so every step advances an index
        if remaining_mu[i] <= 0:
            i += 1
        if remaining_nu[j] <= 0:
            j += 1
    return plan


def monotone_coupling_1d(xs, mu, ys, nu):
    """Monotone plan of sorted 1-d marginals, optimal for quadratic cost.

    Returns the plan's coupling weights, an ``(n, m)`` array with the
    normalized marginals as its row and column sums. Input points must be
    sorted ascending.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise ValidationError("xs must be sorted ascending")
    if np.any(np.diff(ys) < 0):
        raise ValidationError("ys must be sorted ascending")
    inst = _quadratic_instance(xs, mu, ys, nu, 1.0)
    return northwest_corner(inst.mu, inst.nu)


def _quadratic_instance(xs, mu, ys, nu, eps):
    cost = (np.asarray(xs, float)[:, None] - np.asarray(ys, float)[None, :]) ** 2
    return validate_instance(mu, nu, cost, epsilon=eps)


@dataclass(frozen=True)
class Grid1D:
    """A 1-d quadratic-cost instance family over a shared grid, indexed by epsilon."""

    xs: np.ndarray
    mu: np.ndarray
    ys: np.ndarray
    nu: np.ndarray

    def instance(self, eps):
        return _quadratic_instance(self.xs, self.mu, self.ys, self.nu, eps)

    @classmethod
    def uniform(cls, n, lo=0.0, hi=1.0):
        xs = np.linspace(lo, hi, n)
        w = np.full(n, 1.0 / n)
        return cls(xs=xs, mu=w, ys=xs.copy(), nu=w.copy())


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon records of one sweep; epsilons are strictly decreasing."""

    epsilons: tuple
    support_sizes: tuple
    containment: tuple
    delta: float
    potentials_trace: tuple
    reports: tuple


def epsilon_sweep(grid, epsilons, delta, cfg=None):
    """Solve the family along a decreasing epsilon schedule and measure sparsity.

    For each epsilon, records the support size of the solved coupling and the
    fraction of its mass on cells within (coordinate, Euclidean) distance
    ``delta`` of some cell of the monotone plan; ``delta`` must be finite and
    nonnegative. The grid's instance is validated once, and each epsilon of
    the schedule is a :func:`with_epsilon` copy of it. Successive solves are
    warm started from the previous rescaled potentials, which converge as
    epsilon decreases. A non-converged solve is recorded through its report
    and the sweep continues.
    """
    eps_list = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps_list) or any(
        b >= a for a, b in zip(eps_list, eps_list[1:])
    ):
        raise ValidationError("epsilons must be strictly decreasing and positive")
    delta = float(delta)
    if not (np.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta!r}")

    base = monotone_coupling_1d(grid.xs, grid.mu, grid.ys, grid.nu)
    near = _neighborhood_mask(grid.xs, grid.ys, base > 0, delta)
    family = grid.instance(1.0)
    cfg = cfg or SolverConfig()

    support_sizes = []
    containment = []
    trace = []
    reports = []
    warm = None
    for eps in eps_list:
        inst = with_epsilon(family, eps)
        p, report = solve(inst, cfg, init=warm)
        warm = p
        z = density_from_potentials(inst, p)
        mask = support_set(z).mask
        support_sizes.append(int(mask.sum()))
        # measure the escaping mass: off-neighborhood cells of a sparse
        # solution are exact zeros, so full containment comes out as exact 1.0
        pi = z * inst.ref_weights
        total = float(pi.sum())
        outside = float(pi[~near].sum())
        containment.append(1.0 - outside / total if total > 0 else 0.0)
        trace.append(p)
        reports.append(report)

    return SweepResult(
        epsilons=tuple(eps_list),
        support_sizes=tuple(support_sizes),
        containment=tuple(containment),
        delta=delta,
        potentials_trace=tuple(trace),
        reports=tuple(reports),
    )


def _neighborhood_mask(xs, ys, base_mask, delta):
    """Cells within Euclidean distance delta of some base-support cell, in (x, y) coordinates.

    Cell ``(i, j)`` is near base cell ``k`` when ``dx[i, k]**2 + dy[j, k]**2 <=
    delta**2 + 1e-15``. Base cells of one base row share their ``dx**2``, so
    the test over a row's cells is one test against ``dmin[j]``, the smallest
    ``dy**2`` among them: rounded addition ``fl(a + b)`` is nondecreasing in
    ``b``, so the minimum taken before the addition gives the same outcome as
    the tests taken one by one, bit for bit. Each base row then ORs its test
    into the slice of grid rows from the first to the last with ``dx**2``
    within the bound (rows inside the slice but beyond the bound add nothing,
    since a squared term alone never exceeds the rounded sum). The memory
    stays ``O(n m)``, with a loop over base rows and none over base cells.
    """
    near = np.zeros((xs.size, ys.size), dtype=bool)
    bi, bj = np.nonzero(base_mask)  # row-major: each base row's cells are one run
    if bi.size == 0:
        return near
    rows, starts = np.unique(bi, return_index=True)
    bound = delta**2 + 1e-15
    dx2 = (xs[:, None] - xs[rows][None, :]) ** 2
    dmin = np.minimum.reduceat((ys[:, None] - ys[bj][None, :]) ** 2, starts, axis=1)
    within = dx2 <= bound
    first = within.argmax(axis=0)
    stop = xs.size - within[::-1].argmax(axis=0)
    for r in np.flatnonzero(within.any(axis=0)):
        a, b = first[r], stop[r]
        near[a:b] |= dx2[a:b, r, None] + dmin[None, :, r] <= bound
    return near


def sweep_to_csv(result, path):
    """One CSV row per epsilon, for external plotting.

    The ``iterations`` column counts the solver's sweeps plus Newton steps.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "epsilon",
                "converged",
                "iterations",
                "support_size",
                "containment",
                "primal_value",
                "dual_value",
                "duality_gap",
            ]
        )
        for eps, size, frac, report in zip(
            result.epsilons, result.support_sizes, result.containment, result.reports
        ):
            writer.writerow(
                [
                    repr(eps),
                    int(report.converged),
                    report.iterations,
                    size,
                    repr(frac),
                    repr(report.primal_value),
                    repr(report.dual_value),
                    repr(report.duality_gap),
                ]
            )


def zero_cost_closed_form(inst):
    """Closed-form solution for zero cost, when the density has full support.

    If ``min_i mu[i]/mu_tilde[i] + min_j nu[j]/nu_tilde[j] > 1`` the optimal
    density is ``z[i, j] = mu[i]/mu_tilde[i] + nu[j]/nu_tilde[j] - 1`` with
    explicit potentials; returns ``(Potentials, z)`` with ``z`` read-only.
    Otherwise the support is not full and the solver must be used; returns
    ``None``.
    """
    if np.any(inst.cost != 0):
        raise ValidationError("nonzero cost")
    r = inst.mu_ratio
    s = inst.nu_ratio
    if r.min() + s.min() <= 1.0:
        return None
    z = r[:, None] + s[None, :] - 1.0
    p = Potentials(f=inst.epsilon * (r - 0.5), g=inst.epsilon * (s - 0.5))
    z.setflags(write=False)
    return p, z


@dataclass(frozen=True)
class ContinuousSpec:
    """Densities on [0, 1] and a cost function, to be discretized on uniform grids.

    All three callables must accept numpy arrays; ``cost`` is evaluated on a
    meshgrid of the two coordinate vectors.
    """

    mu_density: callable
    nu_density: callable
    cost: callable


def block_cost_spec(gamma):
    """Uniform marginals with an indicator cost off the two half-interval blocks."""

    def cost(x, y):
        same_block = ((x < 0.5) & (y < 0.5)) | ((x > 0.5) & (y > 0.5))
        return (2.0 + gamma) * (~same_block).astype(float)

    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    return ContinuousSpec(mu_density=ones, nu_density=ones, cost=cost)


def refinement_study(spec, grid_sizes, cfg=None):
    """Solve midpoint discretizations of a continuous spec at several grid sizes.

    Emits one row per grid size with the component count, the polytope
    dimension and the largest finite off-diagonal constraint slack. There is
    no claim that the discrete dimension converges; the table is an empirical
    companion for eyeballing whether multiplicity persists under refinement.
    """
    cfg = cfg or SolverConfig()
    rows = []
    for size in grid_sizes:
        xs = (np.arange(size) + 0.5) / size
        mu = np.asarray(spec.mu_density(xs), dtype=float)
        nu = np.asarray(spec.nu_density(xs), dtype=float)
        cost = np.asarray(spec.cost(xs[:, None], xs[None, :]), dtype=float)
        inst = validate_instance(mu / mu.sum(), nu / nu.sum(), cost)
        p, report = solve(inst, cfg)
        s = support_set(density_from_potentials(inst, p))
        decomp = components(s)
        pd = compute_polytope(inst, p, decomp, s)
        finite_offdiag = pd.a[np.isfinite(pd.a) & ~np.eye(pd.n_components, dtype=bool)]
        rows.append(
            {
                "grid": int(size),
                "n_components": pd.n_components,
                "dimension": pd.dimension,
                "max_finite_slack": float(finite_offdiag.max()) if finite_offdiag.size else None,
                "converged": report.converged,
            }
        )
    return rows
