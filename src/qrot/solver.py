"""Exact cyclic coordinate ascent on the dual problem.

Each coordinate update solves its marginal equation exactly: with the other
potential held fixed, the map ``t -> sum_j w[j] * (t - theta[j])_+`` is
piecewise linear, continuous, nondecreasing and strictly increasing where
positive, so for a positive target the root is unique. It is found by a
finite active-set iteration (as in Michelot's and Condat's simplex
projections): solve the linear equation over the current set of active
breakpoints, drop the breakpoints above that solution, and repeat until
the set stops changing. The set only shrinks, so at most ``m`` passes run, and
the last solution is the exact root: no tolerance, no Newton step. Only the
outer sweep loop is iterative.

The same kernel covers the self-transport mode: the diagonal term
``mu_tilde[i] * (2 t - c[i, i])_+`` is rewritten as a breakpoint at
``c[i, i] / 2`` with doubled weight.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    Potentials,
    ValidationError,
    density_from_potentials,
    dual_objective,
    duality_gap,
    shift_potentials,
)

__all__ = [
    "SolverConfig",
    "RowEquation",
    "solve_row_equation",
    "sweep",
    "solve",
    "solve_symmetric",
]

NORMALIZATIONS = ("anchor_first_component_zero", "mean_zero_f", "none")


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-10
    max_sweeps: int = 100_000
    normalization: str = "anchor_first_component_zero"
    check_monotone: bool = True

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValidationError("tol_residual must be positive")
        if self.max_sweeps < 1:
            raise ValidationError("max_sweeps must be at least 1")
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )


@dataclass(frozen=True)
class RowEquation:
    """One marginal equation: find ``t`` with ``sum_j weights[j] (t - thresholds[j])_+ = target``."""

    thresholds: np.ndarray
    weights: np.ndarray
    target: float

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if thresholds.shape != weights.shape or thresholds.ndim != 1:
            raise ValidationError("thresholds and weights must be 1-d arrays of equal length")
        if not np.all(weights > 0):
            raise ValidationError("weights must be strictly positive")
        if not self.target > 0:
            raise ValidationError("nonpositive target")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "weights", weights)


def _pw_roots(thresholds, weights, targets):
    """Roots of ``sum_k w[k] (t - th[r, k])_+ = targets[r]``, one per row.

    Returns ``(roots, passes)``. Active-set iteration: start with every
    breakpoint active, set ``t = (target + sum_A w th) / sum_A w``, drop the
    breakpoints with ``th > t`` and repeat until no row's active set changes.
    The linear function over any set of breakpoints lies below the true one,
    so each ``t`` lies at or above the root and no breakpoint below the root
    is ever dropped; ``t`` decreases as the set shrinks, and a stable set
    solves the equation exactly, with no tolerance. ``passes`` counts the
    evaluations of ``t``. A row whose set did not change recomputes the same
    ``t``, so it never changes again, and a row keeps at least one breakpoint;
    hence ``passes`` never exceeds the row length ``m``. Targets must be
    strictly positive, which makes each root unique. ``t`` is floored at the
    row's smallest breakpoint, which keeps that breakpoint active under
    rounding too.
    """
    th = np.atleast_2d(np.asarray(thresholds, dtype=float))
    w = np.asarray(weights, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    floor = th.min(axis=1)
    active = np.ones(th.shape, dtype=bool)
    count = active.size
    for passes in range(1, th.shape[1] + 1):
        t = np.maximum((targets + (th * active) @ w) / (active @ w), floor)
        active &= th <= t[:, None]
        remaining = np.count_nonzero(active)
        if remaining == count:  # the set only shrinks, so it is stable
            break
        count = remaining
    return t, passes


def solve_row_equation(eq):
    """Exact root of a single piecewise-linear marginal equation."""
    roots, _ = _pw_roots(eq.thresholds, eq.weights, [eq.target])
    return float(roots[0])


def sweep(inst, p):
    """One full Gauss-Seidel cycle: all row updates, then all column updates.

    Row updates use the current ``g`` and make every row equation exact; the
    column updates then use the fresh ``f``. Each update maximizes the concave
    dual objective in its coordinate, so the dual value never decreases along
    a sweep.
    """
    f, _ = _pw_roots(inst.cost - p.g[None, :], inst.nu_tilde, inst.epsilon * inst.mu_ratio)
    g, _ = _pw_roots(inst.cost.T - f[None, :], inst.mu_tilde, inst.epsilon * inst.nu_ratio)
    return Potentials(f=f, g=g)


def _normalize(p, mode):
    if mode == "none" or p.symmetric:
        return p
    if mode == "anchor_first_component_zero":
        return shift_potentials(p, -p.f[0])
    if mode == "mean_zero_f":
        return shift_potentials(p, -float(np.mean(p.f)))
    raise ValidationError(f"unknown normalization {mode!r}")


def _density(inst, p):
    """Density matrix of ``p``, without the copies and checks of a ``CouplingDensity``."""
    return np.maximum(0.0, (p.f[:, None] + p.g[None, :] - inst.cost) / inst.epsilon)


def _residual(inst, z):
    """Worst absolute row or column residual of the density matrix ``z``."""
    row = z @ inst.nu_tilde - inst.mu_ratio
    col = inst.mu_tilde @ z - inst.nu_ratio
    return max(float(np.max(np.abs(row))), float(np.max(np.abs(col))))


def _dual_value(inst, p, z):
    """:func:`dual_objective` at ``p`` from its density ``z``; the penalty takes two matvecs."""
    penalty = 0.5 * inst.epsilon * float(inst.mu_tilde @ ((z * z) @ inst.nu_tilde))
    return float(p.f @ inst.mu + p.g @ inst.nu - penalty)


def solve(inst, cfg=None, init=None):
    """Solve the dual by exact cyclic coordinate ascent.

    Iterates :func:`sweep` until the worst marginal residual falls below
    ``cfg.tol_residual`` or ``cfg.max_sweeps`` is exhausted. Each sweep
    builds the density once and takes the residual and, with
    ``cfg.check_monotone``, the dual value from it. The configured
    normalization shift is applied once after the loop (shifts do not change
    the density). Non-convergence is reported through
    ``report.converged = False``, not raised.

    Parameters
    ----------
    inst : Instance
    cfg : SolverConfig, optional
    init : Potentials, optional
        Starting point, defaults to zero potentials. Useful for warm starts
        across a family of instances.

    Returns
    -------
    (Potentials, SolveReport)
    """
    cfg = cfg or SolverConfig()
    p = init if init is not None else Potentials(np.zeros(inst.n), np.zeros(inst.m))
    if cfg.check_monotone:
        dual_prev = _dual_value(inst, p, _density(inst, p))

    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        p = sweep(inst, p)
        z = _density(inst, p)
        if cfg.check_monotone:
            dual_now = _dual_value(inst, p, z)
            if dual_now < dual_prev - 1e-12 * (1.0 + abs(dual_prev)):
                raise RuntimeError(
                    f"dual objective decreased across a sweep: {dual_prev} -> {dual_now}"
                )
            dual_prev = dual_now
        if _residual(inst, z) <= cfg.tol_residual:
            converged = True
            break

    p = _normalize(p, cfg.normalization)
    report = duality_gap(
        inst, p, density_from_potentials(inst, p), iterations=sweeps, converged=converged
    )
    return p, report


def _check_self_transport(inst):
    if inst.n != inst.m:
        raise ValidationError("asymmetric input: marginal sizes differ")
    if not np.allclose(inst.mu, inst.nu, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: mu != nu")
    if not np.allclose(inst.mu_tilde, inst.nu_tilde, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: mu_tilde != nu_tilde")
    if not np.allclose(inst.cost, inst.cost.T, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: cost matrix is not symmetric")


def _symmetric_pass(inst, f):
    """Sequential coordinate updates of the single symmetric potential vector."""
    f = f.copy()
    targets = inst.epsilon * inst.mu_ratio
    for i in range(inst.n):
        th = inst.cost[i] - f
        th[i] = 0.5 * inst.cost[i, i]
        w = inst.mu_tilde.copy()
        w[i] = 2.0 * inst.mu_tilde[i]  # diagonal term (2t - c_ii)_+ has slope 2 mu_tilde[i]
        roots, _ = _pw_roots(th[None, :], w, [targets[i]])
        f[i] = roots[0]
    return f


def _symmetric_dual(inst, f):
    return dual_objective(inst, Potentials(f=f, g=f, symmetric=True))


def solve_symmetric(inst, cfg=None, init=None):
    """Self-transport solver maintaining a single potential vector ``f = g``.

    Requires ``n = m``, equal marginals, equal references and a symmetric
    cost. Coordinate updates remain exact piecewise-linear root findings; as a
    safeguard, a sweep that decreases the symmetric dual value (which exact
    updates should never produce) is replaced by a line search between the old
    and new iterates.
    """
    _check_self_transport(inst)
    cfg = cfg or SolverConfig()
    f = init.f.copy() if init is not None else np.zeros(inst.n)
    dual_prev = _symmetric_dual(inst, f)

    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        f_new = _symmetric_pass(inst, f)
        dual_new = _symmetric_dual(inst, f_new)
        if dual_new < dual_prev - 1e-12 * (1.0 + abs(dual_prev)):
            f_new, dual_new = _bisection_fallback(inst, f, f_new, dual_prev)
        f = f_new
        dual_prev = dual_new
        p = Potentials(f=f, g=f, symmetric=True)
        if _residual(inst, _density(inst, p)) <= cfg.tol_residual:
            converged = True
            break

    p = Potentials(f=f, g=f, symmetric=True)
    report = duality_gap(
        inst, p, density_from_potentials(inst, p), iterations=sweeps, converged=converged
    )
    return p, report


def _bisection_fallback(inst, f_old, f_new, dual_old):
    """Line search on the segment toward the rejected sweep iterate.

    The symmetric dual is concave, hence concave along the segment; a ternary
    search locates its maximizer to high precision. Falls back to the old
    iterate if not even the searched point improves.
    """
    direction = f_new - f_old
    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _symmetric_dual(inst, f_old + m1 * direction) < _symmetric_dual(
            inst, f_old + m2 * direction
        ):
            lo = m1
        else:
            hi = m2
        if hi - lo < 1e-14:
            break
    s = 0.5 * (lo + hi)
    candidate = f_old + s * direction
    dual_candidate = _symmetric_dual(inst, candidate)
    if dual_candidate >= dual_old:
        return candidate, dual_candidate
    return f_old, dual_old
