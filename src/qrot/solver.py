"""Dual solver: semismooth Newton steps on the support, exact cyclic sweeps as fallback.

The dual is concave and piecewise quadratic: its pieces are the support
patterns ``z > 0`` of the density. On one piece its negative generalized
Hessian is ``1/eps`` times the weighted Laplacian of the support, a
bipartite graph on rows and columns, and the Laplacian's null space is
spanned by the shifts of the support's components: exactly the multiplicity
of potentials that :mod:`qrot.polytope` describes. :func:`solve` takes
damped Newton steps on that Laplacian with an Armijo line search
(semismooth Newton as in Lorenz, Manns and Meyer, "Quadratically regularized
optimal transport", Appl. Math. Optim. 83, 2021). Once the support pattern
is found, one step lands on the optimum up to round-off.

Where no Newton step is taken, the solver runs one exact cyclic sweep. Each
coordinate update of a sweep solves its marginal equation exactly: with the
other potential held fixed, the map ``t -> sum_j w[j] * (t - theta[j])_+``
is piecewise linear, continuous, nondecreasing and strictly increasing where
positive, so for a positive target the root is unique. It is found by a
finite active-set iteration (as in Michelot's and Condat's simplex
projections): solve the linear equation over the current set of active
breakpoints, drop the breakpoints above that solution, and repeat until the
set stops changing. The set only shrinks, so at most ``m`` passes run, and
the last solution is the exact root, with no tolerance. Both kinds of step
never lower the dual value.

The self-transport mode runs the same solver: its dual is concave and
invariant under ``(f, g) -> (g, f)``, so the average ``(f + g) / 2`` of an
optimal pair is an optimal symmetric potential.
"""

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Potentials,
    ValidationError,
    _dual_value,
    _report,
    _unclipped_density,
    density_from_potentials,
    max_residual,
    shift_potentials,
)
from .support import _row_roots

__all__ = [
    "SolverConfig",
    "sweep",
    "solve",
    "solve_symmetric",
]

NORMALIZATIONS = ("anchor_first_component_zero", "mean_zero_f", "none")

ARMIJO = 1e-4  # fraction of the predicted dual increase a Newton step must reach
IMBALANCE_TOL = 1e-13  # component mass imbalance below which it is round-off (total mass is 1)
MAX_BACKTRACKS = 60  # step halvings before a Newton step gives way to a sweep


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of :func:`solve`.

    ``max_sweeps`` is the iteration budget; each sweep and each Newton step
    counts as one iteration.
    """

    tol_residual: float = 1e-10
    max_sweeps: int = 100_000
    normalization: str = "anchor_first_component_zero"

    def __post_init__(self):
        if not (np.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ValidationError("tol_residual must be finite and positive")
        if self.max_sweeps < 1:
            raise ValidationError("max_sweeps must be at least 1")
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )


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
    if mode == "anchor_first_component_zero":
        return shift_potentials(p, -p.f[0])
    if mode == "mean_zero_f":
        return shift_potentials(p, -float(np.mean(p.f)))
    return p


@dataclass(frozen=True)
class _SupportSystem:
    """What a Newton step derives from its support pattern ``on = z > 0`` alone.

    ``w`` is the support's weight matrix, ``col_diag`` the regularized column
    block ``col_deg + lam`` of the Laplacian, ``schur`` the ``n x n`` system
    left after eliminating ``g``. ``row_label`` and ``col_label`` name each
    row's and column's support component, and ``lines`` counts the rows and
    columns of each component.
    """

    on: np.ndarray
    w: np.ndarray
    col_diag: np.ndarray
    w_scaled: np.ndarray
    schur: np.ndarray
    row_label: np.ndarray
    col_label: np.ndarray
    lines: np.ndarray


def _support_system(inst, on, ref):
    """The :class:`_SupportSystem` of ``on``, or ``None`` if a row or a column of it is empty."""
    w = ref * on
    row_deg, col_deg = w.sum(axis=1), w.sum(axis=0)
    if not (row_deg.all() and col_deg.all()):
        return None
    row_label = _row_roots(on)
    col_label = row_label[on.argmax(axis=0)]
    lines = np.bincount(row_label, minlength=inst.n) + np.bincount(col_label, minlength=inst.n)
    lam = 1e-12 * max(row_deg.max(), col_deg.max())
    col_diag = col_deg + lam
    w_scaled = w / col_diag
    schur = -(w_scaled @ w.T)
    schur.flat[:: inst.n + 1] += row_deg + lam
    return _SupportSystem(on, w, col_diag, w_scaled, schur, row_label, col_label, lines)


def _newton_step(inst, p, u, z, ref, system):
    """One damped semismooth Newton ascent step from ``p``, or ``None`` if none is taken.

    ``u`` is the unclipped density of ``p`` and ``z = max(u, 0)`` its
    density, ``ref`` the reference product ``mu_tilde x nu_tilde``, and
    ``system`` the :class:`_SupportSystem` of the previous call or ``None``.
    Everything that depends on the support pattern alone is taken from
    ``system`` when ``z > 0`` is exactly its pattern and built afresh
    otherwise, so a step on a settled support skips the component labels and
    the Schur matrix and gives the same bits as one that builds them.

    The dual's gradient is ``(-mu_tilde * row_residual, -nu_tilde *
    col_residual)``, and ``-1/eps`` times the weighted Laplacian ``L =
    [[diag W 1, W], [W^T, diag W^T 1]]`` of the support, ``W = (mu_tilde x
    nu_tilde) * 1[z > 0]``, is a generalized Hessian. The null space of ``L``
    is spanned by the component shifts (``+1`` on a component's rows, ``-1``
    on its columns), and the gradient's part along the shift of component
    ``C`` is the mass imbalance ``mu(C) - nu(C)``. A real imbalance is kept:
    it pushes the components apart until the support changes. An imbalance
    within ``IMBALANCE_TOL`` is round-off and is projected out, since
    amplified by the damping it would only move the components at random.

    The step solves ``(L + lam I) d = eps * grad``, where ``lam = 1e-12 *
    max(diag L)`` fills the shift null space. Eliminating ``g`` through the
    diagonal column block leaves one dense ``n x n`` system. An Armijo
    backtracking search then picks the step length ``t``. Its test, dual
    gain at least ``ARMIJO * t * slope``, is evaluated as ``t * (1 - ARMIJO)
    * slope >= curvature``: with ``u = (f + g - c) / eps``, ``u' = u + delta``
    the same at the trial point and ``h(u, delta) = u'_+^2 - u_+^2 - 2 u_+
    delta >= 0``, the gain is exactly ``t * slope - eps / 2 * sum(w h)``. Each
    case of ``h`` is a sum of terms of one sign, so the test holds its
    precision when the gain falls below the dual value's round-off, as it
    does on the last steps.

    Returns ``(step, system)``, where ``system`` is the support system of
    ``z``, or ``None`` when a row or a column of the support is empty. The
    step is ``None`` in that case or when no step length passes, and the
    caller sweeps instead; otherwise it is ``(q, unclipped density of q,
    density of q, dual value at q)``.
    """
    on = z > 0
    if system is None or not np.array_equal(system.on, on):
        system = _support_system(inst, on, ref)
        if system is None:
            return None, None
    w, row_label, col_label = system.w, system.row_label, system.col_label
    grad_f = inst.mu - inst.mu_tilde * (z @ inst.nu_tilde)
    grad_g = inst.nu - inst.nu_tilde * (inst.mu_tilde @ z)
    imbalance = np.bincount(row_label, grad_f, inst.n) - np.bincount(col_label, grad_g, inst.n)
    drift = np.where(
        np.abs(imbalance) <= IMBALANCE_TOL, imbalance / np.maximum(system.lines, 1), 0.0
    )

    rhs_f = inst.epsilon * (grad_f - drift[row_label])
    rhs_g = inst.epsilon * (grad_g + drift[col_label])
    df = np.linalg.solve(system.schur, rhs_f - system.w_scaled @ rhs_g)
    dg = (rhs_g - w.T @ df) / system.col_diag
    slope = float(grad_f @ df + grad_g @ dg)

    d = df[:, None] + dg[None, :]
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        f, g = p.f + t * df, p.g + t * dg
        u_q = _unclipped_density(inst, f, g)
        delta = (t / inst.epsilon) * d
        h = np.where(
            u_q > 0,
            np.where(on, delta * delta, u_q * u_q),
            np.where(on, -u * (u + 2.0 * delta), 0.0),
        )
        curvature = 0.5 * inst.epsilon * float(inst.mu_tilde @ h @ inst.nu_tilde)
        if t * (1.0 - ARMIJO) * slope >= curvature:
            q = Potentials(f=f, g=g)
            z_q = np.maximum(0.0, u_q)
            return (q, u_q, z_q, _dual_value(inst, q, z_q)), system
        t *= 0.5
    return None, system


def solve(inst, cfg=None, init=None):
    """Solve the dual by semismooth Newton steps, with exact cyclic sweeps as fallback.

    Each iteration takes a :func:`_newton_step`, or one :func:`sweep` where
    no Newton step is taken (a line of the support is empty, as at zero
    potentials with a positive cost, or the line search fails); each sweep
    and each Newton step counts as one iteration, against
    ``cfg.max_sweeps``. Each Newton step hands its support system to the
    next, which reuses it while the support pattern ``z > 0`` stays exactly
    the same; the reference product is formed once per call, and each
    iterate's unclipped density is carried into the next step. The loop
    stops at the first iterate within ``cfg.tol_residual`` whose
    predecessor was within it too. The first Newton step to reach the
    tolerance may be a long one, whose round-off scales with its length
    and can leave density of order 1e-9 on cells of zero optimal density;
    the short step that follows is exact to machine precision. Every
    iteration takes the residual and the dual value from the density of
    its new iterate; a dual value that decreases raises ``RuntimeError``.
    The configured normalization shift is applied once after the loop, and
    the report is taken from the one density of the shifted potentials
    returned. Non-convergence is reported through ``report.converged =
    False``, not raised: it says whether the last iterate is within the
    tolerance.

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
    ref = inst.ref_weights
    u = _unclipped_density(inst, p.f, p.g)
    z = np.maximum(0.0, u)
    dual_prev = _dual_value(inst, p, z)
    converged = max_residual(inst, z) <= cfg.tol_residual

    system = None
    iterations = 0
    for iterations in range(1, cfg.max_sweeps + 1):
        step, system = _newton_step(inst, p, u, z, ref, system)
        if step is None:
            p = sweep(inst, p)
            u = _unclipped_density(inst, p.f, p.g)
            z = np.maximum(0.0, u)
            dual_now = _dual_value(inst, p, z)
        else:
            p, u, z, dual_now = step
        if dual_now < dual_prev - 1e-12 * (1.0 + abs(dual_prev)):
            raise RuntimeError(
                f"dual objective decreased across an iteration: {dual_prev} -> {dual_now}"
            )
        dual_prev = dual_now
        within_before, converged = converged, max_residual(inst, z) <= cfg.tol_residual
        if converged and within_before:
            break

    p = _normalize(p, cfg.normalization)
    z = density_from_potentials(inst, p)
    return p, _report(inst, p, z, z, iterations, converged)


def _check_self_transport(inst):
    if inst.n != inst.m:
        raise ValidationError("asymmetric input: marginal sizes differ")
    if not np.allclose(inst.mu, inst.nu, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: mu != nu")
    if not np.allclose(inst.mu_tilde, inst.nu_tilde, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: mu_tilde != nu_tilde")
    if not np.allclose(inst.cost, inst.cost.T, rtol=0, atol=1e-12):
        raise ValidationError("asymmetric input: cost matrix is not symmetric")


def solve_symmetric(inst, cfg=None, init=None):
    """Self-transport solve returning a single potential vector ``f = g``.

    Requires ``n = m``, equal marginals, equal references and a symmetric
    cost. Runs :func:`solve` and averages its pair to ``(f + g) / 2``, which
    is optimal because the dual is concave and symmetric; the normalization
    shift cancels in the average. If the average misses ``cfg.tol_residual``,
    :func:`solve` runs again from it on the rest of the iteration budget.
    The report counts the sweeps and Newton steps of all rounds.
    """
    _check_self_transport(inst)
    cfg = cfg or SolverConfig()
    p = init
    converged = False
    sweeps = 0
    while not converged and sweeps < cfg.max_sweeps:
        q, report = solve(inst, replace(cfg, max_sweeps=cfg.max_sweeps - sweeps), init=p)
        sweeps += report.iterations
        f = 0.5 * (q.f + q.g)
        p = Potentials(f=f, g=f, symmetric=True)
        z = density_from_potentials(inst, p)
        converged = max_residual(inst, z) <= cfg.tol_residual
    return p, _report(inst, p, z, z, sweeps, converged)
