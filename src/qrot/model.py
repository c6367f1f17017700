"""Domain types and objectives for quadratically regularized transport on finite marginals.

Problem data consists of two discrete marginals ``mu`` and ``nu``, strictly
positive reference weights ``mu_tilde`` and ``nu_tilde`` whose product is the
base measure for densities, a finite cost matrix and a regularization
strength ``epsilon``. A coupling is represented by its density: a plain
``(n, m)`` array ``z`` with respect to the product reference. Its coupling
weights ``pi[i, j] = z[i, j] * mu_tilde[i] * nu_tilde[j]`` follow from it as
``z * inst.ref_weights`` and are not stored.

Dual variables are stored in the rescaled parameterization throughout: the
density induced by potentials ``(f, g)`` is
``z[i, j] = max(0, (f[i] + g[j] - cost[i, j]) / epsilon)``, built by
:func:`density_from_potentials` as a read-only array. This
parameterization stays bounded as ``epsilon`` shrinks, which is what the
sparsity experiments rely on.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ValidationError",
    "Instance",
    "Potentials",
    "SolveReport",
    "validate_instance",
    "with_epsilon",
    "density_from_potentials",
    "marginal_residuals",
    "max_residual",
    "primal_objective",
    "dual_objective",
    "duality_gap",
    "shift_potentials",
]


class ValidationError(ValueError):
    """Problem data violates a structural requirement; the message names the field."""


def _frozen(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _normalized_weights(values, name):
    w = np.asarray(values, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d array")
    bad = np.flatnonzero(~(w > 0) | ~np.isfinite(w))
    if bad.size:
        raise ValidationError(f"nonpositive weight at {name}[{bad[0]}]")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"{name} sums to {total:.9g}; renormalizing to 1", stacklevel=3)
    # w / w.sum() is not idempotent in floating point: leave a vector that one
    # division already normalized as it is, so validation is idempotent
    if abs(total - 1.0) <= w.size * np.finfo(float).eps:
        return w
    return w / total


@dataclass(frozen=True)
class Instance:
    """Validated problem data. Build through :func:`validate_instance`.

    All arrays are read-only; every operation on instances is a pure function,
    so instances can be shared freely across threads.
    """

    n: int
    m: int
    mu: np.ndarray
    nu: np.ndarray
    mu_tilde: np.ndarray
    nu_tilde: np.ndarray
    cost: np.ndarray
    epsilon: float = 1.0

    @property
    def mu_ratio(self):
        """Density of mu with respect to the reference, entry ``mu[i] / mu_tilde[i]``."""
        return self.mu / self.mu_tilde

    @property
    def nu_ratio(self):
        return self.nu / self.nu_tilde

    @property
    def ref_weights(self):
        """Product reference weights ``mu_tilde[i] * nu_tilde[j]`` as an (n, m) matrix."""
        return np.outer(self.mu_tilde, self.nu_tilde)


def validate_instance(mu, nu, cost, mu_tilde=None, nu_tilde=None, epsilon=1.0):
    """Validate raw arrays and return a normalized :class:`Instance`.

    Weight vectors must be strictly positive. They are divided by their sum
    unless it is already within ``size * machine epsilon`` of one (so that
    validating validated weights returns them unchanged), with a warning if
    the raw sum is off by more than 1e-6.
    When the reference weights are omitted they default to the marginals
    themselves.

    Parameters
    ----------
    mu, nu : array_like, shape (n,) and (m,)
        Marginal weights.
    cost : array_like, shape (n, m)
        Finite cost matrix.
    mu_tilde, nu_tilde : array_like, optional
        Reference weights; default to ``mu`` and ``nu``.
    epsilon : float
        Strictly positive regularization strength (default 1).

    Raises
    ------
    ValidationError
        On dimension mismatch, nonpositive weight, nonfinite cost entry or an
        epsilon that is not a number, not finite or not positive; the message
        names the offending field and index.
    """
    mu = _normalized_weights(mu, "mu")
    nu = _normalized_weights(nu, "nu")
    n, m = mu.size, nu.size

    mu_tilde = mu if mu_tilde is None else _normalized_weights(mu_tilde, "mu_tilde")
    nu_tilde = nu if nu_tilde is None else _normalized_weights(nu_tilde, "nu_tilde")
    if mu_tilde.size != n:
        raise ValidationError(
            f"dimension mismatch: mu_tilde has length {mu_tilde.size}, expected {n}"
        )
    if nu_tilde.size != m:
        raise ValidationError(
            f"dimension mismatch: nu_tilde has length {nu_tilde.size}, expected {m}"
        )

    cost = np.asarray(cost, dtype=float)
    if cost.shape != (n, m):
        raise ValidationError(
            f"dimension mismatch: cost has shape {cost.shape}, expected ({n}, {m})"
        )
    bad = np.argwhere(~np.isfinite(cost))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"nonfinite cost at cost[{i},{j}]")

    return Instance(
        n=n,
        m=m,
        mu=_frozen(mu),
        nu=_frozen(nu),
        mu_tilde=_frozen(mu_tilde),
        nu_tilde=_frozen(nu_tilde),
        cost=_frozen(cost),
        epsilon=_epsilon(epsilon),
    )


def _epsilon(epsilon):
    """``epsilon`` as a float; a ValidationError naming the fault unless it is
    a finite positive number."""
    try:
        if isinstance(epsilon, (bool, np.bool_)):
            raise TypeError
        value = float(epsilon)
    except (TypeError, ValueError):
        raise ValidationError(f"epsilon must be a number, got {epsilon!r}") from None
    if not math.isfinite(value):
        raise ValidationError("nonfinite epsilon")
    if value <= 0:
        raise ValidationError("nonpositive epsilon")
    return value


def with_epsilon(inst, epsilon):
    """Copy of the instance with a different regularization strength."""
    return replace(inst, epsilon=_epsilon(epsilon))


@dataclass(frozen=True)
class Potentials:
    """Rescaled dual variables ``(f, g)``.

    ``symmetric`` marks self-transport potentials: both vectors live on the
    same space and are entrywise equal. Symmetric potentials admit no free
    additive shift, see :func:`shift_potentials`.
    """

    f: np.ndarray
    g: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        f = _frozen(self.f)
        g = _frozen(self.g)
        for name, vec in (("f", f), ("g", g)):
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                raise ValidationError(f"nonfinite potential at {name}[{bad[0]}]")
        if self.symmetric:
            if f.shape != g.shape or not np.array_equal(f, g):
                raise ValidationError("symmetric potentials require f = g entrywise")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def _check_potentials(inst, p):
    """Raise a ValidationError unless ``p.f`` and ``p.g`` are vectors with one
    entry per row and per column."""
    if p.f.shape != (inst.n,) or p.g.shape != (inst.m,):
        raise ValidationError(
            f"dimension mismatch: potentials have shapes {p.f.shape}, {p.g.shape},"
            f" expected ({inst.n},), ({inst.m},)"
        )


def _unclipped_density(inst, f, g):
    """``(f + g - cost) / eps`` entrywise: the density before clipping at zero.

    The solver, the objectives, the support and the polytope's slacks (its
    negation) all read this one expression, so they agree to the last bit.
    A cell that overflows is -inf or +inf, without numpy's warning: a -inf
    only clips to zero density, and the polytope rejects a nonfinite slack.
    """
    u = f[:, None] + g[None, :] - inst.cost
    # in place: u is a fresh array, and the bits are those of u / epsilon
    with np.errstate(over="ignore"):
        u /= inst.epsilon
    return u


def _check_density(inst, z):
    """``z`` as a float array, or a ValidationError unless it is a nonnegative ``(n, m)`` matrix."""
    z = np.asarray(z, dtype=float)
    if z.shape != (inst.n, inst.m):
        raise ValidationError(
            f"dimension mismatch: z has shape {z.shape}, expected ({inst.n}, {inst.m})"
        )
    if np.any(z < 0):
        raise ValidationError("coupling density must be nonnegative")
    return z


def _dual_value(inst, p, z):
    """:func:`dual_objective` at ``p`` from its density ``z``; the penalty takes two matvecs."""
    penalty = 0.5 * inst.epsilon * float(inst.mu_tilde @ ((z * z) @ inst.nu_tilde))
    return float(p.f @ inst.mu + p.g @ inst.nu - penalty)


def _report(inst, p, z, z_p, iterations, converged):
    """:class:`SolveReport` of the density matrix ``z`` and of ``p``, whose density is ``z_p``."""
    primal = primal_objective(inst, z)
    dual = _dual_value(inst, p, z_p)
    residual = max_residual(inst, z)
    return SolveReport(primal, dual, primal - dual, residual, int(iterations), bool(converged))


def density_from_potentials(inst, p):
    """Density induced by potentials: ``max(0, (f + g - cost) / epsilon)`` entrywise.

    Returns a fresh read-only ``(n, m)`` array. No marginal feasibility is
    implied; feed the result to :func:`marginal_residuals` to test whether
    ``(f, g)`` actually are potentials of the instance.
    """
    _check_potentials(inst, p)
    z = np.maximum(0.0, _unclipped_density(inst, p.f, p.g))
    z.setflags(write=False)
    return z


def marginal_residuals(inst, z):
    """Residuals of the two marginal systems of a candidate density ``z``.

    Returns ``(row, col)`` where ``row[i] = sum_j nu_tilde[j] z[i, j] -
    mu[i] / mu_tilde[i]`` and ``col`` is the column analog. Both vanish
    exactly when ``z`` is the density of a coupling of ``(mu, nu)``. Raises a
    ValidationError unless ``z`` is a nonnegative ``(n, m)`` matrix.
    """
    z = _check_density(inst, z)
    return z @ inst.nu_tilde - inst.mu_ratio, inst.mu_tilde @ z - inst.nu_ratio


def max_residual(inst, z):
    """Worst absolute entry of :func:`marginal_residuals`, without its check on ``z``.

    The solver calls this on its own density at every iteration.
    """
    row = z @ inst.nu_tilde - inst.mu_ratio
    col = inst.mu_tilde @ z - inst.nu_ratio
    return max(float(np.max(np.abs(row))), float(np.max(np.abs(col))))


def primal_objective(inst, z):
    """Transport cost plus the quadratic penalty, ``sum(c * pi) + eps/2 * ||z||^2``.

    Evaluated as two matvecs with ``pi = z * mu_tilde x nu_tilde``; raises a
    ValidationError unless ``z`` is a nonnegative ``(n, m)`` matrix.
    """
    z = _check_density(inst, z)
    return float(inst.mu_tilde @ (((inst.cost + 0.5 * inst.epsilon * z) * z) @ inst.nu_tilde))


def dual_objective(inst, p):
    """Concave dual objective at rescaled potentials ``(f, g)``.

    Computes ``sum_i f[i] mu[i] + sum_j g[j] nu[j]
    - eps/2 * sum_ij ((f[i]+g[j]-c[i,j])/eps)_+^2 * mu_tilde[i] nu_tilde[j]``.
    """
    return _dual_value(inst, p, density_from_potentials(inst, p))


def duality_gap(inst, p, z):
    """Assemble a :class:`SolveReport` for a primal/dual pair.

    The gap is zero exactly when the density ``z`` is feasible and equals the
    density induced by ``p``; for feasible ``z`` it is nonnegative up to
    round-off. Raises a ValidationError unless ``z`` is a nonnegative ``(n,
    m)`` matrix. No solve ran, so the report has ``iterations`` 0 and
    ``converged`` false.
    """
    z = _check_density(inst, z)
    return _report(inst, p, z, density_from_potentials(inst, p), 0, False)


@dataclass(frozen=True)
class SolveReport:
    """Objective values and residual of a solve; ``iterations`` counts sweeps plus Newton steps."""

    primal_value: float
    dual_value: float
    duality_gap: float
    marginal_residual: float
    iterations: int
    converged: bool


def shift_potentials(p, alpha):
    """Shift ``(f, g)`` to ``(f + alpha, g - alpha)``; the induced density is unchanged.

    Symmetric potentials are rejected: shifting would break ``f = g``.
    """
    if p.symmetric:
        raise ValidationError("symmetric potentials admit no additive shift")
    alpha = float(alpha)
    return Potentials(f=p.f + alpha, g=p.g - alpha)
