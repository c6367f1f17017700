"""Domain types and objectives for quadratically regularized transport on finite marginals.

Problem data consists of two discrete marginals ``mu`` and ``nu``, strictly
positive reference weights ``mu_tilde`` and ``nu_tilde`` whose product is the
base measure for densities, a finite cost matrix and a regularization
strength ``epsilon``. A coupling is represented by its density matrix ``z``
with respect to the product reference, together with the induced coupling
weights ``pi[i, j] = z[i, j] * mu_tilde[i] * nu_tilde[j]``.

Dual variables are stored in the rescaled parameterization throughout: the
density induced by potentials ``(f, g)`` is
``z[i, j] = max(0, (f[i] + g[j] - cost[i, j]) / epsilon)``. This
parameterization stays bounded as ``epsilon`` shrinks, which is what the
sparsity experiments rely on.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ValidationError",
    "Instance",
    "Potentials",
    "CouplingDensity",
    "SolveReport",
    "validate_instance",
    "with_epsilon",
    "coupling_from_z",
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
        On dimension mismatch, nonpositive weight, nonfinite cost entry or
        nonpositive epsilon; the message names the offending field and index.
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

    try:
        epsilon = float(epsilon)
    except (TypeError, ValueError):
        raise ValidationError("nonpositive epsilon") from None
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValidationError("nonpositive epsilon")

    return Instance(
        n=n,
        m=m,
        mu=_frozen(mu),
        nu=_frozen(nu),
        mu_tilde=_frozen(mu_tilde),
        nu_tilde=_frozen(nu_tilde),
        cost=_frozen(cost),
        epsilon=epsilon,
    )


def with_epsilon(inst, epsilon):
    """Copy of the instance with a different regularization strength."""
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValidationError("nonpositive epsilon")
    return replace(inst, epsilon=epsilon)


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


@dataclass(frozen=True)
class CouplingDensity:
    """Density ``z`` with respect to the product reference and coupling weights ``pi``."""

    z: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        z = _frozen(self.z)
        pi = _frozen(self.pi)
        if np.any(z < 0):
            raise ValidationError("coupling density must be nonnegative")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "pi", pi)


def coupling_from_z(inst, z):
    """Wrap a density matrix, deriving coupling weights against the reference."""
    z = np.asarray(z, dtype=float)
    if z.shape != (inst.n, inst.m):
        raise ValidationError(
            f"dimension mismatch: z has shape {z.shape}, expected ({inst.n}, {inst.m})"
        )
    return CouplingDensity(z=z, pi=z * inst.ref_weights)


def density_from_potentials(inst, p):
    """Density induced by potentials: ``max(0, (f + g - cost) / epsilon)`` entrywise.

    No marginal feasibility is implied; feed the result to
    :func:`marginal_residuals` to test whether ``(f, g)`` actually are
    potentials of the instance.
    """
    if p.f.size != inst.n or p.g.size != inst.m:
        raise ValidationError(
            f"dimension mismatch: potentials have sizes ({p.f.size}, {p.g.size}),"
            f" expected ({inst.n}, {inst.m})"
        )
    z = np.maximum(0.0, (p.f[:, None] + p.g[None, :] - inst.cost) / inst.epsilon)
    return coupling_from_z(inst, z)


def marginal_residuals(inst, cd):
    """Residuals of the two marginal systems of a candidate density.

    Returns ``(row, col)`` where ``row[i] = sum_j nu_tilde[j] z[i, j] -
    mu[i] / mu_tilde[i]`` and ``col`` is the column analog. Both vanish
    exactly when ``z`` is the density of a coupling of ``(mu, nu)``.
    """
    row = cd.z @ inst.nu_tilde - inst.mu_ratio
    col = inst.mu_tilde @ cd.z - inst.nu_ratio
    return row, col


def max_residual(inst, z):
    """Worst absolute entry of :func:`marginal_residuals`, from the density matrix ``z``."""
    row = z @ inst.nu_tilde - inst.mu_ratio
    col = inst.mu_tilde @ z - inst.nu_ratio
    return max(float(np.max(np.abs(row))), float(np.max(np.abs(col))))


def primal_objective(inst, cd):
    """Transport cost plus the quadratic penalty, ``sum(c * pi) + eps/2 * ||z||^2``."""
    quad = np.sum(cd.z * cd.z * inst.ref_weights)
    return float(np.sum(inst.cost * cd.pi) + 0.5 * inst.epsilon * quad)


def dual_objective(inst, p):
    """Concave dual objective at rescaled potentials ``(f, g)``.

    Computes ``sum_i f[i] mu[i] + sum_j g[j] nu[j]
    - eps/2 * sum_ij ((f[i]+g[j]-c[i,j])/eps)_+^2 * mu_tilde[i] nu_tilde[j]``.
    """
    z = np.maximum(0.0, (p.f[:, None] + p.g[None, :] - inst.cost) / inst.epsilon)
    penalty = 0.5 * inst.epsilon * np.sum(z * z * inst.ref_weights)
    return float(p.f @ inst.mu + p.g @ inst.nu - penalty)


def duality_gap(inst, p, cd, iterations=0, converged=False):
    """Assemble a :class:`SolveReport` for a primal/dual pair.

    The gap is zero exactly when ``cd`` is feasible and equals the density
    induced by ``p``; for feasible ``cd`` it is nonnegative up to round-off.
    """
    primal = primal_objective(inst, cd)
    dual = dual_objective(inst, p)
    return SolveReport(
        primal_value=primal,
        dual_value=dual,
        duality_gap=primal - dual,
        marginal_residual=max_residual(inst, cd.z),
        iterations=int(iterations),
        converged=bool(converged),
    )


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
