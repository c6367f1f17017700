"""Independent primal solver: Dykstra's alternating projections.

The optimal density is the projection of ``-cost / epsilon`` onto the set of
coupling densities in the weighted L2 geometry with inner product
``<A, B> = sum_ij A[i,j] B[i,j] mu_tilde[i] nu_tilde[j]``. The set is the
intersection of two affine marginal constraints with the nonnegative orthant,
so Dykstra's scheme applies with a correction kept only for the orthant
(affine sets need none, per Boyle-Dykstra).

Because the reference weights sum to one, the weighted projection onto a row
marginal constraint is the plain constant shift
``z[i, :] += mu[i]/mu_tilde[i] - sum_j nu_tilde[j] z[i, j]``, and likewise
for columns; the weighted projection onto the orthant is the entrywise clip.

This module exists as a cross-check oracle for the dual solver: the two reach
the same density along entirely different routes.
"""

from dataclasses import dataclass

import numpy as np

from .model import coupling_from_z, marginal_residuals, max_residual

__all__ = ["DykstraState", "ProjectionError", "project", "project_point"]


@dataclass
class DykstraState:
    """Working state of one projection run.

    ``correction`` belongs to the clip step only and stores the entrywise
    amount added back by clipping, hence is nonnegative; the pre-clip iterate
    itself may have entries of any sign.
    """

    z: np.ndarray
    correction: np.ndarray
    iteration: int = 0
    last_change: float = np.inf


class ProjectionError(RuntimeError):
    """Projection did not converge; carries the best iterate and its residuals."""

    def __init__(self, message, state, residuals):
        super().__init__(message)
        self.state = state
        self.residuals = residuals


def project(inst, tol=1e-10, max_iter=1_000_000):
    """Project ``-cost / epsilon`` onto the coupling-density set.

    Parameters
    ----------
    inst : Instance
    tol : float
        Stop once the sup-norm change of the iterate over a full cycle drops
        below ``tol`` and both marginal residuals are below ``10 * tol``.
    max_iter : int
        Cycle budget; exceeding it raises :class:`ProjectionError`.

    Returns
    -------
    CouplingDensity
        The optimal density of the instance, up to the stated tolerances.
    """
    cd, _ = project_point(inst, -inst.cost / inst.epsilon, tol=tol, max_iter=max_iter)
    return cd


def project_point(inst, point, tol=1e-10, max_iter=1_000_000):
    """Project an arbitrary matrix onto the coupling-density set.

    Returns ``(CouplingDensity, DykstraState)``. Used directly by tests to
    generate feasible densities from random starting matrices.
    """
    z = np.array(point, dtype=float)
    if z.shape != (inst.n, inst.m):
        raise ValueError(f"point has shape {z.shape}, expected ({inst.n}, {inst.m})")
    state = DykstraState(z=z, correction=np.zeros_like(z))
    mu_ratio = inst.mu_ratio
    nu_ratio = inst.nu_ratio

    for state.iteration in range(1, max_iter + 1):
        previous = state.z.copy()
        z = state.z
        z = z + (mu_ratio - z @ inst.nu_tilde)[:, None]
        z = z + (nu_ratio - inst.mu_tilde @ z)[None, :]
        pre_clip = z - state.correction
        z = np.maximum(pre_clip, 0.0)
        state.correction = z - pre_clip
        state.z = z
        state.last_change = float(np.max(np.abs(z - previous)))
        if state.last_change <= tol and max_residual(inst, z) <= 10.0 * tol:
            return coupling_from_z(inst, z), state

    cd = coupling_from_z(inst, state.z)
    residuals = marginal_residuals(inst, cd)
    raise ProjectionError(
        f"projection did not converge within {max_iter} cycles"
        f" (last change {state.last_change:.3e})",
        state,
        residuals,
    )
