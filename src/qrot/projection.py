"""Independent primal solver: Dykstra's alternating projections.

The optimal density is the projection of ``-cost / epsilon`` onto the set of
coupling densities in the weighted L2 geometry with inner product
``<A, B> = sum_ij A[i,j] B[i,j] mu_tilde[i] nu_tilde[j]``. The set is the
intersection of two affine marginal constraints with the nonnegative orthant,
so Dykstra's scheme applies with a correction kept only for the orthant
(affine sets need none, per Boyle-Dykstra). The correction is the entrywise
amount the last clip added back, hence nonnegative.

Because the reference weights sum to one, the weighted projection onto a row
marginal constraint is the plain constant shift
``z[i, :] += mu[i]/mu_tilde[i] - sum_j nu_tilde[j] z[i, j]``, and likewise
for columns; the weighted projection onto the orthant is the entrywise clip.

This module exists as a cross-check oracle for the dual solver: the two reach
the same density along entirely different routes.
"""

import numpy as np

from .model import max_residual

__all__ = ["ProjectionError", "project"]


class ProjectionError(RuntimeError):
    """Projection did not converge; the message names the cycle budget and the last change."""


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
    ndarray, shape (n, m)
        The optimal density of the instance, read-only, up to the stated
        tolerances.
    """
    z = -inst.cost / inst.epsilon
    correction = np.zeros_like(z)
    mu_ratio = inst.mu_ratio
    nu_ratio = inst.nu_ratio
    last_change = np.inf

    for _ in range(max_iter):
        previous = z
        z = z + (mu_ratio - z @ inst.nu_tilde)[:, None]
        z = z + (nu_ratio - inst.mu_tilde @ z)[None, :]
        pre_clip = z - correction
        z = np.maximum(pre_clip, 0.0)
        correction = z - pre_clip
        last_change = float(np.max(np.abs(z - previous)))
        if last_change <= tol and max_residual(inst, z) <= 10.0 * tol:
            z.setflags(write=False)
            return z

    raise ProjectionError(
        f"projection did not converge within {max_iter} cycles (last change {last_change:.3e})"
    )
