"""The family of all potentials of a solved instance.

Fixing one potential pair, every other pair arises by adding a constant
``alpha[k]`` to ``f`` on the rows of component ``k`` and subtracting it from
``g`` on the columns. The admissible vectors form the difference-constraint
polytope ``T = {alpha : alpha[i] - alpha[j] <= a[i, j]}`` where ``a[i, j]``
is the smallest slack ``(cost - f - g) / epsilon`` over the off-support cells
of the block ``rows(C_i) x cols(C_j)``. Potentials are divided by epsilon
before taking slacks so that the constraints live at the unit-regularization
normalization; :func:`apply_shifts` multiplies by epsilon when shifting the
stored rescaled potentials.

Every row and column meeting the support carries one component label, so
``a`` is a label reduction of the slack matrix: rows and columns are sorted
by label and ``np.minimum.reduceat`` takes the block minima in O(nm), first
over rows, then over columns; unmatched rows and columns are left out.
Support cells need no masking, since each lies in a diagonal block, and
diagonal entries are zero by definition. An off-support cell may carry
density up to the support threshold ``tau``, so its slack may be as low as
``-tau``; such slacks are floored at zero, which keeps ``alpha = 0`` feasible.

Difference-constraint systems are canonical shortest-path objects: the
min-plus closure of ``a`` gives the tightest bound on each difference, pairs
whose two-way bounds sum to zero are forced equal, and the dimension of ``T``
is the number of equivalence classes of that rigidity relation (always at
least one: the global shift), counted by :func:`components` on the mask of
forced-equal pairs. Because the closure is tight, any feasible
partial assignment extends, which lets :func:`sample_shifts` draw one
coordinate at a time with no repair.
"""

from dataclasses import dataclass

import numpy as np

from .model import Potentials, ValidationError, density_from_potentials
from .support import SupportSet, _label_runs, components

__all__ = [
    "PolytopeDescription",
    "PotentialConsistencyError",
    "compute_polytope",
    "sample_shifts",
    "apply_shifts",
    "verify_potentials",
    "mirror_pairing",
    "symmetric_shift_interval",
]

RIGID_TOL = 1e-9


class PotentialConsistencyError(RuntimeError):
    """The slack system is infeasible, signalling a solve that did not converge."""


@dataclass(frozen=True)
class PolytopeDescription:
    """Constraint matrix ``a``, its shortest-path closure and rigidity data.

    ``a[i, j]`` is ``+inf`` when the block has no off-support cell (the
    constraint is absent); ``a[i, i] = 0``. ``dist[i, j]`` is the tightest
    implied upper bound on ``alpha[i] - alpha[j]``. ``dimension`` counts the
    rigidity classes; it equals the number of components when no pair is
    forced equal and is always at least one.
    """

    n_components: int
    a: np.ndarray
    dist: np.ndarray
    dimension: int
    rigid_pairs: tuple


def _floyd_warshall(a):
    dist = a.copy()
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def _axis_labels(decomp):
    """Component label of every row and every column; -1 where unmatched.

    A row (column) meeting the support lies in exactly one component, so the
    largest label along it is that component and unmatched lines keep -1.
    """
    return decomp.labels.max(axis=1), decomp.labels.max(axis=0)


def compute_polytope(inst, p, decomp, s):
    """Describe all potential pairs reachable from ``p`` by component shifts.

    Parameters
    ----------
    inst : Instance
    p : Potentials
        Converged potentials of the instance (duality gap at solver tolerance).
    decomp : ComponentDecomposition
    s : SupportSet
        Both derived from the density of the same solve; the labels of
        ``decomp`` carry the support, and ``s.tau`` is the feasibility
        tolerance. An off-support cell has density at most ``s.tau``, so its
        slack is at least ``-s.tau``; slacks in ``[-s.tau, 0)`` are floored
        at 0, since the cell is off the support and ``alpha = 0`` stays
        feasible. Rigidity is decided to ``RIGID_TOL``.

    Raises
    ------
    PotentialConsistencyError
        If some slack is below ``-max(RIGID_TOL, s.tau)``, which means the
        potentials and the support mask do not belong to the same solve.
    """
    count = decomp.count
    row_label, col_label = _axis_labels(decomp)
    rows, row_starts = _label_runs(row_label, count)
    cols, col_starts = _label_runs(col_label, count)
    # a support cell joins its row and column into one component, so every
    # support cell lies in a diagonal block, which fill_diagonal overwrites
    gap = inst.cost[rows]
    gap -= p.f[rows, None]
    gap -= p.g[None, :]
    a = np.minimum.reduceat(gap, row_starts, axis=0)[:, cols]
    # dividing by epsilon > 0 is monotone, so it commutes exactly with the minimum
    a = np.minimum.reduceat(a, col_starts, axis=1) / inst.epsilon
    np.fill_diagonal(a, 0.0)

    tol = max(RIGID_TOL, s.tau)
    if np.any(a < -tol):
        i, j = np.argwhere(a < -tol)[0]
        raise PotentialConsistencyError(
            f"potentials inconsistent with support: a[{i},{j}] = {a[i, j]:.3e} < 0"
        )
    # with a >= 0 the closure has no negative cycle and a zero diagonal
    np.maximum(a, 0.0, out=a)

    dist = _floyd_warshall(a)
    rigid_mask = dist + dist.T <= RIGID_TOL
    rigid = tuple((int(i), int(j)) for i, j in np.argwhere(np.triu(rigid_mask, 1)))
    dimension = components(SupportSet(mask=rigid_mask, tau=0.0)).count

    a.setflags(write=False)
    dist.setflags(write=False)
    return PolytopeDescription(
        n_components=count,
        a=a,
        dist=dist,
        dimension=dimension,
        rigid_pairs=rigid,
    )


def _max_violation(pd, alpha):
    diff = alpha[:, None] - alpha[None, :]
    finite = np.isfinite(pd.a)
    if not finite.any():
        return 0.0
    return float(np.max(diff[finite] - pd.a[finite]))


def sample_shifts(pd, k, seed):
    """Draw ``k`` shift vectors from the polytope, anchored at ``alpha[0] = 0``.

    Coordinates are drawn in order: ``alpha[i]`` is uniform on
    ``[max_{j<i} alpha[j] - dist[j, i], min_{j<i} alpha[j] + dist[i, j]]``,
    the range the closure ``dist`` leaves it given the coordinates before it.
    That interval is never empty, since a feasible partial assignment of a
    closed difference-constraint system always extends, so no repair is
    needed. An unbounded side is cut ``2 * big`` from the other side, or at
    ``-big`` / ``big`` when both are unbounded, where ``big`` exceeds every
    finite ``|dist|``. The ``k`` vectors are drawn together, one coordinate
    per step, and the output is deterministic in ``seed``. Every returned
    vector is verified against all constraints to 1e-9.
    """
    count = pd.n_components
    rng = np.random.default_rng(seed)
    dist = pd.dist
    finite = np.isfinite(dist)
    big = float(np.max(np.abs(dist[finite]))) + 1.0 if finite.any() else 1.0

    u = rng.random((max(k, 0), count))
    alpha = np.zeros_like(u)
    for i in range(1, count):
        lo = np.max(alpha[:, :i] - dist[:i, i], axis=1)
        hi = np.min(alpha[:, :i] + dist[i, :i], axis=1)
        lo = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, big) - 2.0 * big)
        hi = np.where(np.isfinite(hi), hi, lo + 2.0 * big)
        alpha[:, i] = lo + (hi - lo) * u[:, i]

    for row in alpha:
        if _max_violation(pd, row) > 1e-9:
            raise AssertionError("sampled shift violates a constraint of a feasible polytope")
    return list(alpha)


def apply_shifts(p, decomp, alpha, eps, pd=None):
    """Shift potentials componentwise: ``f += eps * alpha[k]`` on the rows of
    component ``k`` and ``g -= eps * alpha[k]`` on its columns.

    The factor ``eps`` converts the unit-normalization shift back to the
    rescaled potentials. Rows and columns matched to no component keep their
    values (they are flagged on the decomposition). When a polytope
    description is supplied, the shift is validated against its constraints.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (decomp.count,):
        raise ValidationError(
            f"dimension mismatch: alpha has shape {alpha.shape}, expected ({decomp.count},)"
        )
    if pd is not None and _max_violation(pd, alpha) > 1e-9:
        raise ValidationError("shift vector violates a polytope constraint")

    row_label, col_label = _axis_labels(decomp)
    rows = row_label >= 0
    cols = col_label >= 0
    f = p.f.copy()
    g = p.g.copy()
    f[rows] += eps * alpha[row_label[rows]]
    g[cols] -= eps * alpha[col_label[cols]]
    return Potentials(f=f, g=g)


def verify_potentials(inst, p, z_star, tol=1e-8):
    """True iff the density induced by ``p`` reproduces the optimal density.

    Matching the (unique) optimal density is equivalent to being potentials,
    so this is a complete membership test for the family.
    """
    cd = density_from_potentials(inst, p)
    return bool(np.max(np.abs(cd.z - z_star.z)) <= tol)


def mirror_pairing(decomp):
    """Match each component with its transpose partner on a symmetric support.

    Component ``i`` maps to the component whose row projection equals the
    column projection of ``i`` and vice versa; self-transport supports always
    admit such a pairing. Raises when the support is not symmetric.
    """
    rows = [frozenset(r) for r in decomp.row_projections]
    cols = [frozenset(c) for c in decomp.col_projections]
    # projections of distinct components are disjoint, so the keys are unique
    by_projections = {key: j for j, key in enumerate(zip(rows, cols))}
    mirror = []
    for i in range(decomp.count):
        j = by_projections.get((cols[i], rows[i]))
        if j is None:
            raise ValidationError("support is not symmetric: no mirror component found")
        mirror.append(j)
    return tuple(mirror)


def symmetric_shift_interval(pd, mirror, pair):
    """Interval of one-parameter shifts preserving ``f' = g'`` along one mirror pair.

    For a mirror pair ``(i, j)``, the shift vector ``alpha = s e_i - s e_j``
    keeps the pair symmetric when the base potentials are symmetric; the
    returned ``(lo, hi)`` is the exact range of ``s`` admitted by the
    polytope with all other components unshifted. Self-mirrored components
    only admit ``s = 0``.
    """
    i, j = pair
    if mirror[i] != j or mirror[j] != i:
        raise ValidationError(f"components {pair} are not mirror partners")
    if i == j:
        return 0.0, 0.0
    direction = np.zeros(pd.n_components)
    direction[i] = 1.0
    direction[j] = -1.0
    coeff = direction[:, None] - direction[None, :]
    bound = np.isfinite(pd.dist) & ~np.eye(pd.n_components, dtype=bool)
    up = bound & (coeff > 0)
    down = bound & (coeff < 0)
    hi = np.min(pd.dist[up] / coeff[up], initial=np.inf)
    lo = np.max(pd.dist[down] / coeff[down], initial=-np.inf)
    return float(lo), float(hi)
