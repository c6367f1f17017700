"""The family of all potentials of a solved instance.

Fixing one potential pair, every other pair arises by adding a constant
``alpha[k]`` to ``f`` on the rows of component ``k`` and subtracting it from
``g`` on the columns. The admissible vectors form the difference-constraint
polytope ``T = {alpha : alpha[i] - alpha[j] <= a[i, j]}`` where ``a[i, j]``
is the smallest slack ``-u`` over the off-support cells of the block
``rows(C_i) x cols(C_j)``, and ``u = (f + g - cost) / epsilon`` is the
unclipped density, the expression the density and its support come from.
The slacks live at the unit-regularization normalization; :func:`apply_shifts`
multiplies by epsilon when shifting the stored rescaled potentials.

Every row and column meeting the support lies in one component's projection,
so ``a`` is a block reduction of ``u``: rows and columns are taken projection
by projection, ``np.maximum.reduceat`` takes the block maxima of ``u`` in
O(nm), first over rows, then over columns, and ``a`` is their negation;
unmatched rows and columns are in no projection and are left out. Support
cells need no masking, since each lies in a diagonal block, and diagonal
entries are zero by definition. An off-support cell has ``u <= tau``, the
support threshold, so its slack is at least ``-tau``; such slacks are
floored at zero, which keeps ``alpha = 0`` feasible.

Difference-constraint systems are canonical shortest-path objects: the
min-plus closure of ``a`` gives the tightest bound on each difference, pairs
whose two-way bounds sum to zero are forced equal, and the dimension of ``T``
is the number of equivalence classes of that rigidity relation (always at
least one: the global shift). The classes are counted on the mask of
forced-equal pairs by the labelling that the support components and the
Newton solver share (:func:`qrot.support._line_labels`). Because the
closure is tight, any feasible partial assignment extends, which lets
:func:`sample_shifts` draw one coordinate at a time with no repair.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    Potentials,
    ValidationError,
    _check_density,
    _unclipped_density,
    density_from_potentials,
)
from .support import _line_labels

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

    ``a[i, j]`` is the smallest slack ``-u`` (the negated unclipped density)
    over the off-support cells of block ``(i, j)``, floored at 0;
    ``a[i, i] = 0``. ``dist[i, j]`` is the tightest implied upper bound on
    ``alpha[i] - alpha[j]``. ``dimension`` counts the rigidity classes; it
    equals the number of components when no pair is forced equal and is
    always at least one.

    ``a`` and ``dist`` must be finite, or construction raises a
    ValidationError: every block has cells, so it bounds its difference, and
    :func:`compute_polytope` rejects a slack that overflows.
    """

    n_components: int
    a: np.ndarray
    dist: np.ndarray
    dimension: int
    rigid_pairs: tuple

    def __post_init__(self):
        for name in ("a", "dist"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"polytope matrix {name} has an entry that is not finite")


def _floyd_warshall(a):
    dist = a.copy()
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def _lines(projections):
    """The lines of all projections, one component after another, and each one's count."""
    sizes = np.array([len(run) for run in projections], dtype=np.intp)
    return np.fromiter(itertools.chain.from_iterable(projections), dtype=np.intp), sizes


def compute_polytope(inst, p, decomp, s):
    """Describe all potential pairs reachable from ``p`` by component shifts.

    Parameters
    ----------
    inst : Instance
    p : Potentials
        Converged potentials of the instance (duality gap at solver tolerance).
    decomp : ComponentDecomposition
    s : SupportSet
        Both derived from the density of ``p``: the projections of ``decomp``
        carry the support, and ``s.tau`` is the feasibility tolerance.

    ``a[i, j]`` is minus the largest unclipped density ``u = (f + g - cost) /
    epsilon`` of ``p`` over the block ``rows(C_i) x cols(C_j)``, whose cells
    are all off the support. Such a cell has ``u <= s.tau``, so slacks in
    ``[-s.tau, 0)`` are floored at 0 and ``alpha = 0`` stays feasible.
    Every block has cells, so every slack exists, and ``a`` and its closure
    ``dist`` are finite. Rigidity is decided to ``RIGID_TOL``.

    Raises
    ------
    PotentialConsistencyError
        If some slack is below ``-max(RIGID_TOL, s.tau)``, which can happen
        only when the potentials and the support come from different densities.
    ValidationError
        If some slack is not finite: ``(f + g - cost) / epsilon`` overflows
        on every cell of its block, as when ``cost / epsilon`` nears the
        float range.
    """
    count = decomp.count
    rows, row_sizes = _lines(decomp.row_projections)
    cols, col_sizes = _lines(decomp.col_projections)
    row_starts = np.cumsum(row_sizes) - row_sizes
    col_starts = np.cumsum(col_sizes) - col_sizes
    # a support cell joins its row and column into one component, so every
    # support cell lies in a diagonal block, which fill_diagonal overwrites
    u = np.maximum.reduceat(_unclipped_density(inst, p.f, p.g)[rows], row_starts, axis=0)
    a = -np.maximum.reduceat(u[:, cols], col_starts, axis=1)
    np.fill_diagonal(a, 0.0)

    tol = max(RIGID_TOL, s.tau)
    if np.any(a < -tol):
        i, j = np.argwhere(a < -tol)[0]
        raise PotentialConsistencyError(
            f"potentials inconsistent with support: a[{i},{j}] = {a[i, j]:.3e} < 0"
        )
    # with a >= 0 the closure has no negative cycle and a zero diagonal
    np.maximum(a, 0.0, out=a)
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError(
            f"slack a[{i},{j}] is not finite: (f + g - cost) / epsilon overflows"
            f" at epsilon {inst.epsilon!r}"
        )

    dist = _floyd_warshall(a)
    rigid_mask = dist + dist.T <= RIGID_TOL
    rigid = tuple((int(i), int(j)) for i, j in np.argwhere(np.triu(rigid_mask, 1)))
    dimension = _line_labels(rigid_mask)[2]

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
    return float(np.max(alpha[:, None] - alpha[None, :] - pd.a, initial=0.0))


def sample_shifts(pd, k, seed):
    """Draw ``k`` shift vectors from the polytope, anchored at ``alpha[0] = 0``.

    Coordinates are drawn in order: ``alpha[i]`` is uniform on
    ``[max_{j<i} alpha[j] - dist[j, i], min_{j<i} alpha[j] + dist[i, j]]``,
    the range the closure ``dist`` leaves it given the coordinates before it.
    That interval is never empty, since a feasible partial assignment of a
    closed difference-constraint system always extends, so no repair is
    needed; it is bounded, since ``dist`` is finite. The ``k`` vectors are
    drawn together, one coordinate per step, and the output is deterministic
    in ``seed``. Every returned vector is verified against all constraints
    to 1e-9.
    """
    count = pd.n_components
    rng = np.random.default_rng(seed)
    dist = pd.dist
    u = rng.random((max(k, 0), count))
    alpha = np.zeros_like(u)
    for i in range(1, count):
        lo = np.max(alpha[:, :i] - dist[:i, i], axis=1)
        hi = np.min(alpha[:, :i] + dist[i, :i], axis=1)
        alpha[:, i] = lo + (hi - lo) * u[:, i]

    for row in alpha:
        if _max_violation(pd, row) > 1e-9:
            raise AssertionError("sampled shift violates a constraint of a feasible polytope")
    return list(alpha)


def apply_shifts(p, decomp, alpha, eps, pd=None):
    """Shift potentials componentwise: ``f += eps * alpha[k]`` on the rows of
    component ``k`` and ``g -= eps * alpha[k]`` on its columns.

    The factor ``eps`` converts the unit-normalization shift back to the
    rescaled potentials. Rows and columns in no projection keep their values
    (they are flagged on the decomposition). When a polytope description is
    supplied, the shift is validated against its constraints.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (decomp.count,):
        raise ValidationError(
            f"dimension mismatch: alpha has shape {alpha.shape}, expected ({decomp.count},)"
        )
    if pd is not None and _max_violation(pd, alpha) > 1e-9:
        raise ValidationError("shift vector violates a polytope constraint")

    rows, row_sizes = _lines(decomp.row_projections)
    cols, col_sizes = _lines(decomp.col_projections)
    f = p.f.copy()
    g = p.g.copy()
    f[rows] += eps * np.repeat(alpha, row_sizes)
    g[cols] -= eps * np.repeat(alpha, col_sizes)
    return Potentials(f=f, g=g)


def verify_potentials(inst, p, z_star, tol=1e-8):
    """True iff the density induced by ``p`` reproduces the optimal density ``z_star``.

    Matching the (unique) optimal density is equivalent to being potentials,
    so this is a complete membership test for the family. Raises a
    ValidationError unless ``z_star`` is a nonnegative ``(n, m)`` matrix.
    """
    z_star = _check_density(inst, z_star)
    return bool(np.max(np.abs(density_from_potentials(inst, p) - z_star)) <= tol)


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
    # coeff is 0 on the diagonal and coeff[i, j] = 2 = -coeff[j, i], so both sides are bounded
    up = coeff > 0
    down = coeff < 0
    hi = np.min(pd.dist[up] / coeff[up])
    lo = np.max(pd.dist[down] / coeff[down])
    return float(lo), float(hi)
