"""Support extraction and its decomposition into components.

Two support cells are connected when a path of cells alternates between
changing only the row and only the column coordinate; this is bipartite-graph
connectivity, not topological connectivity. Components are computed by
array label propagation over the rows: every row's label falls to the
smallest row reachable from it, and columns and cells take their rows'
labels. Propagation starts from runs of consecutive rows that share a
column, so a support joined row by row needs no propagation round. The
Newton solver and the polytope's rigidity classes use the same labelling
(:func:`_line_labels`).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ValidationError

__all__ = ["SupportSet", "ComponentDecomposition", "support_set", "components"]

DEFAULT_TAU_REL = 1e-8  # default support threshold, relative to the largest density entry


@dataclass(frozen=True)
class SupportSet:
    mask: np.ndarray
    tau: float


def support_set(z, tau=None):
    """Boolean support mask ``z > tau`` of the density matrix ``z``.

    The default threshold is relative, ``tau = DEFAULT_TAU_REL * max(z)``:
    density entries scale like ``1 / epsilon``, so an absolute threshold
    would misclassify at small epsilon. A warning is raised when any entry
    sits within ten machine epsilons of the threshold, since the component
    count can flip on such versions of the density.
    """
    zmax = float(z.max()) if z.size else 0.0
    if tau is None:
        tau = DEFAULT_TAU_REL * zmax
    tau = float(tau)
    if tau < 0:
        raise ValidationError("support threshold must be nonnegative")
    if zmax > 0:
        fuzz = 10.0 * np.finfo(float).eps * max(zmax, 1.0)
        ambiguous = np.abs(z - tau) <= fuzz
        if np.any(ambiguous):
            i, j = np.argwhere(ambiguous)[0]
            warnings.warn(
                f"density entry z[{i},{j}] lies within 10 ulp of the support"
                f" threshold {tau:.3e}; component count may be unstable",
                stacklevel=2,
            )
    mask = z > tau
    mask.setflags(write=False)
    return SupportSet(mask=mask, tau=tau)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Labeled components of a support mask.

    ``labels[i, j]`` is -1 off support, otherwise the component id. Component
    ids are assigned in order of the smallest row index they touch, and the
    projections list each component's rows and columns, ascending. Rows and
    columns that meet no support cell are listed in ``unmatched_rows`` /
    ``unmatched_cols``; downstream consumers exclude them rather than guess a
    component.
    """

    labels: np.ndarray
    row_projections: tuple
    col_projections: tuple
    count: int
    unmatched_rows: tuple = ()
    unmatched_cols: tuple = ()


def _row_roots(mask, joined):
    """Smallest row index of each row's component in the bipartite graph ``mask``.

    ``joined[i]`` says whether rows ``i`` and ``i + 1`` share a column. Min-label
    hooking with pointer jumping, after Shiloach and Vishkin (1982). ``root``
    starts as a forest of stars: each run of consecutive rows joined this way
    hooks onto its first row (``np.maximum.accumulate`` over the run starts),
    and a row that starts a run is its own root. Each round every column
    takes the smallest root among its rows, every row the smallest of those
    among its columns, and each tree root hooks onto the smallest value any
    of its rows saw; pointer jumping then flattens the forest back into
    stars. Hooking the tree root, not only the row, merges whole trees at
    once, which keeps the round count small on long paths.

    Every label names a row of the same component and is never above the
    row's own index: the seed's run start is such a row, and later labels
    travel along alternating paths and only decrease. So the loop ends. At
    the fixed point a row sees no label below its own, so all rows of a
    column share one label, and by induction along paths so do all rows of
    a component. That label is a row of the component and at most every row
    index in it, hence its smallest row, whatever the seed. Rows meeting no
    column keep their own index.
    """
    n = mask.shape[0]
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = ~joined
    root = np.maximum.accumulate(np.where(run_start, np.arange(n), 0))
    while True:
        col_min = np.where(mask, root[:, None], n).min(axis=0, initial=n)
        row_min = np.where(mask, col_min, n).min(axis=1, initial=n)
        hooked = root.copy()
        np.minimum.at(hooked, root, row_min)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, root):
            return root
        root = hooked


def _projections(labels, count):
    """Lines of each label ``0 .. count - 1``, ascending, as tuples of ints.

    Unmatched lines (label -1) sort first, into the piece ``np.split`` puts
    before the first run.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(count))
    return tuple(tuple(run.tolist()) for run in np.split(order, starts)[1:])


def _line_labels(mask):
    """Component id of every row and every column of ``mask``, and the component count.

    Returns ``(row_label, col_label, count)``. Every row takes the smallest
    row of its component (:func:`_row_roots`), and the ids are the ranks of
    those roots among the rows that meet the support, so ids are dense and
    follow each component's smallest row. A column takes the id of its first
    support row. A row or column that meets no cell is labelled -1.

    When each pair of consecutive rows shares a column and every column
    meets the support, the seed of :func:`_row_roots` already joins every row
    into one component, so every line gets id 0 at once, with no hooking
    round.
    """
    n, m = mask.shape
    if not mask.size:
        return np.full(n, -1), np.full(m, -1), 0
    joined = (mask[1:] & mask[:-1]).any(axis=1)
    first = mask.argmax(axis=0)
    matched_cols = mask[first, np.arange(m)]
    if joined.all() and matched_cols.all():
        return np.zeros(n, dtype=int), np.zeros(m, dtype=int), 1
    root = _row_roots(mask, joined)
    matched_rows = mask.any(axis=1)
    is_root = matched_rows & (root == np.arange(n))
    row_label = np.where(matched_rows, np.cumsum(is_root)[root] - 1, -1)
    col_label = np.where(matched_cols, row_label[first], -1)
    return row_label, col_label, int(np.count_nonzero(is_root))


def components(s):
    """Decompose a support mask into connected components.

    The ids are those of :func:`_line_labels`: they follow each component's
    smallest row. A support cell carries its row's id.
    """
    mask = s.mask
    row_label, col_label, count = _line_labels(mask)
    labels = np.where(mask, row_label[:, None], -1)
    labels.setflags(write=False)
    return ComponentDecomposition(
        labels=labels,
        row_projections=_projections(row_label, count),
        col_projections=_projections(col_label, count),
        count=count,
        unmatched_rows=tuple(np.flatnonzero(row_label < 0).tolist()),
        unmatched_cols=tuple(np.flatnonzero(col_label < 0).tolist()),
    )
