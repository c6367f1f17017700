"""Support extraction and its decomposition into components.

Two support cells are connected when a path of cells alternates between
changing only the row and only the column coordinate; this is bipartite-graph
connectivity, not topological connectivity. Components are computed by
array label propagation over the rows: every row's label falls to the
smallest row reachable from it, and columns and cells take their rows'
labels.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ValidationError

__all__ = ["SupportSet", "ComponentDecomposition", "support_set", "components", "partition_check"]

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
    ids are assigned in order of the smallest row index they touch. Rows and
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


def _row_roots(mask):
    """Smallest row index of each row's component in the bipartite graph ``mask``.

    Min-label hooking with pointer jumping, after Shiloach and Vishkin (1982).
    ``root`` starts as ``arange(n)`` and is always a forest of stars. Each
    round every column takes the smallest root among its rows, every row the
    smallest of those among its columns, and each tree root hooks onto the
    smallest value any of its rows saw; pointer jumping then flattens the
    forest back into stars. Hooking the tree root, not only the row, merges
    whole trees at once, which keeps the round count small on long paths.

    A label only ever decreases and always names a row of the same component
    (it travelled there along an alternating path), so the loop ends. A row
    never sees a label above its own, and at the fixed point it sees none
    below it either, so all rows of a column share one label, and by
    induction along paths so do all rows of a component. That label is a row
    of the component and at most every row index in it, hence its smallest
    row. Rows meeting no column keep their own index.
    """
    n = mask.shape[0]
    root = np.arange(n)
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


def _label_runs(labels, count):
    """Lines sorted by label (stable sort), and where each label's run starts.

    Unmatched lines (label -1) sort first, before the first run, where
    ``np.minimum.reduceat`` over these starts never looks and which
    ``np.split`` at them puts in its first piece.
    """
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(count))


def _projections(labels, count):
    """Lines of each label ``0 .. count - 1``, ascending, as tuples of ints."""
    order, starts = _label_runs(labels, count)
    return tuple(tuple(run.tolist()) for run in np.split(order, starts)[1:])


def components(s):
    """Decompose a support mask into connected components.

    Every row takes the smallest row of its component (:func:`_row_roots`);
    the component ids are the ranks of those roots among the matched rows,
    so ids follow each component's smallest row. A support cell carries its
    row's id, and a column the id of any row it meets.
    """
    mask = s.mask
    n = mask.shape[0]
    root = _row_roots(mask)
    matched_rows = mask.any(axis=1)
    is_root = matched_rows & (root == np.arange(n))
    row_label = np.where(matched_rows, np.cumsum(is_root)[root] - 1, -1)
    labels = np.where(mask, row_label[:, None], -1)
    col_label = labels.max(axis=0, initial=-1)
    count = int(np.count_nonzero(is_root))
    labels.setflags(write=False)
    return ComponentDecomposition(
        labels=labels,
        row_projections=_projections(row_label, count),
        col_projections=_projections(col_label, count),
        count=count,
        unmatched_rows=tuple(np.flatnonzero(~matched_rows).tolist()),
        unmatched_cols=tuple(np.flatnonzero(col_label < 0).tolist()),
    )


def partition_check(d):
    """True iff the row projections partition the rows meeting the support, and likewise for columns."""
    rows_in_support = set(np.unique(np.nonzero(np.any(d.labels >= 0, axis=1))[0]).tolist())
    cols_in_support = set(np.unique(np.nonzero(np.any(d.labels >= 0, axis=0))[0]).tolist())
    for projections, covered in (
        (d.row_projections, rows_in_support),
        (d.col_projections, cols_in_support),
    ):
        seen = set()
        for proj in projections:
            block = set(proj)
            if block & seen:
                return False
            seen |= block
        if seen != covered:
            return False
    return True
