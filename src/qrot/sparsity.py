"""Vanishing-regularization experiments.

For one-dimensional marginals with quadratic cost, the unregularized optimal
plan is the monotone rearrangement of sorted atoms, so the sparsity of the
regularized coupling can be measured exactly against it: as epsilon shrinks,
the support of the regularized coupling contracts into a neighborhood of the
monotone plan, and the rescaled potentials converge. :func:`epsilon_sweep`
runs that experiment on a loaded ``quadratic_1d`` instance
(:class:`qrot.io.LoadedInstance`), whose points place the cells and whose
weights and references it solves at each epsilon.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .model import (
    ValidationError,
    _epsilon,
    _normalized_weights,
    density_from_potentials,
    with_epsilon,
)
from .solver import SolverConfig, solve
from .support import support_set

__all__ = [
    "SweepResult",
    "monotone_coupling_1d",
    "epsilon_sweep",
    "sweep_to_csv",
]


def _northwest_corner(mu, nu):
    """Greedy plan matching cumulative masses of two float weight arrays."""
    plan = np.zeros((mu.size, nu.size))
    remaining_mu = mu.copy()
    remaining_nu = nu.copy()
    i = j = 0
    while i < mu.size and j < nu.size:
        t = min(remaining_mu[i], remaining_nu[j])
        plan[i, j] = t
        remaining_mu[i] -= t
        remaining_nu[j] -= t
        # the min side lands on exact zero, so every step advances an index
        if remaining_mu[i] <= 0:
            i += 1
        if remaining_nu[j] <= 0:
            j += 1
    return plan


def monotone_coupling_1d(xs, mu, ys, nu):
    """Monotone plan of sorted 1-d marginals, optimal for quadratic cost.

    Returns the plan's coupling weights, an ``(n, m)`` array with the
    normalized marginals as its row and column sums. Input points must be
    finite and sorted ascending.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for name, points in (("xs", xs), ("ys", ys)):
        if not (np.isfinite(points).all() and np.all(np.diff(points) >= 0)):
            raise ValidationError(f"{name} must be finite and sorted ascending")
    mu, nu = _normalized_weights(mu, "mu"), _normalized_weights(nu, "nu")
    if xs.shape != mu.shape or ys.shape != nu.shape:
        raise ValidationError(
            f"dimension mismatch: points have shapes {xs.shape}, {ys.shape},"
            f" expected {mu.shape}, {nu.shape}"
        )
    return _northwest_corner(mu, nu)


def _epsilon_schedule(epsilons):
    """The schedule as floats; a ValidationError unless each epsilon is finite
    and positive and they strictly decrease."""
    eps_list = [_epsilon(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("epsilons must be strictly decreasing")
    return eps_list


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon records of one sweep; epsilons are strictly decreasing."""

    epsilons: tuple
    support_sizes: tuple
    containment: tuple
    delta: float
    potentials_trace: tuple
    reports: tuple


def epsilon_sweep(loaded, epsilons, delta, cfg=None):
    """Solve a loaded instance along a decreasing epsilon schedule and measure sparsity.

    ``loaded`` is a :class:`qrot.io.LoadedInstance` with the points of a
    ``quadratic_1d`` generator. Each epsilon of the schedule (finite, positive
    and strictly decreasing) solves a :func:`with_epsilon` copy of its
    validated instance, with the file's weights and references. For each
    epsilon, records the support size of the solved coupling and the fraction
    of its mass on cells within (coordinate, Euclidean) distance ``delta`` of
    some cell of the monotone plan; ``delta`` must be finite and nonnegative.
    Each solve after the first is warm started from the previous epsilon's
    potentials, as they are; its opening sweep (:func:`qrot.solver.solve`)
    makes them exact for the new epsilon row by row and column by column
    before Newton steps run. A non-converged solve is recorded through its
    report and the sweep continues.
    """
    if loaded.x is None or loaded.y is None:
        raise ValidationError("sweep requires an instance with a quadratic_1d generator")
    eps_list = _epsilon_schedule(epsilons)
    delta = float(delta)
    if not (np.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta!r}")

    family = loaded.instance
    base = monotone_coupling_1d(loaded.x, family.mu, loaded.y, family.nu)
    near = _neighborhood_mask(loaded.x, loaded.y, base > 0, delta)
    cfg = cfg or SolverConfig()

    support_sizes = []
    containment = []
    trace = []
    reports = []
    warm = None
    for eps in eps_list:
        inst = with_epsilon(family, eps)
        p, report = solve(inst, cfg, init=warm)
        warm = p
        z = density_from_potentials(inst, p)
        mask = support_set(z).mask
        support_sizes.append(int(mask.sum()))
        # measure the escaping mass: off-neighborhood cells of a sparse
        # solution are exact zeros, so full containment comes out as exact 1.0
        pi = z * inst.ref_weights
        total = float(pi.sum())
        outside = float(pi[~near].sum())
        containment.append(1.0 - outside / total if total > 0 else 0.0)
        trace.append(p)
        reports.append(report)

    return SweepResult(
        epsilons=tuple(eps_list),
        support_sizes=tuple(support_sizes),
        containment=tuple(containment),
        delta=delta,
        potentials_trace=tuple(trace),
        reports=tuple(reports),
    )


def _neighborhood_mask(xs, ys, base_mask, delta):
    """Cells within Euclidean distance delta of some base-support cell, in (x, y) coordinates.

    Cell ``(i, j)`` is near base cell ``k`` when ``dx[i, k]**2 + dy[j, k]**2 <=
    delta**2 + 1e-15``. Base cells of one base row share their ``dx**2``, so
    the test over a row's cells is one test against ``dmin[j]``, the smallest
    ``dy**2`` among them: rounded addition ``fl(a + b)`` is nondecreasing in
    ``b``, so the minimum taken before the addition gives the same outcome as
    the tests taken one by one, bit for bit. Each base row then ORs its test
    into the slice of grid rows from the first to the last with ``dx**2``
    within the bound (rows inside the slice but beyond the bound add nothing,
    since a squared term alone never exceeds the rounded sum). The memory
    stays ``O(n m)``, with a loop over base rows and none over base cells.
    """
    near = np.zeros((xs.size, ys.size), dtype=bool)
    bi, bj = np.nonzero(base_mask)  # row-major: each base row's cells are one run
    if bi.size == 0:
        return near
    rows, starts = np.unique(bi, return_index=True)
    bound = delta**2 + 1e-15
    dx2 = (xs[:, None] - xs[rows][None, :]) ** 2
    dmin = np.minimum.reduceat((ys[:, None] - ys[bj][None, :]) ** 2, starts, axis=1)
    within = dx2 <= bound
    first = within.argmax(axis=0)
    stop = xs.size - within[::-1].argmax(axis=0)
    for r in np.flatnonzero(within.any(axis=0)):
        a, b = first[r], stop[r]
        near[a:b] |= dx2[a:b, r, None] + dmin[None, :, r] <= bound
    return near


def sweep_to_csv(result, path):
    """One CSV row per epsilon, for external plotting.

    The ``iterations`` column counts the solver's sweeps plus Newton steps.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "epsilon",
                "converged",
                "iterations",
                "support_size",
                "containment",
                "primal_value",
                "dual_value",
                "duality_gap",
            ]
        )
        for eps, size, frac, report in zip(
            result.epsilons, result.support_sizes, result.containment, result.reports
        ):
            writer.writerow(
                [
                    repr(eps),
                    int(report.converged),
                    report.iterations,
                    size,
                    repr(frac),
                    repr(report.primal_value),
                    repr(report.dual_value),
                    repr(report.duality_gap),
                ]
            )

