"""Shared instance builders and independent test oracles."""

import numpy as np

from qrot import Potentials, ValidationError, project, validate_instance
from qrot.io import instance_from_dict
from qrot.sparsity import _northwest_corner


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion test
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {status} {name}")


# ---------------------------------------------------------------------------
# named instances


def quadratic_doc(n=8):
    """Instance document of n uniform-weight points on [0, 1] on both sides,
    quadratic cost (``quadratic_1d`` generator), epsilon 1."""
    xs = np.linspace(0, 1, n).tolist()
    w = [1.0 / n] * n
    return {
        "schema_version": 1,
        "mu": w,
        "nu": w,
        "generator": {"kind": "quadratic_1d", "x": xs, "y": xs},
        "epsilon": 1.0,
    }


def two_point_offdiag(gamma, eps=1.0):
    """Uniform two-point marginals, cost (2 + gamma) off the diagonal."""
    cost = (2.0 + gamma) * (1.0 - np.eye(2))
    return validate_instance([0.5, 0.5], [0.5, 0.5], cost, epsilon=eps)


def two_point_ondiag(gamma, eps=1.0):
    """Self-transport counterexample: cost (2 + gamma) on the diagonal."""
    cost = (2.0 + gamma) * np.eye(2)
    return validate_instance([0.5, 0.5], [0.5, 0.5], cost, epsilon=eps)


def midpoint_grid(size, cost):
    """Uniform weights on the ``size`` midpoints of [0, 1] on both sides, cost
    ``cost(x, y)`` on the grid, epsilon 1."""
    xs = (np.arange(size) + 0.5) / size
    w = np.full(size, 1.0 / size)
    return validate_instance(w, w, cost(xs[:, None], xs[None, :]))


def block_cost(gamma):
    """Cost ``2 + gamma`` off the two half-interval blocks of [0, 1]^2, zero on them."""

    def cost(x, y):
        same_block = ((x < 0.5) & (y < 0.5)) | ((x > 0.5) & (y > 0.5))
        return (2.0 + gamma) * (~same_block).astype(float)

    return cost


def zero_cost_skewed(lam, eps=1.0):
    """Zero cost, uniform references, marginals (1 - lam, lam) on both sides."""
    return validate_instance(
        [1.0 - lam, lam],
        [1.0 - lam, lam],
        np.zeros((2, 2)),
        mu_tilde=[0.5, 0.5],
        nu_tilde=[0.5, 0.5],
        epsilon=eps,
    )


def offdiag_family(alpha, beta, gamma=None):
    """The two-parameter potential family of the off-diagonal-cost instance."""
    from qrot import Potentials

    return Potentials(f=np.array([alpha, beta]), g=np.array([2.0 - alpha, 2.0 - beta]))


# ---------------------------------------------------------------------------
# random generators


def random_weights(rng, size):
    w = rng.uniform(0.2, 1.0, size)
    return w / w.sum()


def random_instance(
    rng,
    n=None,
    m=None,
    equal_refs=False,
    eps=None,
    cost_kind="uniform",
    max_size=8,
):
    n = int(rng.integers(2, max_size + 1)) if n is None else n
    m = int(rng.integers(2, max_size + 1)) if m is None else m
    mu = random_weights(rng, n)
    nu = random_weights(rng, m)
    mu_tilde = mu if equal_refs else random_weights(rng, n)
    nu_tilde = nu if equal_refs else random_weights(rng, m)
    if cost_kind == "uniform":
        cost = rng.uniform(0.0, 1.0, (n, m))
    elif cost_kind == "gaussian":
        cost = rng.normal(0.0, 1.0, (n, m))
    else:
        raise ValueError(cost_kind)
    if eps is None:
        eps = float(rng.uniform(0.3, 3.0))
    return validate_instance(mu, nu, cost, mu_tilde=mu_tilde, nu_tilde=nu_tilde, epsilon=eps)


def random_symmetric_instance(rng, n=5, eps=1.0, equal_refs=False):
    mu = random_weights(rng, n)
    mu_tilde = mu if equal_refs else random_weights(rng, n)
    cost = rng.uniform(0.0, 1.0, (n, n))
    cost = 0.5 * (cost + cost.T)
    return validate_instance(mu, mu, cost, mu_tilde=mu_tilde, nu_tilde=mu_tilde, epsilon=eps)


def tiny_eps_symmetric_instance():
    """Symmetric uniform-weight 4 x 4 instance at eps = 1e-12.

    The density ``(f + g - cost) / eps`` amplifies the rounding of ``f + g -
    cost`` by 1e12; after 300 iterations of ``solve_symmetric`` a slack that
    was rounded apart from the density read -1.4e-5 on an off-support cell.
    """
    rng = np.random.default_rng(25)
    cost = rng.uniform(0.0, 1.0, (4, 4))
    weights = np.full(4, 0.25)
    return validate_instance(weights, weights, (cost + cost.T) / 2, epsilon=1e-12)


def tied_cost_instance(seed):
    """ROADMAP item 1's recipe: 40 rows, 4 columns, tied quadratic costs on a
    grid of five points, a row reference away from mu, and eps = 1e-6 * max cost."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 5, 40) / 4
    y = rng.integers(0, 5, 4) / 4
    cost = (x[:, None] - y[None, :]) ** 2
    mu_tilde = rng.uniform(0.5, 1.5, 40)
    return validate_instance(
        np.full(40, 1 / 40),
        np.full(4, 1 / 4),
        cost,
        mu_tilde=mu_tilde / mu_tilde.sum(),
        nu_tilde=np.full(4, 1 / 4),
        epsilon=1e-6 * cost.max(),
    )


def block_instance(rng, k, rows=2, cols=2, spread=0.3):
    """``k`` diagonal blocks of ``rows x cols`` cells, one support component each.

    Cost is U[0, 1] inside a block and 3 between blocks, marginals are
    balanced per block and stay within ``spread`` of uniform, references are
    random and epsilon is ``1 / (k * rows)``.
    """
    n, m = k * rows, k * cols
    cost = np.full((n, m), 3.0)
    mu = rng.uniform(1.0 - spread, 1.0 + spread, n)
    nu = rng.uniform(1.0 - spread, 1.0 + spread, m)
    for b in range(k):
        r, c = slice(b * rows, (b + 1) * rows), slice(b * cols, (b + 1) * cols)
        cost[r, c] = rng.uniform(0.0, 1.0, (rows, cols))
        nu[c] *= mu[r].sum() / nu[c].sum()
    mu_tilde = rng.uniform(1.0 - spread, 1.0 + spread, n)
    nu_tilde = rng.uniform(1.0 - spread, 1.0 + spread, m)
    return validate_instance(
        mu / mu.sum(),
        nu / nu.sum(),
        cost,
        mu_tilde=mu_tilde / mu_tilde.sum(),
        nu_tilde=nu_tilde / nu_tilde.sum(),
        epsilon=1.0 / n,
    )


def random_feasible_density(rng, inst, n_plans=3):
    """Random point of the coupling-density set, without running any solver.

    Mixes the independent coupling with northwest-corner plans taken under
    random row/column orderings; all of these are feasible, hence so is any
    convex combination.
    """
    densities = [np.outer(inst.mu_ratio, inst.nu_ratio)]
    for _ in range(n_plans):
        rows = rng.permutation(inst.n)
        cols = rng.permutation(inst.m)
        plan = _northwest_corner(inst.mu[rows], inst.nu[cols])
        full = np.zeros((inst.n, inst.m))
        full[np.ix_(rows, cols)] = plan
        densities.append(full / inst.ref_weights)
    weights = rng.dirichlet(np.ones(len(densities)))
    return sum(w * z for w, z in zip(weights, densities))


def project_point(inst, point):
    """Dykstra projection of ``point`` onto the coupling densities of ``inst``:
    :func:`qrot.project` of the same weights with cost ``-point`` at epsilon 1,
    whose run starts from ``point`` itself, bit for bit."""
    cost = -np.asarray(point, dtype=float)
    return project(validate_instance(inst.mu, inst.nu, cost, inst.mu_tilde, inst.nu_tilde))


# ---------------------------------------------------------------------------
# brute-force oracles


def bisect_root(thresholds, weights, target, iters=200):
    """Bisection on the increasing piecewise-linear function, no segment logic."""
    thresholds = np.asarray(thresholds, float)
    weights = np.asarray(weights, float)

    def value(t):
        return float(np.sum(weights * np.maximum(t - thresholds, 0.0)))

    lo = float(thresholds.min()) - 1.0
    hi = float(thresholds.max()) + target / float(weights.min()) + 1.0
    while value(hi) < target:
        hi = 2.0 * hi + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if value(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bfs_components(mask):
    """Fields of the component decomposition of ``mask``, by breadth-first search.

    Rows are scanned in increasing order and each unvisited row that meets
    the support starts a new component, so ids follow each component's
    smallest row. Returns a dict keyed by the ``ComponentDecomposition``
    field names.
    """
    n, m = mask.shape
    row_id = [-1] * n
    col_id = [-1] * m
    row_projections, col_projections = [], []
    for start in range(n):
        if row_id[start] >= 0 or not mask[start].any():
            continue
        cid = len(row_projections)
        row_id[start] = cid
        rows, cols, frontier = [start], [], [start]
        while frontier:
            reached = []
            for i in frontier:
                for j in np.flatnonzero(mask[i]).tolist():
                    if col_id[j] < 0:
                        col_id[j] = cid
                        cols.append(j)
                        for k in np.flatnonzero(mask[:, j]).tolist():
                            if row_id[k] < 0:
                                row_id[k] = cid
                                rows.append(k)
                                reached.append(k)
            frontier = reached
        row_projections.append(tuple(sorted(rows)))
        col_projections.append(tuple(sorted(cols)))
    return {
        "labels": np.where(mask, np.array(row_id)[:, None], -1),
        "row_projections": tuple(row_projections),
        "col_projections": tuple(col_projections),
        "count": len(row_projections),
        "unmatched_rows": tuple(i for i in range(n) if row_id[i] < 0),
        "unmatched_cols": tuple(j for j in range(m) if col_id[j] < 0),
    }


def union_find_labels(mask):
    """``(row_label, col_label, count)`` of ``mask``, by union-find over its cells.

    Nodes ``0 .. n - 1`` are the rows and ``n .. n + m - 1`` the columns; each
    support cell unites its row and its column. Ids follow each component's
    smallest row, and a row or column that meets no cell gets -1, as
    :func:`qrot.support._line_labels` promises.
    """
    n, m = mask.shape
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in np.argwhere(mask).tolist():
        a, b = find(i), find(n + j)
        parent[max(a, b)] = min(a, b)
    ids = {}
    row_label = [ids.setdefault(find(i), len(ids)) if mask[i].any() else -1 for i in range(n)]
    col_label = [ids[find(n + j)] if mask[:, j].any() else -1 for j in range(m)]
    return np.array(row_label, dtype=int), np.array(col_label, dtype=int), len(ids)


def zero_cost_closed_form(inst):
    """Closed-form solution for zero cost, when the density has full support.

    If ``min_i mu[i]/mu_tilde[i] + min_j nu[j]/nu_tilde[j] > 1`` the optimal
    density is ``z[i, j] = mu[i]/mu_tilde[i] + nu[j]/nu_tilde[j] - 1`` with
    explicit potentials; returns ``(Potentials, z)`` with ``z`` read-only.
    Otherwise the support is not full and the solver must be used; returns
    ``None``.
    """
    if np.any(inst.cost != 0):
        raise ValidationError("nonzero cost")
    r = inst.mu_ratio
    s = inst.nu_ratio
    if r.min() + s.min() <= 1.0:
        return None
    z = r[:, None] + s[None, :] - 1.0
    p = Potentials(f=inst.epsilon * (r - 0.5), g=inst.epsilon * (s - 0.5))
    z.setflags(write=False)
    return p, z


def partition_check(d):
    """True iff the row projections of the decomposition ``d`` partition the
    rows meeting its support, and likewise for columns."""
    rows_in_support = set(np.flatnonzero(np.any(d.labels >= 0, axis=1)).tolist())
    cols_in_support = set(np.flatnonzero(np.any(d.labels >= 0, axis=0)).tolist())
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


def brute_components(mask):
    """Transitive closure of the alternating-path relation on support cells."""
    groups = [{(int(i), int(j))} for i, j in np.argwhere(mask)]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                touches = any(
                    a[0] == b[0] or a[1] == b[1] for a in groups[i] for b in groups[j]
                )
                if touches:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    return {frozenset(g) for g in groups}


def brute_polytope(inst, p, decomp, s, tol=1e-9):
    """``a``, ``dist``, rigid pairs and dimension, one component block at a time."""
    count = decomp.count
    slack = -((p.f[:, None] + p.g[None, :] - inst.cost) / inst.epsilon)
    off_slack = np.where(s.mask, np.inf, slack)  # a block with no off-support cell gives inf
    a = np.full((count, count), np.inf)
    for i in range(count):
        # slack minima of component i's rows, one per column
        row_block = off_slack[list(decomp.row_projections[i])].min(axis=0)
        for j in range(count):
            if i != j:
                a[i, j] = row_block[list(decomp.col_projections[j])].min()
    np.fill_diagonal(a, 0.0)
    # an off-support cell holds density up to tau, so slacks down to -tau are
    # floored: the cell is off the support whatever its sign
    a = np.maximum(a, 0.0)
    dist = a.copy()
    for k in range(count):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    rigid = tuple(
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if dist[i, j] + dist[j, i] <= tol
    )
    cls = list(range(count))
    for i, j in rigid:
        old, new = cls[i], cls[j]
        cls = [new if c == old else c for c in cls]
    return a, dist, rigid, len(set(cls))


# ---------------------------------------------------------------------------
# reports


def schema2_report(doc, analysis):
    """The schema-2 report with the content of the schema-3 report ``doc``.

    Schema 2 also stored the ``support``, ``components`` and ``polytope``
    blocks and ``provenance.tau_rel``, as ``qrot analyze`` writes them for the
    report; ``analysis`` is that output, parsed.
    """
    return {
        **doc,
        "schema_version": 2,
        **{key: analysis[key] for key in ("support", "components", "polytope")},
        "provenance": {**doc["provenance"], "tau_rel": analysis["provenance"]["tau_rel"]},
    }


def schema1_report(doc):
    """The schema-1 report with the content of the schema-2 report ``doc``.

    Schema 1 also stored the expanded cost in place of a generator echo,
    ``density.pi = z * outer(mu_tilde, nu_tilde)`` and ``support.mask``
    (``components.labels >= 0`` as 0/1).
    """
    instance = {k: v for k, v in doc["instance"].items() if k != "generator"}
    instance["cost"] = instance_from_dict(doc["instance"]).instance.cost.tolist()
    # the stored weights: validating them again may renormalize in the last bit
    ref_weights = np.outer(instance["mu_tilde"], instance["nu_tilde"])
    z = np.array(doc["density"]["z"])
    mask = np.array(doc["components"]["labels"]) >= 0
    return {
        **doc,
        "schema_version": 1,
        "instance": instance,
        "density": {**doc["density"], "pi": (z * ref_weights).tolist()},
        "support": {**doc["support"], "mask": mask.astype(int).tolist()},
    }
