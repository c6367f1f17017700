"""The four benchmark workloads: instance generation, CLI arguments, output checks.

Every instance is drawn from ``numpy.random.default_rng([seed, salt, index])``,
so one seed always yields the same files. The program under test only ever
sees those files. Residual and duality-gap checks use this module's own numpy
code on the arrays generated here; they do not trust the ``report`` block a
report carries, nor qrot's ``duality_gap``. Sampled polytope shifts are
checked with qrot's own ``apply_shifts`` and ``verify_potentials``, which
define what a valid shift is.
"""

import csv
import json
import zlib

import numpy as np

import qrot
from qrot.io import decode_extended

TOL_RESIDUAL = 1e-10  # qrot's default SolverConfig.tol_residual, which the workloads keep
GAP_TOL = 1e-8  # |primal - dual| <= GAP_TOL * max(1, |primal|)
CONTAINMENT_FLOOR = 0.999  # mass within delta of the monotone plan at the smallest epsilon


def _weights(rng, size, spread=0.5):
    w = rng.uniform(1.0 - spread, 1.0 + spread, size)
    return w / w.sum()


def _jittered_points(rng, size):
    """One uniform point in each of ``size`` equal cells of [0, 1]; sorted by construction.

    Plain sorted uniform points leave some gaps several times wider than
    others, and the sweep count at small epsilon follows the widest gaps:
    per-instance sweep counts then vary about twice as much, which a run's
    median cannot average away.
    """
    return (np.arange(size) + rng.uniform(0.0, 1.0, size)) / size


class Workload:
    """One workload: a pool of generated instances and one CLI operation per instance."""

    name = ""
    # Distinct instances per run, cycled across the run's workers. Where the
    # work per instance varies, the pool holds about one instance per timed
    # operation, so the run's median averages over many instances.
    pool = 8
    out_suffix = ".json"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.instances = []

    def rng(self, index):
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), index])

    def input_path(self, index):
        return f"{self.workdir}/inst{index}.json"

    def setup(self, run_cli):
        """Generate and write the instance pool; ``run_cli`` runs set-up CLI calls."""
        for index in range(self.pool):
            inst, doc = self.generate(self.rng(index))
            self.instances.append(inst)
            with open(self.input_path(index), "w") as fh:
                json.dump(doc, fh)

    def shape(self):
        first = self.instances[0]
        return {"n": int(first["mu"].size), "m": int(first["nu"].size), "epsilon": first["eps"]}

    def generate(self, rng):
        raise NotImplementedError

    def argv(self, index, out):
        """``qrot solve`` on the instance; workloads running another command override this."""
        return ["solve", self.input_path(index), "--out", out]

    def verify(self, index, out):
        """Check one output file; returns (list of failure reasons, residual, |gap|)."""
        raise NotImplementedError


def check_report(inst, doc, symmetric=False):
    """Recompute residual and gap of a written solve report from its density and potentials."""
    reasons = []
    if not doc["report"]["converged"]:
        reasons.append("converged is false")
    f = np.asarray(doc["potentials"]["f"], float)
    g = np.asarray(doc["potentials"]["g"], float)
    z = np.asarray(doc["density"]["z"], float)
    if symmetric and not np.array_equal(f, g):
        reasons.append("symmetric solve returned f != g")
    c, mu, nu, mt, nt, eps = (inst[k] for k in ("cost", "mu", "nu", "mu_tilde", "nu_tilde", "eps"))
    if z.shape != c.shape or f.shape != mu.shape or g.shape != nu.shape:
        return reasons + ["output arrays have the wrong shape"], float("inf"), float("inf")
    ref = np.outer(mt, nt)
    residual = max(
        float(np.max(np.abs(z @ nt - mu / mt))), float(np.max(np.abs(mt @ z - nu / nt)))
    )
    z_fg = np.maximum(0.0, (f[:, None] + g[None, :] - c) / eps)
    primal = float(np.sum(c * z * ref) + 0.5 * eps * np.sum(z * z * ref))
    dual = float(f @ mu + g @ nu - 0.5 * eps * np.sum(z_fg * z_fg * ref))
    gap = abs(primal - dual)
    if residual > TOL_RESIDUAL:
        reasons.append(f"marginal residual {residual:.3e} > {TOL_RESIDUAL:g}")
    if gap > GAP_TOL * max(1.0, abs(primal)):
        reasons.append(f"duality gap {gap:.3e} above bound")
    return reasons, residual, gap


def _with_cost(inst):
    """The quadratic cost of a 1-d instance; pools keep only the points, to stay out of
    the worker's peak memory."""
    x, y = inst["x"], inst["y"]
    return dict(inst, cost=(x[:, None] - y[None, :]) ** 2)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Solve1D(Workload):
    """``qrot solve`` on 1-d quadratic-cost instances with general references."""

    name = "solve_1d"
    pool = 40
    n = 200
    eps = 0.01

    def generate(self, rng):
        x = _jittered_points(rng, self.n)
        y = _jittered_points(rng, self.n)
        mu, nu, mt, nt = (_weights(rng, self.n) for _ in range(4))
        inst = {"mu": mu, "nu": nu, "mu_tilde": mt, "nu_tilde": nt, "eps": self.eps, "x": x, "y": y}
        doc = {
            "schema_version": 1,
            "mu": mu.tolist(), "nu": nu.tolist(),
            "mu_tilde": mt.tolist(), "nu_tilde": nt.tolist(),
            "epsilon": self.eps,
            "generator": {"kind": "quadratic_1d", "x": x.tolist(), "y": y.tolist()},
        }
        return inst, doc

    def verify(self, index, out):
        return check_report(_with_cost(self.instances[index]), _load(out))


class SolveSymmetricDense(Workload):
    """``qrot solve`` on self-transport instances, the only path through ``solve_symmetric``."""

    name = "solve_symmetric_dense"
    n = 120
    eps = 0.1

    def generate(self, rng):
        a = rng.uniform(0.0, 1.0, (self.n, self.n))
        cost = np.triu(a) + np.triu(a, 1).T
        mu = _weights(rng, self.n)
        mt = _weights(rng, self.n)
        inst = {"mu": mu, "nu": mu, "mu_tilde": mt, "nu_tilde": mt, "eps": self.eps, "cost": cost}
        doc = {
            "schema_version": 1,
            "mu": mu.tolist(), "nu": mu.tolist(),
            "mu_tilde": mt.tolist(), "nu_tilde": mt.tolist(),
            "epsilon": self.eps, "cost": cost.tolist(), "symmetric": True,
        }
        return inst, doc

    def verify(self, index, out):
        return check_report(self.instances[index], _load(out), symmetric=True)


class AnalyzeBlocks(Workload):
    """``qrot analyze report.json --samples 2`` on block-cost reports solved during set-up.

    Rows and columns come in two-cell blocks with random cost inside a block
    and cost 3 between blocks; marginals are balanced per block, so the
    support splits into exactly one component per block and the polytope of
    potentials has one dimension per block. Weights stay within 30% of
    uniform: with wider weights the first sweep can push rows above the
    between-block cost, and the solve then leaves sub-threshold density
    there that ``compute_polytope`` rejects (see the workload notes).
    """

    name = "analyze_blocks"
    pool = 4  # each instance costs a set-up solve; operation times barely depend on it
    n = 160
    block = 2
    samples = 2
    spread = 0.3

    @property
    def blocks(self):
        return self.n // self.block

    @property
    def eps(self):
        return 1.0 / self.n

    def report_path(self, index):
        return f"{self.workdir}/report{index}.json"

    def generate(self, rng):
        n, b = self.n, self.block
        cost = np.full((n, n), 3.0)
        for k in range(self.blocks):
            cost[k * b:(k + 1) * b, k * b:(k + 1) * b] = rng.uniform(0.0, 1.0, (b, b))
        mu = _weights(rng, n, self.spread)
        nu = rng.uniform(1.0 - self.spread, 1.0 + self.spread, n)
        for k in range(self.blocks):
            cells = slice(k * b, (k + 1) * b)
            nu[cells] *= mu[cells].sum() / nu[cells].sum()
        nu = nu / nu.sum()
        mt, nt = _weights(rng, n, self.spread), _weights(rng, n, self.spread)
        inst = {"mu": mu, "nu": nu, "mu_tilde": mt, "nu_tilde": nt, "eps": self.eps, "cost": cost}
        doc = {
            "schema_version": 1,
            "mu": mu.tolist(), "nu": nu.tolist(),
            "mu_tilde": mt.tolist(), "nu_tilde": nt.tolist(),
            "epsilon": self.eps, "cost": cost.tolist(),
        }
        return inst, doc

    def setup(self, run_cli):
        super().setup(run_cli)
        self.setup_rc = [
            run_cli(["solve", self.input_path(index), "--out", self.report_path(index)])
            for index in range(self.pool)
        ]

    def argv(self, index, out):
        return ["analyze", self.report_path(index), "--samples", str(self.samples), "--out", out]

    def verify(self, index, out):
        """Checks the analysis and, with the solve-report checks, the report it read."""
        report = _load(self.report_path(index))
        inst = self.instances[index]
        reasons, residual, gap = check_report(inst, report)
        if self.setup_rc[index] != 0:
            reasons.append(f"set-up solve exited {self.setup_rc[index]}")
        doc = _load(out)
        comp, poly = doc["components"], doc["polytope"]
        if comp["count"] != self.blocks or poly["dimension"] != self.blocks:
            reasons.append(
                f"{comp['count']} components of dimension {poly['dimension']},"
                f" expected {self.blocks}"
            )
        shifts = doc.get("sampled_shifts", [])
        if len(shifts) != self.samples:
            reasons.append(f"{len(shifts)} sampled shifts, expected {self.samples}")
        qinst = qrot.validate_instance(
            inst["mu"], inst["nu"], inst["cost"], inst["mu_tilde"], inst["nu_tilde"], inst["eps"]
        )
        pot = report["potentials"]
        p = qrot.Potentials(f=np.asarray(pot["f"], float), g=np.asarray(pot["g"], float))
        z_star = qrot.density_from_potentials(qinst, p)
        decomp = qrot.ComponentDecomposition(
            labels=np.asarray(comp["labels"], int),
            row_projections=tuple(tuple(r) for r in comp["row_projections"]),
            col_projections=tuple(tuple(c) for c in comp["col_projections"]),
            count=comp["count"],
        )
        pd = qrot.PolytopeDescription(
            n_components=poly["n_components"],
            a=decode_extended(poly["a"]),
            dist=decode_extended(poly["dist"]),
            dimension=poly["dimension"],
            rigid_pairs=tuple(tuple(r) for r in poly["rigid_pairs"]),
        )
        for alpha in shifts:
            try:
                q = qrot.apply_shifts(p, decomp, alpha, qinst.epsilon, pd)
            except qrot.ValidationError as exc:
                reasons.append(f"sampled shift rejected: {exc}")
                continue
            if not qrot.verify_potentials(qinst, q, z_star):
                reasons.append("shifted potentials do not reproduce the optimal density")
        return reasons, residual, gap


class Sweep1D(Workload):
    """``qrot sweep`` along a decreasing epsilon schedule on 1-d quadratic instances, to CSV."""

    name = "sweep_1d"
    pool = 40
    n = 100
    eps_list = (1.0, 0.1, 0.01, 0.001)
    delta = 0.1
    out_suffix = ".csv"

    def shape(self):
        return {"n": self.n, "m": self.n, "epsilon": list(self.eps_list)}

    def generate(self, rng):
        x = _jittered_points(rng, self.n)
        y = _jittered_points(rng, self.n)
        mu, nu = _weights(rng, self.n), _weights(rng, self.n)
        inst = {"mu": mu, "nu": nu, "x": x, "y": y}
        doc = {
            "schema_version": 1,
            "mu": mu.tolist(), "nu": nu.tolist(), "epsilon": 1.0,
            "generator": {"kind": "quadratic_1d", "x": x.tolist(), "y": y.tolist()},
        }
        return inst, doc

    def argv(self, index, out):
        eps = ",".join(repr(e) for e in self.eps_list)
        return ["sweep", self.input_path(index), "--eps-list", eps,
                "--delta", repr(self.delta), "--out", out]

    def verify(self, index, out):
        """The CSV carries no density, so the checks are convergence, containment and
        weak duality against this module's own monotone-plan transport cost."""
        inst = _with_cost(self.instances[index])
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        reasons = []
        if [float(r["epsilon"]) for r in rows] != list(self.eps_list):
            return [f"CSV rows do not match the epsilon list: {len(rows)} rows"], 0.0, float("inf")
        ot = _monotone_cost(inst["mu"], inst["nu"], inst["cost"])
        worst_gap = 0.0
        for r in rows:
            primal, dual = float(r["primal_value"]), float(r["dual_value"])
            gap = abs(primal - dual)
            worst_gap = max(worst_gap, gap)
            if r["converged"] != "1":
                reasons.append(f"epsilon {r['epsilon']} did not converge")
            if gap > GAP_TOL * max(1.0, abs(primal)):
                reasons.append(f"epsilon {r['epsilon']}: |primal - dual| {gap:.3e} above bound")
            # the penalty eps/2 ||z||^2 is nonnegative, so no primal value undercuts OT
            if primal < ot - GAP_TOL * max(1.0, ot):
                reasons.append(f"epsilon {r['epsilon']}: primal {primal!r} below the OT cost {ot!r}")
        smallest = float(rows[-1]["containment"])
        if smallest < CONTAINMENT_FLOOR:
            reasons.append(f"containment {smallest!r} < {CONTAINMENT_FLOOR} at the smallest epsilon")
        return reasons, 0.0, worst_gap


def _monotone_cost(mu, nu, cost):
    """Transport cost of the northwest-corner plan of sorted points: the exact OT cost."""
    total, i, j = 0.0, 0, 0
    a, b = mu.copy(), nu.copy()
    while i < a.size and j < b.size:
        t = min(a[i], b[j])
        total += t * cost[i, j]
        a[i] -= t
        b[j] -= t
        if a[i] <= 0:
            i += 1
        if b[j] <= 0:
            j += 1
    return total


WORKLOADS = {w.name: w for w in (Solve1D, AnalyzeBlocks, Sweep1D, SolveSymmetricDense)}
