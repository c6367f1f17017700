"""Command-line surface.

Commands: ``solve`` (full report), ``analyze`` (components and polytope),
``sweep`` (epsilon schedule to CSV), ``verify`` (membership test for a
user-supplied potential pair) and ``oracle`` (dual solve against the
projection solver).

Exit codes: 0 success, 1 input error (message names the offending field, or
the file that is missing, a directory or not readable), 2 non-convergence or
tolerance failure (a report is still written when one exists; a dual decrease,
potentials inconsistent with their support and a projection that does not
converge end here too), 3 verification rejected. Every error prints one
``error: ...`` line, never a traceback. The environment variable
``QROT_SEED`` overrides ``--seed``.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as qio
from .model import (
    Potentials,
    ValidationError,
    density_from_potentials,
    with_epsilon,
)
from .polytope import compute_polytope, sample_shifts, verify_potentials
from .projection import project
from .solver import NORMALIZATIONS, SolverConfig, solve, solve_symmetric
from .sparsity import Grid1D, epsilon_sweep, sweep_to_csv
from .support import components, support_set

__all__ = ["main", "entry"]

DEFAULT_TAU_REL = 1e-8
DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_ORACLE_TOL = 1e-6


def _seed(args):
    env = os.environ.get("QROT_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _config(args):
    kwargs = {}
    if args.tol is not None:
        kwargs["tol_residual"] = args.tol
    if args.max_sweeps is not None:
        kwargs["max_sweeps"] = args.max_sweeps
    if getattr(args, "normalization", None) is not None:
        kwargs["normalization"] = args.normalization
    return SolverConfig(**kwargs)


def _load(args):
    loaded = qio.load_instance(args.input)
    inst = loaded.instance
    if args.eps is not None:
        inst = with_epsilon(inst, args.eps)
    symmetric = loaded.symmetric or getattr(args, "symmetric", False)
    return loaded, inst, symmetric


def _solve(inst, symmetric, cfg):
    if symmetric:
        return solve_symmetric(inst, cfg)
    return solve(inst, cfg)


def _analysis_blocks(inst, p, cd, tau_rel):
    s = support_set(cd, tau=tau_rel * float(cd.z.max()) if cd.z.size else 0.0)
    decomp = components(s)
    pd = compute_polytope(inst, p, decomp, s)
    support_block = {"mask": s.mask.astype(int).tolist(), "tau": s.tau}
    components_block = {
        "labels": decomp.labels.tolist(),
        "row_projections": [list(t) for t in decomp.row_projections],
        "col_projections": [list(t) for t in decomp.col_projections],
        "count": decomp.count,
        "unmatched_rows": list(decomp.unmatched_rows),
        "unmatched_cols": list(decomp.unmatched_cols),
    }
    polytope_block = {
        "n_components": pd.n_components,
        "a": qio.encode_extended(pd.a),
        "dist": qio.encode_extended(pd.dist),
        "dimension": pd.dimension,
        "rigid_pairs": [list(pair) for pair in pd.rigid_pairs],
    }
    return support_block, components_block, polytope_block, decomp, pd


def _report_dict(inst, symmetric, p, report, cfg, tau_rel, seed):
    cd = density_from_potentials(inst, p)
    support_block, components_block, polytope_block, _, _ = _analysis_blocks(
        inst, p, cd, tau_rel
    )
    return {
        "schema_version": qio.SCHEMA_VERSION,
        "instance": qio.instance_to_dict(inst, symmetric=symmetric),
        "report": {
            "primal_value": report.primal_value,
            "dual_value": report.dual_value,
            "duality_gap": report.duality_gap,
            "marginal_residual": report.marginal_residual,
            "iterations": report.iterations,
            "converged": report.converged,
        },
        "potentials": {
            "f": p.f.tolist(),
            "g": p.g.tolist(),
            "symmetric": p.symmetric,
        },
        "density": {"z": cd.z.tolist(), "pi": cd.pi.tolist()},
        "support": support_block,
        "components": components_block,
        "polytope": polytope_block,
        "provenance": {
            "tol_residual": cfg.tol_residual,
            "max_sweeps": cfg.max_sweeps,
            "normalization": cfg.normalization,
            "tau_rel": tau_rel,
            "seed": seed,
        },
    }


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_solve(args):
    loaded, inst, symmetric = _load(args)
    cfg = _config(args)
    p, report = _solve(inst, symmetric, cfg)
    doc = _report_dict(inst, symmetric, p, report, cfg, args.tau_rel, _seed(args))
    _emit(qio.canonical_json(doc), args.out)
    return 0 if report.converged else 2


def cmd_analyze(args):
    with open(args.input) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {args.input}: {exc}") from None

    if "potentials" in doc:  # a previously written report: reuse its solve
        inst = qio.instance_from_dict(doc["instance"]).instance
        pot = doc["potentials"]
        p = Potentials(
            f=np.asarray(pot["f"], float),
            g=np.asarray(pot["g"], float),
            symmetric=bool(pot.get("symmetric", False)),
        )
    else:
        loaded = qio.instance_from_dict(doc)
        inst = loaded.instance
        if args.eps is not None:
            inst = with_epsilon(inst, args.eps)
        p, _ = _solve(inst, loaded.symmetric, _config(args))

    cd = density_from_potentials(inst, p)
    support_block, components_block, polytope_block, decomp, pd = _analysis_blocks(
        inst, p, cd, args.tau_rel
    )
    out = {
        "support": support_block,
        "components": components_block,
        "polytope": polytope_block,
    }
    seed = _seed(args)
    if args.samples > 0:
        shifts = sample_shifts(pd, args.samples, seed)
        out["sampled_shifts"] = [alpha.tolist() for alpha in shifts]
    out["provenance"] = {"tau_rel": args.tau_rel, "seed": seed}
    _emit(qio.canonical_json(out), args.out)
    return 0


def cmd_sweep(args):
    loaded, inst, _ = _load(args)
    if loaded.x is None or loaded.y is None:
        raise ValidationError("sweep requires an instance with a quadratic_1d generator")
    grid = Grid1D(xs=loaded.x, mu=inst.mu, ys=loaded.y, nu=inst.nu)
    eps_list = [float(tok) for tok in args.eps_list.split(",") if tok.strip()]
    if args.out is None:
        raise ValidationError("sweep requires --out for the CSV path")
    result = epsilon_sweep(grid, eps_list, args.delta, _config(args))
    sweep_to_csv(result, args.out)
    return 0 if all(r.converged for r in result.reports) else 2


def cmd_verify(args):
    loaded, inst, symmetric = _load(args)
    with open(args.potentials) as fh:
        try:
            pot = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {args.potentials}: {exc}") from None
    if "f" not in pot or "g" not in pot:
        raise ValidationError("potentials file must contain fields 'f' and 'g'")
    candidate = Potentials(f=np.asarray(pot["f"], float), g=np.asarray(pot["g"], float))
    if candidate.f.size != inst.n or candidate.g.size != inst.m:
        raise ValidationError(
            f"dimension mismatch: potentials have sizes ({candidate.f.size},"
            f" {candidate.g.size}), expected ({inst.n}, {inst.m})"
        )
    p, report = _solve(inst, symmetric, _config(args))
    z_star = density_from_potentials(inst, p)
    accepted = verify_potentials(inst, candidate, z_star, tol=args.tol_verify)
    sys.stdout.write(
        qio.canonical_json({"accepted": accepted, "solver_converged": report.converged})
    )
    return 0 if accepted else 3


def cmd_oracle(args):
    loaded, inst, symmetric = _load(args)
    cfg = _config(args)
    p, report = _solve(inst, symmetric, cfg)
    cd_dual = density_from_potentials(inst, p)
    cd_proj = project(inst)
    diff = float(np.max(np.abs(cd_dual.z - cd_proj.z)))
    from .model import primal_objective

    out = {
        "max_density_diff": diff,
        "primal_dual_route": report.primal_value,
        "dual_value": report.dual_value,
        "primal_projection_route": primal_objective(inst, cd_proj),
        "duality_gap": report.duality_gap,
        "tolerance": args.tol_oracle,
    }
    sys.stdout.write(qio.canonical_json(out))
    return 0 if diff <= args.tol_oracle and report.converged else 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qrot",
        description="Quadratically regularized optimal transport toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, normalization=True):
        sp.add_argument("input", help="instance JSON file")
        sp.add_argument("--eps", type=float, default=None, help="override epsilon")
        sp.add_argument("--tol", type=float, default=None, help="marginal residual tolerance")
        sp.add_argument("--max-sweeps", type=int, default=None, dest="max_sweeps")
        sp.add_argument("--symmetric", action="store_true", help="force self-transport mode")
        if normalization:
            sp.add_argument("--normalization", choices=NORMALIZATIONS, default=None)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("solve", help="solve and write a full report")
    add_common(sp)
    sp.add_argument("--tau-rel", type=float, default=DEFAULT_TAU_REL, dest="tau_rel")
    sp.add_argument("--out", default=None, help="report path (default: stdout)")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("analyze", help="components and polytope of an instance or report")
    add_common(sp)
    sp.add_argument("--tau-rel", type=float, default=DEFAULT_TAU_REL, dest="tau_rel")
    sp.add_argument("--samples", type=int, default=0, help="sample shift vectors from the polytope")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sweep", help="epsilon sweep of a quadratic 1-d instance, to CSV")
    add_common(sp, normalization=False)
    sp.add_argument("--eps-list", required=True, dest="eps_list", help="comma separated epsilons")
    sp.add_argument("--delta", type=float, required=True, help="neighborhood radius")
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="test a user potential pair against the solved density")
    add_common(sp)
    sp.add_argument("--potentials", required=True, help="JSON file with fields f, g")
    sp.add_argument("--tol-verify", type=float, default=DEFAULT_VERIFY_TOL, dest="tol_verify")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="diff the dual solve against the projection solver")
    add_common(sp)
    sp.add_argument("--tol-oracle", type=float, default=DEFAULT_ORACLE_TOL, dest="tol_oracle")
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RuntimeError as exc:
        # a dual decrease in solve, PotentialConsistencyError, ProjectionError
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():
    sys.exit(main())
