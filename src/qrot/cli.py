"""Command-line surface.

Commands: ``solve`` (report of the solve), ``analyze`` (components and
polytope of an instance or of a solve report), ``sweep`` (epsilon schedule to
CSV), ``verify`` (membership test for a user-supplied potential pair) and
``oracle`` (dual solve against the projection solver). Each command takes
only the flags its output depends on: ``--normalization`` belongs to
``solve`` (the only command that writes potentials) and exits 1 on a
self-transport solve, where the shift cancels in ``(f + g) / 2``; ``--seed``
and ``--tau-rel`` belong to ``analyze`` (the only command that draws random
numbers or builds the support), and ``sweep`` takes its epsilons from
``--eps-list`` and its mode from the instance. Flags must be spelled out in
full; any other flag exits 2 with argparse's usage message.

Exit codes: 0 success, 1 input error (message names the offending field, or
the file that is missing, a directory or not readable), 2 non-convergence or
tolerance failure (a report is still written when one exists; a dual decrease
and a projection that does not converge end here too, and so do ``analyze``
runs whose potentials are inconsistent with their support or whose stored
potentials miss their marginals), 3 verification rejected. Every error prints
one ``error: ...`` line, never a traceback. ``analyze`` on a report reuses the
report's solve, so ``--eps``, ``--tol``, ``--max-sweeps`` and ``--symmetric``
exit 1 there. The environment variable ``QROT_SEED`` overrides ``--seed`` of
``analyze``; a seed that is negative or not an integer, and a negative
``--samples``, exit 1.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import io as qio
from .model import (
    ValidationError,
    _check_potentials,
    density_from_potentials,
    max_residual,
    primal_objective,
    with_epsilon,
)
from .polytope import compute_polytope, sample_shifts, verify_potentials
from .projection import project
from .solver import NORMALIZATIONS, SolverConfig, solve, solve_symmetric
from .sparsity import Grid1D, epsilon_sweep, sweep_to_csv
from .support import DEFAULT_TAU_REL, components, support_set

__all__ = ["main", "entry"]

DEFAULT_VERIFY_TOL = 1e-8
DEFAULT_ORACLE_TOL = 1e-6


def _seed(args):
    env = os.environ.get("QROT_SEED")
    if env is None:
        seed, source = args.seed, "--seed"
    else:
        try:
            seed, source = int(env), "QROT_SEED"
        except ValueError:
            raise ValidationError(f"QROT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValidationError(f"{source} must be nonnegative, got {seed}")
    return seed


def _check_nonnegative(value, flag):
    """Raise a ValidationError naming ``flag`` unless ``value`` is finite and nonnegative."""
    if not (np.isfinite(value) and value >= 0):
        raise ValidationError(f"{flag} must be finite and nonnegative, got {value!r}")


def _eps_list(text):
    eps_list = []
    for tok in text.split(","):
        if tok.strip():
            try:
                eps_list.append(float(tok))
            except ValueError:
                raise ValidationError(f"--eps-list entry {tok.strip()!r} is not a number") from None
    if not eps_list:
        raise ValidationError("--eps-list names no epsilon")
    return eps_list


def _config(args):
    kwargs = {}
    if args.tol is not None:
        kwargs["tol_residual"] = args.tol
    if args.max_sweeps is not None:
        kwargs["max_sweeps"] = args.max_sweeps
    if getattr(args, "normalization", None) is not None:
        kwargs["normalization"] = args.normalization
    return SolverConfig(**kwargs)


def _instance(loaded, args):
    """The loaded instance at ``--eps``, and whether to solve it as self-transport."""
    inst = loaded.instance
    if args.eps is not None:
        inst = with_epsilon(inst, args.eps)
    return inst, loaded.symmetric or args.symmetric


def _solve(inst, symmetric, cfg):
    if symmetric:
        return solve_symmetric(inst, cfg)
    return solve(inst, cfg)


def _report_dict(inst, generator, symmetric, p, report, cfg):
    return {
        "schema_version": qio.REPORT_SCHEMA_VERSION,
        "instance": qio.instance_to_dict(inst, symmetric=symmetric, generator=generator),
        "report": {
            "primal_value": report.primal_value,
            "dual_value": report.dual_value,
            "duality_gap": report.duality_gap,
            "marginal_residual": report.marginal_residual,
            "iterations": report.iterations,
            "converged": report.converged,
        },
        "potentials": {
            "f": p.f,
            "g": p.g,
            "symmetric": p.symmetric,
        },
        "density": {"z": density_from_potentials(inst, p)},
        "provenance": {
            "tol_residual": cfg.tol_residual,
            "max_sweeps": cfg.max_sweeps,
            "normalization": cfg.normalization,
        },
    }


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_solve(args):
    loaded = qio.load_instance(args.input)
    inst, symmetric = _instance(loaded, args)
    if symmetric and args.normalization is not None:
        raise ValidationError(
            "a self-transport solve takes no --normalization: the shift cancels in (f + g) / 2"
        )
    cfg = _config(args)
    p, report = _solve(inst, symmetric, cfg)
    doc = _report_dict(inst, loaded.generator, symmetric, p, report, cfg)
    _emit(qio.canonical_json(doc), args.out)
    return 0 if report.converged else 2


def cmd_analyze(args):
    seed = _seed(args)
    if not 0 <= args.tau_rel < 1:
        # the support threshold is tau_rel * max(z): from 1 on no cell is above it
        raise ValidationError(f"--tau-rel must be in [0, 1), got {args.tau_rel!r}")
    if args.samples < 0:
        raise ValidationError(f"--samples must be nonnegative, got {args.samples}")
    with open(args.input) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {args.input}: {exc}") from None

    # a previously written report: check and reuse its solve
    from_report = isinstance(doc, dict) and "potentials" in doc
    if from_report:
        solver_flags = [
            ("--eps", args.eps),
            ("--tol", args.tol),
            ("--max-sweeps", args.max_sweeps),
            ("--symmetric", args.symmetric or None),
        ]
        given = [flag for flag, value in solver_flags if value is not None]
        if given:
            raise ValidationError(
                f"analyze reuses the report's solve, so it takes no {', '.join(given)}"
            )
        loaded, p, tol = qio.report_from_dict(doc)
        inst = loaded.instance
        _check_potentials(inst, p)
    else:
        inst, symmetric = _instance(qio.instance_from_dict(doc), args)
        p, _ = _solve(inst, symmetric, _config(args))

    z = density_from_potentials(inst, p)
    if from_report:
        if tol is None:
            tol = SolverConfig().tol_residual
        residual = max_residual(inst, z)
        if not residual <= tol:
            sys.stderr.write(
                f"error: stored potentials have marginal residual {residual:.3e},"
                f" above the report's tol_residual {tol:g}\n"
            )
            return 2
    s = support_set(z, tau=args.tau_rel * float(z.max()))
    decomp = components(s)
    pd = compute_polytope(inst, p, decomp, s)
    out = {
        "support": {"tau": s.tau},
        "components": {
            "labels": decomp.labels,
            "row_projections": [list(t) for t in decomp.row_projections],
            "col_projections": [list(t) for t in decomp.col_projections],
            "count": decomp.count,
            "unmatched_rows": list(decomp.unmatched_rows),
            "unmatched_cols": list(decomp.unmatched_cols),
        },
        "polytope": {
            "n_components": pd.n_components,
            "a": pd.a,
            "dist": pd.dist,
            "dimension": pd.dimension,
            "rigid_pairs": [list(pair) for pair in pd.rigid_pairs],
        },
        "provenance": {"tau_rel": args.tau_rel, "seed": seed},
    }
    if args.samples > 0:
        out["sampled_shifts"] = sample_shifts(pd, args.samples, seed)
    _emit(qio.canonical_json(out), args.out)
    return 0


def cmd_sweep(args):
    loaded = qio.load_instance(args.input)
    if loaded.x is None or loaded.y is None:
        raise ValidationError("sweep requires an instance with a quadratic_1d generator")
    grid = Grid1D(xs=loaded.x, mu=loaded.instance.mu, ys=loaded.y, nu=loaded.instance.nu)
    eps_list = _eps_list(args.eps_list)
    _check_nonnegative(args.delta, "--delta")
    if args.out is None:
        raise ValidationError("sweep requires --out for the CSV path")
    result = epsilon_sweep(grid, eps_list, args.delta, _config(args))
    sweep_to_csv(result, args.out)
    return 0 if all(r.converged for r in result.reports) else 2


def cmd_verify(args):
    _check_nonnegative(args.tol_verify, "--tol-verify")
    inst, symmetric = _instance(qio.load_instance(args.input), args)
    with open(args.potentials) as fh:
        try:
            pot = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {args.potentials}: {exc}") from None
    candidate = qio.potentials_from_dict(pot, f"potentials file {args.potentials}")
    _check_potentials(inst, candidate)
    p, report = _solve(inst, symmetric, _config(args))
    z_star = density_from_potentials(inst, p)
    accepted = verify_potentials(inst, candidate, z_star, tol=args.tol_verify)
    sys.stdout.write(
        qio.canonical_json({"accepted": accepted, "solver_converged": report.converged})
    )
    return 0 if accepted else 3


def cmd_oracle(args):
    _check_nonnegative(args.tol_oracle, "--tol-oracle")
    inst, symmetric = _instance(qio.load_instance(args.input), args)
    cfg = _config(args)
    p, report = _solve(inst, symmetric, cfg)
    z_proj = project(inst)
    diff = float(np.max(np.abs(density_from_potentials(inst, p) - z_proj)))
    out = {
        "max_density_diff": diff,
        "primal_dual_route": report.primal_value,
        "dual_value": report.dual_value,
        "primal_projection_route": primal_objective(inst, z_proj),
        "duality_gap": report.duality_gap,
        "tolerance": args.tol_oracle,
    }
    sys.stdout.write(qio.canonical_json(out))
    return 0 if diff <= args.tol_oracle and report.converged else 2


@functools.cache
def _build_parser():
    """The argument parser, built once per process and shared by every ``main``
    call: ``parse_args`` keeps no state in the parser between calls."""
    parser = argparse.ArgumentParser(
        prog="qrot",
        description="Quadratically regularized optimal transport toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, input_help="instance JSON file", instance_flags=True):
        # no abbreviations: sweep would otherwise read --eps as --eps-list
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        sp.add_argument("input", help=input_help)
        if instance_flags:
            sp.add_argument("--eps", type=float, default=None, help="override epsilon")
            sp.add_argument("--symmetric", action="store_true", help="force self-transport mode")
        sp.add_argument("--tol", type=float, default=None, help="marginal residual tolerance")
        sp.add_argument(
            "--max-sweeps",
            type=int,
            default=None,
            dest="max_sweeps",
            help="iteration budget; each sweep and each Newton step counts as one",
        )
        return sp

    sp = add_command("solve", cmd_solve, "solve and write a report")
    sp.add_argument("--normalization", choices=NORMALIZATIONS, default=None)
    sp.add_argument("--out", default=None, help="report path (default: stdout)")

    sp = add_command(
        "analyze",
        cmd_analyze,
        "components and polytope of an instance or report",
        input_help="instance or report JSON file; a report takes no solver flags",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tau-rel", type=float, default=DEFAULT_TAU_REL, dest="tau_rel")
    sp.add_argument("--samples", type=int, default=0, help="sample shift vectors from the polytope")
    sp.add_argument("--out", default=None)

    sp = add_command(
        "sweep",
        cmd_sweep,
        "epsilon sweep of a quadratic 1-d instance, to CSV",
        instance_flags=False,
    )
    sp.add_argument("--eps-list", required=True, dest="eps_list", help="comma separated epsilons")
    sp.add_argument("--delta", type=float, required=True, help="neighborhood radius")
    sp.add_argument("--out", default=None, help="CSV output path")

    sp = add_command("verify", cmd_verify, "test a user potential pair against the solved density")
    sp.add_argument("--potentials", required=True, help="JSON file with fields f, g")
    sp.add_argument("--tol-verify", type=float, default=DEFAULT_VERIFY_TOL, dest="tol_verify")

    sp = add_command("oracle", cmd_oracle, "diff the dual solve against the projection solver")
    sp.add_argument("--tol-oracle", type=float, default=DEFAULT_ORACLE_TOL, dest="tol_oracle")
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
        # a dual decrease in solve, PotentialConsistencyError in analyze, ProjectionError
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
