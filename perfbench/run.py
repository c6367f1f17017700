"""qrot benchmark: drive the CLI in-process on four workloads, time and check every output.

    python3 perfbench/run.py --workload solve_1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload runs in fresh worker processes
(``worker.py``) that import qrot from ``src/``: a closed loop with one client,
one thread, BLAS pinned to one thread. The timed window is split among
``WORKERS`` workers run one after another, so set-up is measured several
times per run and reported as a median. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run, which times
each operation untraced and traced in turn. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a results file with provenance goes to ``.perfbench_results/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("solve_1d", "analyze_blocks", "sweep_1d", "solve_symmetric_dense")
WORKERS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k != "QROT_SEED"}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_workers(workload, seed, seconds, trace, workdir):
    env = _worker_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    results = []
    start = 0
    checked = set()
    for w in range(WORKERS):
        wdir = workdir / f"w{w}"
        wdir.mkdir(parents=True)
        result_path = wdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--budget", repr(seconds / WORKERS), "--trace", str(trace),
            "--start", str(start), "--workdir", str(wdir), "--result", str(result_path),
            "--skip", ",".join(sorted(checked)),
        ]
        with open(wdir / "stderr.txt", "w+") as err:
            t_spawn = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"worker {w} exceeded the {RUN_LIMIT_S:.0f} s run limit")
            err.seek(0)
            tail = err.read()[-2000:]
        if rc != 0 or not result_path.exists():
            raise BenchError(f"worker {w} exited {rc}:\n{tail}")
        result = json.loads(result_path.read_text())
        timed = [r for r in result["ops"] if r["timed"]]
        result["setup_s"] = timed[0]["t0"] - t_spawn
        results.append(result)
        checked.update(result["checks"])
        start += sum(1 for r in timed if not r["traced"])
    return results


def _assess(results):
    """Mark each timed operation ok or failed; returns (ops, failure messages).

    Each pool index has its first untraced output checked in full, by the first
    worker that ran it. Every output of the index, traced or not and in any
    worker, must have the same bytes.
    """
    checks = {key: c for result in results for key, c in result["checks"].items()}
    failures = [f"output {key}: {r}" for key, c in sorted(checks.items()) for r in c["reasons"]]
    ops = []
    for result in results:
        for r in result["ops"]:
            check = checks.get(str(r["index"]), {"reasons": ["unchecked"], "digest": None})
            same = r.get("digest") == check["digest"]
            ok = r["rc"] == 0 and same and not check["reasons"]
            if r["rc"] != 0:
                failures.append(f"op on pool index {r['index']} exited {r['rc']}")
            elif not same:
                kind = "traced" if r["traced"] else "untraced"
                failures.append(f"{kind} output of pool index {r['index']} changed its bytes")
            if r["timed"]:
                ops.append(dict(r, ok=ok))
            elif not ok:
                failures.append(f"warm-up op on pool index {r['index']} failed")
    return ops, failures


def _provenance(workload, seed, seconds, trace, results, ops):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": WORKERS,
        "ops_per_run": len(ops),
        "shape": results[0]["shape"],
        "versions": results[0]["versions"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_workload(workload, seed, seconds, trace):
    if not (ROOT / "src" / "qrot" / "__init__.py").is_file():
        raise BenchError(f"no qrot sources under {ROOT / 'src'}; run from a full checkout")
    workdir = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    try:
        results = _run_workers(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ops, failures = _assess(results)
    untraced = [r for r in ops if not r["traced"]]
    traced = [r for r in ops if r["traced"]]
    attempted = len(ops)
    failed = sum(1 for r in ops if not r["ok"])
    p50 = statistics.median(r["dt"] for r in untraced)
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}"
             f"  ({WORKERS} worker processes)"]
    if not trace:
        metrics = {
            "ops_per_s": sum(r["ok"] for r in untraced) / sum(r["dt"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in results),
        }
        counts = {
            "ops_per_s": f"n={len(untraced)} ops",
            "setup_s": f"n={len(results)} set-ups",
            "peak_rss_mb": f"n={len(results)} processes",
        }
        units = E2E_UNITS
    else:
        per_op = [r["layers"] for r in traced]
        metrics = {name: statistics.median(layers[name] for layers in per_op) for name in per_op[0]}
        checks = [c for result in results for c in result["checks"].values()]
        metrics["solver.max_residual"] = max(c["residual"] for c in checks)
        metrics["solver.max_abs_gap"] = max(c["gap"] for c in checks)
        metrics["trace.overhead"] = statistics.median(r["dt"] for r in traced) / p50
        metrics = {name: metrics[name] for name in LAYER_METRICS}
        counts = {name: f"median of n={len(traced)} traced ops" for name in metrics}
        counts["solver.max_residual"] = counts["solver.max_abs_gap"] = "max over checked outputs"
        counts["trace.overhead"] = f"n={len(traced)} traced / {len(untraced)} untraced ops"
        units = LAYER_METRICS
        if results[0]["missing_spans"]:
            lines.append("  missing spans (metrics read 0): " + ", ".join(results[0]["missing_spans"]))
    for name, value in metrics.items():
        lines.append(f"  {name:28s} {value:<14.6g} {units[name]:6s} ({counts[name]})")
    if not trace:
        # Printed, not a bounded metric: on a shared host the speed changes in
        # phases of seconds to minutes, which makes a run's op times bimodal, and
        # their median jumps between the modes from run to run; ops_per_s, the
        # time average, moves with the share of each phase instead.
        lines.append(f"  {'op_p50_s':28s} {p50:<14.6g} {'s':6s} (n={len(untraced)} ops)")
    lines.append(f"  {'fail_ratio':28s} {failed / attempted:<14.6g} {'':6s}"
                 f" ({failed} failed / {attempted} attempted)")
    for msg in failures[:10]:
        lines.append(f"  FAIL {msg}")

    provenance = _provenance(workload, seed, seconds, trace, results, ops)
    out = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(out, provenance=provenance, op_p50_s=p50, fail_ratio=failed / attempted,
                  failures=failures,
                  errors=[e for result in results for e in result["errors"]],
                  ops=[{k: r.get(k) for k in ("index", "traced", "dt", "rc", "digest", "ok")}
                       for r in ops])
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return lines, provenance, out


def run_all(seed, seconds, trace):
    """Every workload in its own process tree; prints each table, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance ")))
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for name, metric in out["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if args.workload == "all":
            out = run_all(args.seed, args.seconds, args.trace)
        else:
            lines, provenance, out = run_workload(
                args.workload, args.seed, args.seconds, args.trace
            )
            print("\n".join(lines))
            print("provenance " + json.dumps(provenance, sort_keys=True))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
