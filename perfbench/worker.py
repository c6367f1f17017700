"""One measuring process of a workload: set up, run timed operations, check outputs.

Started by ``run.py`` as a fresh interpreter, so that its set-up time counts
interpreter start and ``import qrot`` and its peak memory is its own. Writes
one JSON result file; the parent aggregates the results of several workers.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import qrot
import qrot.cli
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _call(argv):
    """Run one CLI operation in-process; an escaping exception is a failed operation."""
    try:
        return qrot.cli.main(argv), None
    except Exception:  # the benchmark must count the failure and go on
        return -1, traceback.format_exc(limit=3)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--start", type=int, default=0, help="pool index of the first timed op")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--skip", default="", help="pool indices an earlier worker checked: i,j,...")
    args = ap.parse_args()

    workdir = args.workdir
    keep = os.path.join(workdir, "verify")
    os.makedirs(keep, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    errors = []

    def run_cli(argv):
        rc, err = _call(argv)
        if err:
            errors.append(err)
        return rc

    wl.setup(run_cli)
    out = os.path.join(workdir, "out" + wl.out_suffix)
    tracer = Tracer()
    ops = []  # one record per operation, warm-up first
    # pool index -> path of its first untraced output, checked in full after the
    # loop. Every other output, traced ones and those of indices an earlier worker
    # checked, must have the same bytes; the parent compares the digests.
    kept = {}
    skip = set(filter(None, args.skip.split(",")))

    def op(index, traced, timed):
        if os.path.exists(out):
            os.remove(out)
        argv = wl.argv(index, out)
        if traced:
            with tracer:
                t0 = time.perf_counter()
                rc, err = _call(argv)
                dt = time.perf_counter() - t0
            layers = layer_metrics(tracer.spans)
        else:
            t0 = time.perf_counter()
            rc, err = _call(argv)
            dt = time.perf_counter() - t0
            layers = None
        record = {"index": index, "traced": traced, "timed": timed, "t0": t0, "dt": dt, "rc": rc}
        if err:
            errors.append(err)
        if os.path.exists(out):
            record["digest"] = _digest(out)
            record["bytes"] = os.path.getsize(out)
            key = str(index)
            if not traced and key not in kept and key not in skip:
                kept[key] = os.path.join(keep, key + wl.out_suffix)
                shutil.copyfile(out, kept[key])
        if layers is not None:
            layers["io.out_bytes"] = record.get("bytes", 0)
            record["layers"] = layers
        ops.append(record)

    op(0, False, timed=False)  # warm-up: caches, lazy imports, first-touch allocations
    timed = 0.0
    i = 0
    while timed < args.budget:
        index = (args.start + i) % wl.pool
        op(index, False, timed=True)
        if args.trace:
            op(index, True, timed=True)
        timed += sum(r["dt"] for r in ops[-1 - args.trace:])
        i += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks = {}
    for key, path in sorted(kept.items()):
        try:
            reasons, residual, gap = wl.verify(int(key), path)
        except Exception:  # a malformed output fails the check, it does not stop the run
            reasons, residual, gap = [traceback.format_exc(limit=3)], float("inf"), float("inf")
        checks[key] = {
            "reasons": reasons, "residual": residual, "gap": gap,
            "digest": _digest(path),
        }

    result = {
        "ops": ops,
        "checks": checks,
        "errors": errors[:5],
        "missing_spans": tracer.missing,
        "peak_rss_kib": peak_rss_kib,
        "shape": wl.shape(),
        "versions": {
            "qrot": qrot.__version__,
            "qrot_path": os.path.dirname(qrot.__file__),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
