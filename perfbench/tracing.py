"""Per-layer spans recorded from outside the package.

The tracer replaces qrot's public functions at the names their callers look
up (``qrot.solver.sweep`` is what ``solve`` calls, ``qrot.cli.components`` is
what the CLI calls) with wrappers that record a span per call: its name,
start, end, parent span and a few counts read from the arguments or the
result. Nothing under ``src/`` changes. A name that a later refactor removes
is reported as missing and its metrics read 0; the run does not crash.
"""

import importlib
import time

# (module, attribute, span name). Several lookups may share one span name.
WRAPPED = (
    ("qrot.cli", "main", "cli.main"),
    ("qrot.cli", "solve", "solver.solve"),
    ("qrot.sparsity", "solve", "solver.solve"),
    ("qrot.cli", "solve_symmetric", "solver.solve_symmetric"),
    ("qrot.solver", "sweep", "solver.sweep"),
    ("qrot.solver", "dual_objective", "solver.dual_objective"),
    ("qrot.solver", "density_from_potentials", "solver.density_from_potentials"),
    ("qrot.solver", "marginal_residuals", "solver.marginal_residuals"),
    ("qrot.solver", "duality_gap", "solver.duality_gap"),
    ("qrot.cli", "density_from_potentials", "model.density_from_potentials"),
    ("qrot.sparsity", "density_from_potentials", "model.density_from_potentials"),
    ("qrot.cli", "support_set", "support.support_set"),
    ("qrot.sparsity", "support_set", "support.support_set"),
    ("qrot.cli", "components", "support.components"),
    ("qrot.cli", "compute_polytope", "polytope.compute_polytope"),
    ("qrot.cli", "sample_shifts", "polytope.sample_shifts"),
    ("qrot.cli", "epsilon_sweep", "sparsity.epsilon_sweep"),
    ("qrot.io", "canonical_json", "io.canonical_json"),
    ("qrot.io", "encode_extended", "io.encode_extended"),
    ("qrot.io", "instance_to_dict", "io.instance_to_dict"),
    ("qrot.io", "load_instance", "io.load_instance"),
    ("qrot.io", "instance_from_dict", "io.instance_from_dict"),
)

CHECKS = (
    "solver.dual_objective",
    "solver.density_from_potentials",
    "solver.marginal_residuals",
    "solver.duality_gap",
)
Z_BUILDS = ("solver.dual_objective", "solver.density_from_potentials")

# name -> unit of every per-layer metric, in the order they are printed
LAYER_METRICS = {
    "solver.sweeps": "count",
    "solver.sweep_s": "s",
    "solver.sweep_ns_per_cell": "ns",
    "solver.check_s": "s",
    "solver.z_builds_per_sweep": "count",
    "solver.symmetric_self_s": "s",
    "solver.max_residual": "1",
    "solver.max_abs_gap": "1",
    "model.density_s": "s",
    "support.support_set_s": "s",
    "support.components_s": "s",
    "support.cells": "count",
    "polytope.compute_s": "s",
    "polytope.sample_s": "s",
    "polytope.k": "count",
    "sparsity.self_s": "s",
    "io.json_s": "s",
    "io.encode_s": "s",
    "io.parse_s": "s",
    "io.out_bytes": "count",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def _counts(name, args, result):
    """Work counts read at a span boundary; {} when a refactor changed the shapes read."""
    try:
        if name in ("solver.solve", "solver.solve_symmetric"):
            return {"sweeps": result[1].iterations}
        if name == "solver.sweep":
            return {"sweep_cells": 2 * args[0].n * args[0].m}
        if name == "support.support_set":
            return {"cells": int(result.mask.sum())}
        if name == "polytope.compute_polytope":
            return {"k": result.n_components}
    except (AttributeError, IndexError, TypeError):
        pass
    return {}


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block and keeps its spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _counts(name, args, result)
            return result

        return wrapper

    def __enter__(self):
        self.spans.clear()
        self.missing = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def layer_metrics(spans):
    """Per-layer numbers of one traced operation, from its spans."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def outermost(names):
        """Indices of spans in ``names`` with no ancestor in ``names``."""
        out = []
        for i, span in enumerate(spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def busy(*names):
        return sum(dur[i] for i in outermost(names))

    def self_time(name):
        return sum(dur[i] - child[i] for i in outermost((name,)))

    def count(key):
        return sum((span[4] or {}).get(key, 0) for span in spans)

    def calls(*names):
        return sum(1 for span in spans if span[0] in names)

    sweeps = count("sweeps")
    sweep_s = busy("solver.sweep")
    cells = count("sweep_cells")
    return {
        "solver.sweeps": sweeps,
        "solver.sweep_s": sweep_s,
        "solver.sweep_ns_per_cell": 1e9 * sweep_s / cells if cells else 0.0,
        "solver.check_s": busy(*CHECKS),
        "solver.z_builds_per_sweep": calls(*Z_BUILDS) / sweeps if sweeps else 0.0,
        "solver.symmetric_self_s": self_time("solver.solve_symmetric"),
        "model.density_s": busy("model.density_from_potentials"),
        "support.support_set_s": busy("support.support_set"),
        "support.components_s": busy("support.components"),
        "support.cells": count("cells"),
        "polytope.compute_s": busy("polytope.compute_polytope"),
        "polytope.sample_s": busy("polytope.sample_shifts"),
        "polytope.k": count("k"),
        "sparsity.self_s": self_time("sparsity.epsilon_sweep"),
        "io.json_s": busy("io.canonical_json"),
        "io.encode_s": busy("io.encode_extended", "io.instance_to_dict"),
        "io.parse_s": busy("io.load_instance", "io.instance_from_dict"),
        "cli.self_s": self_time("cli.main"),
    }
