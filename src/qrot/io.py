"""Instance and report file formats.

Instances are JSON documents with ``schema_version`` 1, weight arrays, an
``epsilon``, an optional boolean ``symmetric`` and exactly one of a dense
``cost`` matrix or a ``generator`` spec.

Solve reports carry ``schema_version`` 3 (:data:`REPORT_SCHEMA_VERSION`).
They hold the solve and nothing that can be rebuilt from it but the density:

- ``instance``: an instance document (``schema_version`` 1) with the
  effective epsilon. A generator instance echoes its validated generator
  (``{"kind", "x", "y"}`` or ``{"kind", "gamma"}``, float values, extra
  input keys dropped), which re-expands to a bit-identical cost; a
  dense-cost instance keeps ``cost``;
- ``report`` (the solve summary), ``potentials`` (``f``, ``g``),
  ``density.z`` and ``provenance``.

The support, its components and the polytope of all potentials follow from
the instance and the potentials; ``qrot analyze report.json`` builds them.
Schema 2 also stored them (``support.tau``, ``components``, ``polytope``),
and schema 1 in addition ``density.pi``, the expanded cost of generator
instances and ``support.mask``. :func:`report_from_dict` reads reports of
all three schemas and ignores these fields.

Serialization is canonical (:func:`canonical_json`): ``json.dumps(obj,
indent=2, sort_keys=True, allow_nan=False)`` and a trailing newline, so
identical inputs produce byte-identical reports. Report builders pass numpy
float and integer arrays as they are. ``json.dumps`` writes the document with
a stand-in for each array, and the package writes the array in its place, as
``json.dumps`` writes its ``tolist()``. Each distinct number is formatted
once: those of all float arrays of the document together, those of an
integer array per array. That pays off on the repeated cells of a symmetric
cost or density, of the component labels, of a sparse density's zeros and of
the polytope's ``a`` and its closure ``dist``, which share most of their
values. The texts of the distinct floats come from
:mod:`qrot._floattext`, which computes ``float.__repr__`` of a whole array in
numpy, so the bytes are still those of ``json.dumps``.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ._floattext import float_texts
from .model import Instance, Potentials, ValidationError, validate_instance

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSIONS",
    "LoadedInstance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "potentials_from_dict",
    "report_from_dict",
    "canonical_json",
    "decode_extended",
]

SCHEMA_VERSION = 1  # instance documents, also inside reports
REPORT_SCHEMA_VERSION = 3  # written by ``qrot solve``
REPORT_SCHEMA_VERSIONS = (1, 2, 3)  # read by ``qrot analyze``


@dataclass(frozen=True)
class LoadedInstance:
    """A validated instance plus file-level metadata the solver core does not need.

    ``generator`` is the validated generator echo that reports store in
    place of the expanded cost, None for a dense-cost instance. A
    ``quadratic_1d`` echo holds the float arrays ``x`` and ``y`` themselves,
    which :func:`canonical_json` writes with the bytes of their ``tolist()``.
    """

    instance: Instance
    symmetric: bool = False
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    generator: dict | None = None


def _floats(value):
    return np.asarray(value, dtype=float)


def _no_bools_or_strings(value):
    """``value``; a TypeError if it is, or its nested lists hold, a boolean or a
    string, which ``float`` and numpy would read as a number. One type scan
    per innermost list."""
    if type(value) is list:
        types = set(map(type, value))
        if list in types:
            for row in value:
                _no_bools_or_strings(row)
        elif bool in types or str in types:
            raise TypeError
    elif type(value) in (bool, str):
        raise TypeError
    return value


def _numeric(doc, key, convert, owner=""):
    """``convert(doc[key])``; a ValidationError naming the field if it is absent or not
    numeric, a JSON boolean or string included, bare or inside an array."""
    if key not in doc:
        raise ValidationError(f"{owner}missing field {key!r}")
    try:
        return convert(_no_bools_or_strings(doc[key]))
    except (TypeError, ValueError):
        raise ValidationError(f"{owner}field {key!r} is not numeric") from None


def _symmetric(doc, owner=""):
    """The optional ``symmetric`` flag of ``doc``: a JSON boolean, false when absent."""
    value = doc.get("symmetric", False)
    if not isinstance(value, bool):
        raise ValidationError(f"{owner}field 'symmetric' must be true or false, got {value!r}")
    return value


def _generator_cost(gen, n, m):
    """Expanded cost, points (quadratic_1d only) and the validated echo of a generator."""
    if not isinstance(gen, dict):
        raise ValidationError("generator must be a JSON object")
    kind = gen.get("kind")
    owner = f"generator {kind}: "
    if kind == "quadratic_1d":
        x = _numeric(gen, "x", _floats, owner)
        y = _numeric(gen, "y", _floats, owner)
        if x.shape != (n,) or y.shape != (m,):
            raise ValidationError(
                f"dimension mismatch: generator points have shapes {x.shape}, {y.shape},"
                f" expected ({n},), ({m},)"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            cost = (x[:, None] - y[None, :]) ** 2
        if not np.isfinite(cost).all():
            raise ValidationError(f"{owner}points give a nonfinite squared distance")
        return cost, x, y, {"kind": kind, "x": x, "y": y}
    if kind == "indicator_offdiag":
        if n != m:
            raise ValidationError(
                f"dimension mismatch: indicator_offdiag needs square instances, got ({n}, {m})"
            )
        gamma = _numeric(gen, "gamma", float, owner)
        return (2.0 + gamma) * (1.0 - np.eye(n)), None, None, {"kind": kind, "gamma": gamma}
    raise ValidationError(f"unknown generator kind {kind!r}")


def instance_from_dict(doc):
    """Parse and validate an instance document."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    mu, nu = (_numeric(doc, key, _floats) for key in ("mu", "nu"))
    for key, w in (("mu", mu), ("nu", nu)):
        if w.ndim != 1 or w.size == 0:  # before a generator reads the sizes
            raise ValidationError(f"{key} must be a nonempty 1-d array")
    has_cost = "cost" in doc
    has_gen = "generator" in doc
    if has_cost == has_gen:
        raise ValidationError("exactly one of 'cost' or 'generator' must be present")

    x = y = generator = None
    if has_cost:
        cost = _numeric(doc, "cost", _floats)
    else:
        cost, x, y, generator = _generator_cost(doc["generator"], mu.size, nu.size)
    mu_tilde, nu_tilde = (
        None if doc.get(key) is None else _numeric(doc, key, _floats)
        for key in ("mu_tilde", "nu_tilde")
    )

    epsilon = doc.get("epsilon", 1.0)
    if isinstance(epsilon, str):  # float() reads "1.0" and "nan"; validation rejects the rest
        raise ValidationError(f"epsilon must be a number, got {epsilon!r}")
    inst = validate_instance(mu, nu, cost, mu_tilde=mu_tilde, nu_tilde=nu_tilde, epsilon=epsilon)
    return LoadedInstance(
        instance=inst,
        symmetric=_symmetric(doc),
        x=x,
        y=y,
        generator=generator,
    )


def instance_to_dict(inst, symmetric=False, generator=None):
    """Instance document of ``inst`` for :func:`canonical_json`; with a generator
    echo in place of the dense cost.

    The weights, the cost and the points of a ``quadratic_1d`` echo stay
    numpy arrays, which ``canonical_json`` writes with the bytes of their
    ``tolist()``; ``json.dumps`` does not take them.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mu": inst.mu,
        "nu": inst.nu,
        "mu_tilde": inst.mu_tilde,
        "nu_tilde": inst.nu_tilde,
        "epsilon": inst.epsilon,
        "symmetric": bool(symmetric),
    }
    if generator is None:
        doc["cost"] = inst.cost
    else:
        doc["generator"] = generator
    return doc


def _read_json(path):
    """The JSON document in the file at ``path``; a ValidationError naming the
    file if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from None


def load_instance(path):
    return instance_from_dict(_read_json(path))


def potentials_from_dict(doc, where):
    """Potentials from an object with numeric arrays ``f``, ``g`` (and an optional
    ``symmetric`` flag); ``where`` names the object in error messages."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object")
    f, g = (_numeric(doc, key, _floats, f"{where}: ") for key in ("f", "g"))
    return Potentials(f, g, symmetric=_symmetric(doc, f"{where}: "))


def report_from_dict(doc):
    """The parts of a solve report (schema 1, 2 or 3) that analysis reuses.

    Returns ``(loaded, potentials, tol_residual)``; ``tol_residual`` is the
    report's ``provenance.tol_residual``, or None when the report has none.
    Raises :class:`ValidationError` naming the malformed field.
    """
    version = doc.get("schema_version")
    if version not in REPORT_SCHEMA_VERSIONS:
        raise ValidationError(
            f"report schema_version must be one of {REPORT_SCHEMA_VERSIONS}, got {version!r}"
        )
    if "instance" not in doc:
        raise ValidationError("report has no field 'instance'")
    loaded = instance_from_dict(doc["instance"])
    p = potentials_from_dict(doc["potentials"], "report field 'potentials'")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError("report field 'provenance' must be a JSON object")
    if provenance.get("tol_residual") is None:
        return loaded, p, None
    tol = _numeric(provenance, "tol_residual", float, "report field 'provenance': ")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"report tol_residual must be finite and nonnegative, got {tol!r}")
    return loaded, p, tol


def decode_extended(rows):
    """A matrix of an older analysis file, which wrote an infinity as the string "inf".

    Entries must be numbers or the string "inf". A matrix holding an
    infinity it reads can no longer build a ``PolytopeDescription``, whose
    ``a`` and ``dist`` must be finite.
    """
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid extended matrix: {exc}") from None
    if np.isnan(arr).any():
        raise ValidationError("invalid extended matrix: entry is not a number")
    return arr


# json.dumps writes this string in place of each array it passes to _park:
# NUL and 128 random bits, which no document string matches
_STAND_IN = "\x00qrot-array-" + os.urandom(16).hex()


def _park(o, arrays):
    """The ``default`` hook of :func:`canonical_json`: a nonempty float or
    integer array goes to ``arrays``, and ``json.dumps`` writes the stand-in in
    its place; a 0-d or empty one is its ``tolist()``."""
    if not isinstance(o, np.ndarray):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    kind = o.dtype.kind
    if not (kind in "iu" or (kind == "f" and o.dtype.itemsize <= 8)):
        raise TypeError(f"Object of type ndarray of {o.dtype} is not JSON serializable")
    if o.ndim == 0 or o.size == 0:
        return o.tolist()
    finite = np.isfinite(o)  # all true on an integer array
    if not finite.all():
        json.dumps(float(o[~finite][0]), allow_nan=False)  # raises json's ValueError
    arrays.append(o)
    return _STAND_IN


class _FloatTexts:
    """The number texts of the cells of the float arrays that one
    :func:`canonical_json` call parked.

    One sort of the bit patterns of all of them, so that 0.0 and -0.0 stay
    apart, and the ``repr`` text of each distinct value from
    :func:`qrot._floattext.float_texts`, which is fastest on values in that
    order. An array's texts are taken from that table only when it is
    written, so those of one array at a time are held.
    """

    def __init__(self, arrays):
        found = {id(a): a for a in arrays if a.dtype.kind == "f"}
        self._index = {}
        if not found:
            return
        arrays = list(found.values())
        bits = np.concatenate([a.reshape(-1) for a in arrays], dtype=np.float64).view(np.uint64)
        # np.unique(bits, return_inverse=True), holding fewer copies of the cells
        # at once; an int32 index suffices, since the texts alone of 2**31 cells
        # would take 16 GB. Only the cells other than +0.0 are sorted: +0.0, bit
        # pattern 0, would sort first anyway, so it takes slot 0 of the table
        nonzero = bits != 0
        zero_slot = int(not nonzero.all())  # 1 when some cell is +0.0
        bits = bits[nonzero]
        order = bits.argsort()
        bits = bits[order]
        first = np.empty(bits.size, dtype=bool)
        first[:1] = True
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        unique = np.concatenate([np.zeros(zero_slot, dtype=np.uint64), bits[first]])
        del bits
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.cumsum(first, dtype=np.int32) + (zero_slot - 1)
        del order, first
        inverse = np.zeros(nonzero.size, dtype=np.int32)
        inverse[nonzero] = rank
        del nonzero, rank
        self._texts = np.array(float_texts(unique.view(np.float64)), dtype=object)
        stops = np.cumsum([a.size for a in arrays]).tolist()
        for key, start, stop in zip(found, [0, *stops], stops):
            self._index[key] = inverse[start:stop]

    def cells(self, arr):
        """Nested lists of the texts of the cells of ``arr``, as ``arr.tolist()`` nests them."""
        return self._texts[self._index[id(arr)]].reshape(arr.shape).tolist()


def _rows(cells, pad, depth):
    """JSON text of nested lists of ``depth`` levels holding number texts, as
    ``json.dumps`` indents them; ``pad`` is a newline plus the indentation of
    the line the text continues."""
    inner = pad + "  "
    if depth > 1:
        cells = [_rows(row, inner, depth - 1) for row in cells]
    return "".join(("[", inner, ("," + inner).join(cells), pad, "]"))


def _array(arr, pad, floats):
    """What ``json.dumps`` writes for ``arr.tolist()`` of a parked array whose
    first line continues a line indented by ``pad``. A float array takes its
    texts from ``floats``, an integer array formats each of its distinct
    values once: every value from its least to its greatest when that range
    is no larger than the array, which needs no sort."""
    if arr.dtype.kind == "f":
        cells = floats.cells(arr)
    else:
        low, high = arr.min(), int(arr.max())
        if high - int(low) <= arr.size:  # in Python ints, which do not overflow
            texts = np.array(list(map(repr, range(int(low), high + 1))), dtype=object)
            # the offsets wrap in arr's dtype, but fit its unsigned twin
            cells = texts[(arr - low).view(f"u{arr.itemsize}")]
        else:
            unique, inverse = np.unique(arr.reshape(-1), return_inverse=True)
            texts = np.array(list(map(repr, unique.tolist())), dtype=object)
            cells = texts[inverse].reshape(arr.shape)
        cells = cells.tolist()
    return _rows(cells, pad, arr.ndim)


def canonical_json(obj):
    """Deterministic serialization: sorted keys, two-space indent, trailing newline.

    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
    which also takes numpy float and integer arrays of any shape. An array
    is written exactly as ``json.dumps`` writes its ``tolist()`` at that
    depth: ``json.dumps`` writes a stand-in for each nonempty one, and the
    package writes its cells in the stand-in's place. Each distinct value of
    the document's float arrays is formatted once, by the array kernel
    :func:`qrot._floattext.float_texts`, which gives the text of
    ``float.__repr__``; each distinct value of an integer array is formatted
    once per array. An array of any other dtype raises TypeError, and one
    holding nan or an infinity raises json's ValueError.
    """
    arrays = []
    try:
        text = json.dumps(
            obj, indent=2, sort_keys=True, allow_nan=False, default=lambda o: _park(o, arrays)
        )
        floats = _FloatTexts(arrays)
        parts = text.split(json.dumps(_STAND_IN))
        out = [parts[0]]
        # json.dumps calls the hook in the order it writes, and under indent=2
        # each stand-in is on a line of its own (after its key, in an object),
        # whose indentation is the stand-in's pad
        for arr, before, after in zip(arrays, parts, parts[1:]):
            line = before[before.rfind("\n") + 1 :]
            pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            out += (_array(arr, pad, floats), after)
        out.append("\n")
        return "".join(out)
    finally:
        # json's indenting encoder holds the hook in a reference cycle until
        # the next collection; emptied, the list keeps no array alive
        arrays.clear()
