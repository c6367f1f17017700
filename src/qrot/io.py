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

Serialization is canonical (:func:`canonical_json`): sorted keys, two-space
indent, shortest round-trip floats, a trailing newline, byte for byte what
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` writes, so
identical inputs produce byte-identical reports. Report builders pass numpy
float and integer arrays as they are; the encoder writes each one as
``json.dumps`` writes its ``tolist()``, formatting each distinct number of
the document once, which pays off on the repeated cells of a symmetric cost
or density, of the component labels, of a sparse density's zeros and of the
polytope's ``a`` and its closure ``dist``, which share most of their values.
"""

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

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
    place of the expanded cost; None for a dense-cost instance.
    """

    instance: Instance
    symmetric: bool = False
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    generator: dict | None = None


def _floats(value):
    return np.asarray(value, dtype=float)


def _numeric(doc, key, convert, owner=""):
    """``convert(doc[key])``; a ValidationError naming the field if it is absent or not numeric."""
    if key not in doc:
        raise ValidationError(f"{owner}missing field {key!r}")
    try:
        return convert(doc[key])
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
        return cost, x, y, {"kind": kind, "x": x.tolist(), "y": y.tolist()}
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

    inst = validate_instance(
        mu, nu, cost, mu_tilde=mu_tilde, nu_tilde=nu_tilde, epsilon=doc.get("epsilon", 1.0)
    )
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

    The weights and the cost stay numpy arrays, which ``canonical_json``
    writes with the bytes of their ``tolist()``; ``json.dumps`` does not take
    them.
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


def load_instance(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_dict(doc)


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

    Entries must be numbers or the string "inf".
    """
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid extended matrix: {exc}") from None
    if np.isnan(arr).any():
        raise ValidationError("invalid extended matrix: entry is not a number")
    return arr


_PLAIN_NUMBERS = {float, int}
_LEAVES = (str, int, float, type(None))


def _float(o):
    if o != o or o in (math.inf, -math.inf):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
    return float.__repr__(o)


def _key(k):
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
            )
        k = _encode(k, "", None)
    return encode_basestring_ascii(k)


def _float_arrays(o, found):
    """Add every float array of ``o`` that has cells to ``found``, keyed by ``id``."""
    if isinstance(o, np.ndarray):
        if o.dtype.kind == "f" and o.dtype.itemsize <= 8 and o.ndim and o.size:
            found[id(o)] = o
    elif isinstance(o, dict):
        for v in o.values():
            _float_arrays(v, found)
    elif isinstance(o, (list, tuple)):
        for v in o:
            if not isinstance(v, _LEAVES):
                _float_arrays(v, found)


class _FloatTexts:
    """The number texts of the cells of one document's float arrays.

    One sort of the bit patterns of all of them, so that 0.0 and -0.0 stay
    apart, and one ``repr`` per distinct value. An array's texts are taken
    from that table only when it is written, so those of one array at a time
    are held.
    """

    def __init__(self, doc):
        found = {}
        _float_arrays(doc, found)
        self._index = {}
        if not found:
            return
        arrays = list(found.values())
        bits = np.concatenate([a.reshape(-1) for a in arrays], dtype=np.float64).view(np.uint64)
        # np.unique(bits, return_inverse=True), holding fewer copies of the cells
        # at once; an int32 index suffices, since the texts alone of 2**31 cells
        # would take 16 GB
        order = bits.argsort()
        bits = bits[order]
        first = np.empty(bits.size, dtype=bool)
        first[0] = True
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        unique = bits[first]
        del bits
        inverse = np.empty(order.size, dtype=np.int32)
        inverse[order] = np.cumsum(first, dtype=np.int32) - 1
        del order, first
        self._texts = np.array(list(map(repr, unique.view(np.float64).tolist())), dtype=object)
        stops = np.cumsum([a.size for a in arrays]).tolist()
        for key, start, stop in zip(found, [0, *stops], stops):
            self._index[key] = inverse[start:stop]

    def cells(self, arr):
        """Nested lists of the texts of the cells of ``arr``, as ``arr.tolist()`` nests them."""
        return self._texts[self._index[id(arr)]].reshape(arr.shape).tolist()


def _rows(cells, pad, depth):
    """``_encode`` of nested lists of ``depth`` levels holding JSON number texts."""
    inner = pad + "  "
    if depth > 1:
        cells = [_rows(row, inner, depth - 1) for row in cells]
    return "".join(("[", inner, ("," + inner).join(cells), pad, "]"))


def _array(arr, pad, floats):
    """``_encode(arr.tolist(), pad)`` for a float or integer array; a float array
    takes its texts from ``floats``, an integer array formats each of its
    distinct values once."""
    kind = arr.dtype.kind
    if not (kind in "iu" or (kind == "f" and arr.dtype.itemsize <= 8)):
        raise TypeError(f"Object of type ndarray of {arr.dtype} is not JSON serializable")
    if arr.ndim == 0 or arr.size == 0:
        return _encode(arr.tolist(), pad, None)
    if kind == "f":
        finite = np.isfinite(arr)
        if not finite.all():
            _float(float(arr[~finite][0]))  # raises json's ValueError
        cells = floats.cells(arr)
    else:
        unique, inverse = np.unique(arr.reshape(-1), return_inverse=True)
        texts = np.array(list(map(repr, unique.tolist())), dtype=object)
        cells = texts[inverse].reshape(arr.shape).tolist()
    return _rows(cells, pad, arr.ndim)


def _encode(o, pad, floats):
    """JSON text of ``o`` whose first line continues a line; ``pad`` is a newline
    plus the indentation of that line, and ``floats`` the :class:`_FloatTexts`
    of the document."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, np.ndarray):
        return _array(o, pad, floats)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = None
        if set(map(type, o)) <= _PLAIN_NUMBERS:
            # repr of an exact int or float is int.__repr__ or float.__repr__,
            # and only nan and the infinities write an "n"
            body = sep.join(map(repr, o))
            if "n" in body:
                body = None  # the per-item route raises on the first one
        if body is None:
            body = sep.join([_encode(v, inner, floats) for v in o])
        return "".join(("[", inner, body, pad, "]"))  # copies body once, + would twice
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join(
            [_key(k) + ": " + _encode(v, inner, floats) for k, v in sorted(o.items())]
        )
        return "".join(("{", inner, body, pad, "}"))
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def canonical_json(obj):
    """Deterministic serialization: sorted keys, two-space indent, trailing newline.

    Byte-identical to ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, including its ValueError on nan and infinities
    and its TypeError on unsupported types, but list-joins numbers instead of
    running the json module's pure-Python indenting encoder item by item.

    A numpy float or integer array (of any shape, 0-d and empty included) is
    written exactly as ``json.dumps`` writes ``arr.tolist()`` at that depth.
    Each distinct value of the document's float arrays is formatted once, and
    each distinct value of an integer array once per array. An array of any
    other dtype raises TypeError, and one holding nan or an infinity raises
    json's ValueError.
    """
    return _encode(obj, "\n", _FloatTexts(obj)) + "\n"
