"""Instance and report file formats.

Instances are JSON documents with ``schema_version`` 1, weight arrays, an
``epsilon`` and exactly one of a dense ``cost`` matrix or a ``generator``
spec. Reports are JSON documents that round-trip losslessly: floats use the
shortest round-trip representation, infinities in the constraint matrix are
encoded as the string ``"inf"``, and serialization is canonical (sorted keys,
fixed indentation), so identical inputs produce byte-identical reports.
"""

import json
from dataclasses import dataclass

import numpy as np

from .model import Instance, ValidationError, validate_instance

__all__ = [
    "SCHEMA_VERSION",
    "LoadedInstance",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "canonical_json",
    "encode_extended",
    "decode_extended",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadedInstance:
    """A validated instance plus file-level metadata the solver core does not need."""

    instance: Instance
    symmetric: bool = False
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def _generator_cost(gen, n, m):
    kind = gen.get("kind")
    if kind == "quadratic_1d":
        try:
            x = np.asarray(gen["x"], dtype=float)
            y = np.asarray(gen["y"], dtype=float)
        except KeyError as exc:
            raise ValidationError(f"generator quadratic_1d is missing field {exc}") from None
        if x.size != n or y.size != m:
            raise ValidationError(
                f"dimension mismatch: generator points have sizes ({x.size}, {y.size}),"
                f" expected ({n}, {m})"
            )
        return (x[:, None] - y[None, :]) ** 2, x, y
    if kind == "indicator_offdiag":
        if n != m:
            raise ValidationError(
                f"dimension mismatch: indicator_offdiag needs square instances, got ({n}, {m})"
            )
        try:
            gamma = float(gen["gamma"])
        except KeyError:
            raise ValidationError("generator indicator_offdiag is missing field 'gamma'") from None
        return (2.0 + gamma) * (1.0 - np.eye(n)), None, None
    raise ValidationError(f"unknown generator kind {kind!r}")


def instance_from_dict(doc):
    """Parse and validate an instance document."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    for key in ("mu", "nu"):
        if key not in doc:
            raise ValidationError(f"missing field {key!r}")
    has_cost = "cost" in doc
    has_gen = "generator" in doc
    if has_cost == has_gen:
        raise ValidationError("exactly one of 'cost' or 'generator' must be present")

    mu = np.asarray(doc["mu"], dtype=float)
    nu = np.asarray(doc["nu"], dtype=float)
    x = y = None
    if has_cost:
        cost = np.asarray(doc["cost"], dtype=float)
    else:
        cost, x, y = _generator_cost(doc["generator"], mu.size, nu.size)

    inst = validate_instance(
        mu,
        nu,
        cost,
        mu_tilde=doc.get("mu_tilde"),
        nu_tilde=doc.get("nu_tilde"),
        epsilon=doc.get("epsilon", 1.0),
    )
    return LoadedInstance(
        instance=inst, symmetric=bool(doc.get("symmetric", False)), x=x, y=y
    )


def instance_to_dict(inst, symmetric=False):
    return {
        "schema_version": SCHEMA_VERSION,
        "mu": inst.mu.tolist(),
        "nu": inst.nu.tolist(),
        "mu_tilde": inst.mu_tilde.tolist(),
        "nu_tilde": inst.nu_tilde.tolist(),
        "cost": inst.cost.tolist(),
        "epsilon": inst.epsilon,
        "symmetric": bool(symmetric),
    }


def load_instance(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_dict(doc)


def encode_extended(matrix):
    """Matrix to nested lists with infinities (of either sign) encoded as the string "inf"."""
    arr = np.asarray(matrix, dtype=float)
    out = arr.tolist()
    for i, j in np.argwhere(np.isinf(arr)).tolist():
        out[i][j] = "inf"
    return out


def decode_extended(rows):
    """Inverse of :func:`encode_extended`; entries must be numbers or the string "inf"."""
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid extended matrix: {exc}") from None
    if np.isnan(arr).any():
        raise ValidationError("invalid extended matrix: entry is not a number")
    return arr


def canonical_json(obj):
    """Deterministic serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
