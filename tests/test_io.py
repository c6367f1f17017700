"""Canonical JSON encoder against the json module, on generated trees (Hypothesis).

``canonical_json`` must write exactly what ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False) + "\\n"`` writes, and raise the same
exception types. Examples are derandomized, so every run checks the same
trees.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qrot.cli import main
from qrot.io import canonical_json, instance_to_dict
from conftest import block_instance, random_symmetric_instance, schema1_report, schema2_report

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
FEW = settings(SETTINGS, max_examples=50)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
EDGE_FLOATS += [1e16, 1e-7, 0.1, 123456789.0]
EDGE_INTS = [0, -1, 2**53 + 1, -(2**63), 10**40]


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
ints = st.integers() | st.sampled_from(EDGE_INTS)
# quotes, backslashes, control characters, non-ASCII and astral characters
texts = st.text(
    st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/é€😀') | st.characters(),
    max_size=8,
)
# plain numbers take the list-join route; a bool or None among them the per-item route
number_lists = st.lists(ints | floats, max_size=12) | st.lists(
    ints | floats | st.booleans() | st.none(), max_size=12
)
leaves = st.none() | st.booleans() | ints | floats | texts


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
        | number_lists
    )


trees = st.recursive(leaves | number_lists, containers, max_leaves=15)


@SETTINGS
@given(trees)
def test_same_bytes_as_json_dumps(obj):
    assert canonical_json(obj) == reference(obj)


@FEW
@given(st.dictionaries(st.none() | st.booleans() | ints | floats, leaves | number_lists))
def test_non_string_keys_as_json_dumps(obj):
    # json sorts such keys first, then writes them as strings
    try:
        expected = reference(obj)
    except TypeError:  # keys that do not sort, as True and 0.5
        with pytest.raises(TypeError):
            canonical_json(obj)
    else:
        assert canonical_json(obj) == expected


def containing(bad):
    """Trees with ``bad`` at some depth, behind valid siblings."""
    return st.recursive(
        st.just(bad),
        lambda inner: st.tuples(number_lists, inner, number_lists).map(
            lambda t: [*t[0], t[1], *t[2]]
        )
        | st.tuples(st.dictionaries(texts, leaves, max_size=3), texts, inner).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
        max_leaves=6,
    )


@FEW
@given(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]).flatmap(containing))
def test_nonfinite_floats_raise_value_error(obj):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        reference(obj)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json(obj)


class Code(enum.IntEnum):
    ONE = 1


def test_number_subclasses_take_the_repr_of_their_base():
    # numpy floats subclass float, IntEnum members subclass int
    obj = {"a": [np.float64(0.1), np.float64(-0.0), Code.ONE, 2], "b": np.float64(1e300)}
    obj["c"] = Code.ONE
    assert canonical_json(obj) == reference(obj)


def tolist(obj):
    """``obj`` with every array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: tolist(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [tolist(v) for v in obj]
    return obj


INT64_EDGES = [0, -1, 2**53 + 1, -(2**63), 2**63 - 1]
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def arrays_from(dtype, values, edges):
    """Arrays over a small pool of values, the edges among them, so that cells repeat."""
    pools = st.lists(values, max_size=4).map(lambda extra: edges + extra)
    return pools.flatmap(lambda pool: hnp.arrays(dtype, shapes, elements=st.sampled_from(pool)))


ints64 = st.integers(-(2**63), 2**63 - 1)
arrays = arrays_from(np.float64, floats, EDGE_FLOATS) | arrays_from(np.int64, ints64, INT64_EDGES)
array_trees = st.recursive(
    arrays,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3),
    max_leaves=5,
)


@SETTINGS
@given(array_trees)
def test_arrays_same_bytes_as_their_lists(obj):
    assert canonical_json(obj) == reference(tolist(obj))


@FEW
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3), elements=floats),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=0),
)
def test_nonfinite_array_raises_value_error(arr, bad, where):
    arr = arr.copy()
    arr.flat[where % arr.size] = bad
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json({"a": [1.0, arr]})


# float16, float32 and float64 subnormals and extremes, besides the signed zeros
SHARED_EDGES = [0.0, -0.0, 2.0**-24, 2.0**-149, 5e-324, -5e-324, 65504.0, -65504.0]
SHARED_EDGES += [3.4028234663852886e38, 1.7976931348623157e308, -1.7976931348623157e308]
SHARED_EDGES += [0.1, 0.5, 1e16]
FLOAT_DTYPES = [np.float16, np.float32, np.float64]


def representable(dtype, pool):
    """The values of ``pool`` that ``dtype`` holds exactly."""
    with np.errstate(over="ignore"):
        return [v for v in pool if float(dtype(v)) == v]


@st.composite
def shared_pool_documents(draw):
    """Dicts of float arrays of every rank and float dtype, int arrays, lists of
    arrays and floats, all drawing from one value pool, so that values repeat
    across arrays and dtypes; sometimes one array stands under two keys."""
    pool = SHARED_EDGES + draw(st.lists(floats, max_size=4))

    def float_arrays():
        dtype = draw(st.sampled_from(FLOAT_DTYPES))
        return draw(hnp.arrays(dtype, shapes, elements=st.sampled_from(representable(dtype, pool))))

    def value():
        kind = draw(st.sampled_from(["float array", "int array", "array list", "float"]))
        if kind == "float array":
            return float_arrays()
        if kind == "int array":
            return draw(arrays_from(np.int64, ints64, INT64_EDGES))
        if kind == "array list":  # as the sampled shifts of an analysis
            return [float_arrays() for _ in range(draw(st.integers(0, 3)))]
        return draw(st.sampled_from(pool))

    doc = {key: value() for key in draw(st.lists(texts, min_size=2, max_size=5, unique=True))}
    if draw(st.booleans()):
        doc["shared"] = doc["again"] = float_arrays()
    return doc


def float_arrays_of(obj):
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else []
    return [a for v in values for a in float_arrays_of(v)]


@SETTINGS
@given(shared_pool_documents())
def test_shared_values_same_bytes_as_their_lists(doc):
    assert canonical_json(doc) == reference(tolist(doc))


@FEW
@given(
    shared_pool_documents(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=0),
)
def test_nonfinite_cell_of_any_array_raises_value_error(doc, bad, where):
    candidates = [a for a in float_arrays_of(doc) if a.size]
    if not candidates:
        doc["bad"] = candidates = [np.zeros(3)]
    arr = candidates[where % len(candidates)]
    arr.flat[where % arr.size] = bad
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        reference(tolist(doc))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json(doc)


@FEW
@given(shared_pool_documents(), shared_pool_documents())
def test_no_state_carries_between_documents(first, second):
    expected = reference(tolist(second))
    canonical_json(first)
    assert canonical_json(second) == expected
    assert canonical_json(first) == reference(tolist(first))


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(1),
        [np.bool_(True)],
        {1, 2},
        [1.0, object()],
        {"k": 1j},
        {(1, 2): 0},
        np.array([True, False]),
        np.array([[1j]]),
        np.array([1.0, 2], dtype=object),
    ],
)
def test_unsupported_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_schema1_report_same_bytes(tmp_path):
    # reports in the former schemas: with the analysis, and also cost, pi and mask,
    # of a 40-point instance
    n = 40
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(size=n)).tolist()
    w = rng.uniform(0.5, 1.5, n)
    w = (w / w.sum()).tolist()
    doc = {"schema_version": 1, "mu": w, "nu": w[::-1], "epsilon": 0.01,
           "generator": {"kind": "quadratic_1d", "x": x, "y": x}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out, analysis = tmp_path / "report.json", tmp_path / "analysis.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert main(["analyze", str(out), "--out", str(analysis)]) == 0
    report = json.loads(out.read_text())
    assert canonical_json(report) == reference(report) == out.read_text()
    schema2 = schema2_report(report, json.loads(analysis.read_text()))
    for old in (schema2, schema1_report(schema2)):
        assert canonical_json(old) == reference(old)


def written_as_json_dumps(text):
    return text == reference(json.loads(text))


def test_symmetric_report_same_bytes(tmp_path):
    # self-transport: cost and density are exactly symmetric, so most cells repeat
    inst = random_symmetric_instance(np.random.default_rng(5), n=30, eps=0.1)
    path = tmp_path / "inst.json"
    path.write_text(canonical_json(instance_to_dict(inst, symmetric=True)))
    texts = []
    for name in ("a.json", "b.json"):
        assert main(["solve", str(path), "--out", str(tmp_path / name)]) == 0
        texts.append((tmp_path / name).read_text())
    assert json.loads(texts[0])["instance"]["symmetric"] is True
    assert written_as_json_dumps(texts[0])
    assert texts[0] == texts[1]


def test_analyze_with_samples_same_bytes(tmp_path):
    inst = block_instance(np.random.default_rng(6), 10)
    path = tmp_path / "inst.json"
    path.write_text(canonical_json(instance_to_dict(inst)))
    report, out = tmp_path / "report.json", tmp_path / "analysis.json"
    assert main(["solve", str(path), "--out", str(report)]) == 0
    assert main(["analyze", str(report), "--samples", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert len(json.loads(text)["sampled_shifts"]) == 2
    assert written_as_json_dumps(text)
