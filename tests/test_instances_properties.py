"""Hypothesis properties of the instance loader and the JSON emitter.

Fuzzed instance JSON is either refused with a BoxlabError (exit 3 from the
CLI) or loaded into frozen float64 arrays equal to the raw values.  The
emitter is checked against `reference_emit`, the per-string
`json.dumps` serializer it replaced.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.cli import main
from boxlab.errors import BoxlabError, MalformedProblem
from boxlab.instances import emit_json, instance_from_dict

# ---------------------------------------------------------------------------
# fuzzed instance JSON

# Leaves and entries that no instance may hold: booleans, strings, null,
# nested or empty containers, integers past the float range, nan and inf.
_JUNK = [True, False, None, "", "x", "0.5", "1", [], [1.0], {}, {"a": 1},
         10**400, -(10**400), math.nan, math.inf, -math.inf]
# Junk that numpy would read as a number.
_LOOKALIKES = [True, False, "0.5", "1"]
# Weights that are numbers but not all valid: zero, negative, a sum past the
# float range, and atoms that normalize to zero.
_ODD_WEIGHTS = [0.0, -0.0, -1.0, 1e308, 1e-320, 5e-324, 1e10, 2**70]


def _weight(rnd):
    r = rnd.random()
    if r < 0.01:
        return rnd.choice(_JUNK)
    if r < 0.02:
        return rnd.choice(_LOOKALIKES)
    if r < 0.05:
        return rnd.choice(_ODD_WEIGHTS)
    return rnd.uniform(1e-3, 1e3) if r < 0.7 else rnd.randint(1, 100)


def _value(rnd):
    r = rnd.random()
    if r < 0.005:
        return rnd.choice(_JUNK)
    if r < 0.01:
        return rnd.choice(_LOOKALIKES)
    if r < 0.015:
        return rnd.choice([-0.0, 1e300, 2**70])
    return rnd.uniform(-1e3, 1e3) if r < 0.7 else rnd.randint(-100, 100)


def _tensor(rnd, shape):
    if not shape:
        return _value(rnd)
    rows = [_tensor(rnd, shape[1:]) for _ in range(shape[0])]
    r = rnd.random()
    if r < 0.01:
        rows.pop()  # ragged, or a wrong shape
    elif r < 0.02:
        rows.append(rows[0])
    elif r < 0.025:
        rows = rnd.choice(_JUNK)
    return rows


@st.composite
def fuzzed_instance(draw):
    """Instance JSON with, now and then, a defect at any level."""
    # A Random seeded by the draw keeps the defect rates below; one driven by
    # hypothesis tends to 0 and refuses nearly every instance.
    rnd = draw(st.randoms(use_true_random=True))
    n = rnd.randint(1, 3)
    sizes = [rnd.randint(1, 3) for _ in range(n)]
    spaces = [[_weight(rnd) for _ in range(z)] for z in sizes]
    if rnd.random() < 0.05:
        spaces[rnd.randrange(n)] = rnd.choice(_JUNK + [[[1.0, 2.0]], [[1.0], [2.0, 3.0]]])
    edges = []
    for _ in range(rnd.randint(0, 3)):
        e = sorted(set(rnd.randrange(n) for _ in range(rnd.randint(1, 3))))
        r = rnd.random()
        if r < 0.02:
            e = e[::-1] if len(e) > 1 else [e[0], e[0]]  # unsorted or repeated
        elif r < 0.04:
            e = e + [rnd.randint(-1, n)]  # possibly out of range
        elif r < 0.05:
            e = []
        elif r < 0.06:
            e = [rnd.choice(_JUNK)] + e
        elif r < 0.08 and edges:
            e = list(edges[0])  # a duplicate edge
        elif e in edges:
            continue
        edges.append(e)
    functions = []
    for e in edges:
        if rnd.random() < 0.1:
            continue
        shape = [sizes[v] if type(v) is int and 0 <= v < n else 2 for v in e]
        entry = {"edge": list(e), "values": _tensor(rnd, shape)}
        r = rnd.random()
        if r < 0.02:
            del entry[rnd.choice(["edge", "values"])]
        elif r < 0.04:
            entry["edge"] = rnd.choice(_JUNK + [[rnd.randint(-1, n)], [0, n]])
        functions.append(entry)
    if functions and rnd.random() < 0.03:
        functions.append(functions[0])  # a duplicate entry
    data = {"spaces": spaces, "edges": edges, "functions": functions}
    r = rnd.random()
    if r < 0.02:
        del data[rnd.choice(sorted(data))]
    elif r < 0.04:
        data[rnd.choice(sorted(data))] = rnd.choice(_JUNK)
    elif r < 0.05:
        data = rnd.choice(_JUNK)
    elif r < 0.08:
        data["meta"] = rnd.choice(_JUNK)
    return data


def _loaded(data):
    """(system, functions) or the refusal, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            system, functions, _ = instance_from_dict(data)
        except BoxlabError as exc:
            return exc
    return system, functions


def _frozen_float64(arr) -> bool:
    return arr.dtype == np.float64 and arr.flags.c_contiguous and not arr.flags.writeable


def _leaves(raw) -> set:
    """The types of the leaves of nested lists."""
    if type(raw) is not list:
        return {type(raw)}
    return set().union(*map(_leaves, raw))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFuzzedInstances:
    @settings(max_examples=400)
    @given(fuzzed_instance())
    def test_refused_or_loaded_exactly(self, data):
        got = _loaded(data)
        if isinstance(got, BoxlabError):
            return
        system, functions = got
        for raw, space in zip(data["spaces"], system.spaces):
            assert _leaves(raw) <= {float, int}
            w = np.asarray(raw, dtype=np.float64)
            assert np.isfinite(w).all() and (w > 0.0).all()
            assert _frozen_float64(space.weights)
            assert _same_bits(space.weights, w / np.sum(w))
            assert (space.weights > 0.0).all()
        by_edge = {tuple(item["edge"]): item["values"] for item in data["functions"]}
        assert set(functions) == set(by_edge) and set(functions) <= set(system.edges)
        for e, f in functions.items():
            assert f.edge == e
            assert _leaves(by_edge[e]) <= {float, int}
            assert _frozen_float64(f.values)
            assert _same_bits(f.values, np.asarray(by_edge[e], dtype=np.float64))

    @settings(max_examples=150)
    @given(fuzzed_instance())
    def test_cli_exits_0_or_3(self, data):
        got = _loaded(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzzed.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["norm", "--instance", path, "--edge", "0", "--ell", "2"])
        if isinstance(got, BoxlabError):
            assert code == 3
            assert json.loads(err.getvalue())["error"] == type(got).__name__
        else:
            assert code in (0, 3), err.getvalue()


# ---------------------------------------------------------------------------
# emit_json against the per-string serializer it replaced


def reference_emit(obj, parts, level) -> None:
    pad = " " * (2 * level)
    pad_in = " " * (2 * (level + 1))
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise MalformedProblem(f"cannot serialize non-finite number {obj}")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise MalformedProblem(f"JSON object keys must be strings, got {key!r}")
            parts.append(pad_in)
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(": ")
            reference_emit(val, parts, level + 1)
            parts.append(",\n" if k + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        if all(not isinstance(x, (dict, list, tuple)) for x in seq):
            parts.append("[")
            for k, val in enumerate(seq):
                reference_emit(val, parts, level + 1)
                if k + 1 < len(seq):
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for k, val in enumerate(seq):
                parts.append(pad_in)
                reference_emit(val, parts, level + 1)
                parts.append(",\n" if k + 1 < len(seq) else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, np.floating):
        reference_emit(float(obj), parts, level)
    elif isinstance(obj, np.integer):
        reference_emit(int(obj), parts, level)
    elif isinstance(obj, np.ndarray):
        reference_emit(obj.tolist(), parts, level)
    else:
        raise MalformedProblem(f"cannot serialize {type(obj).__name__}")


def reference_json(obj) -> str:
    parts: list[str] = []
    reference_emit(obj, parts, 0)
    return "".join(parts) + "\n"


# Characters JSON must escape, control characters, non-ASCII and lone surrogates.
_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\n", "\t", "\r",
                     "é", " ", "﻿", "\U0001f600", "\ud800", "\udfff"]),
    st.characters(),
)
_TEXT = st.text(_CHARS, max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
    st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
)
_OBJECTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


def _plain(obj):
    """obj as `json.loads` gives it back: tuples as lists, numpy scalars as
    Python numbers."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _planted(draw, obj, key, value):
    """obj with one node x, found along a random path, replaced by
    [x, {key: value}]."""
    if isinstance(obj, (dict, list, tuple)) and obj and draw(st.booleans()):
        at = draw(st.sampled_from(list(obj) if isinstance(obj, dict) else range(len(obj))))
        out = dict(obj) if isinstance(obj, dict) else list(obj)
        out[at] = _planted(draw, obj[at], key, value)
        return out
    return [obj, {key: value}]


class TestEmitJsonProperty:
    @settings(max_examples=300)
    @given(_OBJECTS)
    def test_equals_reference_and_round_trips(self, obj):
        text = emit_json(obj)
        assert text == reference_json(obj)
        assert json.loads(text) == _plain(obj)

    @settings(max_examples=100)
    @given(
        _OBJECTS,
        st.sampled_from([
            ("x", math.nan), ("x", math.inf), ("x", -math.inf), ("x", np.float64("nan")),
            (1, 0.5), (None, 0.5), ((0,), "v"), (1.5, "v"),
        ]),
        st.data(),
    )
    def test_non_finite_floats_and_non_string_keys_refused(self, obj, poison, data):
        bad = _planted(data.draw, obj, *poison)
        with pytest.raises(MalformedProblem):
            reference_json(bad)
        with pytest.raises(MalformedProblem):
            emit_json(bad)
