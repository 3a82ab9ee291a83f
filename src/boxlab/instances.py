"""Instance and report file handling.

Instance files are UTF-8 JSON of the shape

    {"spaces": [[w, ...], ...],
     "edges": [[i, ...], ...],
     "functions": [{"edge": [i, ...], "values": <nested lists>}, ...]}

with tensor values nested row-major in edge order.  An optional "meta"
object is carried through untouched; unknown keys are ignored.  The loader
revalidates every core invariant (positive weights, sorted in-range edges,
matching tensor shapes, finite entries) in one pass over the file, in
file order: each space; the vertex types of every edge, then each edge's
order, range and uniqueness; each function entry.  Each raw list is
type-checked (JSON numbers only: booleans and strings are refused) and
converted by one `np.array` call, and that array goes straight to
`make_prob_space` or to `edge_function`'s checks, which test its numeric
invariants with one reduction each; the loader owns the array, so the
tensor is frozen without a copy.  So the error raised is the first bad entry's,
and within an entry a ragged or non-number list (MalformedProblem) is
reported before a numeric fault (NonPositiveWeight, ShapeMismatch).  Raw
weights are normalized to w / sum(w); a vector that does not normalize to
positive weights is refused.

The emitter quotes keys and strings with `json.encoder.encode_basestring`,
the function `json.dumps(s, ensure_ascii=False)` calls, and tests for an
exact float first, the most common value.

All emitted numerics use 17 significant digits, which round-trips IEEE
doubles exactly, so parse(emit(x)) == x and byte-identical emissions mean
identical values.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import MalformedProblem
from .spaces import (
    EdgeFunction,
    HypergraphSystem,
    _checked_function,
    make_prob_space,
    make_system,
)

__all__ = [
    "emit_json",
    "parse_json",
    "digest_text",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "check_same_system",
]


_INDENT = 2
_STEP = " " * _INDENT

# `json.dumps(s, ensure_ascii=False)` quotes a string with this function,
# after building a new JSONEncoder.
_quote = json.encoder.encode_basestring


def _emit(obj, parts, level) -> None:
    if type(obj) is float:
        if not math.isfinite(obj):
            raise MalformedProblem(f"cannot serialize non-finite number {obj}")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, dict):
        _emit_dict(obj, parts, level)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, parts, level)
    elif isinstance(obj, (float, np.floating)):
        _emit(float(obj), parts, level)
    elif isinstance(obj, np.integer):
        _emit(int(obj), parts, level)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, level)
    else:
        raise MalformedProblem(f"cannot serialize {type(obj).__name__}")


def _emit_dict(obj, parts, level) -> None:
    if not obj:
        parts.append("{}")
        return
    pad = " " * (_INDENT * level)
    sep = "{\n" + pad + _STEP
    for key, val in obj.items():
        if not isinstance(key, str):
            raise MalformedProblem(f"JSON object keys must be strings, got {key!r}")
        parts += (sep, _quote(key), ": ")
        _emit(val, parts, level + 1)
        sep = ",\n" + pad + _STEP
    parts.append("\n" + pad + "}")


def _emit_list(obj, parts, level) -> None:
    if not obj:
        parts.append("[]")
        return
    if not any(isinstance(x, (dict, list, tuple)) for x in obj):
        sep = "["
        for val in obj:
            parts.append(sep)
            _emit(val, parts, level + 1)
            sep = ", "
        parts.append("]")
        return
    pad = " " * (_INDENT * level)
    sep = "[\n" + pad + _STEP
    for val in obj:
        parts.append(sep)
        _emit(val, parts, level + 1)
        sep = ",\n" + pad + _STEP
    parts.append("\n" + pad + "]")


def emit_json(obj) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def parse_json(text: str):
    return json.loads(text)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_to_dict(
    system: HypergraphSystem, functions, meta: dict | None = None
) -> dict:
    """Assemble the canonical instance dictionary (functions in edge order)."""
    fn_list = []
    if isinstance(functions, dict):
        items = sorted(functions.items())
    else:
        items = sorted((f.edge, f) for f in functions)
    for e, f in items:
        fn_list.append({"edge": list(e), "values": f.values.tolist()})
    out = {
        "spaces": [s.weights.tolist() for s in system.spaces],
        "edges": [list(e) for e in system.edges],
        "functions": fn_list,
    }
    if meta is not None:
        out["meta"] = meta
    return out


def _numbers_only(raw: list) -> bool:
    """True iff the nested lists `raw` hold only JSON numbers (booleans are
    not numbers here)."""
    for x in raw:
        t = type(x)
        if t is list:
            if not _numbers_only(x):
                return False
        elif t is not float and t is not int:
            return False
    return True


def _float_array(raw) -> np.ndarray | None:
    """raw, a JSON number or nested lists of them, as one float array; None
    if it is anything else or ragged."""
    try:
        if not (_numbers_only(raw) if type(raw) is list else type(raw) in (float, int)):
            return None
        return np.array(raw, dtype=np.float64)
    except (ValueError, OverflowError, RecursionError):  # ragged, past the float range, too deep
        return None


def _vertices(raw) -> tuple[int, ...] | None:
    """raw, a list of JSON integers, as a tuple of vertex indices; None if
    it is anything else."""
    if type(raw) is list and all(type(v) is int for v in raw):
        return tuple(raw)
    return None


def _bad_values(what: str) -> MalformedProblem:
    return MalformedProblem(f"{what}: values must be numbers in a regular array")


def _bad_edge(what: str) -> MalformedProblem:
    return MalformedProblem(f"{what}: an edge must be a list of integer vertex indices")


def instance_from_dict(data) -> tuple[HypergraphSystem, dict, dict]:
    """Validate and build (system, functions, meta) from parsed JSON, in one
    pass in file order (see the module docstring)."""
    if not isinstance(data, dict):
        raise MalformedProblem("instance file must hold a JSON object")
    for key in ("spaces", "edges", "functions"):
        if key not in data:
            raise MalformedProblem(f"instance file missing key {key!r}")
    spaces_raw = data["spaces"]
    if not isinstance(spaces_raw, list) or not spaces_raw:
        raise MalformedProblem("'spaces' must be a nonempty list of weight lists")
    spaces = []
    for k, ws in enumerate(spaces_raw):
        if not isinstance(ws, list) or not ws:
            raise MalformedProblem(f"space {k} must be a nonempty weight list")
        w = _float_array(ws)
        if w is None:
            raise _bad_values(f"space {k}")
        spaces.append(make_prob_space(w))
    edges_raw = data["edges"]
    if not isinstance(edges_raw, list):
        raise MalformedProblem("'edges' must be a list of vertex-index lists")
    edges = [_vertices(e) for e in edges_raw]
    if None in edges:
        raise _bad_edge(f"edge {edges.index(None)}")
    system = make_system(spaces, edges)
    fns_raw = data["functions"]
    if not isinstance(fns_raw, list):
        raise MalformedProblem("'functions' must be a list of {edge, values} objects")
    functions: dict[tuple[int, ...], EdgeFunction] = {}
    for k, item in enumerate(fns_raw):
        if not isinstance(item, dict) or "edge" not in item or "values" not in item:
            raise MalformedProblem(f"function entry {k} must have 'edge' and 'values'")
        e = _vertices(item["edge"])
        if e is None:
            raise _bad_edge(f"function entry {k}")
        if e not in system.shapes:
            raise MalformedProblem(f"function entry {k} names unknown edge {list(e)}")
        if e in functions:
            raise MalformedProblem(f"duplicate function entry for edge {list(e)}")
        values = _float_array(item["values"])
        if values is None:
            raise _bad_values(f"function entry {k}")
        functions[e] = _checked_function(system, e, values)
    meta = data.get("meta") if isinstance(data.get("meta"), dict) else {}
    return system, functions, meta


def save_instance(path: str, system, functions, meta: dict | None = None) -> str:
    """Write the instance file; returns its sha256 digest."""
    text = emit_json(instance_to_dict(system, functions, meta))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return digest_text(text)


def load_instance(path: str) -> tuple[HypergraphSystem, dict, dict, str]:
    """Read an instance file; returns (system, functions, meta, digest)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = parse_json(text)
    except json.JSONDecodeError as exc:
        raise MalformedProblem(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise MalformedProblem(f"{path}: JSON nested too deeply to read") from exc
    system, functions, meta = instance_from_dict(data)
    return system, functions, meta, digest_text(text)


def check_same_system(system: HypergraphSystem, other: HypergraphSystem, what: str) -> None:
    """MalformedProblem unless `other` has the edges of `system` and, space by
    space, exactly its normalized weights, so that a second tensor family
    loaded with `other` may be evaluated under the measure of `system`."""
    if other.edges != system.edges:
        raise MalformedProblem(f"{what} carries a different edge set")
    if other.n != system.n or not all(
        np.array_equal(a.weights, b.weights) for a, b in zip(system.spaces, other.spaces)
    ):
        raise MalformedProblem(f"{what} carries different vertex weights")
