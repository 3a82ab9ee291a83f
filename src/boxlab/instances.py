"""Instance and report file handling.

Instance files are UTF-8 JSON of the shape

    {"spaces": [[w, ...], ...],
     "edges": [[i, ...], ...],
     "functions": [{"edge": [i, ...], "values": <nested lists>}, ...]}

with tensor values nested row-major in edge order.  An optional "meta"
object is carried through untouched; unknown keys are ignored.  The loader
revalidates every core invariant (positive weights, sorted in-range edges,
matching tensor shapes, finite entries).

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
    edge_function,
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


def _emit(obj, parts, level) -> None:
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
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
            _emit(val, parts, level + 1)
            parts.append(",\n" if k + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        flat = all(not isinstance(x, (dict, list, tuple)) for x in seq)
        if flat:
            parts.append("[")
            for k, val in enumerate(seq):
                _emit(val, parts, level + 1)
                if k + 1 < len(seq):
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for k, val in enumerate(seq):
                parts.append(pad_in)
                _emit(val, parts, level + 1)
                parts.append(",\n" if k + 1 < len(seq) else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, (np.floating,)):
        _emit(float(obj), parts, level)
    elif isinstance(obj, (np.integer,)):
        _emit(int(obj), parts, level)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, level)
    else:
        raise MalformedProblem(f"cannot serialize {type(obj).__name__}")


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


def _numbers_only(raw) -> bool:
    """True iff raw is a JSON number or nested lists of JSON numbers
    (booleans are not numbers here)."""
    stack = [raw]
    while stack:
        x = stack.pop()
        if type(x) is list:
            stack.extend(x)
        elif type(x) is not float and type(x) is not int:
            return False
    return True


def _float_array(raw, what: str) -> np.ndarray:
    """raw as a float array; ragged or non-numeric input (strings and
    booleans included) is MalformedProblem."""
    if _numbers_only(raw):
        try:
            return np.asarray(raw, dtype=np.float64)
        except (ValueError, OverflowError):
            pass
    raise MalformedProblem(f"{what}: values must be numbers in a regular array")


def _vertices(raw, what: str) -> tuple[int, ...]:
    """raw as a tuple of vertex indices; anything but a list of JSON integers
    is MalformedProblem."""
    if not isinstance(raw, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw
    ):
        raise MalformedProblem(f"{what}: an edge must be a list of integer vertex indices")
    return tuple(raw)


def instance_from_dict(data) -> tuple[HypergraphSystem, dict, dict]:
    """Validate and build (system, functions, meta) from parsed JSON."""
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
        spaces.append(make_prob_space(_float_array(ws, f"space {k}")))
    edges_raw = data["edges"]
    if not isinstance(edges_raw, list):
        raise MalformedProblem("'edges' must be a list of vertex-index lists")
    edges = [_vertices(e, f"edge {k}") for k, e in enumerate(edges_raw)]
    system = make_system(spaces, edges)
    fns_raw = data["functions"]
    if not isinstance(fns_raw, list):
        raise MalformedProblem("'functions' must be a list of {edge, values} objects")
    functions: dict[tuple[int, ...], EdgeFunction] = {}
    for k, item in enumerate(fns_raw):
        if not isinstance(item, dict) or "edge" not in item or "values" not in item:
            raise MalformedProblem(f"function entry {k} must have 'edge' and 'values'")
        e = _vertices(item["edge"], f"function entry {k}")
        if e not in system.edges:
            raise MalformedProblem(f"function entry {k} names unknown edge {list(e)}")
        if e in functions:
            raise MalformedProblem(f"duplicate function entry for edge {list(e)}")
        functions[e] = edge_function(
            system, e, _float_array(item["values"], f"function entry {k}")
        )
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
