"""Finite discrete probability substrate: spaces, hypergraph systems, tensors.

Everything downstream evaluates expectations of products of edge tensors over
product grids in which each vertex may carry one or several independent
replicas.  The Grid class owns that bookkeeping: axes are (vertex, replica)
pairs, and tensors are lifted onto the grid by reshape/transpose so numpy
broadcasting aligns them.  `Grid.expect` takes every grid expectation but
`boxnorm.gcs_form`'s, which eliminates replicas without building a grid.  A
grid of at most one block (2**16 cells) is multiplied out in one array and
summed by numpy's pairwise sum, so its value equals that of the fully
materialised product bit for bit.  A larger grid is summed block by block
over its trailing axes, in a fixed order: a depth-first walk of the leading
indices forms each prefix's product once for all its children, and groups
of factors that are the same views of the same memory share one folded
cache.  Either way the value is reproducible bit for bit, independent of
thread count.  Its products are built by `_fold`, whose array layout never
changes which operands a cell multiplies, or in what order.
`_grid_lp_norms` takes the L_p norms of a batch of tensors on one grid with
the same sums, row by row, and every L_p norm goes through it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyHypergraph,
    EmptySpace,
    MalformedProblem,
    NonPositiveWeight,
    POutOfRange,
    ShapeMismatch,
    SizeCapExceeded,
)

# Hard ceiling on the number of cells a single evaluation grid may hold.
GRID_CELL_CAP = 1 << 25

# numpy's (2.x) limit on the axes of one ndarray; a grid has one axis per key.
MAX_GRID_AXES = 64

# Guard for integer powers ell ** |e| used as exponents and work estimates.
POWER_GUARD = 1 << 62

# Cells of the largest array `Grid.expect` multiplies out per leading index,
# and of the largest level the recursive box-norm peel builds at once.
BLOCK_CELLS = 1 << 16

# `_fold` multiplies a product of fewer cells by the plain in-place loop;
# from this size on it copies factors over the innermost axes of at least
# `INNER_CELLS` cells, so that numpy multiplies contiguous runs that long.
FOLD_MIN_CELLS = 1 << 12
INNER_CELLS = 1 << 8


def _freeze(arr: np.ndarray) -> np.ndarray:
    """`arr` as a C-contiguous, non-writable float64 array; one that already
    is contiguous float64 is frozen in place, not copied."""
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ProbSpace:
    """One finite probability space: normalized positive atom weights."""

    weights: np.ndarray

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])


def make_prob_space(raw_weights) -> ProbSpace:
    """Build a space from positive raw weights, normalizing them to sum 1.

    The weights are w / sum(w), summed by numpy's pairwise sum.  One check
    after normalizing refuses every vector that does not give positive
    weights: a zero, negative, nan or infinite weight, a sum past the float
    range, and a weight that normalizes to zero.
    """
    w = np.asarray(raw_weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise EmptySpace(f"need a nonempty weight vector, got shape {w.shape}")
    with np.errstate(all="ignore"):
        total = float(np.add.reduce(w))
        out = w / total
    if not (total > 0.0 and np.minimum.reduce(out) > 0.0):
        raise NonPositiveWeight(_weight_fault(w, total))
    out.flags.writeable = False
    return ProbSpace(out)


def _weight_fault(w: np.ndarray, total: float) -> str:
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        return f"weights must be finite and > 0, got {w.tolist()}"
    if not math.isfinite(total):
        return f"weights {w.tolist()} sum past the float range"
    return f"weights {w.tolist()} normalize to an atom of weight 0"


def as_edge(seq) -> tuple[int, ...]:
    """Canonicalize an edge: strictly increasing tuple of vertex indices."""
    e = tuple(map(int, seq))
    if len(e) == 0:
        raise EmptyHypergraph("an edge needs at least one vertex")
    if not all(map(operator.lt, e, e[1:])):
        raise ShapeMismatch(f"edge must be strictly increasing, got {e}")
    return e


@dataclass(frozen=True, eq=False)
class HypergraphSystem:
    """A list of probability spaces plus a set of edges over their indices."""

    spaces: tuple[ProbSpace, ...]
    edges: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.spaces)

    def space(self, v: int) -> ProbSpace:
        return self.spaces[v]

    def edge_shape(self, e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.spaces[v].size for v in e)

    @functools.cached_property
    def shapes(self) -> dict:
        """Each edge, mapped to itself and its tensor shape, so that a
        constructor given one of the system's edges need not canonicalize it."""
        return {e: (e, self.edge_shape(e)) for e in self.edges}

    def uniformity(self) -> int | None:
        """Common edge size, or None if edges have mixed sizes / are absent."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


def make_system(space_weights, edges) -> HypergraphSystem:
    """Build a system from weight vectors (or ready spaces) and edge lists."""
    spaces = tuple(
        w if isinstance(w, ProbSpace) else make_prob_space(w) for w in space_weights
    )
    n = len(spaces)
    canon = []
    seen = set()
    for e in edges:
        ce = as_edge(e)
        if ce[-1] >= n or ce[0] < 0:
            raise ShapeMismatch(f"edge {ce} references a space outside 0..{n - 1}")
        if ce in seen:
            raise ShapeMismatch(f"duplicate edge {ce}")
        seen.add(ce)
        canon.append(ce)
    return HypergraphSystem(spaces, tuple(canon))


def max_degree(system: HypergraphSystem) -> int:
    """Largest number of edges sharing one vertex."""
    if not system.edges:
        raise EmptyHypergraph("degree of an edgeless hypergraph is undefined")
    counts: dict[int, int] = {}
    for e in system.edges:
        for v in e:
            counts[v] = counts.get(v, 0) + 1
    return max(counts.values())


@dataclass(frozen=True, eq=False)
class EdgeFunction:
    """A real tensor indexed by the atoms of an edge's coordinate spaces.

    Axis k of `values` runs over the atoms of the k-th (sorted) vertex of
    `edge`.  Tensors are stored C-contiguous, float64, and non-writable.
    """

    edge: tuple[int, ...]
    values: np.ndarray

    @property
    def arity(self) -> int:
        return len(self.edge)


def edge_function(system: HypergraphSystem, edge, values) -> EdgeFunction:
    """Validate and freeze a tensor for an edge of the given system."""
    known = system.shapes.get(edge) if type(edge) is tuple else None
    if known is None:
        e = as_edge(edge)
        if e[-1] >= system.n:
            raise ShapeMismatch(f"edge {e} references a space outside 0..{system.n - 1}")
        want = system.edge_shape(e)
    else:
        e, want = known
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != want:
        raise ShapeMismatch(f"tensor shape {vals.shape} does not match {want} for edge {e}")
    if not np.isfinite(vals).all():
        raise ShapeMismatch(f"tensor for edge {e} contains non-finite entries")
    return EdgeFunction(e, _freeze(vals))


def derived_function(e: tuple[int, ...], values: np.ndarray) -> EdgeFunction:
    """Freeze a float tensor on canonical edge e that is already known to be
    finite and of e's shape, without checking it again."""
    return EdgeFunction(e, _freeze(values))


def constant_function(system: HypergraphSystem, edge, c: float = 1.0) -> EdgeFunction:
    e = as_edge(edge)
    return edge_function(system, e, np.full(system.edge_shape(e), float(c)))


def check_function(system: HypergraphSystem, f: EdgeFunction) -> None:
    if f.values.shape != system.edge_shape(f.edge):
        raise ShapeMismatch(
            f"tensor shape {f.values.shape} does not match "
            f"{system.edge_shape(f.edge)} for edge {f.edge}"
        )


def check_on_edge(system: HypergraphSystem, e, f: EdgeFunction) -> tuple[int, ...]:
    """Canonical e, after checking that f is a valid tensor living on it."""
    e = as_edge(e)
    check_function(system, f)
    if f.edge != e:
        raise ShapeMismatch(f"function lives on {f.edge}, not on {e}")
    return e


class Exponent:
    """An integrability exponent: a finite real >= 1, or infinity.

    The conjugate pairing is 1/p + 1/q = 1 with conj(1) = infinity and
    conj(infinity) = 1; by convention 1/p = 0 at infinity.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v) or v < 1.0:
            raise POutOfRange(f"exponent must be >= 1 or infinite, got {value}")
        object.__setattr__(self, "value", v)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Exponent is immutable")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def reciprocal(self) -> float:
        """1/p, with 1/infinity = 0."""
        return 0.0 if self.is_inf else 1.0 / self.value

    def conjugate(self) -> "Exponent":
        if self.is_inf:
            return Exponent(1.0)
        if self.value == 1.0:
            return INF
        return Exponent(self.value / (self.value - 1.0))

    def __eq__(self, other):
        return isinstance(other, Exponent) and self.value == other.value

    def __hash__(self):
        return hash(("Exponent", self.value))

    def __repr__(self):
        return "Exponent(inf)" if self.is_inf else f"Exponent({self.value!r})"

    def as_json(self):
        return "inf" if self.is_inf else self.value

    @staticmethod
    def parse(text) -> "Exponent":
        if isinstance(text, Exponent):
            return text
        if isinstance(text, str) and text.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        try:
            return Exponent(float(text))
        except (TypeError, ValueError) as exc:
            raise POutOfRange(f"cannot parse exponent from {text!r}") from exc


INF = Exponent(math.inf)


def checked_power(base: int, exp: int) -> int:
    """base ** exp as an exact int, refusing results above the 2**62 guard."""
    out = base**exp
    if out > POWER_GUARD:
        raise SizeCapExceeded(f"{base}**{exp} exceeds the 2**62 integer guard")
    return out


def check_seed(seed: int, error: type[Exception] = MalformedProblem) -> int:
    """`seed` as an int, refusing (with `error`) one outside Philox's [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise error(f"seed must lie in [0, 2**128), got {seed}")
    return int(seed)


def outer_weights(vectors) -> np.ndarray:
    """(w_0 * w_1) * w_2 * ..., flattened in C order; [1.0] for no vector."""
    acc = None
    for w in vectors:
        acc = w if acc is None else (acc[:, None] * w).reshape(-1)
    return np.ones(1) if acc is None else acc


class Grid:
    """Product evaluation grid with one axis per (vertex, replica) key.

    Keys are sorted; axis k has the atom count of its vertex.  `lift` places
    an edge tensor on the grid given the replica digit used by each of its
    coordinates, and `weight_tensor` materializes the product measure of any
    subset of axes; `full_weights` is that of all axes, built once on first
    use and read-only.  `expect` takes a grid expectation: up to one block
    of cells it is bit-identical to summing `product(...)`, beyond that it
    sums block by block in a fixed order.  No reduction depends on the
    thread count.  A grid of more than `MAX_GRID_AXES` keys or
    `GRID_CELL_CAP` cells raises SizeCapExceeded.
    """

    def __init__(self, system: HypergraphSystem, keys):
        ks = sorted(keys)
        if len(set(ks)) != len(ks):
            raise ShapeMismatch(f"duplicate grid keys in {ks}")
        if len(ks) > MAX_GRID_AXES:
            raise SizeCapExceeded(
                f"grid of {len(ks)} axes exceeds numpy's {MAX_GRID_AXES}-axis limit"
            )
        self.system = system
        self.keys: tuple[tuple[int, int], ...] = tuple(ks)
        self.pos = {k: a for a, k in enumerate(self.keys)}
        self.shape = tuple(system.spaces[v].size for v, _ in self.keys)
        cells = 1
        for s in self.shape:
            cells *= s
        if cells > GRID_CELL_CAP:
            raise SizeCapExceeded(f"grid of {cells} cells exceeds cap {GRID_CELL_CAP}")
        self.cells = cells

    def lift(self, edge: tuple[int, ...], values: np.ndarray, digits) -> np.ndarray:
        """Broadcastable view of `values` with axis k at key (edge[k], digits[k])."""
        positions = [self.pos[(v, int(m))] for v, m in zip(edge, digits)]
        order = sorted(range(len(positions)), key=positions.__getitem__)
        arr = values.transpose(order) if order != list(range(len(order))) else values
        newshape = [1] * len(self.shape)
        for p, s in zip(sorted(positions), arr.shape):
            newshape[p] = s
        return arr.reshape(newshape)

    def weight_tensor(self, keys=None) -> np.ndarray:
        """Product of the weight vectors of `keys` (default: all axes)."""
        keys = self.keys if keys is None else sorted(keys)
        acc = outer_weights(self.system.spaces[v].weights for v, _ in keys)
        shape = [1] * len(self.shape)
        for k in keys:
            shape[self.pos[k]] = self.shape[self.pos[k]]
        return acc.reshape(shape)

    @functools.cached_property
    def full_weights(self) -> np.ndarray:
        """Contiguous, non-writable `weight_tensor()` of all axes, cached."""
        return _freeze(self.weight_tensor())

    def product(self, factors) -> np.ndarray:
        """Full-measure product of lifted factors (broadcast to grid shape)."""
        acc = self.weight_tensor()
        for a in factors:
            acc = acc * a
        return np.broadcast_to(acc, self.shape) if acc.shape != self.shape else acc

    def expect(self, factors) -> float:
        """Sum of `product(factors)` without materialising a large grid.

        Up to one block of cells, `full_weights` is folded with every factor
        and summed once by numpy's pairwise sum: bit-identical to `np.sum`
        of the contiguous product.  A larger grid splits its axes into
        leading ones and trailing ones, the longest suffix of at most one
        block (at least the last axis, so there may be no leading axis).
        Factors are grouped by the leading axes they read.  Those reading
        none are folded into the trailing weights, the base.  Every other
        group is folded into one cache over (leading axes read x trailing
        axes), and groups whose factors are the same arrays (data pointer,
        dtype, and the shapes and strides of the axes they keep, in order;
        never the values) share one fold, which gives the same bits.

        The leading indices are walked depth first in C order.  A cache
        joins the running product at the deepest leading axis it reads, in
        group order, so the product at depth d is formed once per prefix
        (i_0..i_d) into a reused buffer and read by all of that prefix's
        children.  Below the deepest depth that joins a cache the product
        is the same for every index, so its block is summed once per such
        prefix, by one pairwise sum.  Each leading index then takes that
        sum times its leading weight, and those are added by one pairwise
        sum in C order.  So a cell's product is ((base * c_0) * c_1) * ...,
        caches in joining order, and the leading weight multiplies the sum
        of its block, not each cell.

        Every product goes through `_fold`: left to right, one factor at a
        time.  A product of fewer than `FOLD_MIN_CELLS` cells is the plain
        loop, one copy multiplied in place.  A larger one copies each factor
        over its innermost `INNER_CELLS` or more cells, so numpy multiplies
        long contiguous runs instead of short broadcast ones, and holds a
        partial product only over the axes read so far.  Layout changes no
        bit: a product rounds each cell alone, each cell still multiplies
        the same operands in the same order, and every sum is unchanged.
        """
        factors = list(factors)
        if self.cells <= BLOCK_CELLS:
            return float(np.sum(_fold(self.full_weights, factors, self.shape)))
        split = len(self.shape) - 1
        trail = self.shape[split]
        while split > 0 and trail * self.shape[split - 1] <= BLOCK_CELLS:
            split -= 1
            trail *= self.shape[split]
        groups: dict[tuple[int, ...], list[np.ndarray]] = {}
        for a in factors:
            reads = tuple(ax for ax in range(split) if a.shape[ax] != 1)
            groups.setdefault(reads, []).append(a)
        trail_w = self.weight_tensor(self.keys[split:])
        base = _fold(trail_w, groups.pop((), []), trail_w.shape)
        # joins[d]: the (reads, cache) pairs whose deepest leading axis is d.
        joins: list[list] = [[] for _ in range(split)]
        folded: dict[tuple, np.ndarray] = {}
        for reads, g in groups.items():
            at = tuple(slice(None) if ax in reads else 0 for ax in range(split))
            views = [a[at] for a in g]
            key = tuple(
                (a.__array_interface__["data"][0], a.dtype.str, a.shape, a.strides)
                for a in views
            )
            if key not in folded:
                shape = np.broadcast_shapes(*(a.shape for a in views))
                folded[key] = _fold(views[0], views[1:], shape)
            joins[reads[-1]].append((reads, folded[key]))
        deep = max((d for d in range(split) if joins[d]), default=-1)
        nodes = [base.reshape(self.shape[split:])] + [None] * (deep + 1)
        bufs = [np.empty(nodes[0].shape) if j else None for j in joins]
        sums = np.empty(math.prod(self.shape[: deep + 1]))
        prev = None
        for i, idx in enumerate(np.ndindex(*self.shape[: deep + 1])):
            # Products from the first leading axis whose index moved on are new.
            d0 = 0 if i == 0 else next(d for d in range(deep + 1) if idx[d] != prev[d])
            for d in range(d0, deep + 1):
                acc = nodes[d]
                for reads, cache in joins[d]:
                    acc = np.multiply(acc, cache[tuple(idx[ax] for ax in reads)], out=bufs[d])
                nodes[d + 1] = acc
            sums[i] = np.sum(nodes[deep + 1])
            prev = idx
        lead_w = self.weight_tensor(self.keys[:split]).reshape(sums.shape[0], -1)
        return float(np.sum((sums[:, None] * lead_w).reshape(-1)))


def _fold(first: np.ndarray, factors, shape: tuple[int, ...]) -> np.ndarray:
    """((first * a0) * a1) * ... on `shape`, the operands' broadcast shape.

    With no factor this is `first` itself; otherwise a new C-contiguous
    array.  Below `FOLD_MIN_CELLS` cells it is one broadcast copy of
    `first` multiplied in place by each factor.  Beyond, the innermost axes
    of at least `INNER_CELLS` cells form an inner block, and every operand
    is copied over it unless it already spans it contiguously, so numpy
    multiplies runs of at least that many cells.  The partial product is
    held only over the outer axes read so far and grows into a new array
    when a factor reads a new one.  Each cell multiplies the same operands
    in the same order either way, and a product rounds each cell alone, so
    the result is bit-identical to the plain loop.
    """
    if not factors:
        return first
    if math.prod(shape) < FOLD_MIN_CELLS:
        acc = np.empty(shape, first.dtype)
        acc[...] = first
        for a in factors:
            acc *= a
        return acc
    j, inner = len(shape), 1
    while j > 0 and inner < INNER_CELLS:
        j -= 1
        inner *= shape[j]

    def spread(a: np.ndarray) -> np.ndarray:
        if a.shape[j:] == shape[j:] and a.flags.c_contiguous:
            return a
        out = np.empty(a.shape[:j] + shape[j:], a.dtype)
        out[...] = a
        return out

    acc = spread(first)
    owned = acc is not first
    for a in factors:
        a = spread(a)
        grown = shape if acc.shape == shape else np.broadcast(acc, a).shape
        if owned and grown == acc.shape:
            acc *= a
        else:
            acc = np.multiply(acc, a, out=np.empty(grown, acc.dtype))
            owned = True
    return acc


def expectation(system: HypergraphSystem, e, f: EdgeFunction) -> float:
    """Mean of f over the product measure of edge e's coordinate spaces."""
    e = check_on_edge(system, e, f)
    g = Grid(system, [(v, 0) for v in e])
    return g.expect([g.lift(e, f.values, (0,) * len(e))])


def _grid_lp_norms(rows: np.ndarray, p: Exponent, make_grid) -> list[float]:
    """Weighted L_p norms of the rows of `rows`, each a tensor on one grid.

    `rows` has shape (R, cells), each row laid out in C order on the axes of
    the grid that `make_grid()` gives; it is called only for finite p.  At
    p = inf a row's norm is its max |x|.  Finite p is computed after
    rescaling each row by its max m, so that enormous exponents (p up to
    2**20) stay inside float range: one array pass takes |x| / m, its p-th
    power and the product with `full_weights`; a row-wise sum then gives
    each mean, and the root m * exp(log(mean) / p) is taken on Python
    floats.  The row sum is numpy's pairwise sum over one C-contiguous row,
    the sum `Grid.expect` takes of a grid of at most one block (2**16
    cells), so each norm is bit-identical to a call with that row alone.  A
    larger grid sums each row through `Grid.expect`'s block path.  A zero
    row has norm 0, and a row whose max is not finite (a product that
    overflowed) has that max as its norm.
    """
    mag = np.abs(rows)
    tops = np.maximum.reduce(mag, axis=1)
    if p.is_inf:
        return tops.tolist()
    grid = make_grid()
    m = tops.tolist()
    # A zero row divides by 1 instead of 0; its norm is 0 either way.
    mag /= (np.where(tops > 0.0, tops, 1.0) if 0.0 in m else tops)[:, None]
    np.power(mag, p.value, out=mag)
    if grid.cells <= BLOCK_CELLS:
        mag *= grid.full_weights.reshape(-1)
        means = np.add.reduce(mag, axis=1).tolist()
    else:
        means = [grid.expect([row.reshape(grid.shape)]) for row in mag]
    return [
        top if not math.isfinite(top)
        else top * math.exp(math.log(mean) / p.value) if top > 0.0 and mean > 0.0
        else 0.0
        for top, mean in zip(m, means)
    ]


def lp_norm(system: HypergraphSystem, e, f: EdgeFunction, p: Exponent) -> float:
    """Weighted L_p norm of f on edge e; the sup norm when p is infinite."""
    e = check_on_edge(system, e, f)
    # The grid's axes are e's sorted coordinates, so f.values is laid out on it.
    return _grid_lp_norms(
        f.values.reshape(1, -1), p, lambda: Grid(system, [(v, 0) for v in e])
    )[0]
