"""Homomorphism-style counting forms and the generalized von Neumann checks.

`lambda_form` evaluates the expectation of the product of one tensor per
edge over the full product space.  It has one route: `Grid.expect` over the
grid of the vertices the edges touch, which `tests/oracles.py` checks
against a plain loop.

`von_neumann_certificate` checks, for 2-uniform systems, that the counting
form is controlled by the smallest box norm among the edges once the
tensors are bounded in the p-weighted box norm and all subset products are
bounded in L_p.  `counting_lemma_certificate` is the two-assignment variant
bounding |difference of counting forms| by the sum of box norms of the
edgewise differences.

Their L_p hypotheses need the norm of every subset product: 2^|E| subsets
for the von Neumann check, 3^|E| disjoint (f, g) subset pairs for the
counting lemma.  `_product_norms` builds them level by level in one stack
with a state axis per edge: first the f side in edge order, then the g
side, each step multiplying every row that leaves the edge on no side by
its lifted tensor in one broadcast.  So every cell is the product of the
same factors in the same order as a per-subset `product_lp_norm`, and
values are bit-identical to it.  The rows reading one coordinate set take
their norms in one `_grid_lp_norms` call, on one grid per set with its
weight tensor cached.  The stack holds at most `LIVE_CELLS` cells: a
larger walk is split on the states of its first edges, one walk per
prefix.  The worst subset or pair is then picked by a scan in the
enumeration order of `itertools.combinations` by size (von Neumann) or
`itertools.product` over edge states (counting), and only a strictly
larger norm replaces it, so a tie keeps the first.

The edges' box norms, p-weighted box norms and difference norms are taken
in stacks by `boxnorm._box_norms`, each equal bit for bit to one call per
edge.  A subset or pair norm, an edgewise difference f - g or a counting
form that is not finite (a product or sum past the float range) raises
NumericalInconsistency where the scan or the sum meets it, without numpy
warnings.

Only rhs, its tolerance, `holds`, the subset or pair hypothesis and C
itself depend on C, and one helper, `_decision`, computes them.  So a
certificate re-decided at another C by its `at_C` method, which checks C
as the functions do, equals bit for bit a fresh certificate at that C,
and a caller that picks C from a probe at C = 1 builds the certificate
once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .boxnorm import REL_TOL, _box_norms, _lp_box_norms, require_even
from .errors import (
    BadSpec,
    EmptyHypergraph,
    NotTwoUniform,
    NumericalInconsistency,
    PairCapExceeded,
    POutOfRange,
    ShapeMismatch,
    SubsetCapExceeded,
)
from .spaces import (
    EdgeFunction,
    Exponent,
    Grid,
    HypergraphSystem,
    _grid_lp_norms,
    check_function,
)

SUBSET_CAP = 1 << 20
PAIR_CAP = 1 << 20
# Cells of the largest stack of products one `_product_norms` walk holds
# (64 KB).  Larger stacks save little time, but the walk then holds several
# such arrays at once and the peak RSS of a long run grows with them.
LIVE_CELLS = 1 << 13
# least_even_at_least accepts 2k for any x within this of 2k.
_TIE_TOL = 1e-9


def full_assignment(system: HypergraphSystem, functions, nonnegative: bool = False) -> dict:
    """Validate a one-tensor-per-edge assignment covering every edge.

    With nonnegative set, a tensor with a negative entry is a BadSpec.
    """
    if not system.edges:
        raise EmptyHypergraph("the system has no edges")
    out = {}
    if isinstance(functions, dict):
        items = functions.items()
    else:
        items = [(f.edge, f) for f in functions]
    for edge, fn in items:
        edge = tuple(int(v) for v in edge)
        if edge != fn.edge:
            raise ShapeMismatch(f"assignment key {edge} does not match {fn.edge}")
        if edge in out:
            raise ShapeMismatch(f"duplicate assignment for edge {edge}")
        check_function(system, fn)
        out[edge] = fn
    missing = [e for e in system.edges if e not in out]
    extra = [e for e in out if e not in system.edges]
    if missing or extra:
        raise ShapeMismatch(f"assignment mismatch: missing {missing}, extra {extra}")
    if nonnegative:
        for e, fn in out.items():
            lo = float(np.min(fn.values))
            if lo < 0.0:
                raise BadSpec(f"family tensor on {e} has negative entry {lo}")
    return out


def lambda_form(
    system: HypergraphSystem,
    functions,
    edges=None,
) -> float:
    """Expectation of the product of the assigned tensors over the edges.

    `edges` restricts the product to a sub-collection (default all edges of
    the system); an empty collection gives 1 (empty product convention).
    """
    assign = full_assignment(system, functions)
    use = tuple(system.edges if edges is None else [tuple(e) for e in edges])
    for e in use:
        if e not in assign:
            raise ShapeMismatch(f"edge {e} has no assigned tensor")
    if not use:
        return 1.0
    coords = sorted(set(v for e in use for v in e))
    grid = Grid(system, [(v, 0) for v in coords])
    factors = [grid.lift(e, assign[e].values, (0,) * len(e)) for e in use]
    return grid.expect(factors)


def least_even_at_least(x: float) -> int:
    """Smallest even integer >= x, accepting 2k when |x - 2k| <= _TIE_TOL."""
    half = x / 2.0
    nearest = max(1, round(half))
    if abs(x - 2 * nearest) <= _TIE_TOL:
        return 2 * int(nearest)
    return 2 * int(max(1, math.ceil(half - _TIE_TOL)))


def ell_von_neumann(delta: int, p: Exponent) -> int:
    """Replica count rule for the generalized von Neumann bound.

    2 when p is infinite or the overlap degree is 1; otherwise the least
    even integer at least t/(t-1) with t = p**(1/(delta-1)).
    """
    if delta < 1:
        raise BadSpec(f"overlap degree must be >= 1, got {delta}")
    if p.is_inf or delta == 1:
        return 2
    if p.value <= 1.0:
        raise POutOfRange(f"need p > 1 for the replica rule, got {p.value}")
    t = p.value ** (1.0 / (delta - 1))
    return least_even_at_least(t / (t - 1.0))


class _Products:
    """Products of edge tensors on one system, with one grid per coordinate set.

    Tensors are lifted onto the grid `full` of every coordinate that `edges`
    touch, so a product of lifted tensors is laid out, up to unit axes, on
    the grid of the coordinates its factors read.  Coordinate sets are
    bitmasks over the axes of `full`; each grid is built once, on first use.
    """

    def __init__(self, system: HypergraphSystem, edges):
        self.system = system
        self.full = Grid(system, {(v, 0) for e in edges for v in e})
        self.grids: dict[int, Grid] = {(1 << len(self.full.keys)) - 1: self.full}

    def reads(self, edge) -> int:
        return sum(1 << self.full.pos[(v, 0)] for v in edge)

    def grid(self, coords: int) -> Grid:
        g = self.grids.get(coords)
        if g is None:
            keys = [k for a, k in enumerate(self.full.keys) if coords >> a & 1]
            g = self.grids[coords] = Grid(self.system, keys)
        return g

    def lift(self, f: EdgeFunction) -> np.ndarray:
        return self.full.lift(f.edge, f.values, (0,) * len(f.edge))


def _not_finite(cert: str, what: str, p: Exponent) -> NumericalInconsistency:
    return NumericalInconsistency(f"{cert} certificate: {what}, not finite (p={p.as_json()})")


def _check_C(C: float) -> None:
    if not 1.0 <= C < math.inf:
        raise BadSpec(f"the constant C must be finite and >= 1, got {C}")


def _decision(lhs: float, scale: float, worst_lp: float, C: float, hyp: str) -> dict:
    """The certificate fields C decides, by name; `hyp` names the L_p hypothesis flag.

    rhs is C * scale, and the L_p hypothesis holds when the worst product
    norm is at most C.
    """
    rhs = C * scale
    tol = REL_TOL * max(1.0, rhs)
    return {
        "rhs": rhs,
        "tol": tol,
        "holds": bool(lhs <= rhs + tol),
        hyp: bool(worst_lp <= C + REL_TOL),
        "C": float(C),
    }


def _edge_total(diffs: dict) -> float:
    """The difference norms added one at a time in edge order, as the rhs sums them.

    Not `sum`, which compensates its rounding from Python 3.12 on.
    """
    total = 0.0
    for value in diffs.values():
        total += value
    return total


def product_lp_norm(system: HypergraphSystem, funcs, p: Exponent) -> float:
    """L_p norm of the pointwise product of the given tensors (lifted).

    An empty collection is the constant one, so the norm is 1.
    """
    funcs = list(funcs)
    if not funcs:
        return 1.0
    products = _Products(system, [f.edge for f in funcs])
    tensor = products.lift(funcs[0])
    for f in funcs[1:]:
        tensor = tensor * products.lift(f)
    return _grid_lp_norms(tensor.reshape(1, -1), p, lambda: products.full)[0]


def _row_groups(masks: np.ndarray, ndim: int) -> list:
    """The rows of a walk by coordinate set, from the set `masks` gives each row.

    One (row indices, coordinate set, pick) per set: `pick` cuts a row on the
    full grid down to the cells its set reads.
    """
    masks = masks.reshape(-1)
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(masks)]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        coords = int(ordered[lo])
        pick = tuple(slice(None) if coords >> a & 1 else slice(0, 1) for a in range(ndim))
        groups.append((order[lo:hi], coords, pick))
    return groups


def _product_norms(system: HypergraphSystem, sides, p: Exponent) -> np.ndarray:
    """L_p norms of the products over every disjoint choice of edge subsets.

    `sides[s][j]` is side s's tensor on edge j.  A choice puts each edge on
    one side or on none, and its product multiplies the first side's tensors
    in edge order, then the second side's.  Entry Σ_j state_j·b^(|E|-1-j),
    with b = len(sides) + 1 and state_j = 1 + the side of edge j (0: none),
    holds the norm of that choice, so entries run in the order of
    `itertools.product(range(b), repeat=|E|)`; entry 0 is the empty
    product, 1.

    The products are built level by level in one stack of rows on the grid
    of every coordinate the edges touch, with a state axis per edge.
    Starting from ones, side by side and edge by edge, the rows whose edge j
    is still on no side are multiplied by its lifted tensor in one
    broadcast, written in place as that edge's next state.  When the stack
    of all choices would pass `LIVE_CELLS` cells, the states of the first
    edges are fixed instead, one walk per prefix, and a fixed edge's tensor
    multiplies every row at its own step.  Either way every product
    multiplies the same factors in the same order as `product_lp_norm` (the
    leading 1.0 changes no bit).  The rows reading one coordinate set then
    take their norms in one `_grid_lp_norms` call on that set's grid, each
    cut down to the cells it reads; at p = inf rows are read whole, since a
    sup norm is the same on every grid.
    """
    edges = system.edges
    products = _Products(system, edges)
    lifted = [[products.lift(f) for f in side] for side in sides]
    reads = [products.reads(e) for e in edges]
    ndim = len(products.full.shape)
    base = len(sides) + 1
    fixed = 0
    while fixed < len(edges) and base ** (len(edges) - fixed) * products.full.cells > LIVE_CELLS:
        fixed += 1
    free = len(edges) - fixed
    span = base**free
    values = np.empty(base ** len(edges))
    # The coordinate set each row reads through its free edges.
    free_reads = np.zeros((1,) * free, dtype=np.int64)
    for j in range(fixed, len(edges)):
        state_reads = np.where(np.arange(base) > 0, reads[j], 0)
        free_reads = free_reads | state_reads.reshape((base,) + (1,) * (len(edges) - 1 - j))
    groups_by_prefix: dict[int, list] = {}
    for at, prefix in enumerate(itertools.product(range(base), repeat=fixed)):
        stack = np.empty((base,) * free + products.full.shape)
        stack[(0,) * free] = 1.0
        for s, side in enumerate(lifted):
            for j, tensor in enumerate(side):
                # Filled so far: states 0..s+1 of the free edges before j,
                # 0..s of the others.
                axis = j - fixed
                if axis < 0:
                    if prefix[j] == s + 1:
                        stack[(slice(0, s + 1),) * free] *= tensor
                    continue
                head = (slice(0, s + 2),) * axis
                tail = (slice(0, s + 1),) * (free - 1 - axis)
                # State s + 1 of edge j: the rows in state 0 times the tensor.
                np.multiply(stack[head + (0,) + tail], tensor, out=stack[head + (s + 1,) + tail])
        rows = stack.reshape((span,) + products.full.shape)
        block = values[at * span : (at + 1) * span]
        if p.is_inf:  # a sup norm is the same on every grid a row is laid out on
            block[:] = _grid_lp_norms(rows.reshape(span, -1), p, None)
            continue
        prefix_reads = 0
        for j, state in enumerate(prefix):
            prefix_reads |= reads[j] if state else 0
        groups = groups_by_prefix.get(prefix_reads)
        if groups is None:
            groups = groups_by_prefix[prefix_reads] = _row_groups(free_reads | prefix_reads, ndim)
        for idx, coords, pick in groups:
            if coords == 0:  # the empty product, the constant one
                block[idx] = 1.0
            else:
                group = rows[(idx,) + pick].reshape(len(idx), -1)
                block[idx] = _grid_lp_norms(group, p, lambda: products.grid(coords))
    return values


@dataclass(frozen=True)
class VonNeumannCertificate:
    ell: int
    lhs: float
    rhs: float
    tol: float
    holds: bool
    min_box_edge: tuple[int, ...]
    box_norms: dict
    box_lp_norms: dict
    hyp_box_lp_ok: bool
    worst_subset: tuple[tuple[int, ...], ...]
    worst_subset_lp: float
    hyp_subset_lp_ok: bool
    C: float
    p: object

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def at_C(self, C: float) -> VonNeumannCertificate:
        """This certificate re-decided at the constant C, equal to a fresh one at C."""
        _check_C(C)
        scale = self.box_norms[self.min_box_edge]
        return replace(
            self, **_decision(self.lhs, scale, self.worst_subset_lp, C, "hyp_subset_lp_ok")
        )

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "holds": self.holds,
            "min_box_edge": list(self.min_box_edge),
            "box_norms": {str(list(k)): v for k, v in self.box_norms.items()},
            "box_lp_norms": {str(list(k)): v for k, v in self.box_lp_norms.items()},
            "hypotheses": {
                "box_lp_at_most_one": self.hyp_box_lp_ok,
                "subset_lp_at_most_C": self.hyp_subset_lp_ok,
            },
            "worst_subset": [list(e) for e in self.worst_subset],
            "worst_subset_lp": self.worst_subset_lp,
            "C": self.C,
            "p": self.p,
        }


def von_neumann_certificate(
    system: HypergraphSystem,
    functions,
    C: float,
    p: Exponent,
    ell: int | None = None,
) -> VonNeumannCertificate:
    """Check |counting form| <= C * min edge box norm on a 2-uniform system.

    Hypothesis flags record whether every p-weighted box norm is <= 1 and
    every subset product (empty subset included) has L_p norm <= C; the
    main inequality is computed and reported either way.
    """
    assign = full_assignment(system, functions)
    if system.uniformity() != 2:
        raise NotTwoUniform(f"edges must all be doubletons, got {system.edges}")
    _check_C(C)
    from .spaces import max_degree

    if ell is None:
        ell = ell_von_neumann(max_degree(system), p)
    ell = require_even(ell)
    edges = system.edges
    if len(edges) >= 1 and (1 << len(edges)) > SUBSET_CAP:
        raise SubsetCapExceeded(f"2**{len(edges)} subsets exceed cap {SUBSET_CAP}")
    rows = [(system, e, assign[e].values) for e in edges]
    box_norms = {e: res.value for e, res in zip(edges, _box_norms(rows, ell))}
    box_lp = dict(zip(edges, _lp_box_norms(rows, ell, [p])[0]))
    hyp_box = all(v <= 1.0 + REL_TOL for v in box_lp.values())
    with np.errstate(over="ignore", invalid="ignore"):
        values = _product_norms(system, [[assign[e] for e in edges]], p)
    worst_subset: tuple[tuple[int, ...], ...] = ()
    worst_lp = 1.0  # empty subset product is the constant one
    for r in range(1, len(edges) + 1):
        for sub in itertools.combinations(range(len(edges)), r):
            val = values[sum(1 << (len(edges) - 1 - j) for j in sub)]
            if not val <= worst_lp:  # a larger norm, or one that is not finite
                worst_subset = tuple(edges[j] for j in sub)
                if not math.isfinite(val):
                    subset = [list(e) for e in worst_subset]
                    raise _not_finite(
                        "von Neumann", f"the L_p norm of the product over {subset} is {val}", p
                    )
                worst_lp = float(val)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = abs(lambda_form(system, assign))
    if not math.isfinite(lhs):
        raise _not_finite("von Neumann", f"the counting form is {lhs}", p)
    min_edge = min(edges, key=lambda e: (box_norms[e], e))
    return VonNeumannCertificate(
        ell=ell,
        lhs=lhs,
        min_box_edge=min_edge,
        box_norms=box_norms,
        box_lp_norms=box_lp,
        hyp_box_lp_ok=bool(hyp_box),
        worst_subset=worst_subset,
        worst_subset_lp=worst_lp,
        p=p.as_json(),
        **_decision(lhs, box_norms[min_edge], worst_lp, C, "hyp_subset_lp_ok"),
    )


@dataclass(frozen=True)
class CountingCertificate:
    ell: int
    lhs: float
    rhs: float
    tol: float
    holds: bool
    diff_box_norms: dict
    hyp_box_lp_ok: bool
    worst_pair: tuple
    worst_pair_lp: float
    hyp_pair_lp_ok: bool
    C: float
    p: object

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def at_C(self, C: float) -> CountingCertificate:
        """This certificate re-decided at the constant C, equal to a fresh one at C."""
        _check_C(C)
        scale = _edge_total(self.diff_box_norms)
        return replace(
            self, **_decision(self.lhs, scale, self.worst_pair_lp, C, "hyp_pair_lp_ok")
        )

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "holds": self.holds,
            "diff_box_norms": {str(list(k)): v for k, v in self.diff_box_norms.items()},
            "hypotheses": {
                "box_lp_at_most_one": self.hyp_box_lp_ok,
                "pair_lp_at_most_C": self.hyp_pair_lp_ok,
            },
            "worst_pair": [[list(e) for e in side] for side in self.worst_pair],
            "worst_pair_lp": self.worst_pair_lp,
            "C": self.C,
            "p": self.p,
        }


def counting_lemma_certificate(
    system: HypergraphSystem,
    functions_f,
    functions_g,
    C: float,
    p: Exponent,
    ell: int | None = None,
) -> CountingCertificate:
    """Check |counting(f) - counting(g)| <= C * sum of box norms of f - g.

    Hypothesis flags cover the p-weighted box norms of both assignments and
    the L_p norms of every mixed product over disjoint edge-subset pairs.
    """
    from .spaces import max_degree

    assign_f = full_assignment(system, functions_f)
    assign_g = full_assignment(system, functions_g)
    if system.uniformity() != 2:
        raise NotTwoUniform(f"edges must all be doubletons, got {system.edges}")
    _check_C(C)
    if ell is None:
        ell = ell_von_neumann(max_degree(system), p)
    ell = require_even(ell)
    edges = system.edges
    if 3 ** len(edges) > PAIR_CAP:
        raise PairCapExceeded(f"3**{len(edges)} disjoint pairs exceed cap {PAIR_CAP}")
    rows = [(system, e, a[e].values) for e in edges for a in (assign_f, assign_g)]
    hyp_box = not any(v > 1.0 + REL_TOL for v in _lp_box_norms(rows, ell, [p])[0])
    with np.errstate(over="ignore", invalid="ignore"):
        values = _product_norms(
            system, [[assign_f[e] for e in edges], [assign_g[e] for e in edges]], p
        )
    worst_pair: tuple = ((), ())
    worst_lp = 1.0  # both-empty pair: the constant one
    for code, states in enumerate(itertools.product(range(3), repeat=len(edges))):
        if not values[code] <= worst_lp:  # a larger norm, or one that is not finite
            side_f = tuple(e for e, s in zip(edges, states) if s == 1)
            side_g = tuple(e for e, s in zip(edges, states) if s == 2)
            worst_pair = (side_f, side_g)
            if not math.isfinite(values[code]):
                what = (
                    f"the L_p norm of the product over f on {[list(e) for e in side_f]}"
                    f" and g on {[list(e) for e in side_g]} is {values[code]}"
                )
                raise _not_finite("counting", what, p)
            worst_lp = float(values[code])
    with np.errstate(over="ignore", invalid="ignore"):
        form_f = lambda_form(system, assign_f)
        form_g = lambda_form(system, assign_g)
        lhs = abs(form_f - form_g)
    for name, form in (("f", form_f), ("g", form_g), ("f minus that of g", lhs)):
        if not math.isfinite(form):
            raise _not_finite("counting", f"the counting form of {name} is {form}", p)

    rows = []
    for e in edges:
        with np.errstate(over="ignore", invalid="ignore"):
            d = assign_f[e].values - assign_g[e].values
        if not np.isfinite(d).all():
            raise _not_finite("counting", f"f - g on edge {list(e)} overflows", p)
        rows.append((system, e, d))
    diffs = {res.edge: res.value for res in _box_norms(rows, ell)}
    return CountingCertificate(
        ell=ell,
        lhs=lhs,
        diff_box_norms=diffs,
        hyp_box_lp_ok=bool(hyp_box),
        worst_pair=worst_pair,
        worst_pair_lp=worst_lp,
        p=p.as_json(),
        **_decision(lhs, _edge_total(diffs), worst_lp, C, "hyp_pair_lp_ok"),
    )
