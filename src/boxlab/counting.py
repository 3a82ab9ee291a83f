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

Products over sub-collections of edges come from one walk,
`_choice_products`, on one grid: every coordinate the system's edges
touch, one copy each, the grid `lambda_form` uses.  A coordinate a product
does not read integrates to one there.  The walk builds every product in
one stack of rows with a state axis per edge: first the f side in edge
order, then the g side, each step multiplying every row that leaves the
edge on no side by its lifted tensor in one broadcast, so every cell is
the product of the same factors in the same order as `product_lp_norm` on
the grid.  The stack holds at most `LIVE_CELLS` cells: a larger walk is
split on the states of its first edges, one block of rows per prefix.
Three consumers read it.  The L_p hypotheses here need the norm of every
subset product, 2^|E| subsets for the von Neumann check and 3^|E| disjoint
(f, g) subset pairs for the counting lemma; `_product_norms` norms each
block in one `_grid_lp_norms` call.  `pseudo.check_C1` takes each
product's mean and `pseudo.check_C3` its conditional density onto an
edge.  A worst subset is picked by a scan over `_subsets`, in the order of
`itertools.combinations` by size (the counting lemma scans its pairs in
`itertools.product` order over edge states), and only a strictly larger
norm replaces it, so a tie keeps the first.

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


def lambda_form(system: HypergraphSystem, functions) -> float:
    """Expectation of the product of the assigned tensors over every edge."""
    assign = full_assignment(system, functions)
    grid = _edge_grid(system)
    return grid.expect([grid.lift(e, assign[e].values, (0,) * len(e)) for e in system.edges])


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
    grid = Grid(system, {(v, 0) for f in funcs for v in f.edge})
    tensor = grid.lift(funcs[0].edge, funcs[0].values, (0,) * funcs[0].arity)
    for f in funcs[1:]:
        tensor = tensor * grid.lift(f.edge, f.values, (0,) * f.arity)
    return _grid_lp_norms(tensor.reshape(1, -1), p, lambda: grid)[0]


def _subsets(count: int):
    """Each nonempty subset of range(count), by size in `itertools.combinations`
    order, with its choice index: its entry in a one-side walk of count edges."""
    for r in range(1, count + 1):
        for sub in itertools.combinations(range(count), r):
            yield sub, sum(1 << (count - 1 - j) for j in sub)


def _edge_grid(system: HypergraphSystem) -> Grid:
    """The grid of every coordinate the system's edges touch, one copy each."""
    return Grid(system, {(v, 0) for e in system.edges for v in e})


def _choice_products(grid: Grid, sides):
    """The products over every disjoint choice of edge subsets, on `grid`.

    `sides[s][j]` is side s's tensor on edge j, and `grid` holds every
    coordinate they read.  A choice puts each edge on one side or on none,
    and its product multiplies the first side's tensors in edge order, then
    the second side's.  Choice Σ_j state_j·b^(|E|-1-j), with b = len(sides)
    + 1 and state_j = 1 + the side of edge j (0: none), runs in the order of
    `itertools.product(range(b), repeat=|E|)`; choice 0 is the empty
    product, the constant one.  Yields (first choice, rows): the products of
    choices first, first + 1, ..., each row laid out on the whole grid, so a
    coordinate a product does not read holds copies of it.

    The products are built level by level in one stack of rows with a
    state axis per edge.  Starting from ones, side by side and edge by edge,
    the rows whose edge j is still on no side are multiplied by its lifted
    tensor in one broadcast, written in place as that edge's next state.
    When the stack of all choices would pass `LIVE_CELLS` cells, the states
    of the first edges are fixed instead, one block of rows per prefix, and
    a fixed edge's tensor multiplies every row at its own step.  Either way
    every product multiplies the same factors in the same order as
    `product_lp_norm` (the leading 1.0 changes no bit).
    """
    lifted = [[grid.lift(f.edge, f.values, (0,) * len(f.edge)) for f in side] for side in sides]
    count = len(lifted[0]) if lifted else 0
    base = len(sides) + 1
    fixed = 0
    while fixed < count and base ** (count - fixed) * grid.cells > LIVE_CELLS:
        fixed += 1
    free = count - fixed
    span = base**free
    for at, prefix in enumerate(itertools.product(range(base), repeat=fixed)):
        stack = np.empty((base,) * free + grid.shape)
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
        yield at * span, stack.reshape((span,) + grid.shape)


def _product_norms(system: HypergraphSystem, sides, p: Exponent) -> np.ndarray:
    """L_p norms of the products over every disjoint choice of edge subsets.

    Entry k is the norm of choice k of `_choice_products` on the system's
    edge grid (entry 0, the empty product, is 1), each block of rows normed
    in one `_grid_lp_norms` call on that grid.
    """
    grid = _edge_grid(system)
    values = np.empty((len(sides) + 1) ** len(system.edges))
    for first, rows in _choice_products(grid, sides):
        flat = rows.reshape(len(rows), -1)
        values[first : first + len(rows)] = _grid_lp_norms(flat, p, lambda: grid)
    values[0] = 1.0
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
    for sub, code in _subsets(len(edges)):
        if not values[code] <= worst_lp:  # a larger norm, or one that is not finite
            worst_subset = tuple(edges[j] for j in sub)
            if not math.isfinite(values[code]):
                subset = [list(e) for e in worst_subset]
                what = f"the L_p norm of the product over {subset} is {values[code]}"
                raise _not_finite("von Neumann", what, p)
            worst_lp = float(values[code])
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
