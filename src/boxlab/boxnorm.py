"""Box norms of edge tensors over replicated product grids.

Two independent evaluation routes are provided on purpose:

* `box_power_direct` literally enumerates the replicated grid: every
  coordinate of the edge gets `ell` independent copies, and the expectation
  of the product of the tensor over all digit patterns visits every cell.
  It is the reference oracle.  `Grid.expect` sums it: a grid of at most one
  block (2**16 cells) is one pairwise sum over the fully multiplied array,
  bit-identical to materialising it; a larger grid is summed block by block
  over its trailing axes in a fixed order, without a full-grid array.
  `Grid`'s cell cap is its only size bound: a replicated grid above
  `GRID_CELL_CAP` (2**25) cells raises SizeCapExceeded.
* `box_norm(..., method="recursive")` peels one coordinate at a time, always
  the last coordinate of the edge, averaging the sub-power of the pointwise
  product of `ell` slices.  Tuples of slices are grouped into multisets with
  multinomial weights, which cuts m**ell work down to binom(m + ell - 1, ell).

Both return the same number up to roundoff; tests enforce 1e-9 agreement.
Powers are carried unrooted through the recursion and the single final root
uses log/exp.  Tiny negative powers (within -1e-9 * scale) are clamped to
zero and flagged; anything worse raises NumericalInconsistency.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalInconsistency,
    OddEll,
    ShapeMismatch,
)
from .spaces import (
    EdgeFunction,
    Exponent,
    Grid,
    HypergraphSystem,
    as_edge,
    check_on_edge,
    checked_power,
    edge_function,
)

REL_TOL = 1e-9


def require_even(ell: int) -> int:
    if not isinstance(ell, (int, np.integer)) or ell < 2 or ell % 2 != 0:
        raise OddEll(f"replica count must be an even integer >= 2, got {ell!r}")
    return int(ell)


@dataclass(frozen=True)
class BoxNormResult:
    """Value and provenance of one box norm evaluation.

    `power` is the unrooted ell**|e| power, `value` its nonnegative root,
    `clamped` whether the tiny-negative clamp fired, and `method` which
    evaluation route produced it.
    """

    value: float
    power: float
    ell: int
    edge: tuple[int, ...]
    method: str
    clamped: bool


def _power_scale(values: np.ndarray, big_n: int) -> float:
    m = float(np.max(np.abs(values))) if values.size else 0.0
    if m == 0.0:
        return 0.0
    try:
        return m**big_n
    except OverflowError:
        return math.inf


def _root_with_clamp(power: float, big_n: int, scale: float) -> tuple[float, bool]:
    tol = REL_TOL * scale
    if power < -tol:
        raise NumericalInconsistency(
            f"box power {power} is below the clamp window -{tol}"
        )
    if power < 0.0:
        return 0.0, True
    if power == 0.0:
        return 0.0, False
    return math.exp(math.log(power) / big_n), False


def box_power_direct(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
) -> float:
    """Reference oracle: expectation of the full replicated product.

    Enumerates the grid that gives every coordinate of `e` its own `ell`
    independent copies and multiplies one slice of `f` per digit pattern.
    A replicated grid above `GRID_CELL_CAP` cells raises SizeCapExceeded.
    """
    e = check_on_edge(system, e, f)
    ell = require_even(ell)
    k = len(e)
    checked_power(ell, k)
    grid = Grid(system, [(v, m) for v in e for m in range(ell)])
    factors = [
        grid.lift(e, f.values, digits)
        for digits in itertools.product(range(ell), repeat=k)
    ]
    return grid.expect(factors)


def _mean(system: HypergraphSystem, v: int, values: np.ndarray) -> float:
    return float(np.sum(np.ascontiguousarray(system.spaces[v].weights * values)))


def _box_power_recursive(
    system: HypergraphSystem,
    e: tuple[int, ...],
    values: np.ndarray,
    ell: int,
) -> float:
    if len(e) == 1:
        return _mean(system, e[0], values) ** ell
    j, rest = e[-1], e[:-1]
    w = system.spaces[j].weights
    m = w.shape[0]
    total = 0.0
    fact = math.factorial(ell)
    for combo in itertools.combinations_with_replacement(range(m), ell):
        counts = Counter(combo)
        coeff = fact
        weight = 1.0
        prod = None
        for t, c in sorted(counts.items()):
            coeff //= math.factorial(c)
            weight *= float(w[t]) ** c
            piece = values[..., t] if c == 1 else values[..., t] ** c
            prod = piece if prod is None else prod * piece
        sub = _box_power_recursive(system, rest, prod, ell)
        total += (coeff * weight) * sub
    return total


def box_norm(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
    method: str = "recursive",
) -> BoxNormResult:
    """Box norm of f on edge e with ell replicas per coordinate.

    method="recursive" peels the largest coordinate (the normative order);
    method="direct" roots the oracle power instead.
    """
    e = check_on_edge(system, e, f)
    ell = require_even(ell)
    big_n = checked_power(ell, len(e))
    if method == "direct":
        power = box_power_direct(system, e, f, ell)
    elif method == "recursive":
        power = _box_power_recursive(system, e, f.values, ell)
    else:
        raise ShapeMismatch(f"unknown box norm method {method!r}")
    scale = _power_scale(f.values, big_n)
    value, clamped = _root_with_clamp(power, big_n, scale)
    return BoxNormResult(value, power, ell, e, method, clamped)


def gcs_form(
    system: HypergraphSystem,
    e,
    functions,
    ell: int,
) -> float:
    """Expectation of a product with one tensor per replica digit pattern.

    `functions` maps digit tuples (one digit per coordinate of e, each in
    0..ell-1) to edge tensors on e; missing patterns contribute the constant
    one.  With every pattern mapped to the same f this is exactly the box
    power of f.
    """
    e = as_edge(e)
    ell = require_even(ell)
    k = len(e)
    fams: dict[tuple[int, ...], EdgeFunction] = {}
    for digits, fn in functions.items():
        digits = tuple(int(d) for d in digits)
        if len(digits) != k or any(d < 0 or d >= ell for d in digits):
            raise ShapeMismatch(f"bad digit pattern {digits} for edge {e}, ell={ell}")
        check_on_edge(system, e, fn)
        fams[digits] = fn
    grid = Grid(system, [(v, m) for v in e for m in range(ell)])
    factors = []
    for digits in itertools.product(range(ell), repeat=k):
        fn = fams.get(digits)
        if fn is not None:
            factors.append(grid.lift(e, fn.values, digits))
    return grid.expect(factors)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one two-sided inequality check.

    slack = rhs + tol - lhs; holds means lhs <= rhs + tol and every listed
    hypothesis flag is true as well only when the check says so explicitly:
    hypothesis flags are reported, not folded into `holds`, unless stated.
    """

    name: str
    lhs: float
    rhs: float
    tol: float
    holds: bool
    hypotheses: dict
    details: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tol": self.tol,
            "holds": self.holds,
            "hypotheses": dict(self.hypotheses),
            "details": dict(self.details),
        }


def gcs_certificate(
    system: HypergraphSystem,
    e,
    functions,
    ell: int,
) -> BoundCheck:
    """Check |product expectation| <= product of the factors' box norms.

    Missing digit patterns count as the constant one (box norm 1).
    """
    e = as_edge(e)
    ell = require_even(ell)
    value = gcs_form(system, e, functions, ell)
    rhs = 1.0
    norms = {}
    by_factor: dict[int, float] = {}
    for digits, fn in sorted(functions.items()):
        digits = tuple(int(d) for d in digits)
        if id(fn) not in by_factor:
            by_factor[id(fn)] = box_norm(system, e, fn, ell).value
        nv = by_factor[id(fn)]
        norms[",".join(map(str, digits))] = nv
        rhs *= nv
    tol = REL_TOL * rhs
    lhs = abs(value)
    return BoundCheck(
        name="product-vs-box-norms",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        holds=bool(lhs <= rhs + tol),
        hypotheses={},
        details={"form_value": value, "factor_norms": norms},
    )


def lp_box_norm(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
    p: Exponent,
) -> float:
    """The p-weighted box norm: box_norm(|f|**p)**(1/p); sup norm at p=inf.

    Computed on f rescaled by max|f| (the norm is absolutely homogeneous),
    which keeps |f|**p inside float range for p as large as 2**20.
    """
    e = check_on_edge(system, e, f)
    ell = require_even(ell)
    m = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if p.is_inf or m == 0.0:
        return m
    return _lp_box_norm_inner(system, e, f, ell, p)[0]


def _lp_box_norm_inner(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
    p: Exponent,
    method: str = "recursive",
) -> tuple[float, BoxNormResult]:
    """The p-weighted box norm for finite p, with the inner box norm it roots.

    The inner result is the box norm of (|f| / max|f|)**p by `method`, or of
    f itself when f is zero (value 0).  The p-weighted norm is then
    max|f| * inner.value**(1/p), taken through log/exp.
    """
    m = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if m == 0.0:
        inner = box_norm(system, e, f, ell, method=method)
        return 0.0, inner
    powered = edge_function(system, e, np.power(np.abs(f.values) / m, p.value))
    inner = box_norm(system, e, powered, ell, method=method)
    if inner.value <= 0.0:
        return 0.0, inner
    return m * math.exp(math.log(inner.value) / p.value), inner


def bilinear_bound_report(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    u: EdgeFunction,
    v: EdgeFunction,
    ell: int,
    p: Exponent,
) -> BoundCheck:
    """Check |E[f(x,y) u(x) v(y)]| <= box_norm(f, ell) * ||u||_p * ||v||_p.

    Requires a doubleton edge.  The inequality is backed by theory only when
    ell >= conj(p); smaller ell is still computed but flagged.
    """
    from .errors import NotDoubleton
    from .spaces import lp_norm

    e = check_on_edge(system, e, f)
    if len(e) != 2:
        raise NotDoubleton(f"bilinear bound needs a 2-coordinate edge, got {e}")
    i, j = e
    if u.edge != (i,) or v.edge != (j,):
        raise ShapeMismatch(
            f"side tensors must live on ({i},) and ({j},), got {u.edge}, {v.edge}"
        )
    ell = require_even(ell)
    q = p.conjugate()
    ell_ok = bool(q.is_inf is False and ell + REL_TOL >= q.value)
    grid = Grid(system, [(i, 0), (j, 0)])
    lhs = abs(
        grid.expect(
            [
                grid.lift(e, f.values, (0, 0)),
                grid.lift((i,), u.values, (0,)),
                grid.lift((j,), v.values, (0,)),
            ]
        )
    )
    rhs = (
        box_norm(system, e, f, ell).value
        * lp_norm(system, (i,), u, p)
        * lp_norm(system, (j,), v, p)
    )
    tol = REL_TOL * max(1.0, rhs)
    return BoundCheck(
        name="bilinear-box-lp-bound",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        holds=bool(lhs <= rhs + tol),
        hypotheses={"ell_at_least_conjugate": ell_ok},
        details={"ell": ell, "p": p.as_json(), "conjugate": q.as_json()},
    )
