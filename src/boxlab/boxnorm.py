"""Box norms of edge tensors over replicated product grids.

Two independent evaluation routes are provided on purpose:

* `box_power_direct` literally enumerates the replicated grid: every
  coordinate of the edge gets `ell` independent copies, and the expectation
  of the product of the tensor over all digit patterns visits every cell.
  It is the reference oracle.  `Grid.expect` sums it: a grid of at most one
  block (2**16 cells) is one pairwise sum over the fully multiplied array,
  bit-identical to materialising it; a larger grid is summed block by block
  over its trailing axes in a fixed order, without a full-grid array.  Every
  lift of f views the same memory in the same layout, so the groups of
  lifts, one per set of leading replicas read, share one folded cache; the
  leading replicas are walked depth first, a prefix's product is formed
  once, and each block's sum is multiplied by its leading weight.  Every
  cell's full product is still formed and every cell summed.  Its
  products are folded one factor at a time, left to right.  From 4096
  cells on, each factor is first copied over the innermost axes of at
  least 256 cells, so numpy multiplies runs that long, and a product of
  factors is held only over the axes they have read so far; smaller
  products take the plain in-place loop.  A product rounds each cell
  alone, so the layout changes no bit: every cell multiplies the same
  operands in the same order, and the sums are unchanged.
  `Grid`'s cell cap is its only size bound: a replicated grid above
  `GRID_CELL_CAP` (2**25) cells raises SizeCapExceeded.
* `box_norm(..., method="recursive")` peels one coordinate at a time, always
  the last coordinate of the edge, averaging the sub-power of the pointwise
  product of `ell` slices.  Tuples of slices are grouped into multisets with
  multinomial weights, which cuts m**ell work down to binom(m + ell - 1, ell).
  The peel is batched: a batch holds B tensors on the same coordinates (the
  first holds f alone).  Peeling a coordinate with m atoms computes each
  power `X ** c` (c = 2..ell) once on the whole batch and turns every
  tensor into M = binom(m + ell - 1, ell) tensors with one axis fewer, one
  per multiset in `combinations_with_replacement` order: the slices of its
  distinct atoms, each to the power of its count, multiplied in ascending
  atom order (a multiset with fewer distinct atoms multiplies by 1.0,
  which is exact).  On the first coordinate each tensor is one C-contiguous
  row, summed against the weights by numpy's pairwise sum, and the sum is
  raised to `ell` as a Python float.  Folding back, a tensor's power starts
  at 0.0 and adds (coefficient * weight) * child power one multiset at a
  time in multiset order; a multiset's weight multiplies w_t ** c_t, taken
  on Python floats, in ascending atom order; the multisets are cached per
  (m, ell).  The fold is a sequential scan, never a pairwise reduction, so
  every power equals that of a loop over the multisets bit for bit (for
  C-contiguous tensors, as `EdgeFunction` stores them).  A level whose
  peeled batch or stack of powers would exceed one block (2**16 cells, as
  in `Grid.expect`) is split along its batch axis into pieces of at most
  one block, each of at least one tensor, peeled one after another; the
  split changes no tensor's arithmetic.  A one-atom coordinate has one
  multiset, so its peel is just `X ** ell` and the fold
  0.0 + (1.0 * w ** ell) * child, the same floats without the plan.
  Before anything is allocated, `_check_peel` refuses (SizeCapExceeded) a
  replica count whose multinomial coefficients overflow a float, or whose
  plan or stack of powers for one tensor would pass `GRID_CELL_CAP` cells;
  a first-coordinate sum whose `ell`-th power overflows makes the power inf.

Both return the same number up to roundoff; tests enforce 1e-9 agreement.
Powers are carried unrooted through the recursion and the single final root
uses log/exp.  Tiny negative powers (within -1e-9 * scale) are clamped to
zero and flagged; anything worse raises NumericalInconsistency.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalInconsistency,
    OddEll,
    ShapeMismatch,
    SizeCapExceeded,
)
from .spaces import (
    BLOCK_CELLS,
    GRID_CELL_CAP,
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


def _count_vectors(m: int, ell: int) -> list[tuple[int, ...]]:
    """Atom counts (c_0, ..., c_{m-1}) summing to ell, c_0 descending first.

    That is the order of `combinations_with_replacement(range(m), ell)`.
    """
    if m == 1:
        return [(ell,)]
    return [(c,) + rest for c in range(ell, -1, -1) for rest in _count_vectors(m - 1, ell - c)]


@functools.lru_cache(maxsize=256)
def _check_peel(sizes: tuple[int, ...], ell: int) -> None:
    """Refuse, before anything is allocated, a peel that cannot be carried out.

    `sizes` are the atom counts of the edge.  For each peeled coordinate of
    m >= 2 atoms, every multinomial coefficient must fit in a float, and the
    plan's entries, the M children of one tensor and its stack of ell + 1
    powers must each stay within `GRID_CELL_CAP` cells.  The largest
    coefficient is at least binom(ell, ell // 2) >= 2**ell / (ell + 1),
    past the float range once ell > 1100, so no larger factorial is taken.
    """
    for j in range(1, len(sizes)):
        m, rest = sizes[j], math.prod(sizes[:j])
        if m == 1:
            continue
        q, r = divmod(ell, m)
        if ell > 1100 or math.factorial(ell) // (
            math.factorial(q + 1) ** r * math.factorial(q) ** (m - r)
        ) > sys.float_info.max:
            raise SizeCapExceeded(
                f"multinomial coefficients of ell={ell} over {m} atoms overflow a float"
            )
        count = math.comb(m + ell - 1, ell)
        if max(count * min(m, ell), count * rest, (ell + 1) * m * rest) > GRID_CELL_CAP:
            raise SizeCapExceeded(
                f"peeling {m} atoms at ell={ell} ({count} multisets, {rest} cells "
                f"each) exceeds the {GRID_CELL_CAP}-cell cap"
            )


@functools.lru_cache(maxsize=256)
def _multiset_plan(m: int, ell: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The multisets of `ell` atoms out of `m`, in `combinations_with_replacement` order.

    Multiset s has distinct atoms t_0 < t_1 < ... with counts c_0, c_1, ...
    Its atoms and counts are coded as `rows[d][s]` = c_d * m + t_d, and as 0
    past its last distinct atom (count 0); `coeffs[s]` is the multinomial
    coefficient ell! / prod(c_d!).  The arrays are read-only, since every
    caller shares them.  Built from count vectors, after `_check_peel`.
    """
    vectors = _count_vectors(m, ell)
    rows = np.zeros((min(m, ell), len(vectors)), dtype=np.intp)
    coeffs = np.empty(len(vectors))
    for s, counts in enumerate(vectors):
        coeff = math.factorial(ell)
        d = 0
        for t, c in enumerate(counts):
            if c:
                rows[d, s] = c * m + t
                coeff //= math.factorial(c)
                d += 1
        coeffs[s] = float(coeff)
    rows.flags.writeable = coeffs.flags.writeable = False
    return tuple(rows), coeffs


def _peel(system: HypergraphSystem, e: tuple[int, ...], batch: np.ndarray, ell: int) -> np.ndarray:
    """The box powers on e of `batch[0]`, `batch[1]`, ..., peeling e[-1] first."""
    if len(e) == 1:
        sums = np.add.reduce(batch * system.spaces[e[0]].weights, axis=-1)
        return np.array([s**ell for s in sums.tolist()])
    w = system.spaces[e[-1]].weights.tolist()
    m = len(w)
    if m == 1:
        # The one multiset: the fold below is 0.0 + (1.0 * w**ell) * child.
        sub = _peel(system, e[:-1], batch[..., 0] ** ell, ell)
        return 0.0 + (1.0 * w[0] ** ell) * sub
    rows, coeffs = _multiset_plan(m, ell)
    # Entry c * m + t of `wpow`, like row c * m + t of `pieces` below, is
    # atom t to the power c; count 0 gives ones.
    wpow = np.array([x**c for c in range(ell + 1) for x in w])
    factor = wpow[rows[0]]
    for r in rows[1:]:
        factor = factor * wpow[r]
    factor = coeffs * factor
    size = len(coeffs)
    rest = batch.shape[1:-1]
    step = max(1, BLOCK_CELLS // (max(size, (ell + 1) * m) * math.prod(rest)))
    powers = np.empty(batch.shape[0])
    for lo in range(0, batch.shape[0], step):
        x = batch[lo : lo + step].transpose(0, batch.ndim - 1, *range(1, batch.ndim - 1))
        b = x.shape[0]
        pieces = np.concatenate([np.ones(x.shape), x] + [x**c for c in range(2, ell + 1)], axis=1)
        prod = pieces.take(rows[0], axis=1)
        for r in rows[1:]:
            prod *= pieces.take(r, axis=1)
        sub = _peel(system, e[:-1], prod.reshape((b * size,) + rest), ell)
        # 0.0 + t_0 + t_1 + ... left to right: a scan, not a pairwise sum.
        terms = np.zeros((b, size + 1))
        np.multiply(factor, sub.reshape(b, size), out=terms[:, 1:])
        powers[lo : lo + b] = np.add.accumulate(terms, axis=1)[:, -1]
    return powers


def _box_power_recursive(
    system: HypergraphSystem,
    e: tuple[int, ...],
    values: np.ndarray,
    ell: int,
) -> float:
    _check_peel(values.shape, ell)
    try:
        return float(_peel(system, e, values[None], ell)[0])
    except OverflowError:  # a first-coordinate sum to the power ell (even)
        return math.inf


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
