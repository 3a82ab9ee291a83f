"""Box norms of edge tensors over replicated product grids.

Two independent evaluation routes are provided on purpose:

* `box_power_direct` literally enumerates the replicated grid: every
  coordinate of the edge gets `ell` independent copies, and the expectation
  of the product of the tensor over all digit patterns visits every cell.
  It is the reference oracle, and `Grid.expect` sums it (see spaces.py): up
  to one block (2**16 cells) bit-identically to the materialised array,
  beyond it block by block over its trailing axes, the leading replicas
  walked depth first and each group of lifts folded once into a shared
  cache.  Every cell's full product is still formed, one factor at a time
  left to right; past one block each leaf's last product is fused into its
  sum, one `np.einsum` call over rows of at most 32 cells whose row sums
  get numpy's pairwise sum, so values move from the materialised sum by
  roundoff only.  The array layout changes no bit.
  `check_replicated` refuses (SizeCapExceeded), before anything is built,
  a grid of more than numpy's 64 axes or more than `GRID_CELL_CAP` (2**25)
  cells or digit patterns.
* `box_norm(..., method="recursive")` peels one coordinate at a time, always
  the last coordinate of the edge, averaging the sub-power of the pointwise
  product of `ell` slices.  Tuples of slices are grouped into multisets with
  multinomial weights, which cuts m**ell work down to binom(m + ell - 1, ell).
  The peel is batched: a batch holds B tensors on the same coordinate sizes,
  and row r weighs its coordinates by its own vertex spaces, through an
  index into a table of the distinct tuples of spaces in the batch (children
  inherit their parent's index by `np.repeat`).  Peeling a coordinate with m
  atoms computes each power `X ** c` (c = 2..ell) once on the whole batch
  and turns every tensor into M = binom(m + ell - 1, ell) tensors with one
  axis fewer, one per multiset in `combinations_with_replacement` order:
  the slices of its distinct atoms, each to the power of its count,
  multiplied in ascending atom order (a multiset with fewer distinct atoms
  multiplies by 1.0, which is exact).  On the first coordinate each tensor
  is one C-contiguous row, multiplied by its row of weights and summed by
  numpy's pairwise sum, and the sum is raised to `ell` as a Python float.
  Folding back, a tensor's power starts at 0.0 and adds (coefficient *
  weight) * child power one multiset at a time in multiset order; a
  multiset's weight multiplies w_t ** c_t, taken on Python floats once per
  table entry, in ascending atom order; the multisets are cached per (m,
  ell).  The fold is a sequential scan, never a pairwise reduction, so
  every power equals that of a loop over the multisets bit for bit (for
  C-contiguous tensors, as `EdgeFunction` stores them), whatever else the
  batch holds.  A level whose peeled batch or stack of powers would exceed
  one block (2**16 cells, as in `Grid.expect`) is split along its batch
  axis into pieces of at most one block, each of at least one tensor,
  peeled one after another; the split changes no tensor's arithmetic.  A
  one-atom coordinate has one multiset, so its peel is just `X ** ell` and
  the fold 0.0 + (1.0 * w ** ell) * child, the same floats without the
  plan.  Before anything is allocated, `_check_peel` refuses
  (SizeCapExceeded) a replica count whose multinomial coefficients overflow
  a float, or whose plan or stack of powers for one tensor would pass
  `GRID_CELL_CAP` cells; a first-coordinate sum whose `ell`-th power
  overflows makes the power of its own row inf, and no other row's.
  `_box_norms` is the one entry: it takes a list of (system, edge, values)
  rows at one ell, checks every shape before it peels anything, peels the
  rows of each shape as one batch and roots each power in row order.
  `box_norm`, `lp_box_norm` and the certificates call it, with one row or
  with all the norms they need.  A batch whose rows all share one tuple of
  spaces reads the tables' one entry by broadcasting instead of by index.

Both return the same number up to roundoff; tests enforce 1e-9 agreement.
Powers are carried unrooted through the recursion and the single final root
uses log/exp.  Tiny negative powers (within -1e-9 * scale) are clamped to
zero and flagged; anything worse raises NumericalInconsistency.

`gcs_form`, the multilinear side of the generalised Cauchy-Schwarz
inequality, takes one tensor per digit pattern and never builds the grid:
it eliminates the replicas of one coordinate at a time, in an order fixed
in closed form (the coordinate with the most atoms last), holding every
table within one block of cells; see its docstring.  Its value is the
grid's sum up to roundoff, not bit for bit.
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
    MAX_GRID_AXES,
    EdgeFunction,
    Exponent,
    Grid,
    HypergraphSystem,
    as_edge,
    check_on_edge,
    checked_power,
    derived_function,
    outer_weights,
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


def _power_scale(top: float, big_n: int) -> float:
    """The clamp scale max|f| ** ell**|e|, from `top` = max|f|."""
    if top == 0.0:
        return 0.0
    try:
        return top**big_n
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
    `check_replicated` refuses (SizeCapExceeded) a grid past its caps.
    """
    e = check_on_edge(system, e, f)
    ell = require_even(ell)
    k = len(e)
    checked_power(ell, k)
    check_replicated(system, e, ell)
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


def _power_or_inf(s: float, ell: int) -> float:
    try:
        return s**ell
    except OverflowError:
        return math.inf


def _entries(table: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    """Rows `index` of a level's table; its one entry, broadcast, if None."""
    return table if index is None else table[index]


def _peel(
    batch: np.ndarray, index: np.ndarray | None, levels: list, ell: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The box powers of `batch[0]`, `batch[1]`, ..., peeling the last axis first.

    Row r weighs its coordinates by entry `index[r]` of the tables in
    `levels` (see `_levels`), or by entry 0 when `index` is None.  Also
    returns which rows had a first-coordinate sum whose `ell`-th power
    overflows, or None if none had; those rows' powers are inf.
    """
    table = levels[batch.ndim - 2]
    if batch.ndim == 2:
        sums = np.add.reduce(batch * _entries(table, index), axis=-1)
        try:
            return np.array([s**ell for s in sums.tolist()]), None
        except OverflowError:
            powers = np.array([_power_or_inf(s, ell) for s in sums.tolist()])
            return powers, np.isinf(powers) & np.isfinite(sums)
    m = batch.shape[-1]
    if m == 1:
        # The one multiset: the fold below is 0.0 + (1.0 * w**ell) * child.
        sub, over = _peel(batch[..., 0] ** ell, index, levels, ell)
        if over is not None:
            sub[over] = 0.0
        powers = 0.0 + _entries(table, index) * sub
        if over is not None:
            powers[over] = math.inf
        return powers, over
    rows, coeffs = _multiset_plan(m, ell)
    size = len(coeffs)
    rest = batch.shape[1:-1]
    step = max(1, BLOCK_CELLS // (max(size, (ell + 1) * m) * math.prod(rest)))
    powers = np.empty(batch.shape[0])
    overflowed = None
    for lo in range(0, batch.shape[0], step):
        x = batch[lo : lo + step].transpose(0, batch.ndim - 1, *range(1, batch.ndim - 1))
        b = x.shape[0]
        pieces = np.concatenate([np.ones(x.shape), x] + [x**c for c in range(2, ell + 1)], axis=1)
        prod = pieces.take(rows[0], axis=1)
        for r in rows[1:]:
            prod *= pieces.take(r, axis=1)
        at = None if index is None else index[lo : lo + b]
        sub_index = None if at is None else np.repeat(at, size)
        sub, over = _peel(prod.reshape((b * size,) + rest), sub_index, levels, ell)
        if over is not None:
            sub[over] = 0.0
        # 0.0 + t_0 + t_1 + ... left to right: a scan, not a pairwise sum.
        terms = np.zeros((b, size + 1))
        np.multiply(_entries(table, at), sub.reshape(b, size), out=terms[:, 1:])
        powers[lo : lo + b] = np.add.accumulate(terms, axis=1)[:, -1]
        if over is not None:
            over = over.reshape(b, size).any(axis=1)
            powers[lo : lo + b][over] = math.inf
            if overflowed is None:
                overflowed = np.zeros(batch.shape[0], dtype=bool)
            overflowed[lo : lo + b] = over
    return powers, overflowed


def _levels(table: list, sizes: tuple[int, ...], ell: int) -> list:
    """Per coordinate, the peel's weight table: one row per entry of `table`.

    `table[t][j]` is the weight vector of coordinate j in entry t.  Level 0
    holds the weights themselves; a one-atom level holds 1.0 * w**ell; a
    level of m >= 2 atoms holds, per multiset, its coefficient times its
    weight, the product of w_t ** c_t in ascending atom order.  Powers are
    taken on Python floats, once per entry.  A one-entry table is that
    entry's row itself, which `_peel` reads by broadcasting.
    """
    one = len(table) == 1

    def stacked(per_entry: list):
        return per_entry[0] if one else np.array(per_entry)

    levels = [stacked([entry[0] for entry in table])]
    for j in range(1, len(sizes)):
        ws = [entry[j].tolist() for entry in table]
        if sizes[j] == 1:
            levels.append(stacked([1.0 * w[0] ** ell for w in ws]))
            continue
        rows, coeffs = _multiset_plan(sizes[j], ell)
        # Entry c * m + t of a row of `wpow`, like row c * m + t of the
        # peel's `pieces`, is atom t to the power c; count 0 gives ones.
        wpow = np.asarray(stacked([[x**c for c in range(ell + 1) for x in w] for w in ws]))
        factor = wpow.take(rows[0], axis=-1)
        for r in rows[1:]:
            factor *= wpow.take(r, axis=-1)
        levels.append(coeffs * factor)
    return levels


def _box_norms(rows: list, ell: int) -> list[BoxNormResult]:
    """Recursive box norms of a list of rows (system, edge, values), one ell.

    Rows are trusted: each edge is canonical and its values a float tensor
    on it.  Every shape is checked (`checked_power`, `_check_peel`) in the
    order of its first row before anything is peeled, so a refused row
    allocates nothing.  Rows of one shape are peeled as one batch, each row
    weighted by its own spaces through a table of the distinct tuples of
    spaces, so a row's power equals that of a one-row peel bit for bit.
    Powers are rooted in row order.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row[2].shape, []).append(i)
    for shape in groups:
        checked_power(ell, len(shape))
        _check_peel(shape, ell)
    powers = [0.0] * len(rows)
    tops = [0.0] * len(rows)
    for shape, members in groups.items():
        if len(members) == 1:
            system, e, values = rows[members[0]]
            index, table, batch = None, [[system.spaces[v].weights for v in e]], values[None]
        else:
            keys: dict[tuple, int] = {}
            at = [
                keys.setdefault(tuple(rows[i][0].spaces[v] for v in rows[i][1]), len(keys))
                for i in members
            ]
            index = np.array(at, dtype=np.intp) if len(keys) > 1 else None
            table = [[s.weights for s in key] for key in keys]
            batch = np.array([rows[i][2] for i in members])
        levels = _levels(table, shape, ell)
        got = _peel(batch, index, levels, ell)[0].tolist()
        for i, power in zip(members, got):
            powers[i] = power
        if any(power < 0.0 for power in got):  # only these read the clamp scale
            top = np.maximum.reduce(np.abs(batch).reshape(len(members), -1), axis=1)
            for i, m in zip(members, top.tolist()):
                tops[i] = m
    out = []
    for (_, e, _), power, top in zip(rows, powers, tops):
        big_n = ell ** len(e)
        value, clamped = _root_with_clamp(power, big_n, _power_scale(top, big_n))
        out.append(BoxNormResult(value, power, ell, e, "recursive", clamped))
    return out


def box_norm(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
    method: str = "recursive",
) -> BoxNormResult:
    """Box norm of f on edge e with ell replicas per coordinate.

    method="recursive" peels the edge's last coordinate e[-1] first, then
    the one before it, down to e[0] (the normative order); method="direct"
    roots the oracle power instead.
    """
    e = check_on_edge(system, e, f)
    ell = require_even(ell)
    big_n = checked_power(ell, len(e))
    if method == "recursive":
        return _box_norms([(system, e, f.values)], ell)[0]
    if method != "direct":
        raise ShapeMismatch(f"unknown box norm method {method!r}")
    power = box_power_direct(system, e, f, ell)
    top = float(np.max(np.abs(f.values)))
    value, clamped = _root_with_clamp(power, big_n, _power_scale(top, big_n))
    return BoxNormResult(value, power, ell, e, method, clamped)


def check_replicated(system: HypergraphSystem, e, ell: int) -> None:
    """Refuse, before anything is built, a replicated grid of e that cannot be evaluated.

    The grid gives every coordinate of e its own `ell` copies: |e| * ell
    axes, prod(m_v ** ell) cells and ell ** |e| digit patterns.  More axes
    than numpy's `MAX_GRID_AXES`, or cells or patterns above `GRID_CELL_CAP`,
    raise SizeCapExceeded, in that order.  The axes come first, so a huge
    ell is refused before any power is taken, and nothing is built.
    """
    ell = require_even(ell)
    k = len(e)
    if k * ell > MAX_GRID_AXES:
        raise SizeCapExceeded(
            f"grid of {k * ell} axes exceeds numpy's {MAX_GRID_AXES}-axis limit"
        )
    cells = math.prod(system.spaces[v].size ** ell for v in e)
    if cells > GRID_CELL_CAP:
        raise SizeCapExceeded(f"grid of {cells} cells exceeds cap {GRID_CELL_CAP}")
    if ell**k > GRID_CELL_CAP:
        raise SizeCapExceeded(
            f"{ell}**{k} digit patterns exceed cap {GRID_CELL_CAP}"
        )


def _walked_axes(sizes: list[int], m_c: int, ell: int, reps: int) -> int:
    """How many leading replica axes `gcs_form` walks instead of building.

    `sizes` are the atom counts of the coordinates other than c, in order;
    their replica axes are listed coordinate by coordinate, and `reps` is
    the length of a digit axis.  Built after the first `walked` of them,
    the table that ends coordinate d has reps ** (K - d) * m_c cells times,
    per coordinate, m for each replica axis built so far and m for each
    coordinate not yet reached.  The least `walked` that keeps every such
    table within one block (`BLOCK_CELLS`) is taken.
    """
    k = len(sizes)
    for walked in range(k * ell):
        built = [ell - min(ell, max(0, walked - d * ell)) for d in range(k)]
        worst = max(
            reps ** (k - d) * m_c
            * math.prod(sizes[j] ** built[j] for j in range(d + 1))
            * math.prod(sizes[d + 1 :])
            for d in range(walked // ell, k)
        )
        if worst <= BLOCK_CELLS:
            return walked
    return k * ell


def _grow(table: np.ndarray, acc, r0: int, ell: int, left: int) -> np.ndarray:
    """The next coordinate's table: replicas r0.. of this one become new axes.

    `table` has axes (own digit, own atoms, `left - 1` later (digit, atoms)
    pairs, i, a, built replicas); `acc`, the product of its walked replicas
    before r0, has axes (later pairs, i, a), or is None when r0 is 0.  The
    result has axes (later pairs, i, a, replicas r0..ell-1 of this
    coordinate, built replicas): replica r reads digit r of this
    coordinate, or digit 0 of a digit axis of length one.  It is ((acc *
    s_r0) * s_r0+1) * ..., and every operand is contiguous along the built
    replicas, the innermost axes.
    """
    n = ell - r0
    at = (slice(None),) * (2 * left)
    # Own atoms move behind (later pairs, i, a); the built replicas stay last.
    move = [*range(1, 2 * left + 1), 0, *range(2 * left + 1, table.ndim - 1)]
    ops = [] if acc is None else [acc[(...,) + (None,) * n]]
    for r in range(r0, ell):
        slab = table[r % table.shape[0]].transpose(move)
        ops.append(slab[at + (None,) * (r - r0) + (slice(None),) + (None,) * (ell - 1 - r)])
    shape = table.shape
    out = np.empty(shape[2 : 2 * left + 2] + (shape[1],) * n + shape[2 * left + 2 :])
    np.multiply(ops[0], ops[1], out=out)
    for a in ops[2:]:
        out *= a
    return out


def gcs_form(
    system: HypergraphSystem,
    e,
    functions,
    ell: int,
) -> float:
    """Expectation of a product with one tensor per replica digit pattern.

    `functions` maps digit tuples (one digit per coordinate of e, each in
    0..ell-1) to edge tensors on e; missing patterns contribute the constant
    one.  With every pattern mapped to the same f this is the box power of
    f.  `check_replicated` refuses the same inputs as `box_power_direct`,
    and also more than `GRID_CELL_CAP` patterns.

    The replicated grid is never built.  Its replicas are eliminated one
    coordinate at a time (bucket elimination, Dechter 1999), in an order
    fixed in closed form.  c is the coordinate with the most atoms, the
    last of them on a tie; the others keep their edge order, and X runs
    over their replica tuples.  For each replica i of c,
        H_i(X) = sum_a w_c(a) prod_{pattern p: p_c = i} f_p(X_p, a),
    and the form is sum_X W(X) prod_i H_i(X), with W the product weight of
    X.  The tensors are stacked over all patterns (ones where missing) with
    axes (per other coordinate its digit and atoms, i, a).  Each other
    coordinate in turn multiplies the slabs of its ell digits, replica r's
    atoms on a new axis: an outer product of replica tuples, one per
    remaining digit tuple.  The last table is multiplied by w_c, summed
    over a and multiplied over i, then weighted by W and summed by numpy's
    pairwise sum.  A family that maps every pattern to one tensor (an empty
    family included) is stacked once, with digit axes of length one: then
    every H_i is the same, and it is multiplied ell times.

    Every table with new replica axes stays within one block
    (`BLOCK_CELLS`) cells: past that, the leading replica axes (see
    `_walked_axes`) are walked depth first in C order, each prefix's
    product of slabs formed once for its children; each leaf's sum is
    multiplied by its leading weight and those are added by one pairwise
    sum.  The stack, one tensor per pattern, and the walk's products of its
    slabs are no larger than the family itself.  Only broadcast multiplies
    and `np.add.reduce` run, so no BLAS call and no thread count enters.
    The value is the grid's sum up to roundoff, not bit for bit: tests hold
    it within 1e-12 times the product of the present factors' max |f|.
    """
    e = as_edge(e)
    ell = require_even(ell)
    k = len(e)
    fams: dict[tuple[int, ...], EdgeFunction] = {}
    checked: set[int] = set()
    for digits, fn in functions.items():
        digits = tuple(int(d) for d in digits)
        if len(digits) != k or any(d < 0 or d >= ell for d in digits):
            raise ShapeMismatch(f"bad digit pattern {digits} for edge {e}, ell={ell}")
        if id(fn) not in checked:
            check_on_edge(system, e, fn)
            checked.add(id(fn))
        fams[digits] = fn
    check_replicated(system, e, ell)
    sizes = system.edge_shape(e)
    c = max(range(k), key=lambda j: (sizes[j], j))
    others = [j for j in range(k) if j != c]
    ones = np.ones(sizes)
    tensors = [
        fams[d].values if d in fams else ones for d in itertools.product(range(ell), repeat=k)
    ]
    reps = 1 if all(t is tensors[0] for t in tensors) else ell
    stack = np.array(tensors[: reps**k]).reshape((reps,) * k + sizes)
    order = [axis for j in others for axis in (j, k + j)] + [c, k + c]
    table = stack.transpose(order)
    sizes_o = [sizes[j] for j in others]
    walked = _walked_axes(sizes_o, sizes[c], ell, reps)
    axis_w = [system.spaces[e[j]].weights for j in others for _ in range(ell)]
    built_w = outer_weights(
        axis_w[d * ell + r]
        for d in reversed(range(len(others)))
        for r in range(ell)
        if d * ell + r >= walked
    )
    w_c = system.spaces[e[c]].weights
    sums: list[float] = []

    def visit(table, d, r, acc):
        # Coordinate d's table, with `acc` the product of its walked replicas < r.
        if d * ell + r < walked:
            for x in range(sizes_o[d]):
                slab = table[r % table.shape[0], x]
                nxt = slab if acc is None else acc * slab
                if r + 1 < ell:
                    visit(table, d, r + 1, nxt)
                else:
                    visit(nxt, d + 1, 0, None)
            return
        for left in range(len(others) - d, 0, -1):
            table, acc, r = _grow(table, acc, r, ell, left), None, 0
        table *= w_c.reshape((1, -1) + (1,) * (table.ndim - 2))
        h = np.add.reduce(table, axis=1)
        h = np.multiply.reduce(np.broadcast_to(h, (ell,) + h.shape[1:]), axis=0)
        sums.append(float(np.add.reduce(np.reshape(h, -1) * built_w)))

    visit(table, 0, 0, None)
    return float(np.add.reduce(np.array(sums) * outer_weights(axis_w[:walked])))


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
    ordered = sorted(functions.items())
    distinct = {id(fn): fn for _, fn in ordered}
    found = _box_norms([(system, e, fn.values) for fn in distinct.values()], ell)
    by_factor = {key: res.value for key, res in zip(distinct, found)}
    rhs = 1.0
    norms = {}
    for digits, fn in ordered:
        nv = by_factor[id(fn)]
        norms[",".join(str(int(d)) for d in digits)] = nv
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
    return _lp_box_norms([(system, e, f.values)], require_even(ell), [p])[0][0]


def _lp_powered(mag: np.ndarray, top: float, p: Exponent) -> np.ndarray:
    """The tensor (|f| / max|f|)**p, from mag = |f| and top = max|f| > 0."""
    return np.power(mag / top, p.value)


def _lp_root(top: float, b: float, p: Exponent) -> float:
    """The p-weighted norm max|f| * b**(1/p), through log/exp, from the box
    norm b of the powered tensor; 0 when b is 0."""
    return top * math.exp(math.log(b) / p.value) if b > 0.0 else 0.0


def _lp_box_norms(rows: list, ell: int, ps) -> list[list[float]]:
    """p-weighted box norms of a list of trusted rows (system, edge, values).

    Entry [i][r] is the norm of row r at exponent ps[i]: max|f| at p = inf
    or when f is zero; otherwise `_lp_root` of the box norm of
    `_lp_powered`.  Every box norm comes from one `_box_norms` stack, p by p
    and row by row, so each norm equals that of a one-row call bit for bit.
    """
    mags = [np.abs(values) for _, _, values in rows]
    tops = [float(mag.max()) for mag in mags]
    live = [
        (i, r) for i, p in enumerate(ps) if not p.is_inf for r, top in enumerate(tops) if top != 0.0
    ]
    inner = _box_norms(
        [(rows[r][0], rows[r][1], _lp_powered(mags[r], tops[r], ps[i])) for i, r in live], ell
    )
    out = [list(tops) for _ in ps]
    for (i, r), res in zip(live, inner):
        out[i][r] = _lp_root(tops[r], res.value, ps[i])
    return out


def _lp_box_norm_inner(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    ell: int,
    p: Exponent,
    method: str = "recursive",
) -> tuple[float, BoxNormResult]:
    """The p-weighted box norm for finite p, with the inner box norm it roots.

    The inner result is the box norm of `_lp_powered` by `method`, or of f
    itself when f is zero (value 0); the p-weighted norm is its `_lp_root`.
    """
    mag = np.abs(f.values)
    m = float(mag.max())
    if m == 0.0:
        return 0.0, box_norm(system, e, f, ell, method=method)
    powered = derived_function(e, _lp_powered(mag, m, p))
    inner = box_norm(system, e, powered, ell, method=method)
    return _lp_root(m, inner.value, p), inner


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
