"""Maximization of multilinear forms over boxes of bounded slot functions.

The objects optimized here all share one shape: a base vector b over the
cells of an evaluation grid, and a list of "slots", each restricted to
0 <= g <= bound on the atoms of one face.  The objective

    value(g_1, ..., g_k) = sum_p b_p * prod_s g_s(face_s(p))

is multilinear in the slot functions, so |value| attains its supremum at a
vertex of the product of boxes: every slot equal to its bound on some subset
of its atoms and zero elsewhere.  A slot is therefore encoded as one row
matrix R_s with R_s[t, p] = bound_s(t) if cell p projects to atom t else 0,
and a vertex as a bitmask over atoms.

Exact mode enumerates every bitmask combination (first slot most
significant, masks ascending), keeping the first maximizer, so ties resolve
to the lexicographically smallest mask vector.  Heuristic mode runs the
classic alternating ascent: the objective is linear in each slot, so the
conditional optimum sets atom t on iff its coefficient helps the current
sign; restarts draw initial masks from a seeded Philox stream.

The module also owns what a boxed sup problem is: `SupProblem` places a
kernel and its `Slot`s on one evaluation grid (base-edge coordinates once,
every other coordinate in per-replica copies), and `sup_multilinear` is the
one place that turns a problem into rows and chooses its mode ("auto" is
exact up to the combination cap, heuristic beyond).  Cut norms, the C2b
check and the proof oracles all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DigitOutOfRange, MalformedProblem, SizeCapExceeded
from .spaces import EdgeFunction, Grid, HypergraphSystem, as_edge, check_function

COMBO_CAP = 1 << 24
CHUNK_ELEMS = 1 << 22
MAX_CYCLES = 1000


@dataclass(frozen=True)
class BoxedMaxResult:
    value: float  # |signed|
    signed: float
    masks: tuple[int, ...]
    mode: str
    combos: int
    restarts_used: int


def subset_rows(rows: np.ndarray) -> np.ndarray:
    """All 2**T subset sums of the T rows; output row index equals the mask."""
    out = np.zeros((1, rows.shape[1]))
    for t in range(rows.shape[0]):
        out = np.concatenate([out, out + rows[t][None, :]])
    return out


def _mask_row(rows: np.ndarray, mask: int) -> np.ndarray:
    picked = [t for t in range(rows.shape[0]) if (mask >> t) & 1]
    if not picked:
        return np.zeros(rows.shape[1])
    return np.sum(np.ascontiguousarray(rows[picked]), axis=0)


def _total_combos(slot_rows) -> int:
    total = 1
    for rows in slot_rows:
        total <<= rows.shape[0]
    return total


def exact_boxed_max(
    base: np.ndarray,
    slot_rows,
    cap: int = COMBO_CAP,
    chunk_elems: int = CHUNK_ELEMS,
) -> BoxedMaxResult:
    """Enumerate every vertex combination and return the first maximizer."""
    combos = _total_combos(slot_rows)
    if combos > cap:
        raise SizeCapExceeded(f"{combos} vertex combinations exceed cap {cap}")
    cells = base.shape[0]

    def rec(vec: np.ndarray, slots) -> tuple[float, float, tuple[int, ...]]:
        if not slots:
            val = float(np.sum(np.ascontiguousarray(vec)))
            return abs(val), val, ()
        tail = _total_combos(slots)
        if tail * cells <= chunk_elems:
            block = vec[None, :]
            for rows in slots:
                expanded = subset_rows(rows)
                block = (block[:, None, :] * expanded[None, :, :]).reshape(-1, cells)
            vals = np.sum(np.ascontiguousarray(block), axis=1)
            idx = int(np.argmax(np.abs(vals)))
            signed = float(vals[idx])
            masks = []
            rem = idx
            for rows in reversed(slots):
                size = 1 << rows.shape[0]
                masks.append(rem % size)
                rem //= size
            return abs(signed), signed, tuple(reversed(masks))
        head, rest = slots[0], slots[1:]
        expanded = subset_rows(head)
        best = (-1.0, 0.0, ())
        for mask in range(expanded.shape[0]):
            a, s, ms = rec(vec * expanded[mask], rest)
            if a > best[0]:
                best = (a, s, (mask,) + ms)
        return best

    a, s, masks = rec(base, list(slot_rows))
    return BoxedMaxResult(a, s, masks, "exact", combos, 0)


def ascent_boxed(
    base: np.ndarray,
    slot_rows,
    init_masks,
    sigma: float,
) -> tuple[float, tuple[int, ...]]:
    """Coordinate ascent on sigma * value; returns the signed value reached."""
    masks = list(init_masks)
    cur = [_mask_row(rows, m) for rows, m in zip(slot_rows, masks)]
    for _ in range(MAX_CYCLES):
        changed = False
        for s, rows in enumerate(slot_rows):
            context = base.copy()
            for s2, vec in enumerate(cur):
                if s2 != s:
                    context *= vec
            coeff = np.sum(np.ascontiguousarray(rows * context[None, :]), axis=1)
            new_mask = 0
            for t in range(rows.shape[0]):
                if sigma * coeff[t] > 0.0:
                    new_mask |= 1 << t
            if new_mask != masks[s]:
                masks[s] = new_mask
                cur[s] = _mask_row(rows, new_mask)
                changed = True
        if not changed:
            break
    prod = base.copy()
    for vec in cur:
        prod *= vec
    return float(np.sum(np.ascontiguousarray(prod))), tuple(masks)


def heuristic_boxed_max(
    base: np.ndarray,
    slot_rows,
    restarts: int = 32,
    seed: int = 0,
) -> BoxedMaxResult:
    """Best alternating-ascent vertex over seeded random restarts, both signs.

    Deterministic given (restarts, seed): the Philox stream fixes every
    initial mask, and the best value with the smallest restart index wins.
    """
    if restarts < 1:
        raise MalformedProblem(f"need at least one restart, got {restarts}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    best = BoxedMaxResult(-1.0, 0.0, tuple(0 for _ in slot_rows), "heuristic", 0, 0)
    for r in range(restarts):
        init = []
        for rows in slot_rows:
            bits = rng.integers(0, 2, size=rows.shape[0])
            init.append(int(sum(1 << t for t in range(rows.shape[0]) if bits[t])))
        for sigma in (1.0, -1.0):
            val, masks = ascent_boxed(base, slot_rows, init, sigma)
            if abs(val) > best.value:
                best = BoxedMaxResult(
                    abs(val), val, masks, "heuristic", 0, r + 1
                )
    return best


def projection_rows(
    grid_shape: tuple[int, ...],
    axis_positions,
    axis_sizes,
    bound_flat: np.ndarray,
) -> np.ndarray:
    """Build the slot row matrix for a face of an evaluation grid.

    axis_positions/axis_sizes describe which grid axes the face reads, in
    the face's own (row-major) coordinate order.  `bound_flat` holds the
    bound tensor flattened in that same order.
    """
    cells = 1
    for s in grid_shape:
        cells *= s
    proj = np.zeros(grid_shape, dtype=np.int64)
    stride = 1
    strides = [0] * len(axis_positions)
    for k in range(len(axis_positions) - 1, -1, -1):
        strides[k] = stride
        stride *= axis_sizes[k]
    for pos, size, st in zip(axis_positions, axis_sizes, strides):
        shape = [1] * len(grid_shape)
        shape[pos] = size
        proj = proj + np.arange(size, dtype=np.int64).reshape(shape) * st
    proj = np.broadcast_to(proj, grid_shape).reshape(-1)
    atoms = int(bound_flat.shape[0])
    rows = np.zeros((atoms, cells))
    rows[proj, np.arange(cells)] = bound_flat[proj]
    return rows


@dataclass(frozen=True)
class Slot:
    """One optimized function: 0 <= g <= bound on edge, at one replica.

    bound None means the constant-one bound.  label is free-form and only
    echoed into witnesses.
    """

    edge: tuple[int, ...]
    replica: int
    bound: EdgeFunction | None
    label: str = ""


@dataclass(frozen=True)
class SupProblem:
    """Maximize |E[kernel * prod of slot functions]| over the slot boxes.

    The base edge's coordinates appear once; every other coordinate used by
    the kernel or a slot appears in per-replica copies indexed 0..ell-1.
    The kernel may live on any edge; its complement coordinates read the
    kernel_replica copy.
    """

    system: HypergraphSystem
    base_edge: tuple[int, ...]
    ell: int
    kernel: EdgeFunction
    slots: tuple[Slot, ...]
    kernel_replica: int = 0

    def validate(self) -> None:
        base = as_edge(self.base_edge)
        if self.ell < 1:
            raise MalformedProblem(f"replica budget must be >= 1, got {self.ell}")
        check_function(self.system, self.kernel)
        if not (0 <= self.kernel_replica < self.ell):
            raise DigitOutOfRange(
                f"kernel replica {self.kernel_replica} outside 0..{self.ell - 1}"
            )
        for s in self.slots:
            if tuple(s.edge) == base:
                raise MalformedProblem(f"slot edge {s.edge} equals the base edge")
            if not (0 <= s.replica < self.ell):
                raise DigitOutOfRange(
                    f"slot replica {s.replica} outside 0..{self.ell - 1}"
                )
            if s.bound is not None:
                check_function(self.system, s.bound)
                if s.bound.edge != tuple(s.edge):
                    raise MalformedProblem(
                        f"bound lives on {s.bound.edge}, slot on {s.edge}"
                    )
                if float(np.min(s.bound.values)) < 0.0:
                    raise MalformedProblem(
                        f"slot bound on {s.edge} has negative entries"
                    )


@dataclass(frozen=True)
class SupResult:
    value: float
    signed: float
    masks: tuple[int, ...]
    mode: str
    combos: int
    restarts_used: int
    certified: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "signed": self.signed,
            "masks": [hex(m) for m in self.masks],
            "mode": self.mode,
            "combos": self.combos,
            "restarts_used": self.restarts_used,
            "certified": self.certified,
        }


def sup_grid(system: HypergraphSystem, base_edge, placements) -> Grid:
    """Grid reading base_edge once and each (edge, replica) placement's copy."""
    base = set(base_edge)
    keys = {(v, 0) for v in base_edge}
    for edge, replica in placements:
        keys.update((v, replica) for v in edge if v not in base)
    return Grid(system, sorted(keys))


def digits_for(edge, base: set, replica: int):
    """Replica digits of edge's coordinates: 0 on the base, replica off it."""
    return tuple(0 if v in base else replica for v in edge)


def _slot_rows(problem: SupProblem, grid: Grid):
    base = set(problem.base_edge)
    rows = []
    for s in problem.slots:
        digits = digits_for(s.edge, base, s.replica)
        positions = [grid.pos[(v, d)] for v, d in zip(s.edge, digits)]
        sizes = [problem.system.spaces[v].size for v in s.edge]
        atoms = 1
        for z in sizes:
            atoms *= z
        if s.bound is None:
            flat = np.ones(atoms)
        else:
            flat = s.bound.values.reshape(-1)
        rows.append(projection_rows(grid.shape, positions, sizes, flat))
    return rows


def sup_multilinear(
    problem: SupProblem,
    mode: str = "exact",
    restarts: int = 32,
    seed: int = 0,
    cap: int = COMBO_CAP,
) -> SupResult:
    """Solve one boxed sup problem; exact results certify an upper bound."""
    problem.validate()
    kernel = problem.kernel
    grid = sup_grid(
        problem.system,
        problem.base_edge,
        [(kernel.edge, problem.kernel_replica)] + [(s.edge, s.replica) for s in problem.slots],
    )
    digits = digits_for(kernel.edge, set(problem.base_edge), problem.kernel_replica)
    base_vec = grid.product([grid.lift(kernel.edge, kernel.values, digits)]).reshape(-1)
    rows = _slot_rows(problem, grid)
    combos = _total_combos(rows)
    if mode == "auto":
        mode = "exact" if combos <= cap else "heuristic"
    if mode == "exact":
        res = exact_boxed_max(base_vec, rows, cap=cap)
    elif mode == "heuristic":
        res = heuristic_boxed_max(base_vec, rows, restarts=restarts, seed=seed)
    else:
        raise MalformedProblem(f"unknown sup mode {mode!r}")
    return SupResult(
        res.value, res.signed, res.masks, mode, combos, res.restarts_used, mode == "exact"
    )
