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

Exact mode is a depth-first branch-and-bound over the slots in order:
- Closed-form last slot.  With every other slot fixed at a vertex whose
  product with b is v, the value is sum_t c_t over the last slot's mask,
  where c_t = sum_p R[t, p] * v_p; the sup is max(sum c+, -sum c-),
  attained by the atoms with c_t > 0 (or < 0).  The c_t are linear in the
  slot before the last, so one pass gives them for all of its masks.
- Prefix bounds.  Slots are nonnegative, so once slots 0..d-1 are fixed
  (product v), |value| <= max(sum (v*W)+, -sum (v*W)-) with W the product
  of the remaining slots' per-cell row sums.  A prefix is pruned iff that
  bound plus a few ulps of sum |v*W| is <= the incumbent, so a bound of
  exactly 0 prunes.  Small subtrees are evaluated as one block.
- Ties.  Masks are explored ascending (first slot most significant), the
  incumbent starts at the first vertex (all masks empty, value 0) and is
  replaced only by a strictly larger value, and an exact tie in the last
  slot takes the smaller mask; so the lexicographically smallest maximizer
  (as the values round) wins.  The reported value is recomputed at that
  vertex by multiplying the slots in order and summing over the cells.
Heuristic mode runs the classic alternating ascent: the objective is linear
in each slot, so the conditional optimum sets atom t on iff its coefficient
helps the current sign.  Each restart draws its initial masks from a seeded
Philox stream and ascends once on +value and once on -value.  All of these
run as one batch, ordered by restart and then sign, one array pass per slot
step; restarts are taken in blocks whose slot-step product fits in
CHUNK_ELEMS elements, so memory stays bounded for any restart count.  The
batch changes no float: each member's context is multiplied in slot order,
its coefficients and value are the same pairwise sums over the cells, and
its slot vectors add the picked rows in atom order.  A member that moved
nothing in a full sweep is at a fixed point, so it leaves the batch.  The
first largest |value| in (restart, sign) order wins, carried across blocks
by a strict comparison.

The module also owns what a boxed sup problem is: `SupProblem` places a
kernel and its `Slot`s on one evaluation grid (base-edge coordinates once,
every other coordinate in per-replica copies), and `sup_multilinear` is the
one place that turns a problem into rows and chooses its mode.  Exact and
heuristic results are both a `SupResult`, certified iff exact.  A slot may
carry several labeled candidate bounds: the sup is then the max over every
choice of one candidate per slot, each choice solved on the same grid, base
vector and rows in `itertools.product` order (first slot slowest).  The
first strictly largest value wins, so ties keep the earliest choice, and
the result is certified only if every choice was solved exactly.  Each
candidate's row sums are taken once, for the range check and the choice
screen below; each search builds its own tables.  Each choice's incumbent
is seeded from the best value of the choices before it (see
`exact_boxed_max`).  Seeding returns the same winner as a cold search and
never adds work, so a seeded choice may finish where a cold one would
have run out of budget.

Most choices cannot beat that seed at all, so a problem with more than one
choice screens them first: one batched pass (`_choice_roots`) computes
every choice's root bound and floor margin, its reach rows built by
`_reach` as the search's are, so each equals the search's own bit for
bit.  The first choice always runs `exact_boxed_max`.  A later one runs
it only if its root bound beats the seed, the best value so far less that
choice's margin (`_seed`), the same test its search would make at its
root; otherwise the search would have returned the empty masks at once,
whose value 0 never replaces the best, so the choice only adds its
vertices to `combos` and stays exact.  The heuristic mode and one-choice
problems, such as every cut norm, skip the pass.

`COMBO_CAP` bounds the search work of each choice; past it exact refuses
only when the budget runs out.  Up to the cap the search runs unbudgeted.
Past it, it runs on a budget of the cap and raises `SizeCapExceeded` once
the work charged passes it; "auto" then falls back to the heuristic for
that choice.
Every prefix whose bound is evaluated costs one, pruned or not, and every
prefix whose remaining slots are closed costs the vertices below it, so the
work past the cap stays proportional to the cap.  Cut norms, the C2b check
and the proof oracles all go through `sup_multilinear`, and every exact
search through `exact_boxed_max`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoxlabError,
    DigitOutOfRange,
    MalformedProblem,
    NumericalInconsistency,
    SizeCapExceeded,
)
from .spaces import (
    EdgeFunction,
    Grid,
    HypergraphSystem,
    as_edge,
    check_function,
    check_seed,
)

COMBO_CAP = 1 << 24
# Elements per vectorized block; also how much of the tree is evaluated
# between two pruning decisions.
CHUNK_ELEMS = 1 << 16
MAX_CYCLES = 1000


@dataclass(frozen=True)
class SupResult:
    """The vertex reached and its candidate `labels`; `combos` counts every choice's vertices."""

    value: float  # |signed|
    signed: float
    masks: tuple[int, ...]
    mode: str
    combos: int
    restarts_used: int
    labels: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        """Exact results certify the sup; heuristic ones only bound it below."""
        return self.mode == "exact"


def subset_rows(rows: np.ndarray) -> np.ndarray:
    """All 2**T subset sums of the T rows (axis 0); output row index equals the mask."""
    out = np.zeros((1 << rows.shape[0],) + rows.shape[1:])
    for t in range(rows.shape[0]):
        np.add(out[:1 << t], rows[t], out=out[1 << t:2 << t])
    return out


def _mask_row(rows: np.ndarray, mask: int) -> np.ndarray:
    picked = [t for t in range(rows.shape[0]) if (mask >> t) & 1]
    if not picked:
        return np.zeros(rows.shape[1:])
    return np.sum(np.ascontiguousarray(rows[picked]), axis=0)


def _total_combos(slot_rows) -> int:
    total = 1
    for rows in slot_rows:
        total <<= rows.shape[0]
    return total


# Pruning slack in ulps of sum |v * W|: the rounding of a prefix bound and of
# any closed-form value below it stays within about log2(cells) plus the
# closed slots' atom counts of those ulps.
_SLACK = 64 * float(np.finfo(np.float64).eps)


def _vertex_value(base: np.ndarray, vecs) -> float:
    """sum_p base_p * prod_s vecs[s][p], multiplied in slot order."""
    prod = base.copy()
    for vec in vecs:
        prod *= vec
    return float(np.sum(np.ascontiguousarray(prod)))


def _bound(block: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Per-row bound on |value| below a prefix, plus the pruning slack.

    Every cell's remaining factor lies in [0, reach], so the value lies in
    [sum (v * reach)-, sum (v * reach)+].
    """
    x = block * reach
    pos = np.maximum(x, 0.0).sum(axis=1)
    neg = np.minimum(x, 0.0).sum(axis=1)
    return np.maximum(pos, -neg) + _SLACK * (pos - neg)


def _roots(base: np.ndarray, reach: np.ndarray, roundings: int):
    """Root bound and floor margin of a search under each row of reach.

    The bound is `_bound` of the base.  The margin bounds |search value -
    recomputed value| at any one vertex: both round the same exact terms
    base_p * prod_s g_s(p), whose absolute sum is at most S = sum |base *
    reach|, and each term meets at most `roundings` roundings of relative
    size eps / 2 across both routes (see `_Search`), so roundings * eps * S
    covers them twice over: once more for the rounding of S itself and of
    the floor subtracted from.
    """
    x = base * reach
    margin = roundings * float(np.finfo(np.float64).eps) * np.abs(x).sum(axis=1)
    return _bound(base[None, :], reach), margin


def _seed(floor: float, margin: float) -> float:
    """The incumbent a search seeded at floor starts from: floor less margin, at least 0.

    A search gets past its root iff its root bound is above this seed.
    """
    return max(floor - margin, 0.0) if floor > 0.0 else 0.0


def _fitting_bits(atoms: int, width: int) -> int:
    """Most low atoms whose subset sums, `width` elements each, fit a chunk."""
    bits = 0
    while bits < atoms and (2 << bits) * width <= CHUNK_ELEMS:
        bits += 1
    return bits


def _reach(sums) -> list:
    """reach[d]: per cell, the largest product slots d..k-1 can put there.

    sums[s] is slot s's row sum, or a stack of them, one per selector choice.
    From 1.0, the last two slots' sums are multiplied first, then each
    earlier slot's in turn, so a search and the choice screen (see
    `_choice_roots`) get the same reach bit for bit.
    """
    j = max(len(sums) - 2, 0)
    reach = [functools.reduce(np.multiply, sums[j:], 1.0)]
    for row_sum in reversed(sums[:j]):
        reach.insert(0, reach[0] * row_sum)
    return reach


def _sum_roundings(n: int) -> int:
    """Most roundings one term meets in numpy's sum of n terms.

    Below 8 terms the sum is sequential; up to 128 it keeps eight running
    sums, joins them pairwise and adds the remainder; above, it halves.
    """
    return n if n < 8 else 25 + n.bit_length()


class _Search:
    """One depth-first branch-and-bound run for the first maximizing masks.

    Slots before j = max(k - 2, 0) are enumerated; the last slot is solved
    in closed form, for every mask of slot j at once by linearity.  `run`
    raises SizeCapExceeded once the work charged passes `budget`: one per
    prefix whose bound is evaluated, and 2**(atoms of slots j..k-1) per
    prefix whose remaining slots are closed.  The low subset table of an
    enumerated slot and the pair rows of the last two slots are built the
    first time the search reads them, and go with the search.
    """

    def __init__(self, base: np.ndarray, slot_rows, budget):
        self.base, self.slot_rows, self.budget = base, slot_rows, budget
        k = len(slot_rows)
        self.cells = cells = base.shape[0]
        self.j = j = max(k - 2, 0)
        self.last = last = slot_rows[-1]
        self.reach = _reach([np.sum(rows, axis=0) for rows in slot_rows])
        self.low: dict[int, np.ndarray] = {}
        self.pair = None
        # The last slot's coefficients under mask m of the slot before it
        # are the sums over u in m of sum_p v_p * pair[(u, t), p].
        self.pre_atoms = 0 if k == 1 else slot_rows[-2].shape[0]
        self.pre_bits = bits = _fitting_bits(self.pre_atoms, last.shape[0])
        # Rows closed per block.  When slot j's masks come in several blocks,
        # one row at a time keeps the vertices in ascending order.
        per_row = max(max(self.pre_atoms, 1) * last.shape[0] * cells,
                      (1 << bits) * last.shape[0])
        self.chunk_rows = max(1, CHUNK_ELEMS // per_row) if bits == self.pre_atoms else 1
        self.best = (0.0, (0,) * k)  # the first vertex: every mask empty
        self.used = 0

    @staticmethod
    def roundings(slot_rows, cells: int) -> int:
        """Most roundings one term meets in the search and the recomputation together.

        Each term meets k products in either route.  The search then sums
        cells into coefficients, the slot before the last's atoms into its
        mask's coefficients and the last slot's atoms into the value; the
        recomputation sums cells once.  Candidates of one slot share its
        atoms, so every choice of a sup problem has the same count.
        """
        pre_atoms = 0 if len(slot_rows) == 1 else slot_rows[-2].shape[0]
        return (2 * len(slot_rows) + 2 * _sum_roundings(cells)
                + pre_atoms + _sum_roundings(slot_rows[-1].shape[0]) + 2)

    def _charge(self, combos: int) -> None:
        if self.budget is not None:
            self.used += combos
            if self.used > self.budget:
                raise SizeCapExceeded(
                    f"{_total_combos(self.slot_rows)} vertex combinations: the search"
                    f" ran past its budget of {self.budget}"
                )

    def run(self, floor: float = 0.0) -> tuple[int, ...]:
        """First maximizing masks, or the empty masks if none can beat floor.

        The incumbent starts at `_seed`, floor less the floor margin of
        `_roots`, so a vertex whose recomputed value passes floor still
        beats it (see `exact_boxed_max`).
        """
        roundings = self.roundings(self.slot_rows, self.cells)
        bound, margin = _roots(self.base, self.reach[0][None, :], roundings)
        self.best = (_seed(floor, float(margin[0])), self.best[1])
        self._charge(1)
        if bound[0] > self.best[0]:
            self._node(self.base, 0, ())
        return self.best[1]

    def _low_table(self, d: int) -> np.ndarray:
        """Subset sums of slot d's low atoms whose subset sums fit a chunk."""
        if d not in self.low:
            rows = self.slot_rows[d]
            self.low[d] = subset_rows(rows[:_fitting_bits(rows.shape[0], self.cells)])
        return self.low[d]

    def _pair(self) -> np.ndarray:
        """pair[(u, t)] = pre[u] * last[t], pre the rows of the slot before the last."""
        if self.pair is None:
            pre = self.slot_rows[-2]
            self.pair = (pre[:, None, :] * self.last[None, :, :]).reshape(-1, self.cells)
        return self.pair

    def _closed_forms(self, sub):
        """(first pre mask, coefficients[row, pre mask offset, t]) blocks."""
        if len(self.slot_rows) == 1:
            yield 0, (sub[:, None, :] * self.last[None, :, :]).sum(axis=2)[:, None, :]
            return
        m = (sub[:, None, :] * self._pair()[None, :, :]).sum(axis=2)
        bits = self.pre_bits
        m = np.moveaxis(m.reshape(-1, self.pre_atoms, self.last.shape[0]), 1, 0)
        low_sums = np.moveaxis(subset_rows(m[:bits]), 0, 1)
        for hi in range(1 << (self.pre_atoms - bits)):
            yield hi << bits, low_sums + _mask_row(m[bits:], hi)[:, None, :]

    def _leaves(self, block, prefix, radices, offset):
        """Close slots j.. on every row of block that may beat the incumbent."""
        self._charge(block.shape[0])
        keep = np.flatnonzero(_bound(block, self.reach[self.j]) > self.best[0])
        self._charge(keep.size << (self.pre_atoms + self.last.shape[0]))
        for start in range(0, keep.size, self.chunk_rows):
            rows = keep[start:start + self.chunk_rows]
            for first, coeff in self._closed_forms(block[rows]):
                pos = np.maximum(coeff, 0.0).sum(axis=2)
                neg = -np.minimum(coeff, 0.0).sum(axis=2)
                vals = np.maximum(pos, neg)
                a, b = np.unravel_index(int(np.argmax(vals)), vals.shape)
                if not vals[a, b] > self.best[0]:
                    continue
                c = coeff[a, b]
                up = sum(1 << t for t in range(c.shape[0]) if c[t] > 0.0)
                down = sum(1 << t for t in range(c.shape[0]) if c[t] < 0.0)
                if pos[a, b] != neg[a, b]:
                    mask = up if pos[a, b] > neg[a, b] else down
                else:
                    mask = min(up, down)
                rem = offset + int(rows[a])
                digits = []
                for size in reversed(radices):
                    digits.append(rem % size)
                    rem //= size
                closed = (mask,) if len(self.slot_rows) == 1 else (first + int(b), mask)
                self.best = (float(vals[a, b]), prefix + tuple(reversed(digits)) + closed)

    def _node(self, vec, d, prefix):
        """Search below the prefix fixing slots 0..d-1, whose product is vec."""
        inner = self.slot_rows[d:self.j]
        if d == self.j or _total_combos(inner) * self.cells <= CHUNK_ELEMS:
            block = vec[None, :]
            for table in map(self._low_table, range(d, self.j)):
                block = (block[:, None, :] * table[None, :, :]).reshape(-1, self.cells)
            self._leaves(block, prefix, [1 << rows.shape[0] for rows in inner], 0)
            return
        rows = self.slot_rows[d]
        table = self._low_table(d)
        bits = table.shape[0].bit_length() - 1
        for hi in range(1 << (rows.shape[0] - bits)):
            block = vec * (table + _mask_row(rows[bits:], hi))
            if d + 1 == self.j:
                self._leaves(block, prefix, [1 << rows.shape[0]], hi << bits)
                continue
            self._charge(block.shape[0])
            bound = _bound(block, self.reach[d + 1])
            for lo in range(block.shape[0]):
                if bound[lo] > self.best[0]:
                    self._node(block[lo], d + 1, prefix + ((hi << bits) | lo,))


def exact_boxed_max(base: np.ndarray, slot_rows, floor: float = 0.0) -> SupResult:
    """First maximizing vertex, by branch-and-bound; a certificate.

    Past `COMBO_CAP` vertex combinations the search runs on a budget of
    the cap and raises SizeCapExceeded when it runs out.  The search's
    tables are its own and are freed when it returns.

    A positive floor seeds the incumbent at floor less the floor margin of
    `_roots`, a bound on the gap between a vertex's search value and its
    recomputed value.  The result is then the unseeded one whenever that
    one's value exceeds floor, and otherwise either it or the empty masks,
    so its value is at most floor.  The unseeded winner w has the largest
    search value M, and M is above the seed whenever w's recomputed value
    is above floor.  Every prefix holding w has a bound plus slack of at
    least M, so it is kept, and every vertex before w has a smaller search
    value, or w would not be first.  The seeded incumbent is never below
    the unseeded one at the same point of the search, so the seeded run
    evaluates a subset of the prefixes and charges no more of the budget.
    """
    combos = _total_combos(slot_rows)
    budget = COMBO_CAP if combos > COMBO_CAP else None
    masks = _Search(base, slot_rows, budget).run(floor) if slot_rows else ()
    signed = _vertex_value(base, [_mask_row(r, m) for r, m in zip(slot_rows, masks)])
    return SupResult(abs(signed), signed, masks, "exact", combos, 0)


def _mask_rows(rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """`_mask_row` of every member's mask (bits: members x atoms), in one pass.

    Over two or more cells np.sum adds the picked rows to +0.0 in ascending
    atom order, and so does this, adding each atom's row only where it is
    picked.  On one cell np.sum pairs up the atoms instead, so one-cell
    rows take `_mask_row` member by member.
    """
    if rows.shape[1] == 1:
        return np.array([_mask_row(rows, _bits_mask(b)) for b in bits]).reshape(-1, 1)
    out = np.zeros((bits.shape[0], rows.shape[1]))
    for t in range(rows.shape[0]):
        np.add(out, rows[t], out=out, where=bits[:, t, None])
    return out


def _bits_mask(bits: np.ndarray) -> int:
    return sum(1 << t for t in np.flatnonzero(bits).tolist())


def _ascend(base: np.ndarray, slot_rows, bits, sigma: np.ndarray) -> np.ndarray:
    """Alternating ascent of a batch of members on sigma * value, in place on bits.

    bits[s] (members x atoms) holds every member's mask of slot s.  A slot
    step multiplies each member's context in slot order, takes its
    coefficients by one pairwise sum over the cells, and sets atom t on iff
    sigma * coefficient > 0; only the members whose mask moved get a new
    slot vector.  Only the members that moved in a sweep take the next one
    (a member that moved none is at a fixed point, so later sweeps would
    keep it there), for at most MAX_CYCLES sweeps.  Returns every member's
    signed value.
    """
    members = sigma.shape[0]
    cur = [_mask_rows(rows, b) for rows, b in zip(slot_rows, bits)]
    active = np.arange(members)
    for _ in range(MAX_CYCLES):
        changed = np.zeros(active.size, dtype=bool)
        for s, rows in enumerate(slot_rows):
            context = np.repeat(base[None], active.size, axis=0)
            for s2, vec in enumerate(cur):
                if s2 != s:
                    context *= vec[active]
            coeff = np.sum(rows[None] * context[:, None, :], axis=-1)
            new = sigma[active, None] * coeff > 0.0
            moved = (new != bits[s][active]).any(axis=1)
            if moved.any():
                bits[s][active[moved]] = new[moved]
                cur[s][active[moved]] = _mask_rows(rows, new[moved])
                changed |= moved
        active = active[changed]
        if not active.size:
            break
    prod = np.repeat(base[None], members, axis=0)
    for vec in cur:
        prod *= vec
    return np.sum(prod, axis=-1)


def check_search(restarts: int, seed: int) -> None:
    """Refuse a heuristic's restart count below one or seed outside [0, 2**128).

    Every sup mode checks both, so whether they are refused never depends
    on whether a heuristic runs.
    """
    if restarts < 1:
        raise MalformedProblem(f"need at least one restart, got {restarts}")
    check_seed(seed)


def heuristic_boxed_max(
    base: np.ndarray,
    slot_rows,
    restarts: int = 32,
    seed: int = 0,
) -> SupResult:
    """Best alternating-ascent vertex over seeded random restarts, both signs.

    Deterministic given (restarts, seed): the Philox stream fixes every
    initial mask, and the best value with the smallest restart index wins.
    Restarts run in blocks of at most CHUNK_ELEMS elements per slot step.
    """
    check_search(restarts, seed)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    combos = _total_combos(slot_rows)
    atoms = [rows.shape[0] for rows in slot_rows]
    widest = max(atoms + [1])
    block = max(1, CHUNK_ELEMS // (2 * widest * max(1, base.shape[0])))
    best = SupResult(-1.0, 0.0, tuple(0 for _ in slot_rows), "heuristic", combos, 0)
    cuts = list(itertools.accumulate(atoms, initial=0))
    for first in range(0, restarts, block):
        count = min(block, restarts - first)
        # Each draw from [0, 2) takes one 32-bit word of the stream, and the
        # generator keeps a word's unused half between calls, so one draw of
        # count restarts' atoms equals one draw per restart and slot.
        init = rng.integers(0, 2, size=(count, cuts[-1])) != 0
        # Member 2r ascends on +value and member 2r+1 on -value from restart r.
        both = np.repeat(init, 2, axis=0)
        bits = [both[:, lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        signed = _ascend(base, slot_rows, bits, np.tile([1.0, -1.0], count)).tolist()
        win, top = None, best.value
        for i, val in enumerate(signed):
            if abs(val) > top:
                win, top = i, abs(val)
        if win is not None:
            masks = tuple(_bits_mask(b[win]) for b in bits)
            best = SupResult(top, signed[win], masks, "heuristic", combos, first + win // 2 + 1)
    return best


def projection_rows(grid: Grid, edge, digits, bound: np.ndarray) -> np.ndarray:
    """Slot row matrix of the face `edge` read at replica `digits` on grid.

    Row t is bound's row-major atom t on the cells reading that atom and
    zero elsewhere.
    """
    atom = grid.lift(edge, np.arange(bound.size).reshape(bound.shape), digits)
    proj = np.broadcast_to(atom, grid.shape).reshape(-1)
    rows = np.zeros((bound.size, grid.cells))
    rows[proj, np.arange(grid.cells)] = bound.reshape(-1)[proj]
    return rows


@dataclass(frozen=True)
class Slot:
    """One optimized function: 0 <= g <= one candidate bound on edge, at one replica.

    bounds is a tuple of (label, bound) pairs, one per candidate; bound None
    means the constant-one bound.  Labels only name the winning candidate in
    the result.
    """

    edge: tuple[int, ...]
    replica: int
    bounds: tuple[tuple[str, EdgeFunction | None], ...] = (("", None),)


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
            try:
                edge = as_edge(s.edge)
            except (BoxlabError, TypeError, ValueError) as exc:
                raise MalformedProblem(f"slot edge {s.edge!r}: {exc}") from None
            if edge[0] < 0 or edge[-1] >= self.system.n:
                raise MalformedProblem(
                    f"slot edge {edge} leaves vertices 0..{self.system.n - 1}"
                )
            if edge == base:
                raise MalformedProblem(f"slot edge {s.edge} equals the base edge")
            if not (0 <= s.replica < self.ell):
                raise DigitOutOfRange(
                    f"slot replica {s.replica} outside 0..{self.ell - 1}"
                )
            if not s.bounds:
                raise MalformedProblem(f"slot on {edge} has no candidate bounds")
            labels = [label for label, _ in s.bounds]
            if len(set(labels)) != len(labels):
                raise MalformedProblem(f"slot on {edge} repeats a label: {labels}")
            for bound in (b for _, b in s.bounds if b is not None):
                check_function(self.system, bound)
                if bound.edge != edge:
                    raise MalformedProblem(
                        f"bound lives on {bound.edge}, slot on {edge}"
                    )
                if float(np.min(bound.values)) < 0.0:
                    raise MalformedProblem(
                        f"slot bound on {edge} has negative entries"
                    )


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


def _candidate_rows(problem: SupProblem, grid: Grid):
    """Per slot, the (label, row matrix) of each candidate bound."""
    base = set(problem.base_edge)
    return [
        [
            (label, projection_rows(
                grid,
                s.edge,
                digits_for(s.edge, base, s.replica),
                np.ones(problem.system.edge_shape(s.edge)) if b is None else b.values,
            ))
            for label, b in s.bounds
        ]
        for s in problem.slots
    ]


def _row_sums(candidates) -> list:
    """Per slot, the row sum of each of its candidates; overflow reads inf."""
    with np.errstate(over="ignore"):
        return [[np.sum(r, axis=0) for _, r in choices] for choices in candidates]


def _check_range(edge, base: np.ndarray, sums) -> None:
    """Refuse a problem whose partial products could pass the float range.

    Every product or sum either search forms is at most sum |base| *
    prod_s max(1, row sum of slot s), each slot's row sum the largest over
    its candidates (`_row_sums`).  The slots' product is taken first, by
    `_reach`, so a zero base cell cannot hide its overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        reach = _reach([functools.reduce(np.maximum, row_sums, 1.0) for row_sums in sums])[0]
        total = float((np.abs(base) * reach).sum())
    if not np.isfinite(total):
        raise NumericalInconsistency(
            f"sup problem on edge {list(edge)}: its partial products can overflow a float"
        )


def _choice_roots(base: np.ndarray, candidates, sums):
    """Root bound and floor margin of every selector choice's search, in one pass.

    Choices run in `itertools.product` order; sums are `_row_sums`.  Each
    reach row comes from `_reach`, as a search's does, so both are equal bit
    for bit.  Rows are taken in blocks of about `CHUNK_ELEMS` elements.
    """
    stacks = [np.array(row_sums) for row_sums in sums]
    shape = tuple(len(choices) for choices in candidates)
    roundings = _Search.roundings([choices[0][1] for choices in candidates], base.size)
    count = int(np.prod(shape))
    bounds, margins = np.empty(count), np.empty(count)
    step = max(1, CHUNK_ELEMS // max(base.size, 1))
    for lo in range(0, count, step):
        at = np.unravel_index(np.arange(lo, min(lo + step, count)), shape)
        reach = _reach([stack[i] for stack, i in zip(stacks, at)])[0]
        bounds[lo:lo + step], margins[lo:lo + step] = _roots(base, reach, roundings)
    return bounds, margins


def sup_multilinear(
    problem: SupProblem,
    mode: str = "exact",
    restarts: int = 32,
    seed: int = 0,
) -> SupResult:
    """Solve one boxed sup problem; exact results certify an upper bound.

    Each selector choice's exact search has a budget of `COMBO_CAP`.
    Partial products that could overflow raise NumericalInconsistency first.
    """
    problem.validate()
    if mode not in ("auto", "exact", "heuristic"):
        raise MalformedProblem(f"unknown sup mode {mode!r}")
    check_search(restarts, seed)
    kernel = problem.kernel
    grid = sup_grid(
        problem.system,
        problem.base_edge,
        [(kernel.edge, problem.kernel_replica)] + [(s.edge, s.replica) for s in problem.slots],
    )
    digits = digits_for(kernel.edge, set(problem.base_edge), problem.kernel_replica)
    base_vec = grid.product([grid.lift(kernel.edge, kernel.values, digits)]).reshape(-1)
    candidates = _candidate_rows(problem, grid)
    sums = _row_sums(candidates)
    _check_range(problem.base_edge, base_vec, sums)
    screen = mode != "heuristic" and any(len(c) > 1 for c in candidates)
    if screen:
        bounds, margins = _choice_roots(base_vec, candidates, sums)
    best, combos, certified = None, 0, True
    for index, choice in enumerate(itertools.product(*candidates)):
        rows = [r for _, r in choice]
        res = None
        if mode != "heuristic":
            floor = 0.0 if best is None else best.value
            if index and screen and not bounds[index] > _seed(floor, float(margins[index])):
                combos += _total_combos(rows)  # its search would stop at the root
                continue
            try:
                res = exact_boxed_max(base_vec, rows, floor=floor)
            except SizeCapExceeded:
                if mode == "exact":
                    raise
        if res is None:
            res = heuristic_boxed_max(base_vec, rows, restarts=restarts, seed=seed)
        combos += res.combos
        certified = certified and res.certified
        if best is None or res.value > best.value:
            best = replace(res, labels=tuple(label for label, _ in choice))
    return replace(best, mode="exact" if certified else "heuristic", combos=combos)
