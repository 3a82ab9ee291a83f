"""Cut norms: maximal mass of an edge tensor over face-cylinder intersections.

For an edge e the admissible sets are intersections of cylinders, one per
face of e (faces are the subsets dropping exactly one coordinate).  The cut
value of such a set is the weighted integral of the tensor over it, and the
cut norm is the supremum of |cut value|.  Faces are listed in lexicographic
order; a chosen subset of a face's atom tuples is stored as a bitmask over
that face's row-major flattened atoms.

A cut norm is the engine's `SupProblem` with the tensor as kernel on the
base edge and one slot per face, bounded by one: the objective is
multilinear in the face indicators, so the supremum over functions
0 <= g <= 1 is attained at a vertex, a cylinder intersection.
`sup_multilinear` solves it.  The exact mode searches every bitmask
combination by branch-and-bound and ties resolve to the lexicographically
smallest mask vector; the heuristic mode is seeded alternating ascent and only ever
returns a lower bound.

A single-coordinate edge has one face, the empty set, whose only cylinders
are the whole space and the empty set; by convention the cut norm is then
|mean| and the result is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Slot, SupProblem, check_search, sup_multilinear
from .errors import ShapeMismatch
from .spaces import (
    EdgeFunction,
    Grid,
    HypergraphSystem,
    as_edge,
    check_on_edge,
    expectation,
)


def faces_of(e: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All subsets of e dropping one coordinate, in lexicographic order."""
    e = as_edge(e)
    return tuple(sorted(e[:k] + e[k + 1 :] for k in range(len(e))))


@dataclass(frozen=True)
class CutSet:
    """One cylinder intersection: a bitmask of atom tuples per face."""

    edge: tuple[int, ...]
    masks: tuple[int, ...]  # aligned with faces_of(edge)

    def as_dict(self) -> dict:
        return {
            "faces": [list(f) for f in faces_of(self.edge)],
            "masks": [hex(m) for m in self.masks],
        }


@dataclass(frozen=True)
class CutNormResult:
    value: float
    witness: CutSet
    mode: str
    combos: int
    restarts_used: int
    singleton_convention: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.as_dict(),
            "mode": self.mode,
            "combos": self.combos,
            "restarts_used": self.restarts_used,
            "singleton_convention": self.singleton_convention,
        }


def cut_value(system: HypergraphSystem, e, f: EdgeFunction, cut: CutSet) -> float:
    """Weighted integral of f over the cylinder intersection `cut`."""
    e = check_on_edge(system, e, f)
    faces = faces_of(e)
    if cut.edge != e or len(cut.masks) != len(faces):
        raise ShapeMismatch(f"cut set does not describe the faces of {e}")
    if len(e) == 1:
        return expectation(system, e, f)
    grid = Grid(system, [(v, 0) for v in e])
    factors = [grid.lift(e, f.values, (0,) * len(e))]
    for face, mask in zip(faces, cut.masks):
        shape = system.edge_shape(face)
        atoms = 1
        for s in shape:
            atoms *= s
        if mask < 0 or mask >= (1 << atoms):
            raise ShapeMismatch(f"mask {mask} out of range for face {face}")
        ind = np.zeros(atoms)
        for t in range(atoms):
            if (mask >> t) & 1:
                ind[t] = 1.0
        factors.append(grid.lift(face, ind.reshape(shape), (0,) * len(face)))
    return grid.expect(factors)


def cut_norm(
    system: HypergraphSystem,
    e,
    f: EdgeFunction,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> CutNormResult:
    """Cut norm of f on e: sup |cut value| over cylinder intersections."""
    e = check_on_edge(system, e, f)
    if mode not in ("auto", "exact", "heuristic"):
        raise ShapeMismatch(f"unknown cut norm mode {mode!r}")
    faces = faces_of(e)
    if len(e) == 1:
        check_search(restarts, seed)
        val = expectation(system, e, f)
        return CutNormResult(abs(val), CutSet(e, (1,)), "exact", 2, 0, True)
    problem = SupProblem(system, e, 1, f, tuple(Slot(face, 0) for face in faces))
    res = sup_multilinear(problem, mode=mode, restarts=restarts, seed=seed)
    return CutNormResult(
        res.value, CutSet(e, res.masks), res.mode, res.combos, res.restarts_used, False
    )
