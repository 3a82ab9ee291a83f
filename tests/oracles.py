"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops and math.fsum — no reuse
of the package's Grid/engine machinery — so agreement is meaningful.  All
oracles are exponential and must only be called on tiny instances.
"""

from __future__ import annotations

import itertools
import math


def _weights(system, v):
    return [float(w) for w in system.spaces[v].weights]


def box_power_brute(system, e, values, ell: int) -> float:
    """Replica box power by full enumeration of assignment tuples."""
    e = tuple(e)
    sizes = [system.spaces[v].size for v in e]
    terms = []
    # one tuple of ell atoms per coordinate
    per_coord = [
        list(itertools.product(range(z), repeat=ell)) for z in sizes
    ]
    for assign in itertools.product(*per_coord):
        w = 1.0
        for ci, v in enumerate(e):
            wv = _weights(system, v)
            for m in range(ell):
                w *= wv[assign[ci][m]]
        prod = 1.0
        for omega in itertools.product(range(ell), repeat=len(e)):
            idx = tuple(assign[ci][omega[ci]] for ci in range(len(e)))
            prod *= float(values[idx])
        terms.append(w * prod)
    return math.fsum(terms)


def gcs_form_brute(system, e, family, ell: int) -> float:
    """Replica product expectation with one tensor per digit pattern."""
    e = tuple(e)
    sizes = [system.spaces[v].size for v in e]
    per_coord = [list(itertools.product(range(z), repeat=ell)) for z in sizes]
    weights = [_weights(system, v) for v in e]
    # Row-major strides; each tensor is read once as a flat list of floats.
    strides = [math.prod(sizes[ci + 1:]) for ci in range(len(e))]
    factors = [
        (omega, family[omega].values.reshape(-1).tolist())
        for omega in itertools.product(range(ell), repeat=len(e))
        if family.get(omega) is not None
    ]
    terms = []
    for assign in itertools.product(*per_coord):
        w = 1.0
        for ci in range(len(e)):
            for m in range(ell):
                w *= weights[ci][assign[ci][m]]
        prod = 1.0
        for omega, flat in factors:
            prod *= flat[sum(assign[ci][omega[ci]] * strides[ci] for ci in range(len(e)))]
        terms.append(w * prod)
    return math.fsum(terms)


def cut_norm_brute(system, e, values) -> float:
    """Cut norm over all per-face atom-tuple subsets, by full enumeration.

    Faces are the (|e|-1)-subsets of the edge; a cut keeps, for each face,
    a subset of that face's atom tuples; the value is |sum of w*f| over
    cells whose every face projection is kept.
    """
    e = tuple(e)
    k = len(e)
    if k == 1:
        wv = _weights(system, e[0])
        return abs(math.fsum(wv[i] * float(values[(i,)]) for i in range(len(wv))))
    faces = [tuple(v for v in e if v != drop) for drop in e]
    face_tuples = []
    for face in faces:
        face_tuples.append(
            list(itertools.product(*[range(system.spaces[v].size) for v in face]))
        )
    best = 0.0
    cells = list(itertools.product(*[range(system.spaces[v].size) for v in e]))
    for subsets in itertools.product(
        *[range(1 << len(ts)) for ts in face_tuples]
    ):
        terms = []
        for cell in cells:
            keep = True
            for fi, face in enumerate(faces):
                proj = tuple(cell[e.index(v)] for v in face)
                bit = face_tuples[fi].index(proj)
                if not (subsets[fi] >> bit) & 1:
                    keep = False
                    break
            if not keep:
                continue
            w = 1.0
            for ci, v in enumerate(e):
                w *= _weights(system, v)[cell[ci]]
            terms.append(w * float(values[cell]))
        best = max(best, abs(math.fsum(terms)))
    return best


def lambda_form_brute(system, functions) -> float:
    """Joint product expectation over the whole vertex set, full loops."""
    n = system.n
    sizes = [system.spaces[v].size for v in range(n)]
    terms = []
    for cell in itertools.product(*[range(z) for z in sizes]):
        w = 1.0
        for v in range(n):
            w *= _weights(system, v)[cell[v]]
        prod = 1.0
        for e, fn in functions.items():
            idx = tuple(cell[v] for v in e)
            prod *= float(fn.values[idx])
        terms.append(w * prod)
    return math.fsum(terms)


def product_lp_norm_brute(system, funcs, p: float) -> float:
    """L_p norm of the product of the tensors over the coordinates they read,
    full loops; the sup norm at p = inf, and 1 for no tensors."""
    funcs = list(funcs)
    if not funcs:
        return 1.0
    coords = sorted({v for f in funcs for v in f.edge})
    mags, weights = [], []
    for cell in itertools.product(*[range(system.spaces[v].size) for v in coords]):
        at = dict(zip(coords, cell))
        w = 1.0
        for v in coords:
            w *= _weights(system, v)[at[v]]
        prod = 1.0
        for f in funcs:
            prod *= float(f.values[tuple(at[v] for v in f.edge)])
        mags.append(abs(prod))
        weights.append(w)
    m = max(mags)
    if math.isinf(p) or m == 0.0:
        return m
    mean = math.fsum(w * (a / m) ** p for w, a in zip(weights, mags))
    return m * mean ** (1.0 / p)


def deviation_brute(system, functions, ell: int):
    """(min, max) over every replica 0/1 pattern expectation, full loops."""
    factors = []
    for e in system.edges:
        for digits in itertools.product(range(ell), repeat=len(e)):
            factors.append((e, digits))
    coords = sorted({(v, m) for e in system.edges for v in e for m in range(ell)})
    sizes = [system.spaces[v].size for v, _ in coords]
    pos = {c: i for i, c in enumerate(coords)}
    lo, hi = math.inf, -math.inf
    for mask in range(1 << len(factors)):
        chosen = [factors[k] for k in range(len(factors)) if (mask >> k) & 1]
        terms = []
        for cell in itertools.product(*[range(z) for z in sizes]):
            w = 1.0
            for (v, _), idx in zip(coords, cell):
                w *= _weights(system, v)[idx]
            prod = 1.0
            for e, digits in chosen:
                idx = tuple(cell[pos[(v, digits[ci])]] for ci, v in enumerate(e))
                prod *= float(functions[e].values[idx])
            terms.append(w * prod)
        val = math.fsum(terms)
        lo, hi = min(lo, val), max(hi, val)
    return lo, hi


def conditional_brute(system, e, functions):
    """E[product of the family | coordinates of e], full loops."""
    e = tuple(e)
    others = sorted({v for e2 in functions for v in e2} - set(e))
    import numpy as np

    shape = tuple(system.spaces[v].size for v in e)
    out = np.zeros(shape)
    for cell in itertools.product(*[range(z) for z in shape]):
        terms = []
        for rest in itertools.product(
            *[range(system.spaces[v].size) for v in others]
        ):
            coord = dict(zip(e, cell))
            coord.update(dict(zip(others, rest)))
            w = 1.0
            for v in others:
                w *= _weights(system, v)[coord[v]]
            prod = 1.0
            for e2, fn in functions.items():
                idx = tuple(coord[v] for v in e2)
                prod *= float(fn.values[idx])
            terms.append(w * prod)
        out[cell] = math.fsum(terms)
    return out


def sup_correlation_brute(system, base_edge, ell, kernel_edge, kernel_values,
                          kernel_replica, slots) -> float:
    """Boxed correlation sup by enumerating every subset at every slot.

    slots: list of (edge, replica, bound_values_or_None).  The kernel reads
    the base coordinates at replica 0 and its off-base coordinates at
    kernel_replica; each slot reads base coordinates at replica 0 and its
    off-base coordinates at its own replica.
    """
    base = tuple(base_edge)
    base_set = set(base)
    coords = {(v, 0) for v in base}
    for v in kernel_edge:
        if v not in base_set:
            coords.add((v, kernel_replica))
    for e2, w, _ in slots:
        for v in e2:
            if v not in base_set:
                coords.add((v, w))
    coords = sorted(coords)
    pos = {c: i for i, c in enumerate(coords)}
    sizes = [system.spaces[v].size for v, _ in coords]

    def digit_of(v, e2, w):
        return 0 if v in base_set else w

    slot_tuples = []
    for e2, w, _ in slots:
        shape = [range(system.spaces[v].size) for v in e2]
        slot_tuples.append(list(itertools.product(*shape)))

    best = 0.0
    for masks in itertools.product(*[range(1 << len(ts)) for ts in slot_tuples]):
        terms = []
        for cell in itertools.product(*[range(z) for z in sizes]):
            w = 1.0
            for (v, _), idx in zip(coords, cell):
                w *= _weights(system, v)[idx]
            kidx = tuple(
                cell[pos[(v, digit_of(v, kernel_edge, kernel_replica))]]
                for v in kernel_edge
            )
            prod = float(kernel_values[kidx])
            for si, (e2, rw, bound) in enumerate(slots):
                sidx = tuple(cell[pos[(v, digit_of(v, e2, rw))]] for v in e2)
                bit = slot_tuples[si].index(sidx)
                if not (masks[si] >> bit) & 1:
                    prod = 0.0
                    break
                if bound is not None:
                    prod *= float(bound[sidx])
            terms.append(w * prod)
        best = max(best, abs(math.fsum(terms)))
    return best
