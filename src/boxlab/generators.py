"""Deterministic instance generators.

Every generator draws from a counter-based Philox stream keyed by the seed
and fills tensors in a fixed normative order: edges in sorted order, cells
in row-major order, per-vertex data in vertex order.  Rerunning with the
same GenSpec reproduces the instance bit for bit on any platform.

Kinds:

* ones            -- the constant-one family (deviation 0, every norm 1).
* perturbed_ones  -- 1 + epsilon * h with h i.i.d. uniform[-1,1] per cell,
                     clipped so the tensor stays nonnegative, then recentred
                     so the weighted mean is 1 (up to 8 clip/recentre
                     rounds, then an error).
* product_weights -- rank-one tensors prod_{i in e} u_i(x_i) with u_i > 0
                     normalized to weighted mean 1; their replica box norms
                     factor into one-dimensional moment norms, which
                     predicted_product_box_norm reports for oracle checks.
* random_nonneg   -- i.i.d. uniform [0, scale].
* random_signed   -- i.i.d. uniform [-scale, scale].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, NumericalInconsistency
from .spaces import (
    EdgeFunction,
    HypergraphSystem,
    check_seed,
    edge_function,
    expectation,
    make_prob_space,
    make_system,
)

__all__ = [
    "GenSpec",
    "KINDS",
    "generate",
    "uniform_complete_system",
    "predicted_product_box_norm",
]

KINDS = ("ones", "perturbed_ones", "product_weights", "random_nonneg", "random_signed")
MEAN_TOL = 1e-14
RECENTER_TRIES = 8


@dataclass(frozen=True)
class GenSpec:
    """Reproducible description of one generated instance.

    n vertex spaces, all uniform; atoms is one size for all spaces or a
    per-vertex list; the edge set is every size-r subset of the vertices.
    """

    n: int
    r: int
    atoms: int | tuple[int, ...]
    kind: str
    seed: int = 0
    epsilon: float = 0.0
    scale: float = 1.0
    weight_low: float = 0.5
    weight_high: float = 1.5

    def sizes(self) -> tuple[int, ...]:
        if isinstance(self.atoms, int):
            return (self.atoms,) * self.n
        sizes = tuple(int(z) for z in self.atoms)
        if len(sizes) != self.n:
            raise BadSpec(f"atoms list has {len(sizes)} entries for n={self.n}")
        return sizes

    def validate(self) -> None:
        check_seed(self.seed, BadSpec)
        if self.kind not in KINDS:
            raise BadSpec(f"unknown generator kind {self.kind!r}; know {KINDS}")
        if self.n < 1:
            raise BadSpec(f"need at least one vertex space, got n={self.n}")
        if not (2 <= self.r <= self.n):
            raise BadSpec(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        for z in self.sizes():
            if z < 1:
                raise BadSpec(f"space sizes must be >= 1, got {z}")
        for name in ("epsilon", "scale", "weight_low", "weight_high"):
            if not math.isfinite(getattr(self, name)):
                raise BadSpec(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "perturbed_ones" and not (0.0 <= self.epsilon < 1.0):
            raise BadSpec(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.kind == "product_weights" and not (
            0.0 < self.weight_low <= self.weight_high
        ):
            raise BadSpec(
                f"need 0 < weight_low <= weight_high, got "
                f"[{self.weight_low}, {self.weight_high}]"
            )
        if self.kind in ("random_nonneg", "random_signed") and self.scale <= 0.0:
            raise BadSpec(f"scale must be positive, got {self.scale}")
        # numpy's uniform needs a finite high - low; with finite ends only
        # random_signed's range can be wider than that.
        if self.kind == "random_signed" and not math.isfinite(2.0 * self.scale):
            raise BadSpec(f"the range [-scale, scale] overflows for scale {self.scale}")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "atoms": list(self.sizes()),
            "kind": self.kind,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "scale": self.scale,
            "weight_low": self.weight_low,
            "weight_high": self.weight_high,
        }


def uniform_complete_system(sizes, r: int) -> HypergraphSystem:
    """Uniform-weight spaces with every size-r subset of vertices as an edge."""
    spaces = [make_prob_space(np.ones(z) / z) for z in sizes]
    edges = sorted(itertools.combinations(range(len(sizes)), r))
    return make_system(spaces, edges)


def _perturbed_tensor(system, e, rng, epsilon: float) -> np.ndarray:
    """1 + epsilon*h, clipped nonnegative then recentred to mean exactly 1."""
    shape = system.edge_shape(e)
    values = 1.0 + epsilon * rng.uniform(-1.0, 1.0, size=shape)
    for _ in range(RECENTER_TRIES):
        values = np.maximum(values, 0.0)
        values = values - (expectation(system, e, EdgeFunction(e, values)) - 1.0)
        if (
            float(np.min(values)) >= 0.0
            and abs(expectation(system, e, EdgeFunction(e, values)) - 1.0) <= MEAN_TOL
        ):
            return values
    raise NumericalInconsistency(
        f"perturbation on {e} failed to recentre within {RECENTER_TRIES} rounds"
    )


def generate(spec: GenSpec):
    """Build (system, functions, meta) for the given GenSpec.

    meta echoes the resolved spec; product_weights adds the per-vertex
    weight vectors so closed-form norm predictions can be checked.
    """
    spec.validate()
    sizes = spec.sizes()
    system = uniform_complete_system(sizes, spec.r)
    rng = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    meta: dict = {"spec": spec.to_dict()}
    functions: dict[tuple[int, ...], EdgeFunction] = {}

    if spec.kind == "ones":
        for e in system.edges:
            functions[e] = edge_function(system, e, np.ones(system.edge_shape(e)))
    elif spec.kind == "perturbed_ones":
        for e in system.edges:
            functions[e] = edge_function(
                system, e, _perturbed_tensor(system, e, rng, spec.epsilon)
            )
    elif spec.kind == "product_weights":
        factors = []
        for i in range(spec.n):
            u = rng.uniform(spec.weight_low, spec.weight_high, size=sizes[i])
            u = u / float(np.sum(np.ascontiguousarray(system.spaces[i].weights * u)))
            factors.append(u)
        meta["vertex_weights"] = [[float(x) for x in u] for u in factors]
        for e in system.edges:
            acc = np.ones(system.edge_shape(e))
            for axis, i in enumerate(e):
                shape = [1] * len(e)
                shape[axis] = sizes[i]
                acc = acc * factors[i].reshape(shape)
            functions[e] = edge_function(system, e, acc)
    elif spec.kind == "random_nonneg":
        for e in system.edges:
            functions[e] = edge_function(
                system, e, rng.uniform(0.0, spec.scale, size=system.edge_shape(e))
            )
    elif spec.kind == "random_signed":
        for e in system.edges:
            functions[e] = edge_function(
                system,
                e,
                rng.uniform(-spec.scale, spec.scale, size=system.edge_shape(e)),
            )
    return system, functions, meta


def predicted_product_box_norm(
    system: HypergraphSystem, vertex_weights, e, ell: int
) -> float:
    """Closed-form replica box norm of a rank-one tensor prod_i u_i(x_i).

    Each replica of coordinate i contributes u_i raised to ell^(k-1) with
    k = |e|, independently across replicas, so the norm factorizes into
    one-dimensional moment norms prod_i ||u_i||_{L^(ell^(k-1))}.
    """
    k = len(e)
    power = ell ** (k - 1)
    out = 1.0
    for i in e:
        w = system.spaces[i].weights
        u = np.asarray(vertex_weights[i], dtype=np.float64)
        m = float(np.max(u))
        if m == 0.0:
            return 0.0
        moment = float(np.sum(np.ascontiguousarray(w * (u / m) ** power)))
        out *= m * math.exp(math.log(moment) / power)
    return out
