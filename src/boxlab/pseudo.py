"""Pseudorandomness certificates for families of nonnegative edge tensors.

A family nu = (nu_e) over a hypergraph system is certified against a
candidate majorant family psi = (psi_e) and constants (C, eta, p) by four
named conditions:

* C1: every nonempty sub-collection has product expectation >= 1 - eta.
* C2a: psi_e is L_p-bounded by C and nu_e - psi_e has cut norm <= eta.
* C2b: the replica-correlation supremum of nu_e - psi_e against products of
  slot functions bounded by nu or by one is <= eta (`C2B_REPLICAS`
  replicas of the complement).
* C3: conditional expectations of sub-collection products onto each edge
  have ell-th moment <= C + eta, with ell derived from (C, p) by the even
  replica rule unless overridden.

C1 and C3 read the sub-collection products of one walk,
`counting._choice_products`, laid out on the grid of every coordinate the
edges touch.

Sup checks run through the shared boxed-maximization engine
(`engine.sup_multilinear`, whose `Slot`, `SupProblem` and `SupResult` this
module re-exports): exact mode searches every slot vertex and is a
certificate; heuristic mode only ever yields lower bounds, so it can refute
a condition but not confirm it (verdict "unknown").  C2b and the proof
oracles solve one sup problem per edge whose slots carry every selector
label as a candidate bound (`selector_correlation_sup`).

Two end-to-end certifiers compose the above.  `sum_family_certificate` takes a
family lam close to one in the linear-forms sense plus a box-L_p bounded
part phi, and certifies lam + phi pseudorandom with derived constants
against the majorant phi + 1.  `near_majorant_certificate` takes nu box-norm-close
to a pattern-bounded majorant psi and certifies (C, n*ell*eta, p).  The
module also exposes the intermediate correlation/mass oracles those proofs
bound, so instances can be checked against the sharper internal constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boxnorm import REL_TOL, _box_norms, _lp_box_norms, require_even
from .counting import (
    SUBSET_CAP,
    _choice_products,
    _edge_grid,
    _subsets,
    full_assignment,
    least_even_at_least,
)
from .cutnorm import cut_norm
from .engine import (
    Slot,
    SupProblem,
    SupResult,
    digits_for,
    sup_grid,
    sup_multilinear,
)
from .errors import (
    BadSpec,
    MalformedProblem,
    NumericalInconsistency,
    POutOfRange,
    SubsetCapExceeded,
    WrongHypergraph,
)
from .spaces import (
    BLOCK_CELLS,
    EdgeFunction,
    Exponent,
    Grid,
    HypergraphSystem,
    as_edge,
    checked_power,
    edge_function,
    lp_norm,
)

PATTERN_CAP = 1 << 20
SAMPLE_DEFAULT = 512
# Complement replicas of the C2b correlation check.
C2B_REPLICAS = 2


def ell_pseudorandom(C: float, p: Exponent) -> int:
    """Even replica count rule: least even >= 2q + (1 - 1/C) + 1/p."""
    if not C >= 1.0:
        raise BadSpec(f"the constant C must be >= 1, got {C}")
    if not p.is_inf and p.value <= 1.0:
        raise POutOfRange(f"need p > 1 or p infinite, got {p.value}")
    q = p.conjugate().value
    threshold = 2.0 * q + (1.0 - 1.0 / C) + p.reciprocal()
    return least_even_at_least(threshold)


@dataclass(frozen=True)
class PseudoParams:
    """Constants of one pseudorandomness claim.

    ell defaults to the even replica rule applied to (C, p).
    """

    C: float
    eta: float
    p: Exponent
    ell: int | None = None

    def resolved_ell(self) -> int:
        if self.ell is None:
            return ell_pseudorandom(self.C, self.p)
        return require_even(self.ell)

    def validate(self) -> None:
        if not 1.0 <= self.C < math.inf:
            raise BadSpec(f"C must be finite and >= 1, got {self.C}")
        if not (0.0 < self.eta < 1.0):
            raise BadSpec(f"eta must lie in (0, 1), got {self.eta}")
        self.resolved_ell()

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "eta": self.eta,
            "p": self.p.as_json(),
            "ell": self.resolved_ell(),
            "c2b_replicas": C2B_REPLICAS,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    verdict is "true", "false", or "unknown" ("unknown" only when a
    heuristic search stayed below the bound without certifying the sup);
    `_verdict` decides it for every condition.
    comparison says which side the bound sits on: worst_value must be >=
    bound for "ge" conditions (C1) and <= bound for "le" conditions.
    """

    condition: str
    verdict: str
    worst_value: float
    bound: float
    comparison: str
    witness: dict
    mode: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "worst_value": self.worst_value,
            "bound": self.bound,
            "comparison": self.comparison,
            "witness": dict(self.witness),
            "mode": self.mode,
            "details": dict(self.details),
        }


# ---------------------------------------------------------------------------
# Condition checks


def _verdict(worst: float, bound: float, comparison: str, certified: bool) -> str:
    """The one verdict rule of the condition checks.

    "false" when worst misses the bound by more than REL_TOL: even a
    heuristic lower bound on a sup refutes.  Otherwise "true" if worst is
    certified and "unknown" if it is not.
    """
    if comparison == "ge":
        within = worst >= bound - REL_TOL
    else:
        within = worst <= bound + REL_TOL
    if not within:
        return "false"
    return "true" if certified else "unknown"


def check_C1(
    system: HypergraphSystem,
    nu,
    params: PseudoParams,
) -> ConditionReport:
    """Every nonempty sub-collection product has expectation >= 1 - eta.

    The means are taken on the system's edge grid, and the first
    sub-collection in scan order whose mean is not finite (a product past
    the float range) raises NumericalInconsistency.
    """
    fam = full_assignment(system, nu, nonnegative=True)
    params.validate()
    edges = system.edges
    if (1 << len(edges)) > SUBSET_CAP:
        raise SubsetCapExceeded(f"2**{len(edges)} subsets exceed cap {SUBSET_CAP}")
    grid = _edge_grid(system)
    weights = grid.full_weights.reshape(-1)
    means = np.empty(1 << len(edges))
    with np.errstate(over="ignore", invalid="ignore"):
        for first, rows in _choice_products(grid, [[fam[e] for e in edges]]):
            flat = rows.reshape(len(rows), -1)
            means[first : first + len(rows)] = np.add.reduce(flat * weights, axis=1)
    worst = math.inf
    witness: tuple = ()
    for sub, code in _subsets(len(edges)):
        if not math.isfinite(means[code]):
            subset = [list(edges[j]) for j in sub]
            raise NumericalInconsistency(
                f"C1 mean of the product over {subset} is {means[code]}, not finite"
            )
        if means[code] < worst:
            worst, witness = float(means[code]), tuple(edges[j] for j in sub)
    bound = 1.0 - params.eta
    return ConditionReport(
        condition="C1",
        verdict=_verdict(worst, bound, "ge", True),
        worst_value=worst,
        bound=bound,
        comparison="ge",
        witness={"subset": [list(e) for e in witness]},
        mode="exact",
        details={"subsets_checked": (1 << len(edges)) - 1},
    )


def check_C2a(
    system: HypergraphSystem,
    nu,
    psi,
    params: PseudoParams,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> ConditionReport:
    """psi_e bounded by C in L_p and nu_e - psi_e small in cut norm."""
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi)
    params.validate()
    worst = -math.inf
    witness: dict = {}
    lp_ok = True
    lp_values = {}
    any_heuristic = False
    for e in system.edges:
        lp_e = lp_norm(system, e, fam_psi[e], params.p)
        lp_values[str(list(e))] = lp_e
        if lp_e > params.C + REL_TOL:
            lp_ok = False
            witness = {"edge": list(e), "psi_lp": lp_e}
        diff = edge_function(system, e, fam_nu[e].values - fam_psi[e].values)
        res = cut_norm(system, e, diff, mode=mode, restarts=restarts, seed=seed)
        if res.mode == "heuristic":
            any_heuristic = True
        if res.value > worst:
            worst = res.value
            if lp_ok:
                witness = {"edge": list(e), "cut_witness": res.witness.as_dict()}
    bound = params.eta
    verdict = _verdict(worst, bound, "le", not any_heuristic) if lp_ok else "false"
    return ConditionReport(
        condition="C2a",
        verdict=verdict,
        worst_value=worst,
        bound=bound,
        comparison="le",
        witness=witness,
        mode="heuristic" if any_heuristic else "exact",
        details={
            "psi_lp_norms": lp_values,
            "psi_lp_ok": lp_ok,
            "C": params.C,
            "note": "cut comparison reads each coordinate once (no replicas)",
        },
    )


def check_C2b(
    system: HypergraphSystem,
    nu,
    psi,
    params: PseudoParams,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> ConditionReport:
    """Replica correlation of nu_e - psi_e against nu-or-one bounded slots."""
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi)
    params.validate()
    worst = -math.inf
    witness: dict = {}
    any_heuristic = False
    for e in system.edges:
        kernel = edge_function(system, e, fam_nu[e].values - fam_psi[e].values)
        best = selector_correlation_sup(
            system, e, kernel, {"nu": fam_nu, "one": None}, C2B_REPLICAS,
            mode=mode, restarts=restarts, seed=seed,
        )
        if not best["certified"]:
            any_heuristic = True
        if best["value"] > worst:
            worst = best["value"]
            witness = {
                "edge": list(e),
                "selectors": best["selectors"],
                "masks": best["masks"],
                "mode": best["mode"],
            }
    bound = params.eta
    return ConditionReport(
        condition="C2b",
        verdict=_verdict(worst, bound, "le", not any_heuristic),
        worst_value=worst,
        bound=bound,
        comparison="le",
        witness=witness,
        mode="heuristic" if any_heuristic else "exact",
        details={"replicas": C2B_REPLICAS},
    )


def check_C3(
    system: HypergraphSystem,
    nu,
    params: PseudoParams,
) -> ConditionReport:
    """Moments of conditional sub-collection densities stay below C + eta.

    For each edge e, the walk over the other edges lays every nonempty
    sub-collection's product out on the system's edge grid.  Its density on
    e is the product weighted by, and summed over, the coordinates off e; the
    moment is the density to the ell-th power weighted by, and summed over,
    e's coordinates.  The first moment in scan order (edges in order, each
    edge's sub-collections by size in `itertools.combinations` order) that
    is past the float range raises NumericalInconsistency; otherwise the
    first strictly largest moment is the witness.
    """
    fam = full_assignment(system, nu, nonnegative=True)
    params.validate()
    ell = params.resolved_ell()
    edges = system.edges
    if (1 << len(edges)) > SUBSET_CAP:
        raise SubsetCapExceeded(f"2**{len(edges)} subsets exceed cap {SUBSET_CAP}")
    grid = _edge_grid(system)
    all_axes = tuple(range(1, 1 + len(grid.shape)))  # axis 0 runs over the rows
    worst = -math.inf
    witness: dict = {}
    checked = 0
    for i, e in enumerate(edges):
        others = edges[:i] + edges[i + 1 :]
        off = [k for k in grid.keys if k[0] not in e]
        off_w = grid.weight_tensor(off)
        on_w = grid.weight_tensor([(v, 0) for v in e])
        off_axes = tuple(1 + grid.pos[k] for k in off)
        moments = np.empty(1 << len(others))
        with np.errstate(over="ignore", invalid="ignore"):
            for first, rows in _choice_products(grid, [[fam[x] for x in others]]):
                dens = np.sum(rows * off_w, axis=off_axes, keepdims=True)
                moments[first : first + len(rows)] = np.sum(
                    np.power(dens, ell) * on_w, axis=all_axes
                )
        for sub, code in _subsets(len(others)):
            if not math.isfinite(moments[code]):
                raise NumericalInconsistency(
                    f"C3 moment on edge {list(e)} at ell={ell} overflows a float"
                )
            checked += 1
            if moments[code] > worst:
                worst = float(moments[code])
                witness = {"edge": list(e), "subset": [list(others[j]) for j in sub]}
    details = {"moments_checked": checked, "ell": ell}
    if not checked:  # at most one edge: no sub-collection to bound
        worst, details = 0.0, {"vacuous": True, "ell": ell}
    bound = params.C + params.eta
    return ConditionReport(
        condition="C3",
        verdict=_verdict(worst, bound, "le", True),
        worst_value=worst,
        bound=bound,
        comparison="le",
        witness=witness,
        mode="exact",
        details=details,
    )


# ---------------------------------------------------------------------------
# Linear-forms deviation


@dataclass(frozen=True)
class DeviationReport:
    """Extremes of the replica product expectations over 0/1 patterns.

    eta is the deviation from one: max(max_value - 1, 1 - min_value, 0).
    When the pattern count exceeds `PATTERN_CAP` the scan degrades to
    sampling (structured patterns plus seeded random ones): exact is False
    and degraded True.  Each witness is the first pattern that attains its
    extreme: the smallest mask in a full scan, the first listed mask in a
    sampled one.
    """

    min_value: float
    max_value: float
    eta: float
    patterns_checked: int
    exact: bool
    witness_min: dict
    witness_max: dict

    @property
    def degraded(self) -> bool:
        return not self.exact

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "eta": self.eta,
            "patterns_checked": self.patterns_checked,
            "exact": self.exact,
            "degraded": self.degraded,
            "witness_min": dict(self.witness_min),
            "witness_max": dict(self.witness_max),
        }


def _pattern_factors(system: HypergraphSystem, ell: int):
    factors = []
    for e in system.edges:
        for digits in itertools.product(range(ell), repeat=len(e)):
            factors.append((e, digits))
    return factors


def _decode_mask(mask: int, factors) -> dict:
    chosen = [
        {"edge": list(e), "digits": list(d)}
        for k, (e, d) in enumerate(factors)
        if (mask >> k) & 1
    ]
    return {"mask": hex(mask), "factors": chosen}


def _finite_edge(system: HypergraphSystem, e, values: np.ndarray, what: str) -> EdgeFunction:
    """`edge_function` of `values`, refusing them where forming `what` overflowed."""
    if not np.isfinite(values).all():
        raise NumericalInconsistency(f"{what} on edge {list(e)} overflows a float")
    return edge_function(system, e, values)


def linear_forms_deviation(
    system: HypergraphSystem,
    functions,
    ell: int,
) -> DeviationReport:
    """Scan replica product expectations over all 0/1 exponent patterns.

    Each factor is one (edge, replica digits) pair; a pattern selects a
    subset of factors and its value is the expectation of their product
    over the fully replicated grid.  The all-zero pattern is the empty
    product, hence exactly 1.  More than `PATTERN_CAP` patterns never
    raises: the scan then degrades to the empty, full and per-edge
    patterns plus `SAMPLE_DEFAULT` random ones from Philox key 0 (flagged).
    A pattern whose value is past the float range raises
    NumericalInconsistency, without numpy warnings, naming the first such
    scan position.

    One loop serves both scans.  Each prefix's row is the weights times its
    factors, ascending; the top d factors then double it within one block
    of `BLOCK_CELLS` elements (d = 0 in the sampled scan).  Every pattern's
    sum lands in one array indexed by scan position, so besides the factor
    rows the scan holds one block plus one float per pattern.
    """
    fam = full_assignment(system, functions)
    ell = require_even(ell)
    factors = _pattern_factors(system, ell)
    count = len(factors)
    coords = sorted(set(v for e in system.edges for v in e))
    grid = Grid(system, [(v, m) for v in coords for m in range(ell)])
    flat = []
    for e, digits in factors:
        view = grid.lift(e, fam[e].values, digits)
        flat.append(np.broadcast_to(view, grid.shape).reshape(-1).copy())
    wvec = np.broadcast_to(grid.weight_tensor(), grid.shape).reshape(-1).copy()
    cells = wvec.shape[0]

    exact = (1 << count) <= PATTERN_CAP
    d = 0
    if exact:
        while d < count and (2 << d) * cells <= BLOCK_CELLS:
            d += 1
        prefixes = range(1 << (count - d))
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        prefixes = [0, (1 << count) - 1]
        prefixes += [sum(1 << k for k, (e2, _) in enumerate(factors) if e2 == e)
                     for e in system.edges]
        prefixes += [sum(1 << k for k, bit in enumerate(rng.integers(0, 2, size=count)) if bit)
                     for _ in range(SAMPLE_DEFAULT)]
    low = count - d
    # Block row r of prefix j is mask prefixes[j] | r << low, and its sum
    # lands at position r * len(prefixes) + j: the mask itself in the full
    # scan, the list index in the sampled one.
    block = np.empty((1 << d, cells))
    row = block[0]
    sums = np.empty((1 << d, len(prefixes)))
    # A product past the float range leaves its pattern's sum non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, m in enumerate(prefixes):
            np.copyto(row, wvec)
            for k in range(low):
                if (m >> k) & 1:
                    row *= flat[k]
            for f in range(low, count):
                rows = 1 << (f - low)
                np.multiply(block[:rows], flat[f], out=block[rows:2 * rows])
            sums[:, j] = block.sum(axis=1)
    sums = sums.reshape(-1)

    def mask_at(i: int) -> int:
        return prefixes[i % len(prefixes)] | (i // len(prefixes)) << low

    finite = np.isfinite(sums)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericalInconsistency(
            f"linear-forms pattern {hex(mask_at(i))} at ell={ell} is {sums[i]}, not finite"
        )
    # The first extreme wins: the smaller mask in the full scan, the first
    # listed one in the sampled scan.
    i_min, i_max = int(np.argmin(sums)), int(np.argmax(sums))
    lo, hi = float(sums[i_min]), float(sums[i_max])
    return DeviationReport(
        min_value=lo,
        max_value=hi,
        eta=max(hi - 1.0, 1.0 - lo, 0.0),
        patterns_checked=sums.shape[0],
        exact=exact,
        witness_min=_decode_mask(mask_at(i_min), factors),
        witness_max=_decode_mask(mask_at(i_max), factors),
    )


# ---------------------------------------------------------------------------
# Bundled certification


@dataclass(frozen=True)
class PseudoCertificate:
    params: PseudoParams
    conditions: dict
    verdict: str

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "conditions": {k: v.to_dict() for k, v in self.conditions.items()},
            "verdict": self.verdict,
        }


def _merge_verdicts(reports) -> str:
    vs = [r.verdict for r in reports]
    if any(v == "false" for v in vs):
        return "false"
    if any(v == "unknown" for v in vs):
        return "unknown"
    return "true"


def certify_pseudorandom(
    system: HypergraphSystem,
    nu,
    psi=None,
    params: PseudoParams | None = None,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> PseudoCertificate:
    """Run C1, C2a, C2b, C3 against a candidate majorant (default psi = nu)."""
    if params is None:
        raise BadSpec("params (C, eta, p) are required")
    params.validate()
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi) if psi is not None else fam_nu
    c1 = check_C1(system, fam_nu, params)
    c2a = check_C2a(system, fam_nu, fam_psi, params, mode=mode, restarts=restarts, seed=seed)
    c2b = check_C2b(system, fam_nu, fam_psi, params, mode=mode, restarts=restarts, seed=seed)
    c3 = check_C3(system, fam_nu, params)
    conditions = {"C1": c1, "C2a": c2a, "C2b": c2b, "C3": c3}
    return PseudoCertificate(params, conditions, _merge_verdicts(conditions.values()))


def _require_all_coedges(system: HypergraphSystem) -> int:
    """The certifiers need all (n-1)-subsets of an n-vertex ground set, n >= 3."""
    n = system.n
    if n < 3:
        raise WrongHypergraph(f"need at least 3 vertex spaces, got {n}")
    want = set(itertools.combinations(range(n), n - 1))
    have = set(system.edges)
    if have != want:
        raise WrongHypergraph(
            f"edges must be exactly the {n} subsets of size {n - 1}, got {sorted(have)}"
        )
    return n


@dataclass(frozen=True)
class TheoremCertificate:
    name: str
    hypotheses: dict
    constants: dict
    deviation: DeviationReport
    inner: PseudoCertificate | None
    verdict: str
    details: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": dict(self.hypotheses),
            "constants": dict(self.constants),
            "deviation": self.deviation.to_dict(),
            "inner": self.inner.to_dict() if self.inner is not None else None,
            "verdict": self.verdict,
            "details": dict(self.details),
        }


def sum_family_certificate(
    system: HypergraphSystem,
    lam,
    phi,
    C: float,
    eta: float,
    p: Exponent,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> TheoremCertificate:
    """Certify lam + phi pseudorandom with derived constants.

    Hypotheses: the system carries all (n-1)-subsets of n >= 3 vertices;
    0 < eta <= (4C)**(-n*ell**n); every replica pattern expectation of lam
    lies in [1-eta, 1+eta]; every phi_e has p-weighted box norm <= C.  The
    conclusion constants are C' = (4C)**(n*ell) and eta' = C' *
    eta**(1/ell**(n-1)) with the majorant psi = phi + 1; the bundled checks
    reuse the hypothesis-side ell (sharper internal constants with base 2C
    are reported in details).
    """
    n = _require_all_coedges(system)
    fam_lam = full_assignment(system, lam, nonnegative=True)
    fam_phi = full_assignment(system, phi, nonnegative=True)
    if not 1.0 <= C < math.inf:
        raise BadSpec(f"C must be finite and >= 1, got {C}")
    if not 0.0 < eta < math.inf:
        raise BadSpec(f"eta must be positive and finite, got {eta}")
    ell = ell_pseudorandom(C, p)
    log4c = math.log(4.0 * C)
    eta_cap = math.exp(-n * checked_power(ell, n) * log4c)
    hyp = {"eta_in_range": bool(0.0 < eta <= eta_cap * (1.0 + 1e-12))}
    dev = linear_forms_deviation(system, fam_lam, ell)
    hyp["linear_forms_within_eta"] = bool(
        dev.exact
        and dev.max_value <= 1.0 + eta + REL_TOL
        and dev.min_value >= 1.0 - eta - REL_TOL
    )
    norms = _lp_box_norms([(system, e, fam_phi[e].values) for e in system.edges], ell, [p])[0]
    phi_norms = {str(list(e)): v for e, v in zip(system.edges, norms)}
    hyp["phi_box_lp_at_most_C"] = not any(v > C + REL_TOL for v in norms)
    root = 1.0 / checked_power(ell, n - 1)
    c_pub = math.exp(n * ell * log4c)
    eta_pub = c_pub * math.exp(root * math.log(eta))
    log2c = math.log(2.0 * C)
    c_bar = math.exp(n * ell * log2c)
    eta_bar = c_bar * math.exp(root * math.log(eta))
    hyp["derived_eta_below_one"] = bool(eta_pub < 1.0)
    constants = {
        "ell": ell,
        "eta_cap": eta_cap,
        "C_out": c_pub,
        "eta_out": eta_pub,
        "C_internal": c_bar,
        "eta_internal": eta_bar,
    }
    with np.errstate(over="ignore"):
        nu = {
            e: _finite_edge(system, e, fam_lam[e].values + fam_phi[e].values, "lam + phi")
            for e in system.edges
        }
    psi = {
        e: edge_function(system, e, fam_phi[e].values + 1.0) for e in system.edges
    }
    inner = None
    if hyp["derived_eta_below_one"]:
        inner = certify_pseudorandom(
            system,
            nu,
            psi,
            PseudoParams(c_pub, eta_pub, p, ell=ell),
            mode=mode,
            restarts=restarts,
            seed=seed,
        )
    # inner is None only when a hypothesis failed.
    verdict = inner.verdict if all(hyp.values()) else "false"
    return TheoremCertificate(
        name="sum-family-pseudorandomness",
        hypotheses=hyp,
        constants=constants,
        deviation=dev,
        inner=inner,
        verdict=verdict,
        details={"phi_box_lp_norms": phi_norms, "C": C, "eta": eta, "p": p.as_json()},
    )


def near_majorant_certificate(
    system: HypergraphSystem,
    nu,
    psi,
    C: float,
    eta: float,
    p: Exponent,
    mode: str = "auto",
    restarts: int = 32,
    seed: int = 0,
) -> TheoremCertificate:
    """Certify a family box-norm-close to a pattern-bounded majorant.

    Hypotheses: complete (n-1)-uniform system, 0 < eta <= 1/(n*ell), psi's
    replica patterns inside [1-eta, C+eta], every nu_e with p-weighted box
    norm in [1, inf), every psi_e with p-weighted box norm <= C, and
    box_norm(nu_e - psi_e) <= eta * (C*M)**(-(n-1)*ell) where M is the
    largest nu box norm.  Conclusion constants: (C, n*ell*eta, p).
    """
    n = _require_all_coedges(system)
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi)
    if not 1.0 <= C < math.inf:
        raise BadSpec(f"C must be finite and >= 1, got {C}")
    if not 0.0 < eta < math.inf:
        raise BadSpec(f"eta must be positive and finite, got {eta}")
    ell = ell_pseudorandom(C, p)
    hyp = {"eta_in_range": bool(0.0 < eta <= 1.0 / (n * ell) + 1e-15)}
    dev = linear_forms_deviation(system, fam_psi, ell)
    hyp["psi_patterns_in_band"] = bool(
        dev.exact
        and dev.min_value >= 1.0 - eta - REL_TOL
        and dev.max_value <= C + eta + REL_TOL
    )
    rows = [(system, e, fam[e].values) for e in system.edges for fam in (fam_nu, fam_psi)]
    norms = _lp_box_norms(rows, ell, [p])[0]
    nu_norms = {str(list(e)): v for e, v in zip(system.edges, norms[::2])}
    psi_norms = {str(list(e)): v for e, v in zip(system.edges, norms[1::2])}
    hyp["nu_box_lp_at_least_one"] = all(
        nb >= 1.0 - REL_TOL and math.isfinite(nb) for nb in norms[::2]
    )
    hyp["psi_box_lp_at_most_C"] = not any(pb > C + REL_TOL for pb in norms[1::2])
    big_m = max(nu_norms.values())
    diff_bound = eta * math.exp(-(n - 1) * ell * math.log(C * big_m)) if big_m > 0 else 0.0
    # An overflowed norm reads inf and fails its hypothesis; a nan one is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [
            (system, e, _finite_edge(system, e, fam_nu[e].values - fam_psi[e].values,
                                     "nu - psi").values)
            for e in system.edges
        ]
        found = _box_norms(rows, ell)
    for res in found:
        if math.isnan(res.value):
            raise NumericalInconsistency(f"box norm of nu - psi on edge {list(res.edge)} is nan")
    diffs = {str(list(res.edge)): res.value for res in found}
    hyp["difference_box_small"] = not any(dv > diff_bound + REL_TOL for dv in diffs.values())
    eta_out = n * ell * eta
    hyp["derived_eta_below_one"] = bool(eta_out < 1.0)
    constants = {
        "ell": ell,
        "M": big_m,
        "difference_bound": diff_bound,
        "C_out": C,
        "eta_out": eta_out,
    }
    inner = None
    if hyp["derived_eta_below_one"]:
        inner = certify_pseudorandom(
            system,
            fam_nu,
            fam_psi,
            PseudoParams(C, eta_out, p, ell=ell),
            mode=mode,
            restarts=restarts,
            seed=seed,
        )
    # inner is None only when a hypothesis failed.
    verdict = inner.verdict if all(hyp.values()) else "false"
    return TheoremCertificate(
        name="near-majorant-pseudorandomness",
        hypotheses=hyp,
        constants=constants,
        deviation=dev,
        inner=inner,
        verdict=verdict,
        details={
            "nu_box_lp_norms": nu_norms,
            "psi_box_lp_norms": psi_norms,
            "difference_box_norms": diffs,
            "C": C,
            "eta": eta,
            "p": p.as_json(),
        },
    )


# ---------------------------------------------------------------------------
# Correlation / mass oracles matching the proof-level inequalities


def _selector_slots(
    system: HypergraphSystem, e, bound_families: dict, ell: int, exclude=None
) -> tuple[Slot, ...]:
    """One slot per (edge, replica) pair off the base edge e, pair `exclude` left out.

    Edges come in system order and replicas ascending; every slot has one
    candidate bound per label of bound_families, labels sorted.
    """
    labels = sorted(bound_families)
    return tuple(
        Slot(e2, w, tuple(
            (lab, None if bound_families[lab] is None else bound_families[lab][e2])
            for lab in labels
        ))
        for e2 in system.edges if e2 != e
        for w in range(ell) if (e2, w) != exclude
    )


def selector_correlation_sup(
    system: HypergraphSystem,
    e,
    kernel: EdgeFunction,
    bound_families: dict,
    ell: int,
    kernel_replica: int = 0,
    exclude_pair=None,
    mode: str = "exact",
    restarts: int = 32,
    seed: int = 0,
) -> dict:
    """Max over per-slot bound choices of the boxed correlation supremum.

    bound_families maps labels to families (edge -> tensor) or None for the
    constant-one bound; every slot independently picks one label, as one
    candidate bound per label of a single `SupProblem`.  Returns the max
    with its selector assignment and masks; ties keep the first choice in
    `itertools.product` order (labels sorted, first slot slowest).  Each
    choice has its own budget of `COMBO_CAP`, its search seeded with the
    best value of the choices before it, and the max is certified only if
    every choice was solved exactly: a heuristic choice's value is only a
    lower bound on its sup.
    """
    e = as_edge(e)
    slots = _selector_slots(system, e, bound_families, ell, exclude_pair)
    problem = SupProblem(system, e, ell, kernel, slots, kernel_replica)
    res = sup_multilinear(problem, mode=mode, restarts=restarts, seed=seed)
    return {
        "value": res.value,
        "selectors": list(res.labels),
        "slots": [[list(s.edge), s.replica] for s in slots],
        "masks": [hex(m) for m in res.masks],
        "mode": res.mode,
        "certified": res.certified,
    }


def replica_mass_max(
    system: HypergraphSystem,
    e,
    bound_families: dict,
    ell: int,
) -> dict:
    """Max replica mass: slot functions at their bounds, no kernel.

    All bounds are nonnegative, so the sup over each box is attained at the
    full bound; the value is a plain product expectation per selector
    choice, each bound lifted once onto one grid, maximized over choices in
    `selector_correlation_sup`'s order.
    """
    e = as_edge(e)
    base = set(e)
    slots = _selector_slots(system, e, bound_families, ell)
    grid = sup_grid(system, e, [(s.edge, s.replica) for s in slots])
    lifted = []
    for s in slots:
        digits = digits_for(s.edge, base, s.replica)
        lifted.append([
            (lab, None if b is None else grid.lift(s.edge, b.values, digits))
            for lab, b in s.bounds
        ])
    best = None
    for choice in itertools.product(*lifted):
        val = grid.expect([f for _, f in choice if f is not None])
        if best is None or val > best["value"]:
            best = {"value": val, "selectors": [lab for lab, _ in choice]}
    best["slots"] = [[list(s.edge), s.replica] for s in slots]
    return best


# Named oracles for the intermediate correlation/mass bounds used by the
# two theorem proofs.  Each quantifies slot bounds over three families and
# all ell replicas of the complement coordinate.  The correlation oracles
# are exact: a choice whose search runs out of budget raises SizeCapExceeded.


def centered_family_correlation_sup(
    system: HypergraphSystem,
    e,
    lam,
    phi,
    ell: int,
) -> dict:
    """Sup correlation of lam_e - 1 against slots bounded by lam, phi, or 1.

    On instances passing the sum-family certifier's hypotheses this is at
    most the internal eta constant with base 2C.
    """
    fam_lam = full_assignment(system, lam, nonnegative=True)
    fam_phi = full_assignment(system, phi, nonnegative=True)
    e = as_edge(e)
    kernel = edge_function(system, e, fam_lam[e].values - 1.0)
    return selector_correlation_sup(
        system,
        e,
        kernel,
        {"lam": fam_lam, "one": None, "phi": fam_phi},
        ell,
    )


def bounded_slot_mass_sup(
    system: HypergraphSystem, e, lam, phi, ell: int
) -> dict:
    """Max expectation of slot products bounded by lam, phi, or 1 (no kernel).

    On instances passing the sum-family certifier's hypotheses this is at
    most the internal C constant with base 2C.
    """
    fam_lam = full_assignment(system, lam, nonnegative=True)
    fam_phi = full_assignment(system, phi, nonnegative=True)
    return replica_mass_max(
        system, e, {"lam": fam_lam, "one": None, "phi": fam_phi}, ell
    )


def majorant_gap_correlation_sup(
    system: HypergraphSystem,
    e,
    nu,
    psi,
    ell: int,
) -> dict:
    """Sup correlation of nu_e - psi_e against slots bounded by nu, psi, or 1.

    On instances passing the near-majorant certifier's hypotheses this is
    at most eta.
    """
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi, nonnegative=True)
    e = as_edge(e)
    kernel = edge_function(system, e, fam_nu[e].values - fam_psi[e].values)
    return selector_correlation_sup(
        system,
        e,
        kernel,
        {"nu": fam_nu, "one": None, "psi": fam_psi},
        ell,
    )


def shifted_majorant_gap_correlation_sup(
    system: HypergraphSystem,
    e,
    kernel_edge,
    kernel_replica: int,
    nu,
    psi,
    ell: int,
) -> dict:
    """Like majorant_gap_correlation_sup with the kernel moved off-base.

    The kernel nu - psi lives on kernel_edge (off the base edge e) and
    reads the kernel_replica copy of the complement coordinate; the slot
    pair (kernel_edge, kernel_replica) is excluded from the product.  On
    instances passing the near-majorant certifier's hypotheses this is at
    most eta.
    """
    fam_nu = full_assignment(system, nu, nonnegative=True)
    fam_psi = full_assignment(system, psi, nonnegative=True)
    e = as_edge(e)
    ke = as_edge(kernel_edge)
    if ke == e:
        raise MalformedProblem("kernel edge must differ from the base edge")
    kernel = edge_function(system, ke, fam_nu[ke].values - fam_psi[ke].values)
    return selector_correlation_sup(
        system,
        e,
        kernel,
        {"nu": fam_nu, "one": None, "psi": fam_psi},
        ell,
        kernel_replica=kernel_replica,
        exclude_pair=(ke, kernel_replica),
    )
