"""Verification-suite runner.

A suite is a list of named check items.  Each item either runs one of the
built-in property batteries (random-instance batches with fixed seeds) or
applies a certifier to instance files.  Items are pure functions of their
parameters, so they can run in parallel.  The items are Python-bound, so
threads would serialise them on the GIL: at more than one worker, this
process runs items itself and worker processes forked from it run the rest
(see `_run_lanes`), so a worker sees this process's modules and settings
as they are when `run_suite` is called.  Where the platform has no `fork`,
the items run serially here.  The report lists results in
item order regardless of completion order, and every numeric in it (apart
from the elapsed-time fields, which can be zeroed with stable=True) is
reproducible from the item parameters alone.

Exit-code contract: 0 when every check holds, 1 when any check is false,
2 when none is false but at least one is unknown (a heuristic search that
stayed below its bound without certifying the supremum).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .boxnorm import (
    _box_norms,
    _lp_box_norms,
    bilinear_bound_report,
    box_norm,
    box_power_direct,
    gcs_certificate,
    lp_box_norm,
)
from .counting import (
    counting_lemma_certificate,
    ell_von_neumann,
    lambda_form,
    von_neumann_certificate,
)
from .cutnorm import cut_norm
from .errors import BadSpec, MalformedProblem, WorkerFailure
from .generators import GenSpec, generate, predicted_product_box_norm
from .instances import (
    check_same_system,
    digest_text,
    emit_json,
    instance_to_dict,
    load_instance,
)
from .pseudo import (
    PseudoParams,
    bounded_slot_mass_sup,
    centered_family_correlation_sup,
    certify_pseudorandom,
    ell_pseudorandom,
    linear_forms_deviation,
    majorant_gap_correlation_sup,
    shifted_majorant_gap_correlation_sup,
    sum_family_certificate,
    near_majorant_certificate,
)
from .spaces import (
    Exponent,
    INF,
    check_seed,
    derived_function,
    edge_function,
    expectation,
    lp_norm,
    make_prob_space,
    make_system,
)

TOL = 1e-9
# Iterations of `check_norm_axioms` drawn and normed as one batch: enough
# for its stacks of one shape to be long, few enough to hold little memory.
_AXIOM_CHUNK = 50


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


@dataclass
class CheckResult:
    name: str
    holds: bool | None  # None means unknown
    lhs: float
    rhs: float
    mode: str
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self, stable: bool = False) -> dict:
        return {
            "name": self.name,
            "holds": "unknown" if self.holds is None else bool(self.holds),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "mode": self.mode,
            "details": self.details,
            "elapsed_ms": 0.0 if stable else self.elapsed_ms,
        }


# ---------------------------------------------------------------------------
# Item parameters


_REQUIRED = object()


def _param(params: dict, key: str, kind, default=_REQUIRED):
    """params[key] read as kind, or default when the key is absent.

    An absent key without a default, or a value that kind cannot read,
    raises MalformedProblem.
    """
    if key not in params:
        if default is _REQUIRED:
            raise MalformedProblem(f"suite item needs parameter {key!r}")
        return default
    try:
        return kind(params[key])
    except (TypeError, ValueError, OverflowError):
        raise MalformedProblem(
            f"parameter {key!r}: cannot read {params[key]!r} as {kind.__name__}"
        ) from None


# ---------------------------------------------------------------------------
# Random-instance helpers


def _random_system(rng, k: int, max_atoms: int, uniform_weights: bool = False):
    sizes = [int(rng.integers(1, max_atoms + 1)) for _ in range(k)]
    spaces = []
    for z in sizes:
        if uniform_weights:
            spaces.append(make_prob_space(np.ones(z) / z))
        else:
            spaces.append(make_prob_space(rng.uniform(0.1, 1.0, size=z)))
    edge = tuple(range(k))
    return make_system(spaces, [edge]), edge


def _signed_values(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


# ---------------------------------------------------------------------------
# Built-in check batteries


def check_box_oracle(params: dict) -> CheckResult:
    """Recursive box norm vs direct replicated enumeration, relative 1e-9.

    The comparison scale is max(|powers|, (max|f|)**ell**|e|): two summation
    orders of a cancelling alternating sum can only agree relative to the
    summand magnitude, the same scale the tiny-negative clamp uses.
    """
    count = _param(params, "count", int, 500)
    seed = _param(params, "seed", int, 101)
    rng = _philox(seed)
    worst = 0.0
    worst_case = {}
    for idx in range(count):
        k = int(rng.integers(1, 4))
        system, e = _random_system(rng, k, 4)
        ell = int(rng.choice([2, 4]))
        f = edge_function(system, e, _signed_values(rng, system.edge_shape(e)))
        rec = box_norm(system, e, f, ell, method="recursive").power
        direct = box_power_direct(system, e, f, ell)
        sup = float(np.max(np.abs(f.values)))
        scale = max(abs(rec), abs(direct), sup ** (ell ** len(e)))
        rel = abs(rec - direct) / scale if scale > 0.0 else 0.0
        if rel > worst:
            worst = rel
            worst_case = {"index": idx, "recursive": rec, "direct": direct}
    return CheckResult(
        name="box-norm-vs-direct-oracle",
        holds=worst <= TOL,
        lhs=worst,
        rhs=TOL,
        mode="exact",
        details={"count": count, "seed": seed, "worst_case": worst_case},
    )


def check_gcs(params: dict) -> CheckResult:
    """Multilinear replica form bounded by the product of box norms."""
    count = _param(params, "count", int, 500)
    seed = _param(params, "seed", int, 102)
    rng = _philox(seed)
    worst_excess = -math.inf
    equality_gap = 0.0
    for idx in range(count):
        k = int(rng.integers(1, 3))
        system, e = _random_system(rng, k, 4)
        ell = int(rng.choice([2, 4]))
        shape = system.edge_shape(e)
        functions = {
            digits: edge_function(system, e, _signed_values(rng, shape))
            for digits in itertools.product(range(ell), repeat=k)
        }
        cert = gcs_certificate(system, e, functions, ell)
        worst_excess = max(worst_excess, cert.lhs - (cert.rhs + cert.tol))
    for idx in range(20):
        k = int(rng.integers(1, 3))
        system, e = _random_system(rng, k, 4)
        ell = 2
        f = edge_function(system, e, _signed_values(rng, system.edge_shape(e)))
        functions = {
            digits: f for digits in itertools.product(range(ell), repeat=k)
        }
        cert = gcs_certificate(system, e, functions, ell)
        equality_gap = max(
            equality_gap, abs(cert.lhs - cert.rhs) / max(1.0, cert.rhs)
        )
    for idx in range(20):
        spec = GenSpec(n=3, r=2, atoms=3, kind="product_weights", seed=seed + idx)
        system, fns, _ = generate(spec)
        e = system.edges[0]
        ell = 2
        functions = {
            digits: fns[e] for digits in itertools.product(range(ell), repeat=len(e))
        }
        cert = gcs_certificate(system, e, functions, ell)
        equality_gap = max(
            equality_gap, abs(cert.lhs - cert.rhs) / max(1.0, cert.rhs)
        )
    holds = worst_excess <= 0.0 and equality_gap <= TOL
    return CheckResult(
        name="replica-form-vs-norm-product",
        holds=holds,
        lhs=max(worst_excess, equality_gap),
        rhs=0.0,
        mode="exact",
        details={
            "count": count,
            "seed": seed,
            "worst_excess": worst_excess,
            "equality_gap": equality_gap,
        },
    )


def check_norm_axioms(params: dict) -> CheckResult:
    """Triangle inequality, homogeneity, definiteness, and monotonicities."""
    count = _param(params, "count", int, 500)
    seed = _param(params, "seed", int, 103)
    rng = _philox(seed)
    worst = -math.inf
    worst_name = ""

    def track(name: str, violation: float) -> None:
        nonlocal worst, worst_name
        if violation > worst:
            worst, worst_name = violation, name

    p_ladder = [Exponent(float(2**j)) for j in range(0, 11)]
    # Each chunk draws its cases in the order of one loop over them, takes
    # every norm in one stack per ell (and per p), then replays the checks
    # in loop order.
    for start in range(0, count, _AXIOM_CHUNK):
        cases = []
        for idx in range(start, min(count, start + _AXIOM_CHUNK)):
            k = int(rng.integers(2, 4))
            system, e = _random_system(rng, k, 3)
            ell = int(rng.choice([2, 4]))
            f = _signed_values(rng, system.edge_shape(e))
            g = _signed_values(rng, f.shape)
            c = float(rng.uniform(-2.0, 2.0))
            cases.append((idx, system, e, ell, f, g, c))
        # At its own ell a case needs f, g, f + g and c f; at the other, f.
        stacks: dict[int, list] = {2: [], 4: []}
        for _, system, e, ell, f, g, c in cases:
            stacks[ell] += [(system, e, v) for v in (f, g, f + g, c * f)]
            stacks[6 - ell].append((system, e, f))
        norms = {ell: iter([res.value for res in _box_norms(stacks[ell], ell)]) for ell in stacks}
        ladder_rows = [(system, e, f) for idx, system, e, _, f, _, _ in cases if idx % 5 == 0]
        ladder = [iter(at_p) for at_p in _lp_box_norms(ladder_rows, 2, p_ladder)]
        for idx, _, _, ell, _, _, c in cases:
            nf, ng, nfg, ncf = (next(norms[ell]) for _ in range(4))
            by_ell = {ell: nf, 6 - ell: next(norms[6 - ell])}
            scale = max(1.0, nf + ng)
            track("triangle", (nfg - (nf + ng)) / scale)
            track("homogeneity", abs(ncf - abs(c) * nf) / max(1.0, nf))
            track("ell-monotone", (by_ell[2] - by_ell[4]) / max(1.0, nf))
            if idx % 5 == 0:
                prev = -math.inf
                for at_p in ladder:
                    cur = next(at_p)
                    track("p-monotone", (prev - cur) / max(1.0, cur))
                    prev = cur
    # definiteness and the p -> infinity limit on uniform spaces
    cases = []
    for idx in range(40):
        k = int(rng.integers(2, 4))
        system, e = _random_system(rng, k, 3, uniform_weights=True)
        cases.append((system, e, _signed_values(rng, system.edge_shape(e))))
    zeros = _box_norms([(system, e, np.zeros(f.shape)) for system, e, f in cases], 2)
    bigs = _lp_box_norms(cases, 2, [Exponent(float(2**20))])[0]
    for (_, _, f), zero, big in zip(cases, zeros, bigs):
        track("zero-norm", abs(zero.value))
        sup = float(np.max(np.abs(f)))
        if sup > 0.0:
            track("p-limit-low", (0.9999 * sup - big) / sup)
            track("p-limit-high", (big - sup - TOL) / sup)
    holds = worst <= TOL
    return CheckResult(
        name="box-norm-axioms",
        holds=holds,
        lhs=worst,
        rhs=TOL,
        mode="exact",
        details={"count": count, "seed": seed, "worst_property": worst_name},
    )


def check_bilinear(params: dict) -> CheckResult:
    """Bilinear correlation bounded by box norm times moment norms."""
    count = _param(params, "count", int, 200)
    seed = _param(params, "seed", int, 104)
    rng = _philox(seed)
    worst = -math.inf
    for idx in range(count):
        system, e = _random_system(rng, 2, 4)
        p = Exponent.parse(str(rng.choice(["2", "4", "8", "inf"])))
        ell = int(rng.choice([2, 4]))
        f = edge_function(system, e, _signed_values(rng, system.edge_shape(e)))
        u = edge_function(
            system, (e[0],), _signed_values(rng, (system.spaces[e[0]].size,))
        )
        v = edge_function(
            system, (e[1],), _signed_values(rng, (system.spaces[e[1]].size,))
        )
        rep = bilinear_bound_report(system, e, f, u, v, ell, p)
        worst = max(worst, rep.lhs - (rep.rhs + rep.tol))
    return CheckResult(
        name="bilinear-correlation-bound",
        holds=worst <= 0.0,
        lhs=worst,
        rhs=0.0,
        mode="exact",
        details={"count": count, "seed": seed},
    )


def _cut_bruteforce(system, e, f) -> float:
    """Independent cut-norm oracle: plain loops over both face subsets."""
    wi = system.spaces[e[0]].weights
    wj = system.spaces[e[1]].weights
    mat = wi[:, None] * wj[None, :] * f.values
    m, n = mat.shape
    best = 0.0
    for a in range(1 << m):
        rows = [i for i in range(m) if (a >> i) & 1]
        for b in range(1 << n):
            cols = [j for j in range(n) if (b >> j) & 1]
            total = 0.0
            for i in rows:
                for j in cols:
                    total += mat[i, j]
            best = max(best, abs(total))
    return best


def check_cutnorm(params: dict) -> CheckResult:
    """Exact mode vs brute force; heuristic quality; box-norm domination."""
    seed = _param(params, "seed", int, 105)
    per_size = _param(params, "per_size", int, 60)
    heuristic_count = _param(params, "heuristic_count", int, 100)
    rng = _philox(seed)
    worst = -math.inf
    worst_name = ""

    def track(name, violation):
        nonlocal worst, worst_name
        if violation > worst:
            worst, worst_name = violation, name

    for size in (2, 3):
        for idx in range(per_size):
            spaces = [make_prob_space(rng.uniform(0.1, 1.0, size=size)) for _ in range(2)]
            system = make_system(spaces, [(0, 1)])
            f = edge_function(system, (0, 1), _signed_values(rng, (size, size)))
            res = cut_norm(system, (0, 1), f, mode="exact")
            oracle = _cut_bruteforce(system, (0, 1), f)
            scale = max(1.0, oracle)
            track(f"exact-vs-bruteforce-{size}", abs(res.value - oracle) / scale - TOL)
            box2 = box_norm(system, (0, 1), f, 2).value
            track("cut-le-box", (res.value - box2 - TOL) / scale)
    matches = 0
    for idx in range(heuristic_count):
        size = int(rng.integers(2, 4))
        spaces = [make_prob_space(rng.uniform(0.1, 1.0, size=size)) for _ in range(2)]
        system = make_system(spaces, [(0, 1)])
        f = edge_function(system, (0, 1), _signed_values(rng, (size, size)))
        exact = cut_norm(system, (0, 1), f, mode="exact")
        heur = cut_norm(system, (0, 1), f, mode="heuristic", restarts=32, seed=seed + idx)
        track("heuristic-le-exact", (heur.value - exact.value - 1e-12) / max(1.0, exact.value))
        if abs(heur.value - exact.value) <= 1e-12 * max(1.0, exact.value):
            matches += 1
    track("heuristic-match-rate", 0.95 - matches / heuristic_count)
    system = make_system(
        [make_prob_space(np.ones(2) / 2), make_prob_space(np.ones(2) / 2)], [(0, 1)]
    )
    f = edge_function(system, (0, 1), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    quarter = cut_norm(system, (0, 1), f, mode="exact").value
    track("alternating-sign-exact-value", abs(quarter - 0.25))
    return CheckResult(
        name="cut-norm-battery",
        holds=worst <= 0.0,
        lhs=worst,
        rhs=0.0,
        mode="exact",
        details={
            "seed": seed,
            "worst_property": worst_name,
            "heuristic_matches": matches,
            "heuristic_count": heuristic_count,
        },
    )


def _normalized(rows, ell, p) -> dict:
    """Each row's tensor, divided by its p-weighted box norm where that exceeds 1."""
    return {
        e: derived_function(e, vals / nb if nb > 1.0 else vals)
        for (_, e, vals), nb in zip(rows, _lp_box_norms(rows, ell, [p])[0])
    }


def _normalized_family(system, rng, ell, p):
    rows = [(system, e, _signed_values(rng, system.edge_shape(e))) for e in system.edges]
    return _normalized(rows, ell, p)


def _triangle_system():
    spaces = [make_prob_space(np.ones(3) / 3) for _ in range(3)]
    return make_system(spaces, [(0, 1), (0, 2), (1, 2)])


def _four_cycle_system():
    spaces = [make_prob_space(np.ones(3) / 3) for _ in range(4)]
    return make_system(spaces, [(0, 1), (0, 3), (1, 2), (2, 3)])


def check_vonneumann(params: dict) -> CheckResult:
    """Soundness: normalized hypotheses imply the certified inequality."""
    count = _param(params, "count", int, 100)
    seed = _param(params, "seed", int, 106)
    rng = _philox(seed)
    failures = 0
    worst_slack = math.inf
    for idx in range(count):
        system = _triangle_system() if idx % 2 == 0 else _four_cycle_system()
        p = Exponent.parse(str(rng.choice(["2", "4", "inf"])))
        ell = ell_von_neumann(2, p)
        fns = _normalized_family(system, rng, ell, p)
        probe = von_neumann_certificate(system, fns, C=1.0, p=p)
        cert = probe.at_C(max(1.0, probe.worst_subset_lp))
        if not (cert.hyp_box_lp_ok and cert.hyp_subset_lp_ok and cert.holds):
            failures += 1
        worst_slack = min(worst_slack, cert.slack)
    return CheckResult(
        name="min-norm-controls-counting",
        holds=failures == 0,
        lhs=float(failures),
        rhs=0.0,
        mode="exact",
        details={"count": count, "seed": seed, "worst_slack": worst_slack},
    )


def check_counting(params: dict) -> CheckResult:
    """Soundness of the two-family counting difference bound."""
    count = _param(params, "count", int, 100)
    seed = _param(params, "seed", int, 107)
    rng = _philox(seed)
    failures = 0
    worst_slack = math.inf
    for idx in range(count):
        system = _triangle_system() if idx % 2 == 0 else _four_cycle_system()
        p = Exponent.parse(str(rng.choice(["2", "4", "inf"])))
        ell = ell_von_neumann(2, p)
        fns = _normalized_family(system, rng, ell, p)
        eps = float(rng.uniform(0.0, 0.3))
        rows = [
            (system, e, fns[e].values + eps * _signed_values(rng, system.edge_shape(e)))
            for e in system.edges
        ]
        gns = _normalized(rows, ell, p)
        probe = counting_lemma_certificate(system, fns, gns, C=1.0, p=p)
        cert = probe.at_C(max(1.0, probe.worst_pair_lp))
        if not (cert.hyp_box_lp_ok and cert.hyp_pair_lp_ok and cert.holds):
            failures += 1
        worst_slack = min(worst_slack, cert.slack)
    return CheckResult(
        name="family-swap-counting-bound",
        holds=failures == 0,
        lhs=float(failures),
        rhs=0.0,
        mode="exact",
        details={"count": count, "seed": seed, "worst_slack": worst_slack},
    )


_VN_TABLE = [
    (1, "7", 2),
    (1, "2", 2),
    (1, "inf", 2),
    (5, "inf", 2),
    (2, "2", 2),
    (2, "4", 2),
    (2, "3", 2),
    (2, "1.5", 4),
    (2, "1.25", 6),
    (3, "2", 4),
    (3, "4", 2),
    (3, "1.5", 6),
    (4, "8", 2),
    (4, "2", 6),
    (5, "2", 8),
    (2, "1.3333333333333333", 4),
]

_PSEUDO_TABLE = [
    (1.0, "4", 4),
    (1.0, "inf", 2),
    (2.0, "2", 6),
    (1.0, "2", 6),
    (2.0, "4", 4),
    (4.0, "2", 6),
    (1.0, "1.25", 12),
    (2.0, "inf", 4),
    (4.0, "inf", 4),
    (1.5, "3", 4),
]


def check_ell_rules(params: dict) -> CheckResult:
    """Fixed arithmetic table for both replica-count rules, ties included."""
    bad = []
    for delta, p_text, want in _VN_TABLE:
        got = ell_von_neumann(delta, Exponent.parse(p_text))
        if got != want:
            bad.append(["von_neumann", delta, p_text, want, got])
    for C, p_text, want in _PSEUDO_TABLE:
        got = ell_pseudorandom(C, Exponent.parse(p_text))
        if got != want:
            bad.append(["pseudorandom", C, p_text, want, got])
    cases = len(_VN_TABLE) + len(_PSEUDO_TABLE)
    return CheckResult(
        name="replica-count-rules",
        holds=not bad,
        lhs=float(len(bad)),
        rhs=0.0,
        mode="exact",
        details={"cases": cases, "mismatches": bad},
    )


def check_certifier_examples(params: dict) -> CheckResult:
    """Certifier fixed points: ones pass, a zero edge fails, margins work."""
    seed = _param(params, "seed", int, 108)
    system, ones, _ = generate(GenSpec(n=3, r=2, atoms=2, kind="ones", seed=seed))
    outcomes = {}
    cert = certify_pseudorandom(
        system, ones, params=PseudoParams(1.0, 0.5, Exponent(2.0)), mode="exact"
    )
    outcomes["ones"] = cert.verdict
    zeroed = dict(ones)
    z_edge = system.edges[0]
    zeroed[z_edge] = edge_function(system, z_edge, np.zeros(system.edge_shape(z_edge)))
    cert_zero = certify_pseudorandom(
        system, zeroed, params=PseudoParams(1.0, 0.5, Exponent(2.0)), mode="exact"
    )
    outcomes["zero_edge"] = cert_zero.verdict
    outcomes["zero_edge_condition"] = cert_zero.conditions["C1"].verdict
    zero_witness = cert_zero.conditions["C1"].witness.get("subset", [])
    system_p, fam, _ = generate(
        GenSpec(n=3, r=2, atoms=2, kind="perturbed_ones", seed=seed, epsilon=0.05)
    )
    p2 = Exponent(2.0)
    C_meas = max(
        1.0, max(lp_norm(system_p, e, fam[e], p2) for e in system_p.edges)
    )
    probe = certify_pseudorandom(
        system_p, fam, params=PseudoParams(C_meas, 0.5, p2), mode="exact"
    )
    needed = max(
        1.0 - probe.conditions["C1"].worst_value,
        probe.conditions["C2a"].worst_value,
        probe.conditions["C2b"].worst_value,
        probe.conditions["C3"].worst_value - C_meas,
        0.0,
    )
    eta = min(0.9, needed + 0.01)
    cert_p = certify_pseudorandom(
        system_p, fam, params=PseudoParams(C_meas, eta, p2), mode="exact"
    )
    outcomes["perturbed"] = cert_p.verdict
    holds = (
        outcomes["ones"] == "true"
        and outcomes["zero_edge"] == "false"
        and outcomes["zero_edge_condition"] == "false"
        and bool(zero_witness)
        and outcomes["perturbed"] == "true"
    )
    return CheckResult(
        name="pseudorandom-certifier-examples",
        holds=holds,
        lhs=0.0 if holds else 1.0,
        rhs=0.0,
        mode="exact",
        details={"seed": seed, "outcomes": outcomes, "measured_eta": needed},
    )


def _bisect_epsilon_for_eta(system_builder, target: float, ell: int, hi: float):
    """Largest epsilon whose measured deviation stays at or below target."""
    lo = 0.0
    system, fam, _ = system_builder(hi)
    if linear_forms_deviation(system, fam, ell).eta <= target:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        system, fam, _ = system_builder(mid)
        if linear_forms_deviation(system, fam, ell).eta <= target:
            lo = mid
        else:
            hi = mid
    return lo


def build_sum_family_instance(seed: int = 109):
    """Deterministic end-to-end instance for the sum-family certificate.

    Returns (system, lam, phi, C, eta, p).  C = 1 and p = infinity give
    replica count 2; epsilon is bisected so the measured deviation sits
    inside the certificate's eta cap with a safety factor of 0.9.
    """
    C = 1.0
    p = INF
    ell = ell_pseudorandom(C, p)
    n = 3
    cap = math.exp(-n * (ell**n) * math.log(4.0 * C))

    def builder(eps: float):
        return generate(
            GenSpec(n=n, r=n - 1, atoms=2, kind="perturbed_ones", seed=seed, epsilon=eps)
        )

    eps = _bisect_epsilon_for_eta(builder, 0.9 * cap, ell, hi=1e-10)
    system, lam, _ = builder(eps)
    eta = linear_forms_deviation(system, lam, ell).eta
    if eta <= 0.0:
        eta = 0.5 * cap  # deviation rounded to zero: any eta under the cap is valid
    rng = _philox(seed + 1)
    phi = {}
    for e in system.edges:
        vals = rng.uniform(0.0, 1.0, size=system.edge_shape(e))
        sup = float(np.max(vals))
        phi[e] = edge_function(system, e, vals / sup if sup > 0 else vals)
    return system, lam, phi, C, eta, p


def check_sum_family(params: dict) -> CheckResult:
    """End-to-end: bisected instance passes the sum-family certificate."""
    seed = _param(params, "seed", int, 109)
    system, lam, phi, C, eta, p = build_sum_family_instance(seed)
    cert = sum_family_certificate(system, lam, phi, C, eta, p, mode="exact")
    exact_modes = all(
        r.mode == "exact" for r in cert.inner.conditions.values()
    ) if cert.inner is not None else False
    holds = (
        all(cert.hypotheses.values())
        and cert.verdict == "true"
        and exact_modes
        and cert.deviation.exact
    )
    return CheckResult(
        name="sum-family-certificate-end-to-end",
        holds=holds,
        lhs=0.0 if holds else 1.0,
        rhs=0.0,
        mode="exact",
        details={
            "seed": seed,
            "eta": eta,
            "hypotheses": dict(cert.hypotheses),
            "verdict": cert.verdict,
            "constants": dict(cert.constants),
        },
    )


def build_near_majorant_instance(seed: int = 110):
    """Deterministic end-to-end instance for the near-majorant certificate.

    Returns (system, nu, psi, C, eta, p, delta).  psi is a perturbed family
    rescaled under the sup bound; nu adds a nonnegative bump whose size is
    bisected against the certificate's difference cap (which depends on nu
    through the largest box norm, hence the bisection).
    """
    C = 1.0
    p = INF
    ell = ell_pseudorandom(C, p)
    n = 3
    system, raw_psi, _ = generate(
        GenSpec(n=n, r=n - 1, atoms=2, kind="perturbed_ones", seed=seed, epsilon=0.004)
    )
    psi = {}
    for e in system.edges:
        sup = float(np.max(raw_psi[e].values))
        psi[e] = edge_function(system, e, raw_psi[e].values / sup)
    dev = linear_forms_deviation(system, psi, ell)
    # strictly inside the cap so the derived eta stays below one
    eta = min(0.9 / (n * ell), max(dev.eta * 1.5, dev.eta + 0.02))
    if dev.eta > eta:
        raise BadSpec(
            f"perturbation too large: deviation {dev.eta} exceeds usable eta {eta}"
        )
    rng = _philox(seed + 1)
    bumps = {
        e: rng.uniform(0.0, 1.0, size=system.edge_shape(e)) for e in system.edges
    }

    def family_at(delta: float):
        return {
            e: edge_function(system, e, psi[e].values + delta * bumps[e])
            for e in system.edges
        }

    def feasible(delta: float) -> bool:
        nu = family_at(delta)
        big_m = max(lp_box_norm(system, e, nu[e], ell, p) for e in system.edges)
        bound = eta * math.exp(-(n - 1) * ell * math.log(C * big_m))
        rows = [(system, e, nu[e].values - psi[e].values) for e in system.edges]
        worst = max(res.value for res in _box_norms(rows, ell))
        return worst <= 0.9 * bound

    lo, hi = 0.0, 0.5
    if feasible(hi):
        delta = hi
    else:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        delta = lo
    if delta <= 0.0:
        raise BadSpec("bisection collapsed to zero bump")
    return system, family_at(delta), psi, C, eta, p, delta


def check_near_majorant(params: dict) -> CheckResult:
    """End-to-end near-majorant certificate plus the four proof oracles."""
    seed = _param(params, "seed", int, 110)
    system, nu, psi, C, eta, p, delta = build_near_majorant_instance(seed)
    cert = near_majorant_certificate(system, nu, psi, C, eta, p, mode="exact")
    n = system.n
    ell = int(cert.constants["ell"])
    holds = all(cert.hypotheses.values()) and cert.verdict == "true"
    oracle_worst = {"gap": -math.inf, "shifted_gap": -math.inf}
    for e in system.edges:
        res = majorant_gap_correlation_sup(system, e, nu, psi, ell)
        oracle_worst["gap"] = max(oracle_worst["gap"], res["value"])
        for ke in system.edges:
            if ke == e:
                continue
            for w in range(ell):
                res2 = shifted_majorant_gap_correlation_sup(system, e, ke, w, nu, psi, ell)
                oracle_worst["shifted_gap"] = max(
                    oracle_worst["shifted_gap"], res2["value"]
                )
    holds = (
        holds
        and oracle_worst["gap"] <= eta + TOL
        and oracle_worst["shifted_gap"] <= eta + TOL
    )
    # companion oracles on the sum-family instance with internal constants
    system2, lam, phi, C2, eta2, p2 = build_sum_family_instance(
        _param(params, "companion_seed", int, 109)
    )
    ell2 = ell_pseudorandom(C2, p2)
    root = 1.0 / (ell2 ** (system2.n - 1))
    eta_bar = math.exp(system2.n * ell2 * math.log(2.0 * C2)) * math.exp(
        root * math.log(eta2)
    )
    c_bar = math.exp(system2.n * ell2 * math.log(2.0 * C2))
    worst_corr = -math.inf
    worst_mass = -math.inf
    for e in system2.edges:
        worst_corr = max(
            worst_corr, centered_family_correlation_sup(system2, e, lam, phi, ell2)["value"]
        )
        worst_mass = max(
            worst_mass, bounded_slot_mass_sup(system2, e, lam, phi, ell2)["value"]
        )
    holds = holds and worst_corr <= eta_bar + TOL and worst_mass <= c_bar + TOL
    return CheckResult(
        name="near-majorant-certificate-end-to-end",
        holds=holds,
        lhs=0.0 if holds else 1.0,
        rhs=0.0,
        mode="exact",
        details={
            "seed": seed,
            "eta": eta,
            "delta": delta,
            "verdict": cert.verdict,
            "hypotheses": dict(cert.hypotheses),
            "oracle_gap_sup": oracle_worst["gap"],
            "oracle_shifted_gap_sup": oracle_worst["shifted_gap"],
            "oracle_centered_sup": worst_corr,
            "oracle_centered_bound": eta_bar,
            "oracle_mass_sup": worst_mass,
            "oracle_mass_bound": c_bar,
        },
    )


def check_generators(params: dict) -> CheckResult:
    """Generator invariants: determinism, recentring, closed-form norms."""
    seed = _param(params, "seed", int, 112)
    worst = 0.0
    details = {}
    spec = GenSpec(n=3, r=2, atoms=3, kind="perturbed_ones", seed=seed, epsilon=0.1)
    sys_a, fam_a, _ = generate(spec)
    sys_b, fam_b, _ = generate(spec)
    identical = all(
        np.array_equal(fam_a[e].values, fam_b[e].values) for e in sys_a.edges
    )
    for e in sys_a.edges:
        mean = expectation(sys_a, e, fam_a[e])
        worst = max(worst, abs(mean - 1.0) - 1e-14)
        worst = max(worst, -float(np.min(fam_a[e].values)))
    spec_pw = GenSpec(n=3, r=2, atoms=4, kind="product_weights", seed=seed + 1)
    sys_p, fam_p, meta = generate(spec_pw)
    for ell in (2, 4):
        for e in sys_p.edges:
            predicted = predicted_product_box_norm(
                sys_p, meta["vertex_weights"], e, ell
            )
            computed = box_norm(sys_p, e, fam_p[e], ell).value
            worst = max(worst, abs(predicted - computed) / max(1.0, predicted) - TOL)
    zero_eps = GenSpec(n=3, r=2, atoms=3, kind="perturbed_ones", seed=seed, epsilon=0.0)
    _, fam_z, _ = generate(zero_eps)
    ones_match = all(np.array_equal(f.values, np.ones_like(f.values)) for f in fam_z.values())
    details["bit_identical"] = identical
    details["zero_epsilon_is_ones"] = ones_match
    holds = identical and ones_match and worst <= 0.0
    return CheckResult(
        name="generator-invariants",
        holds=holds,
        lhs=worst,
        rhs=0.0,
        mode="exact",
        details=details,
    )


def check_determinism(params: dict) -> CheckResult:
    """Representative computations rerun twice must emit identical bytes."""
    seed = _param(params, "seed", int, 111)

    def snapshot() -> str:
        out = {}
        rng = _philox(seed)
        system, e = _random_system(rng, 3, 3)
        f = edge_function(system, e, _signed_values(rng, system.edge_shape(e)))
        out["box"] = box_norm(system, e, f, 2).value
        out["lp_box"] = lp_box_norm(system, e, f, 2, Exponent(4.0))
        sys2, fam, _ = generate(GenSpec(n=3, r=2, atoms=2, kind="random_signed", seed=seed))
        first = sys2.edges[0]
        out["cut"] = cut_norm(sys2, first, fam[first], mode="exact").to_dict()
        nn = {
            e2: edge_function(sys2, e2, np.abs(fam[e2].values)) for e2 in sys2.edges
        }
        cert = certify_pseudorandom(
            sys2, nn, params=PseudoParams(4.0, 0.9, Exponent(2.0)), mode="exact"
        )
        out["pseudo"] = cert.to_dict()
        out["instance_digest"] = digest_text(emit_json(instance_to_dict(sys2, fam)))
        return emit_json(out)

    a, b = snapshot(), snapshot()
    return CheckResult(
        name="repeat-run-determinism",
        holds=a == b,
        lhs=0.0 if a == b else 1.0,
        rhs=0.0,
        mode="exact",
        details={"seed": seed, "bytes": len(a)},
    )


# ---------------------------------------------------------------------------
# Instance-file-driven checks


def _verdict_to_holds(verdict: str) -> bool | None:
    return {"true": True, "false": False}.get(verdict)


def check_pseudorandom_file(params: dict) -> CheckResult:
    path = _param(params, "instance", str)
    psi_path = _param(params, "psi", str) if params.get("psi") else None
    pp = PseudoParams(
        _param(params, "C", float),
        _param(params, "eta", float),
        Exponent.parse(_param(params, "p", str)),
        ell=params.get("ell"),
    )
    restarts = _param(params, "budget", int, 32)
    seed = _param(params, "seed", int, 0)
    system, functions, _, digest = load_instance(path)
    psi = None
    psi_digest = None
    if psi_path is not None:
        sys2, psi, _, psi_digest = load_instance(psi_path)
        check_same_system(system, sys2, "the psi instance")
    cert = certify_pseudorandom(
        system,
        functions,
        psi,
        pp,
        mode=params.get("mode", "auto"),
        restarts=restarts,
        seed=seed,
    )
    worst = max(r.worst_value for r in cert.conditions.values())
    return CheckResult(
        name="pseudorandom-instance",
        holds=_verdict_to_holds(cert.verdict),
        lhs=worst,
        rhs=pp.eta,
        mode="exact"
        if all(r.mode == "exact" for r in cert.conditions.values())
        else "heuristic",
        details={
            "instance_digest": digest,
            "psi_digest": psi_digest,
            "report": cert.to_dict(),
        },
    )


def check_vonneumann_file(params: dict) -> CheckResult:
    path = _param(params, "instance", str)
    C, p = _param(params, "C", float), Exponent.parse(_param(params, "p", str))
    system, functions, _, digest = load_instance(path)
    cert = von_neumann_certificate(system, functions, C=C, p=p)
    return CheckResult(
        name="vonneumann-instance",
        holds=bool(cert.holds and cert.hyp_box_lp_ok and cert.hyp_subset_lp_ok),
        lhs=cert.lhs,
        rhs=cert.rhs,
        mode="exact",
        details={"instance_digest": digest, "report": cert.to_dict()},
    )


def check_counting_file(params: dict) -> CheckResult:
    path, path2 = _param(params, "instance", str), _param(params, "instance2", str)
    C, p = _param(params, "C", float), Exponent.parse(_param(params, "p", str))
    system, functions, _, digest = load_instance(path)
    sys2, functions2, _, digest2 = load_instance(path2)
    check_same_system(system, sys2, "the second instance")
    cert = counting_lemma_certificate(system, functions, functions2, C=C, p=p)
    return CheckResult(
        name="counting-instance",
        holds=bool(cert.holds and cert.hyp_box_lp_ok and cert.hyp_pair_lp_ok),
        lhs=cert.lhs,
        rhs=cert.rhs,
        mode="exact",
        details={"instance_digests": [digest, digest2], "report": cert.to_dict()},
    )


CHECKS = {
    "box_oracle": check_box_oracle,
    "gcs": check_gcs,
    "norm_axioms": check_norm_axioms,
    "bilinear": check_bilinear,
    "cutnorm": check_cutnorm,
    "vonneumann": check_vonneumann,
    "counting": check_counting,
    "ell_rules": check_ell_rules,
    "certifier_examples": check_certifier_examples,
    "sum_family": check_sum_family,
    "near_majorant": check_near_majorant,
    "generators": check_generators,
    "determinism": check_determinism,
    "pseudorandom_instance": check_pseudorandom_file,
    "vonneumann_instance": check_vonneumann_file,
    "counting_instance": check_counting_file,
}


def default_suite() -> list[dict]:
    """The bundled battery: one item per acceptance property."""
    return [
        {"name": "box-oracle", "check": "box_oracle", "params": {"count": 500, "seed": 101}},
        {"name": "gcs", "check": "gcs", "params": {"count": 500, "seed": 102}},
        {"name": "norm-axioms", "check": "norm_axioms", "params": {"count": 500, "seed": 103}},
        {"name": "bilinear", "check": "bilinear", "params": {"count": 200, "seed": 104}},
        {"name": "cut-norm", "check": "cutnorm", "params": {"seed": 105}},
        {"name": "von-neumann", "check": "vonneumann", "params": {"count": 100, "seed": 106}},
        {"name": "counting", "check": "counting", "params": {"count": 100, "seed": 107}},
        {"name": "ell-rules", "check": "ell_rules", "params": {}},
        {"name": "certifier-examples", "check": "certifier_examples", "params": {"seed": 108}},
        {"name": "sum-family-end-to-end", "check": "sum_family", "params": {"seed": 109}},
        {"name": "near-majorant-end-to-end", "check": "near_majorant", "params": {"seed": 110}},
        {"name": "generators", "check": "generators", "params": {"seed": 112}},
        {"name": "determinism", "check": "determinism", "params": {"seed": 111}},
    ]


def resolve_threads(threads: int | None = None) -> int:
    """Processes that run suite items, this one included.

    `threads` if given, else BOXLAB_THREADS, else the CPUs this process
    may run on, at most 8.  Workers are forked, so on a platform without
    `fork` it is 1.
    """
    if threads is not None:
        count = max(1, int(threads))
    elif os.environ.get("BOXLAB_THREADS"):
        env = os.environ["BOXLAB_THREADS"]
        try:
            count = max(1, int(env))
        except ValueError as exc:
            raise BadSpec(f"BOXLAB_THREADS must be an integer, got {env!r}") from exc
    elif hasattr(os, "sched_getaffinity"):
        count = max(1, min(8, len(os.sched_getaffinity(0))))
    else:
        count = max(1, min(8, os.cpu_count() or 1))
    if count > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return count


def run_item(item: dict, base_dir: str = ".") -> CheckResult:
    kind = item.get("check")
    if kind not in CHECKS:
        raise MalformedProblem(f"unknown check kind {kind!r}; know {sorted(CHECKS)}")
    params = {} if item.get("params") is None else item["params"]
    if not isinstance(params, dict):
        raise MalformedProblem(f"'params' of a {kind} item must be an object, got {params!r}")
    params = dict(params)
    for key in ("instance", "instance2", "psi"):
        if key in params and isinstance(params[key], str):
            if not os.path.isabs(params[key]):
                params[key] = os.path.join(base_dir, params[key])
    t0 = time.perf_counter()
    result = CHECKS[kind](params)
    result.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    result.name = item.get("name", result.name)
    return result


def _run_item_in_worker(item: dict, base_dir: str) -> CheckResult:
    """`run_item` in a worker process, sent by a name of its own.

    Code that rebinds `run_item` in this module (a tracer, say) leaves this
    name alone, so the job stays picklable.
    """
    return run_item(item, base_dir)


def _run_lanes(items: list[dict], base_dir: str, workers: int) -> list[CheckResult]:
    """Run the items on `workers` lanes; results in item order.

    Lane 0 is the calling thread and runs items here.  Each of the other
    lanes is a thread that sends one item at a time to a forked worker
    process and waits for its result.  Every lane takes the next item
    index from one iterator, so items start in order.  After an item
    fails no further item starts, and once the running ones end the
    failure of the lowest-indexed failed item is raised: every item before
    it has started, so it is the failure the serial loop raises.

    A fork-context pool forks all its workers at its first submit, in the
    submitting thread.  The calling thread makes that submit, with the
    first item, before any lane thread starts: a child forked while
    another thread runs can inherit a lock that thread holds, and hang.
    A forked worker starts with everything this process has imported and
    set, module constants included.
    """
    import multiprocessing
    import pickle
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    order = iter(range(len(items)))
    lock = threading.Lock()
    sent: dict = {}

    def take() -> int | None:
        with lock:
            return None if failures else next(order, None)

    def lane(run, k: int | None = None) -> None:
        """Run item k, if given, then the next items in order until none is left."""
        if k is None:
            k = take()
        while k is not None:
            try:
                results[k] = run(k)
            except BaseException as exc:
                with lock:
                    failures[k] = exc
                if not isinstance(exc, Exception):
                    raise  # an interrupt: the other lanes stop, and it propagates
            k = take()

    def here(k: int) -> CheckResult:
        return run_item(items[k], base_dir)

    def send(k: int):
        job = (_run_item_in_worker, items[k], base_dir)
        try:
            pickle.dumps(job)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise WorkerFailure(f"suite item {k} cannot be sent to a worker: {exc}") from exc
        return procs.submit(*job)

    def remote(k: int) -> CheckResult:
        try:
            return (sent.pop(k) if k in sent else send(k)).result()
        except BrokenProcessPool as exc:
            raise WorkerFailure(f"a worker process died while running suite item {k}") from exc

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers - 1, mp_context=fork) as procs:
        first = take()
        try:
            sent[first] = send(first)
        except WorkerFailure as exc:
            failures[first] = exc
            first = None
        with ThreadPoolExecutor(max_workers=workers - 1) as lanes:
            dispatch = [lanes.submit(lane, remote, first)]
            dispatch += [lanes.submit(lane, remote) for _ in range(workers - 2)]
            lane(here)
            for future in dispatch:
                future.result()
    if failures:
        raise failures[min(failures)]
    return results


def run_suite(
    items: list[dict],
    threads: int | None = None,
    base_dir: str = ".",
    command: list[str] | None = None,
    stable: bool = False,
) -> dict:
    """Run all items, on worker processes when asked, and assemble the report."""
    workers = min(resolve_threads(threads), len(items))
    t0 = time.perf_counter()
    if workers <= 1:
        results = [run_item(item, base_dir) for item in items]
    else:
        results = _run_lanes(items, base_dir, workers)
    total_ms = (time.perf_counter() - t0) * 1000.0
    report = {
        "command": list(command or []),
        "version": __version__,
        "checks": [r.to_dict(stable=stable) for r in results],
        "elapsed_ms": 0.0 if stable else total_ms,
    }
    return report


def exit_code(report: dict) -> int:
    states = [c["holds"] for c in report["checks"]]
    if any(s is False for s in states):
        return 1
    if any(s == "unknown" for s in states):
        return 2
    return 0


def load_suite_file(path: str) -> list[dict]:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedProblem(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(data, dict):
        items = data.get("items")
    else:
        items = data
    if not isinstance(items, list) or not items:
        raise MalformedProblem(f"{path}: suite file must hold a nonempty 'items' list")
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "check" not in item:
            raise MalformedProblem(f"{path}: item {k} must be an object with 'check'")
    return items
