"""The three workloads: instances, reference computations and checks.

`build_<workload>(workdir, seed)` is the set-up: it writes the instances
the operations read, makes every reference computation the checks need
and returns the operations of one pass.  References come from code that
runs apart from the route under test: the plain-loop oracles of
`tests/oracles.py`, closed forms, and simple properties the methods must
have.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

import oracles
from boxlab import GenSpec, generate, make_system, predicted_product_box_norm, save_instance
from boxlab.pseudo import PseudoParams, check_C2b
from boxlab.spaces import Exponent, edge_function
from boxlab.suite import (
    build_near_majorant_instance,
    build_sum_family_instance,
    default_suite,
)
from harness import Op, call_cli, exit_if_wrong, rel_close

REL = 1e-9
P_HUGE = 2**20

# Named faults of the program.  Each operation tagged with one fails today
# and is counted under that fault until a change mends it.
FAULTS = {
    "F1": "box_norm overflows: norm of a constant 1e20 tensor (3-edge, 2 atoms, "
    "ell=4) should be 1e20; the CLI exits 3 with 'cannot serialize non-finite number'",
    "F2": "box_norm underflows: norm of a constant 1e-20 tensor (3-edge, 2 atoms, "
    "ell=4) should be 1e-20 but is 0.0, which breaks definiteness",
    "F3": "C2b falls back to the heuristic: `pseudorandom check --mode auto` on "
    "all-ones (n=3, r=2, 3 atoms) should be true but is unknown (2^36 combos > 2^24 cap)",
}

# Plain-loop oracle budget: assignment tuples times replica patterns.
BRUTE_BUDGET = 120_000


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# norms


def norms_ladder():
    """(kind, r, atoms, ell) rungs; the 3-edge, 4-atom, ell=4 rung once."""
    rungs = []
    for kind in ("random_signed", "product_weights"):
        for r in (2, 3):
            for atoms in (2, 3, 4):
                for ell in (2, 4):
                    if (r, atoms, ell) == (3, 4, 4) and kind != "product_weights":
                        continue
                    rungs.append((kind, r, atoms, ell))
    return rungs


def _brute_cost(k: int, atoms: int, ell: int) -> int:
    return atoms ** (k * ell) * ell**k


def _norm_checks(tag, values, k, ell, ref_power, ref_norm, ref_p2):
    """Checks for the six operations of one rung (see README)."""
    big_n = ell**k
    m = float(np.max(np.abs(values)))
    scale = m**big_n

    def power_problem(power, what):
        if ref_power is not None and not rel_close(power, ref_power, REL, scale):
            return f"{what} power {power} differs from plain-loop {ref_power}"
        return None

    def value_problem(value, what):
        if ref_norm is not None and not rel_close(value, ref_norm, REL):
            return f"{what} norm {value} differs from closed form {ref_norm}"
        return None

    def recursive(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        return power_problem(res["power_value"], "recursive") or value_problem(
            res["value"], "recursive"
        )

    def direct(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        rec = outputs[f"{tag} recursive"]
        if not rel_close(res["power_value"], rec["power_value"], REL, scale):
            return (
                f"direct power {res['power_value']} and recursive power "
                f"{rec['power_value']} differ by more than 1e-9 of {scale}"
            )
        return power_problem(res["power_value"], "direct") or value_problem(
            res["value"], "direct"
        )

    def p2(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        v = json.loads(out)["value"]
        if not 0.0 <= v <= m * (1 + REL):
            return f"p=2 norm {v} outside [0, max|f| = {m}]"
        if ref_p2 is not None and not rel_close(v, ref_p2, REL):
            return f"p=2 norm {v} differs from reference {ref_p2}"
        return None

    def p_huge(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        v = json.loads(out)["value"]
        if not 0.9999 * m <= v <= m * (1 + REL):
            return f"p=2^20 norm {v} outside [0.9999, 1] * max|f| = {m}"
        return None

    def p_inf(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        v = json.loads(out)["value"]
        if v != m:
            return f"p=inf norm {v} is not max|f| = {m}"
        return None

    def gcs(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        if res["holds"] is not True:
            return "gcs bound reported as not holding"
        if not rel_close(res["lhs"], res["rhs"], REL):
            return f"gcs with f at every pattern is not an equality: {res['lhs']} vs {res['rhs']}"
        rec = outputs[f"{tag} recursive"]
        if not rel_close(res["details"]["form_value"], rec["power_value"], REL, scale):
            return "gcs form value differs from the box power"
        return None

    return recursive, direct, p2, p_huge, p_inf, gcs


def _constant_op(workdir, name, c, fault):
    system = make_system([[0.5, 0.5]] * 3, [(0, 1, 2)])
    f = edge_function(system, (0, 1, 2), np.full((2, 2, 2), c))
    path = os.path.join(workdir, f"{name}.json")
    save_instance(path, system, {(0, 1, 2): f})

    def check(code, out, err, outputs):
        if code != 0:
            found = re.search(r'"message": (".*")', err)
            return f"exit code {code}: {json.loads(found.group(1)) if found else err.strip()}"
        v = json.loads(out)["value"]
        if not rel_close(v, c, REL):
            return f"norm of the constant {c} is {v}"
        return None

    argv = ["norm", "--instance", path, "--edge", "0", "--ell", "4"]
    return Op(f"norm {name}", argv, check, fault)


def build_norms(workdir: str, seed: int) -> list[Op]:
    ops = []
    for i, (kind, r, atoms, ell) in enumerate(norms_ladder()):
        n = r + 1
        spec = GenSpec(n=n, r=r, atoms=atoms, kind=kind, seed=seed * 1000 + i)
        system, functions, meta = generate(spec)
        path = os.path.join(workdir, f"norms-{i}.json")
        save_instance(path, system, functions, meta)
        edge_index = (seed + i) % len(system.edges)
        e = system.edges[edge_index]
        values = functions[e].values
        ref_power = ref_norm = ref_p2 = None
        if _brute_cost(r, atoms, ell) <= BRUTE_BUDGET:
            ref_power = oracles.box_power_brute(system, e, values, ell)
            m = float(np.max(np.abs(values)))
            sq = oracles.box_power_brute(system, e, (np.abs(values) / m) ** 2, ell)
            ref_p2 = m * sq ** (1.0 / (2 * ell**r))
        if kind == "product_weights":
            u = meta["vertex_weights"]
            ref_norm = predicted_product_box_norm(system, u, e, ell)
            u2 = [[x * x for x in row] for row in u]
            ref_p2 = math.sqrt(predicted_product_box_norm(system, u2, e, ell))
        tag = f"{kind}-r{r}-a{atoms}-l{ell}"
        checks = _norm_checks(tag, values, r, ell, ref_power, ref_norm, ref_p2)
        base = ["--instance", path, "--edge", str(edge_index), "--ell", str(ell)]
        variants = [
            ("recursive", ["norm", *base, "--method", "recursive"]),
            ("direct", ["norm", *base, "--method", "direct"]),
            ("p=2", ["norm", *base, "--p", "2"]),
            ("p=2^20", ["norm", *base, "--p", str(P_HUGE)]),
            ("p=inf", ["norm", *base, "--p", "inf"]),
            ("gcs", ["gcs", *base]),
        ]
        for (label, argv), check in zip(variants, checks):
            ops.append(Op(f"{tag} {label}", argv, check))
    ops.append(_constant_op(workdir, "const-1e20", 1e20, "F1"))
    ops.append(_constant_op(workdir, "const-1e-20", 1e-20, "F2"))
    return ops


# ---------------------------------------------------------------------------
# certify


def _merged(conds) -> str:
    vs = [c["verdict"] for c in conds.values()]
    if "false" in vs:
        return "false"
    if "unknown" in vs:
        return "unknown"
    return "true"


def _pseudo_argv(path, C, eta, p, mode, psi=None):
    argv = ["pseudorandom", "check", "--instance", path, "--C", _fmt(C), "--eta", _fmt(eta)]
    argv += ["--p", p, "--mode", mode]
    if psi is not None:
        argv += ["--psi", psi]
    return argv


def _save_generated(workdir, name, spec):
    system, functions, meta = generate(spec)
    path = os.path.join(workdir, f"{name}.json")
    save_instance(path, system, functions, meta)
    return path, system, functions


def _check_ops(workdir, seed) -> list[Op]:
    """`pseudorandom check --mode exact` on four 2-atom families, n=3, r=2."""
    C, eta, p = 2.0, 0.5, "2"
    ones_path, system, ones = _save_generated(
        workdir, "ones", GenSpec(n=3, r=2, atoms=2, kind="ones")
    )
    zero_edge = system.edges[seed % len(system.edges)]
    zeroed = dict(ones)
    zeroed[zero_edge] = edge_function(system, zero_edge, np.zeros((2, 2)))
    zeroed_path = os.path.join(workdir, "ones-zeroed.json")
    save_instance(zeroed_path, system, zeroed)

    def ones_check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        conds = res["conditions"]
        if res["verdict"] != "true":
            return f"all-ones verdict {res['verdict']}, expected true"
        if conds["C2a"]["worst_value"] != 0.0 or conds["C2b"]["worst_value"] != 0.0:
            return "all-ones C2a/C2b sup is not exactly 0"
        return None

    def zeroed_check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        c1 = res["conditions"]["C1"]
        if res["verdict"] != "false" or c1["verdict"] != "false":
            return "a zeroed edge does not give verdict false from C1"
        if list(zero_edge) not in c1["witness"]["subset"]:
            return f"C1 witness {c1['witness']} misses the zeroed edge {zero_edge}"
        return None

    ops = [
        Op("check ones", _pseudo_argv(ones_path, C, eta, p, "exact"), ones_check),
        Op("check ones-zeroed", _pseudo_argv(zeroed_path, C, eta, p, "exact"), zeroed_check),
    ]
    params = PseudoParams(C, eta, Exponent.parse(p))
    for name, spec in (
        ("perturbed", GenSpec(n=3, r=2, atoms=2, kind="perturbed_ones", seed=seed, epsilon=0.2)),
        ("random-nonneg", GenSpec(n=3, r=2, atoms=2, kind="random_nonneg", seed=seed, scale=1.5)),
    ):
        path, system, nu = _save_generated(workdir, name, spec)
        heuristic = check_C2b(system, nu, ones, params, mode="heuristic").worst_value

        def check(code, out, err, outputs, heuristic=heuristic):
            bad = exit_if_wrong(code)
            if bad:
                return bad
            res = json.loads(out)
            conds = res["conditions"]
            if any(c["mode"] != "exact" for c in conds.values()):
                return "an exact check reported a heuristic condition"
            if res["verdict"] != _merged(conds):
                return "verdict is not the merge of the condition verdicts"
            if conds["C2b"]["worst_value"] < heuristic * (1 - REL):
                return (
                    f"exact C2b sup {conds['C2b']['worst_value']} is below the "
                    f"heuristic sup {heuristic}"
                )
            return None

        ops.append(Op(f"check {name}", _pseudo_argv(path, C, eta, p, "exact", ones_path), check))
    return ops


def _theorem_ops(workdir, seed) -> list[Op]:
    system, lam, phi, C, eta, p = build_sum_family_instance(seed)
    lam_path = os.path.join(workdir, "sum-lam.json")
    phi_path = os.path.join(workdir, "sum-phi.json")
    save_instance(lam_path, system, lam)
    save_instance(phi_path, system, phi)
    system, nu, psi, C2, eta2, p2, _ = build_near_majorant_instance(seed)
    nu_path = os.path.join(workdir, "nm-nu.json")
    psi_path = os.path.join(workdir, "nm-psi.json")
    save_instance(nu_path, system, nu)
    save_instance(psi_path, system, psi)

    def check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        if res["verdict"] != "true" or not all(res["hypotheses"].values()):
            return f"certificate verdict {res['verdict']}, hypotheses {res['hypotheses']}"
        return None

    def argv(kind, inst, psi_file, C, eta, p):
        return [
            "pseudorandom", kind, "--instance", inst, "--psi", psi_file,
            "--C", _fmt(C), "--eta", _fmt(eta), "--p", str(p.as_json()), "--mode", "exact",
        ]

    return [
        Op("thm42 sum-family", argv("thm42", lam_path, phi_path, C, eta, p), check),
        Op("thm43 near-majorant", argv("thm43", nu_path, psi_path, C2, eta2, p2), check),
    ]


def _cutnorm_ops(workdir, seed) -> list[Op]:
    ops = []
    shapes = [(3, 2, 2), (3, 2, 3), (3, 2, 4), (4, 2, 2), (4, 2, 3), (4, 2, 4), (5, 2, 2),
              (5, 2, 3), (3, 3, 2), (4, 3, 2)]
    for i, (n, r, atoms) in enumerate(shapes):
        spec = GenSpec(n=n, r=r, atoms=atoms, kind="random_signed", seed=seed * 100 + i)
        path, system, functions = _save_generated(workdir, f"cut-{i}", spec)
        for k, e in enumerate(system.edges):
            ref = oracles.cut_norm_brute(system, e, functions[e].values)

            def check(code, out, err, outputs, ref=ref):
                bad = exit_if_wrong(code)
                if bad:
                    return bad
                res = json.loads(out)
                if res["mode"] != "exact" or not rel_close(res["value"], ref, REL):
                    return f"exact cut norm {res['value']} differs from plain-loop {ref}"
                return None

            argv = ["cutnorm", "--instance", path, "--edge", str(k), "--mode", "exact"]
            ops.append(Op(f"cutnorm n{n}-r{r}-a{atoms} e{k}", argv, check))
    return ops


def _counting_checks(lam_f: float, lam_g: float):
    def vn_check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        if all(res["hypotheses"].values()) and not res["holds"]:
            return "von Neumann bound fails although its hypotheses hold"
        if not rel_close(res["lhs"], abs(lam_f), REL, max(1.0, abs(lam_f))):
            return f"counting form {res['lhs']} differs from plain-loop {lam_f}"
        return None

    def count_check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        if all(res["hypotheses"].values()) and not res["holds"]:
            return "counting bound fails although its hypotheses hold"
        want = abs(lam_f - lam_g)
        if not rel_close(res["lhs"], want, REL, max(1.0, want)):
            return f"form difference {res['lhs']} differs from plain-loop {want}"
        return None

    return vn_check, count_check


def _counting_ops(workdir, seed) -> list[Op]:
    """vonneumann and counting on 2-uniform families bounded by one."""
    ops = []
    for i, (n, atoms) in enumerate([(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]):
        specs = [
            GenSpec(n=n, r=2, atoms=atoms, kind="random_signed", seed=seed * 100 + 2 * i + j)
            for j in (0, 1)
        ]
        (path_f, system, f), (path_g, _, g) = (
            _save_generated(workdir, f"count-{i}-{j}", s) for j, s in enumerate(specs)
        )
        vn_check, count_check = _counting_checks(
            oracles.lambda_form_brute(system, f), oracles.lambda_form_brute(system, g)
        )
        for p in ("2", "3", "4", "inf"):
            tag = f"n{n}-a{atoms} p={p}"
            ops.append(Op(f"vonneumann {tag}",
                          ["vonneumann", "--instance", path_f, "--C", "1", "--p", p], vn_check))
            ops.append(Op(f"counting {tag}",
                          ["counting", "--instance", path_f, "--instance2", path_g,
                           "--C", "1", "--p", p], count_check))
    return ops


def _fallback_op(workdir) -> Op:
    path, _, _ = _save_generated(workdir, "ones-3atoms", GenSpec(n=3, r=2, atoms=3, kind="ones"))

    def check(code, out, err, outputs):
        bad = exit_if_wrong(code)
        if bad:
            return bad
        res = json.loads(out)
        if res["verdict"] != "true":
            c2b = res["conditions"]["C2b"]
            return f"all-ones verdict {res['verdict']} (C2b mode {c2b['mode']}), expected true"
        return None

    return Op("check ones-3atoms auto", _pseudo_argv(path, 1.0, 0.5, "2", "auto"), check, "F3")


def build_certify(workdir: str, seed: int) -> list[Op]:
    return (
        _check_ops(workdir, seed)
        + _theorem_ops(workdir, seed)
        + _cutnorm_ops(workdir, seed)
        + _counting_ops(workdir, seed)
        + [_fallback_op(workdir)]
    )


# ---------------------------------------------------------------------------
# suite


# The bundled battery's box-oracle item checks 500 random instances and takes
# two thirds of a battery run: a pass would take 12-17 s.  Its first 144
# instances hold one of its two 16.8M-cell ones (number 143), so the scaled
# battery keeps the bundled one's shape and peak memory at 7-10 s a pass.
SUITE_BOX_ORACLE_COUNT = 144


def build_suite(workdir: str, seed: int) -> list[Op]:
    """The bundled battery at the CPU count, box-oracle scaled down.

    The battery is written to a suite file: every item of `default_suite()`
    with its own seed and parameters, except that box-oracle checks
    `SUITE_BOX_ORACLE_COUNT` instances.  `--seed` does not change it.  The
    reference is a `--threads 1` report on the same file, made anew by the
    first check of the run (after the timed pass, so not part of set-up);
    every timed report must match it byte for byte.
    """
    items = default_suite()
    for item in items:
        if item["check"] == "box_oracle":
            item["params"]["count"] = SUITE_BOX_ORACLE_COUNT
    path = os.path.join(workdir, "battery.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"items": items}, fh, indent=1)
    threads = os.cpu_count() or 1
    refs: list = []

    def check(code, out, err, outputs):
        if not refs:
            refs.append(call_cli(["suite", "--file", path, "--stable", "--threads", "1"]))
        ref = refs[0]
        if ref.code != 0:
            return f"the --threads 1 reference exited {ref.code}" + (
                f", raising {ref.raised}" if ref.raised else "")
        bad = exit_if_wrong(code)
        if bad:
            return bad
        if out != ref.out:
            return f"--threads {threads} report differs from the --threads 1 report"
        return None

    argv = ["suite", "--file", path, "--stable", "--threads", str(threads)]
    return [Op(f"suite --threads {threads}", argv, check)]


BUILDERS = {"norms": build_norms, "certify": build_certify, "suite": build_suite}

# How each workload's calls are put on the speed probe's scale (see
# perfbench/speed.py).  "call": each call by the probes just before and
# after it; these workloads run one thread, as the probe does.  "run":
# the fastest calls by the median probe of the whole run.  A suite pass
# runs the thread pool on every CPU for several seconds, and the two
# probes around one pass follow it too loosely (its spread doubled).
SCALING = {"norms": "call", "certify": "call", "suite": "run"}
