"""Command-line surface.

Subcommands: norm, cutnorm, gcs, vonneumann, counting,
pseudorandom {check, thm42, thm43}, gen, suite.

All inputs and outputs are UTF-8 JSON; every numeric prints with 17
significant digits.  Exit codes: 0 success (for `suite`: all checks hold),
1 any suite check false, 2 any suite check unknown, 3 usage or runtime
error (argument parsing included, so 2 stays reserved for the suite
contract).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import __version__
from .boxnorm import _lp_box_norm_inner, box_norm, gcs_certificate, lp_box_norm
from .counting import counting_lemma_certificate, von_neumann_certificate
from .cutnorm import cut_norm
from .errors import BadSpec, BoxlabError, MalformedProblem
from .generators import GenSpec, generate
from .instances import check_same_system, emit_json, load_instance, save_instance
from .pseudo import (
    PseudoParams,
    certify_pseudorandom,
    sum_family_certificate,
    near_majorant_certificate,
)
from .spaces import Exponent, as_edge
from .suite import default_suite, exit_code, load_suite_file, run_suite


def _print(obj) -> None:
    sys.stdout.write(emit_json(obj))


def _resolve_edge(system, text: str):
    """Edge argument: comma-separated vertices ('0,2') or an index ('1')."""
    try:
        tokens = [int(tk) for tk in text.split(",")]
    except ValueError:
        raise MalformedProblem(f"edge {text!r} is not a list of integers") from None
    if len(tokens) == 1:
        k = tokens[0]
        if not 0 <= k < len(system.edges):
            raise MalformedProblem(
                f"edge index {k} out of range for {len(system.edges)} edges"
            )
        return system.edges[k]
    edge = as_edge(tokens)
    if edge not in system.edges:
        raise MalformedProblem(f"edge {list(edge)} is not in the instance")
    return edge


def _function_on(functions, edge):
    if edge not in functions:
        raise MalformedProblem(f"instance has no function on edge {list(edge)}")
    return functions[edge]


def cmd_norm(args) -> int:
    system, functions, _, digest = load_instance(args.instance)
    edge = _resolve_edge(system, args.edge)
    f = _function_on(functions, edge)
    t0 = time.perf_counter()
    if args.p is None:
        res = box_norm(system, edge, f, args.ell, method=args.method)
        out = {
            "value": res.value,
            "power_value": res.power,
            "clamped": res.clamped,
            "method": res.method,
        }
    else:
        p = Exponent.parse(args.p)
        if p.is_inf:
            value = lp_box_norm(system, edge, f, args.ell, p)
            out = {"value": value, "power_value": value, "clamped": False,
                   "method": "sup"}
        else:
            value, inner = _lp_box_norm_inner(
                system, edge, f, args.ell, p, method=args.method
            )
            out = {
                "value": value,
                "power_value": inner.power,
                "clamped": inner.clamped,
                "method": inner.method,
            }
        out["p"] = p.as_json()
    out["edge"] = list(edge)
    out["ell"] = args.ell
    out["instance_digest"] = digest
    out["elapsed_ms"] = 0.0 if args.stable else (time.perf_counter() - t0) * 1000.0
    _print(out)
    return 0


def cmd_cutnorm(args) -> int:
    system, functions, _, digest = load_instance(args.instance)
    edge = _resolve_edge(system, args.edge)
    f = _function_on(functions, edge)
    t0 = time.perf_counter()
    res = cut_norm(
        system, edge, f, mode=args.mode, restarts=args.restarts, seed=args.seed
    )
    out = res.to_dict()
    out["edge"] = list(edge)
    out["instance_digest"] = digest
    out["elapsed_ms"] = 0.0 if args.stable else (time.perf_counter() - t0) * 1000.0
    _print(out)
    return 0


def cmd_gcs(args) -> int:
    import itertools

    system, functions, _, digest = load_instance(args.instance)
    edge = _resolve_edge(system, args.edge)
    f = _function_on(functions, edge)
    family = {
        digits: f for digits in itertools.product(range(args.ell), repeat=len(edge))
    }
    cert = gcs_certificate(system, edge, family, args.ell)
    out = cert.to_dict()
    out["edge"] = list(edge)
    out["ell"] = args.ell
    out["instance_digest"] = digest
    _print(out)
    return 0


def cmd_vonneumann(args) -> int:
    system, functions, _, digest = load_instance(args.instance)
    cert = von_neumann_certificate(
        system, functions, C=args.C, p=Exponent.parse(args.p)
    )
    out = cert.to_dict()
    out["instance_digest"] = digest
    _print(out)
    return 0


def cmd_counting(args) -> int:
    system, functions, _, digest = load_instance(args.instance)
    system2, functions2, _, digest2 = load_instance(args.instance2)
    check_same_system(system, system2, "the second instance")
    cert = counting_lemma_certificate(
        system, functions, functions2, C=args.C, p=Exponent.parse(args.p)
    )
    out = cert.to_dict()
    out["instance_digests"] = [digest, digest2]
    _print(out)
    return 0


def cmd_pseudorandom(args) -> int:
    system, functions, _, digest = load_instance(args.instance)
    psi = None
    psi_digest = None
    if args.psi:
        system2, psi, _, psi_digest = load_instance(args.psi)
        check_same_system(system, system2, "the psi instance")
    p = Exponent.parse(args.p)
    if args.subcheck == "check":
        params = PseudoParams(args.C, args.eta, p, ell=args.ell)
        cert = certify_pseudorandom(
            system,
            functions,
            psi,
            params,
            mode=args.mode,
            restarts=args.budget,
            seed=args.seed,
        )
        out = cert.to_dict()
    elif args.subcheck == "thm42":
        if psi is None:
            raise BadSpec("thm42 needs --psi with the nonnegative summand family")
        cert = sum_family_certificate(
            system, functions, psi, args.C, args.eta, p,
            mode=args.mode, restarts=args.budget, seed=args.seed,
        )
        out = cert.to_dict()
    else:
        if psi is None:
            raise BadSpec("thm43 needs --psi with the comparison majorant family")
        cert = near_majorant_certificate(
            system, functions, psi, args.C, args.eta, p,
            mode=args.mode, restarts=args.budget, seed=args.seed,
        )
        out = cert.to_dict()
    out["instance_digest"] = digest
    if psi_digest is not None:
        out["psi_digest"] = psi_digest
    _print(out)
    return 0


def _parse_atoms(text: str):
    if "," in text:
        return tuple(int(tk) for tk in text.split(","))
    return int(text)


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        r=args.r,
        atoms=_parse_atoms(args.atoms),
        kind=args.kind,
        seed=args.seed,
        epsilon=args.epsilon,
        scale=args.scale,
        weight_low=args.weight_low,
        weight_high=args.weight_high,
    )
    system, functions, meta = generate(spec)
    digest = save_instance(args.out, system, functions, meta)
    _print({"path": args.out, "digest": digest, "spec": spec.to_dict()})
    return 0


def cmd_suite(args) -> int:
    if args.file:
        items = load_suite_file(args.file)
        base_dir = os.path.dirname(os.path.abspath(args.file))
    else:
        items = default_suite()
        base_dir = "."
    report = run_suite(
        items,
        threads=args.threads,
        base_dir=base_dir,
        command=list(sys.argv),
        stable=args.stable,
    )
    if args.stable:
        report["command"] = []
    text = emit_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return exit_code(report)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 3 so 0/1/2 stay reserved for suite verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def build_parser() -> _Parser:
    parser = _Parser(prog="boxlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"boxlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stable(sp):
        sp.add_argument(
            "--stable",
            action="store_true",
            help="zero the elapsed-time fields so output is bit-reproducible",
        )

    sp = sub.add_parser("norm", help="box norm or p-weighted box norm of one edge")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--edge", required=True, help="edge index or comma list like 0,1")
    sp.add_argument("--ell", required=True, type=int)
    sp.add_argument("--p", default=None, help="finite exponent or 'inf'")
    sp.add_argument("--method", choices=["recursive", "direct"], default="recursive")
    add_stable(sp)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("cutnorm", help="cut norm of one edge")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--edge", required=True)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--seed", type=int, default=0)
    add_stable(sp)
    sp.set_defaults(fn=cmd_cutnorm)

    sp = sub.add_parser(
        "gcs",
        help="product-vs-norms check with the edge's function at every replica",
    )
    sp.add_argument("--instance", required=True)
    sp.add_argument("--edge", required=True)
    sp.add_argument("--ell", required=True, type=int)
    sp.set_defaults(fn=cmd_gcs)

    sp = sub.add_parser("vonneumann", help="minimum-norm counting certificate")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--C", required=True, type=float)
    sp.add_argument("--p", required=True)
    sp.set_defaults(fn=cmd_vonneumann)

    sp = sub.add_parser("counting", help="two-family counting difference certificate")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--instance2", required=True)
    sp.add_argument("--C", required=True, type=float)
    sp.add_argument("--p", required=True)
    sp.set_defaults(fn=cmd_counting)

    sp = sub.add_parser("pseudorandom", help="pseudorandomness certificates")
    sp.add_argument("subcheck", choices=["check", "thm42", "thm43"])
    sp.add_argument("--instance", required=True)
    sp.add_argument("--psi", default=None)
    sp.add_argument("--C", required=True, type=float)
    sp.add_argument("--eta", required=True, type=float)
    sp.add_argument("--p", required=True)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--budget", type=int, default=32)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_pseudorandom)

    sp = sub.add_parser("gen", help="generate an instance file")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--r", required=True, type=int)
    sp.add_argument("--atoms", required=True, help="one size or comma list")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--weight-low", dest="weight_low", type=float, default=0.5)
    sp.add_argument("--weight-high", dest="weight_high", type=float, default=1.5)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("suite", help="run a verification suite (default battery)")
    sp.add_argument("--file", default=None, help="suite JSON; omit for the battery")
    sp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="processes that run items, this one included (default: "
        "BOXLAB_THREADS, else the usable CPUs, at most 8)",
    )
    sp.add_argument("--out", default=None, help="also write the report here")
    add_stable(sp)
    sp.set_defaults(fn=cmd_suite)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The process's one parser: building it costs 30x a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BoxlabError as exc:
        sys.stderr.write(
            emit_json({"error": type(exc).__name__, "message": str(exc)})
        )
        return 3
    except OSError as exc:
        sys.stderr.write(emit_json({"error": "OSError", "message": str(exc)}))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
