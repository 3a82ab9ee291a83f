#!/usr/bin/env python3
"""Check that two source trees give the same CLI output.

    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

For each tree, one subprocess imports that tree's `src/boxlab` and calls
`boxlab.cli.main` in-process on:
- the bundled `suite --stable` battery at `--threads 1`, `2` and `3` (on a
  2-CPU machine, 3 is more processes than CPUs);
- a second suite file at `--threads 1`: the norm-axioms, gcs, bilinear,
  von-neumann and counting items, which take their box norms in stacks, at
  seeds 7 and 2027 (norm-axioms with 137 cases, so its last batch of cases
  is short);
- every operation of the `norms` and `certify` workloads of
  `perfbench/workloads.py` (seed 1);
- `vonneumann` and `counting` on two K3 instances that no workload
  reaches: 41 atoms per vertex, whose 68,921-cell products take
  `Grid.expect`'s block path, and one whose subset norms tie;
- `vonneumann` and `counting` at p = 2, 3.5, 2**20 and inf on a K5 with
  2 atoms per vertex (10 edges: 3**10 products, whose walk is split on
  its first edges) and on a K4 with 1, 2, 1 and 3 atoms per vertex;
- `pseudorandom check --mode auto` against psi = ones on three 3-atom K3
  instances that no workload reaches.  Two come from each tree's own
  `gen` (perturbed_ones with epsilon 0.01, random_nonneg with seed 1):
  their cut norms are exact and every C2b selector choice falls back to
  the heuristic.  The third, written as plain JSON, has a zero edge, so
  the choices of one C2b sup problem split between exact and heuristic;
- `pseudorandom check` in exact and auto mode against psi = ones on two
  K3 instances whose nu is one on one edge, so C2b selector choices tie
  exactly: one with 3 atoms per vertex, one with 3, 3 and 1;
- `norm --method recursive`, `norm --p 2` and `gcs` on three one-edge
  instances that no workload reaches: a 2-edge with 9 atoms on its first
  vertex (rows long enough for numpy's pairwise sum), a 3-edge at ell=6,
  and a 3-edge with 8 atoms per vertex at ell=4, whose recursive peel is
  split into blocks (its gcs grid is above the cell cap, so gcs exits 3);
- `norm --method direct` and `gcs` on three one-edge instances whose
  replicated grids take `Grid.expect`'s block path and that no workload
  reaches: a 3-edge with atoms 2, 3 and 4 at ell=4 (331,776 cells), a
  3-edge with atoms 1, 5 and 4 at ell=4 (160,000 cells; its one-atom
  leading axes are read by no factor), a 4-edge with atoms 5, 4, 4 and 4
  at ell=2 (102,400 cells) and a 2-edge with 4 atoms per vertex at ell=6
  (4**12 cells: the lifts on two replicas of the first vertex fold into
  the trailing block, and the four groups on the other four share one
  cache);
- `cutnorm --mode heuristic` on a 2-edge with 3 atoms per vertex and on a
  3-edge with 2, at `--restarts` 1, 32 and one past a block of restarts,
  with seeds 0 and 2**64 + 1, and `pseudorandom check --mode heuristic`
  on a nonnegative 3-atom K3;
- `pseudorandom thm42` and `thm43` at `--C 1.5 --p inf` (ell = 4) on a
  2-atom perturbed_ones K3 from each tree's own `gen`, with itself as
  psi: its 48 replica factors give 2**48 patterns, past the pattern cap,
  so the linear-forms scan samples 517 patterns and is flagged degraded;
- `pseudorandom thm42` and `thm43` at `--C 1 --eta 0.5 --p inf` (ell = 2)
  on a 4-atom perturbed_ones K3 from each tree's own `gen`, with itself
  as psi: eta is too large for the inner certificate to run, so the
  command's work is the full linear-forms scan of 4,096 patterns of 4,096
  cells, whose blocks hold 16 patterns each;
- `pseudorandom check` and `thm43` (eta 1e-300) against psi = ones on a
  2-atom K3 with 1e308 on edge (0, 1), whose C2b slot bounds overflow a
  float (exit 3); thm43's box-norm hypotheses overflow on the way;
- `pseudorandom thm43` (C 1, eta 0.5, p 4) against psi = ones on a 2-atom
  K3 with 1e200 on one cell of edge (0, 1): the box norm of nu - psi
  there meets inf * 0 and reads nan (exit 3);
- `gcs` on a 3-edge at ell=6 with 2 atoms per vertex (2**18 cells) and
  with 3 (3**18 cells, above the cell cap, so it exits 3);
- `norm --method direct` and `gcs` on a 1-atom 2-edge at ell=40, whose
  replicated grid has 80 axes, past numpy's 64 (exit 3);
- `norm` and `vonneumann` on two 2-edges whose first vertex has finite
  positive raw weights that do not normalize to positive weights: [1e308,
  1e308], whose sum overflows, and [1e-320, 1e10], whose first atom
  normalizes to 0 (exit 3, `NonPositiveWeight`).

The workload builders come from the checkout that holds this script.  They
are only imported: they write their instances under a temporary directory,
at the same relative paths for both trees.  The instances that no `gen`
writes are written there as plain JSON, without either tree's code.
The exit code, stdout and stderr of every command are compared, with the
`elapsed_ms` wall times ignored, and with each tree's path and its working
directory replaced by placeholders in stderr.  So is the line number
after a `<tree>` source path, as in a numpy warning that starts
`<tree>/src/boxlab/boxnorm.py:290:`, so a line added or removed above
that line moves nothing; the warning's category, its message and the
source line it quotes are still compared.  The script exits 0 only if
nothing differs.  Against a tree that still takes thm43's box-norm
hypotheses with numpy's overflow warnings on, `pseudorandom thm43 1e308
edge` differs on stderr alone: that tree prints five RuntimeWarnings
before the same JSON error.  Against a tree that lets a nan difference
norm pass its hypothesis, `pseudorandom thm43 nan norm` differs: that
tree prints a RuntimeWarning and exits 3 on serializing the nan.  Against
a tree that loads those two weight vectors, the four `weights` commands
differ, and no other: that tree normalizes them to [0, 0] (with an
overflow warning) and to [0, 1], and exits 0.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
ELAPSED = re.compile(r'("elapsed_ms": )[-+0-9.eE]+')
SOURCE_LINE = re.compile(r"(<tree>[^\s:]*\.py:)\d+")


K3 = [[0, 1], [0, 2], [1, 2]]


def write_instance(path: str, spaces, values, edges=K3) -> None:
    """An instance file: `values[k]` is the tensor on the k-th edge (K3 by default)."""
    functions = [{"edge": e, "values": v} for e, v in zip(edges, values)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spaces": spaces, "edges": edges, "functions": functions}, fh)


def suite_file_cases() -> list:
    """Write a suite file of the stacked-norm items at seeds of their own; its command."""
    items = []
    for seed in (7, 2027):
        for name, check in (("norm-axioms", "norm_axioms"), ("gcs", "gcs"),
                            ("bilinear", "bilinear"), ("von-neumann", "vonneumann"),
                            ("counting", "counting")):
            params = {"seed": seed, **({"count": 137} if check == "norm_axioms" else {})}
            items.append({"name": f"{name}-{seed}", "check": check, "params": params})
    with open("stacked_items.json", "w", encoding="utf-8") as fh:
        json.dump({"items": items}, fh)
    argv = ["suite", "--file", "stacked_items.json", "--stable", "--threads", "1"]
    return [("suite stacked items", argv)]


def certificate_cases() -> list:
    """Write the two K3 instances to the working directory; their commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    spaces = [rng.uniform(0.5, 1.5, size=41).tolist() for _ in range(3)]
    for name in ("k3_41", "k3_41_g"):
        tensors = [rng.uniform(-2.0, 2.0, size=(41, 41)).tolist() for _ in range(3)]
        write_instance(f"{name}.json", spaces, tensors)
    # 2 off the diagonal, 1 on it: every subset of two or more edges has
    # sup norm 4, and f = g pairs tie across every split at any p.
    write_instance("tied.json", [[1.0, 1.0]] * 3, [[[1.0, 2.0], [2.0, 1.0]]] * 3)
    commands = []
    for inst, inst2, p in (("k3_41", "k3_41_g", "2"), ("tied", "tied", "2"),
                           ("tied", "tied", "inf")):
        common = ["--instance", f"{inst}.json", "--C", "2", "--p", p]
        commands.append((f"vonneumann {inst} p={p}", ["vonneumann", *common]))
        commands.append((f"counting {inst} p={p}",
                         ["counting", *common, "--instance2", f"{inst2}.json"]))
    return commands


def walk_cases() -> list:
    """Write a 2-atom K5 pair and a K4 pair with atoms 1,2,1,3; their certificate commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    for name, atoms in (("k5", (2, 2, 2, 2, 2)), ("k4_1213", (1, 2, 1, 3))):
        n = len(atoms)
        edges = [[a, b] for a in range(n) for b in range(a + 1, n)]
        spaces = [rng.uniform(0.5, 1.5, size=z).tolist() for z in atoms]
        for side in ("f", "g"):
            tensors = [rng.uniform(-1.0, 1.0, size=(atoms[a], atoms[b])).tolist()
                       for a, b in edges]
            write_instance(f"{name}_{side}.json", spaces, tensors, edges)
        for p in ("2", "3.5", "1048576", "inf"):
            common = ["--instance", f"{name}_f.json", "--C", "2", "--p", p]
            commands.append((f"vonneumann {name} p={p}", ["vonneumann", *common]))
            commands.append((f"counting {name} p={p}",
                             ["counting", *common, "--instance2", f"{name}_g.json"]))
    return commands


def mixed_auto_cases() -> list:
    """Write the zero-edge K3 and psi = ones; the `gen` and `--mode auto` commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    tensors = [rng.uniform(0.0, 2.0, size=(3, 3)).tolist() for _ in range(2)]
    write_instance("zero_edge.json", [[1.0] * 3] * 3, tensors + [[[0.0] * 3] * 3])
    write_instance("ones3_plain.json", [[1.0] * 3] * 3, [[[1.0] * 3] * 3] * 3)
    commands = []
    for name, kind in (("ones3", ["ones"]),
                       ("pert3", ["perturbed_ones", "--epsilon", "0.01"]),
                       ("nonneg3", ["random_nonneg", "--seed", "1"])):
        argv = ["gen", "--n", "3", "--r", "2", "--atoms", "3", "--kind", *kind,
                "--out", f"{name}.json"]
        commands.append((f"gen {name}", argv))
    for name, psi in (("pert3", "ones3"), ("nonneg3", "ones3"), ("zero_edge", "ones3_plain")):
        argv = ["pseudorandom", "check", "--instance", f"{name}.json", "--psi", f"{psi}.json",
                "--mode", "auto", "--C", "2", "--eta", "0.5", "--p", "2"]
        commands.append((f"pseudorandom check auto {name}", argv))
    return commands


def tie_cases() -> list:
    """Write two K3 instances whose nu is one on edge (1, 2); their exact and auto checks.

    Against psi = ones, the nu and one bounds of every slot on (1, 2) are
    equal, so the C2b selector choices of the other edges tie exactly and
    the first in `itertools.product` order must stay the witness.  One has
    3 atoms per vertex (exact runs out of budget), the other 3, 3 and 1.
    """
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    for name, atoms, scale in (("tie3", (3, 3, 3), 0.05), ("tie331", (3, 3, 1), 0.5)):
        spaces = [rng.uniform(0.5, 1.5, size=z).tolist() for z in atoms]
        shapes = [(atoms[a], atoms[b]) for a, b in K3]
        nu = [(1.0 + scale * rng.uniform(-1.0, 1.0, size=z)).tolist() for z in shapes[:2]]
        write_instance(f"{name}.json", spaces, nu + [np.ones(shapes[2]).tolist()])
        write_instance(f"{name}_ones.json", spaces, [np.ones(z).tolist() for z in shapes])
        for mode in ("exact", "auto"):
            argv = ["pseudorandom", "check", "--instance", f"{name}.json",
                    "--psi", f"{name}_ones.json", "--mode", mode,
                    "--C", "2", "--eta", "0.5", "--p", "2"]
            commands.append((f"pseudorandom check {mode} {name}", argv))
    return commands


def peel_cases() -> list:
    """Write one-edge instances for the recursive peel; their `norm` and `gcs` commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    # The gcs grid of the 8-atom 3-edge (8**12 cells) is above the cell cap.
    for name, sizes, ell in (("edge2_9x3", (9, 3), "2"), ("edge3_l6", (2, 2, 3), "6"),
                             ("edge3_8", (8, 8, 8), "4")):
        spaces = [rng.uniform(0.5, 1.5, size=z).tolist() for z in sizes]
        values = rng.uniform(-1.0, 1.0, size=sizes).tolist()
        write_instance(f"{name}.json", spaces, [values], [list(range(len(sizes)))])
        base = ["--instance", f"{name}.json", "--edge", "0", "--ell", ell]
        commands += [
            (f"norm recursive {name}", ["norm", *base, "--method", "recursive"]),
            (f"norm p=2 {name}", ["norm", *base, "--p", "2"]),
            (f"gcs {name}", ["gcs", *base]),
        ]
    return commands


def block_path_cases() -> list:
    """Write one-edge instances whose replicated grids pass one block; their commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    for name, sizes, ell in (("edge3_234", (2, 3, 4), "4"), ("edge3_154", (1, 5, 4), "4"),
                             ("edge4_5444", (5, 4, 4, 4), "2"), ("edge2_44_l6", (4, 4), "6")):
        spaces = [rng.uniform(0.5, 1.5, size=z).tolist() for z in sizes]
        values = rng.uniform(-1.0, 1.0, size=sizes).tolist()
        write_instance(f"{name}.json", spaces, [values], [list(range(len(sizes)))])
        base = ["--instance", f"{name}.json", "--edge", "0", "--ell", ell]
        commands += [
            (f"norm direct {name}", ["norm", *base, "--method", "direct"]),
            (f"gcs {name}", ["gcs", *base]),
        ]
    return commands


def heuristic_cases() -> list:
    """Write a 3x3 2-edge, a 2x2x2 3-edge and a nonnegative K3; their heuristic commands.

    The ascent runs restarts in blocks of 2**16 // (2 * widest slot * cells),
    so one past that count takes a second block.
    """
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    for name, sizes, widest in (("cut2_3x3", (3, 3), 3), ("cut3_2x2x2", (2, 2, 2), 4)):
        spaces = [rng.uniform(0.5, 1.5, size=z).tolist() for z in sizes]
        values = rng.uniform(-1.0, 1.0, size=sizes).tolist()
        write_instance(f"{name}.json", spaces, [values], [list(range(len(sizes)))])
        past_block = 1 + (1 << 16) // (2 * widest * int(np.prod(sizes)))
        edge = ",".join(str(v) for v in range(len(sizes)))
        for restarts in (1, 32, past_block):
            for seed in (0, (1 << 64) + 1):
                argv = ["cutnorm", "--instance", f"{name}.json", "--edge", edge,
                        "--mode", "heuristic", "--restarts", str(restarts), "--seed", str(seed)]
                commands.append((f"cutnorm heuristic {name} r={restarts} seed={seed}", argv))
    tensors = [rng.uniform(0.0, 2.0, size=(3, 3)).tolist() for _ in K3]
    write_instance("nonneg_plain.json", [[1.0] * 3] * 3, tensors)
    argv = ["pseudorandom", "check", "--instance", "nonneg_plain.json", "--mode", "heuristic",
            "--C", "2", "--eta", "0.5", "--p", "2"]
    commands.append(("pseudorandom check heuristic nonneg_plain", argv))
    return commands


def sampled_scan_cases() -> list:
    """The `gen` command of a 2-atom perturbed K3; its thm42 and thm43 commands at ell = 4."""
    commands = [("gen pert2", ["gen", "--n", "3", "--r", "2", "--atoms", "2",
                               "--kind", "perturbed_ones", "--epsilon", "0.1", "--seed", "7",
                               "--out", "pert2.json"])]
    for thm in ("thm42", "thm43"):
        argv = ["pseudorandom", thm, "--instance", "pert2.json", "--psi", "pert2.json",
                "--C", "1.5", "--eta", "0.05", "--p", "inf"]
        commands.append((f"pseudorandom {thm} sampled scan", argv))
    return commands


def full_scan_cases() -> list:
    """The `gen` command of a 4-atom perturbed K3; its thm42 and thm43 commands at ell = 2."""
    commands = [("gen pert4", ["gen", "--n", "3", "--r", "2", "--atoms", "4",
                               "--kind", "perturbed_ones", "--epsilon", "0.1", "--seed", "7",
                               "--out", "pert4.json"])]
    for thm in ("thm42", "thm43"):
        argv = ["pseudorandom", thm, "--instance", "pert4.json", "--psi", "pert4.json",
                "--C", "1", "--eta", "0.5", "--p", "inf"]
        commands.append((f"pseudorandom {thm} full scan", argv))
    return commands


def overflow_cases() -> list:
    """Write 2-atom K3s with 1e308 on edge (0, 1), 1e200 on one of its cells, and psi = ones.

    Returns the check and thm43 commands of the first and the thm43 command
    of the second.
    """
    ones = [[1.0, 1.0], [1.0, 1.0]]
    write_instance("huge_edge.json", [[1.0, 1.0]] * 3, [[[1e308] * 2] * 2, ones, ones])
    write_instance("spike_cell.json", [[1.0, 1.0]] * 3, [[[1e200, 1.0], [1.0, 1.0]], ones, ones])
    write_instance("ones2_plain.json", [[1.0, 1.0]] * 3, [ones] * 3)
    files = ["--instance", "huge_edge.json", "--psi", "ones2_plain.json"]
    return [
        ("pseudorandom check 1e308 edge",
         ["pseudorandom", "check", *files, "--C", "1", "--eta", "0.5", "--p", "2"]),
        ("pseudorandom thm43 1e308 edge",
         ["pseudorandom", "thm43", *files, "--C", "1", "--eta", "1e-300", "--p", "2"]),
        ("pseudorandom thm43 nan norm",
         ["pseudorandom", "thm43", "--instance", "spike_cell.json", "--psi", "ones2_plain.json",
          "--C", "1", "--eta", "0.5", "--p", "4"]),
    ]


def replicated_cases() -> list:
    """Write one-edge instances with large replicated grids; their `gcs` and `norm` commands."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    commands = []
    for name, atoms in (("edge3_2_l6", 2), ("edge3_3_l6", 3)):
        spaces = [rng.uniform(0.5, 1.5, size=atoms).tolist() for _ in range(3)]
        values = rng.uniform(-1.0, 1.0, size=(atoms,) * 3).tolist()
        write_instance(f"{name}.json", spaces, [values], [[0, 1, 2]])
        commands.append((f"gcs {name}", ["gcs", "--instance", f"{name}.json", "--edge", "0",
                                         "--ell", "6"]))
    write_instance("edge2_1.json", [[1.0], [1.0]], [[[0.5]]], [[0, 1]])
    base = ["--instance", "edge2_1.json", "--edge", "0", "--ell", "40"]
    commands += [("norm direct edge2_1 l40", ["norm", *base, "--method", "direct"]),
                 ("gcs edge2_1 l40", ["gcs", *base])]
    return commands


def weight_cases() -> list:
    """Write two 2-edges whose first vertex's weights do not normalize to
    positive weights; their `norm` and `vonneumann` commands."""
    commands = []
    for name, weights in (("weights_overflow", [1e308, 1e308]),
                          ("weights_underflow", [1e-320, 1e10])):
        write_instance(f"{name}.json", [weights, [0.5, 0.5]], [[[1, 2], [3, 4]]], [[0, 1]])
        base = ["--instance", f"{name}.json"]
        commands += [(f"norm {name}", ["norm", *base, "--edge", "0", "--ell", "2"]),
                     (f"vonneumann {name}", ["vonneumann", *base, "--C", "1", "--p", "2"])]
    return commands


def run_tree(tree: str, out_path: str) -> None:
    """Run every command on `tree`'s boxlab and write the outputs as JSON."""
    sys.path[:0] = [
        os.path.join(tree, "src"),
        os.path.join(ROOT, "perfbench"),
        os.path.join(ROOT, "tests"),
    ]
    import boxlab
    import harness
    import workloads

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(boxlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {boxlab.__file__}, not the tree's {src}")
    commands = [
        (f"suite --threads {t}", ["suite", "--stable", "--threads", str(t)]) for t in (1, 2, 3)
    ]
    results = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name in ("norms", "certify"):
            os.mkdir(name)
            ops = workloads.BUILDERS[name](name, SEED)
            commands += [(f"{name}: {op.name}", op.argv) for op in ops]
        commands += (suite_file_cases() + certificate_cases() + walk_cases()
                     + mixed_auto_cases() + tie_cases() + peel_cases() + block_path_cases()
                     + heuristic_cases() + sampled_scan_cases() + full_scan_cases()
                     + overflow_cases() + replicated_cases() + weight_cases())
        places = [(path, mark) for root, mark in ((tree, "<tree>"), (work, "<work>"))
                  for path in (os.path.realpath(root), root)]
        for name, argv in commands:
            call = harness.call_cli(argv)
            code = call.code if call.raised is None else call.raised
            err = call.err
            for path, mark in places:
                err = err.replace(path, mark)
            err = SOURCE_LINE.sub(r"\g<1><line>", err)
            results.append([name, code, ELAPSED.sub(r"\g<1>0", call.out), err])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def outputs(tree: str, out_path: str) -> list:
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
        "compare_outputs.run_tree(sys.argv[2], sys.argv[3])"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    script_dir = os.path.dirname(os.path.abspath(__file__))
    subprocess.run(
        [sys.executable, "-c", child, script_dir, os.path.abspath(tree), out_path],
        env=env, check=True,
    )
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def first_difference(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {k + 1}: {x.strip()!r} vs {y.strip()!r}"
    return f"lengths {len(a)} vs {len(b)}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent = outputs(sys.argv[1], os.path.join(tmp, "parent.json"))
        change = outputs(sys.argv[2], os.path.join(tmp, "change.json"))
    if [r[0] for r in parent] != [r[0] for r in change]:
        print("the two trees ran different command lists")
        return 1
    differ = 0
    for (name, code_a, out_a, err_a), (_, code_b, out_b, err_b) in zip(parent, change):
        if code_a != code_b:
            print(f"{name}: exit {code_a} vs {code_b}")
        elif out_a != out_b:
            print(f"{name}: stdout differs at {first_difference(out_a, out_b)}")
        elif err_a != err_b:
            print(f"{name}: stderr differs at {first_difference(err_a, err_b)}")
        else:
            continue
        differ += 1
    print(f"{len(parent)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
