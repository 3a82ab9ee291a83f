import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from boxlab import cli
from boxlab.cli import main
from boxlab.errors import BoxlabError, MalformedProblem, NonPositiveWeight, ShapeMismatch
from boxlab.generators import GenSpec, generate
from boxlab.instances import (
    digest_text,
    emit_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_json,
    save_instance,
)
from boxlab.spaces import edge_function, make_system


class TestEmitJson:
    @pytest.mark.parametrize(
        "x",
        [0.1, 1.0 / 3.0, 1e-300, 6.661338147750939e-16, -2.5, 1e17 + 1.0, 0.0],
    )
    def test_floats_round_trip(self, x):
        assert parse_json(emit_json(x)) == x

    def test_17_digit_rendering(self):
        assert emit_json(1.0 / 3.0).strip() == "0.33333333333333331"

    def test_nested_structures(self):
        obj = {"a": [1, 2.5, "x"], "b": {"c": None, "d": [True, False]}}
        assert parse_json(emit_json(obj)) == obj

    def test_numpy_scalars_and_arrays(self):
        out = parse_json(emit_json({"v": np.float64(0.5), "n": np.int64(3),
                                    "arr": np.array([[1.0, 2.0]])}))
        assert out == {"v": 0.5, "n": 3, "arr": [[1.0, 2.0]]}

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedProblem):
            emit_json(float("nan"))
        with pytest.raises(MalformedProblem):
            emit_json({"x": float("inf")})

    def test_rejects_non_string_keys_and_unknown_types(self):
        with pytest.raises(MalformedProblem):
            emit_json({1: "x"})
        with pytest.raises(MalformedProblem):
            emit_json({"x": object()})

    def test_emission_is_deterministic(self):
        obj = {"z": [1.0, 2.0], "a": {"k": 0.1}}
        assert emit_json(obj) == emit_json(obj)
        assert digest_text(emit_json(obj)) == digest_text(emit_json(obj))


class TestInstanceRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        system, functions, meta = generate(
            GenSpec(3, 2, 3, "random_signed", seed=11)
        )
        path = str(tmp_path / "inst.json")
        digest = save_instance(path, system, functions, meta)
        sys2, fns2, meta2, digest2 = load_instance(path)
        assert digest == digest2
        assert sys2.edges == system.edges
        for sp_a, sp_b in zip(system.spaces, sys2.spaces):
            assert np.array_equal(sp_a.weights, sp_b.weights)
        for e in functions:
            assert np.array_equal(functions[e].values, fns2[e].values)
        assert meta2["spec"] == meta["spec"]

    def test_dict_round_trip(self):
        system, functions, meta = generate(GenSpec(3, 2, 2, "perturbed_ones",
                                                   epsilon=0.2, seed=3))
        data = parse_json(emit_json(instance_to_dict(system, functions, meta)))
        sys2, fns2, _ = instance_from_dict(data)
        for e in functions:
            assert np.array_equal(functions[e].values, fns2[e].values)

    def test_loader_freezes_the_array_it_built(self, monkeypatch):
        # The loader owns each converted array, so the tensor is that array.
        from boxlab import instances

        built = []
        real = instances._float_array

        def spy(raw):
            built.append(real(raw))
            return built[-1]

        monkeypatch.setattr(instances, "_float_array", spy)
        _, fns, _ = instance_from_dict({
            "spaces": [[1.0, 1.0], [1.0, 1.0]],
            "edges": [[0, 1]],
            "functions": [{"edge": [0, 1], "values": [[1.0, 2.0], [3.0, 4.0]]}],
        })
        assert fns[(0, 1)].values is built[-1]
        assert not built[-1].flags.writeable

    def test_missing_keys(self):
        with pytest.raises(MalformedProblem):
            instance_from_dict({"spaces": [[1.0]], "edges": []})
        with pytest.raises(MalformedProblem):
            instance_from_dict([1, 2, 3])

    def test_unknown_edge_and_duplicates(self):
        base = {
            "spaces": [[0.5, 0.5], [0.5, 0.5]],
            "edges": [[0, 1]],
            "functions": [{"edge": [0], "values": [1.0, 1.0]}],
        }
        with pytest.raises(MalformedProblem):
            instance_from_dict(base)
        dup = {
            "spaces": [[0.5, 0.5], [0.5, 0.5]],
            "edges": [[0, 1]],
            "functions": [
                {"edge": [0, 1], "values": [[1.0, 1.0], [1.0, 1.0]]},
                {"edge": [0, 1], "values": [[2.0, 2.0], [2.0, 2.0]]},
            ],
        }
        with pytest.raises(MalformedProblem):
            instance_from_dict(dup)

    def test_bad_shape_rejected(self):
        data = {
            "spaces": [[0.5, 0.5], [0.5, 0.5]],
            "edges": [[0, 1]],
            "functions": [{"edge": [0, 1], "values": [1.0, 1.0]}],
        }
        with pytest.raises(BoxlabError):
            instance_from_dict(data)

    def test_nan_and_infinity_from_json(self):
        # Python's JSON reader takes NaN and Infinity as floats.
        text = (
            '{"spaces": [[0.5, %s], [1, 3]], "edges": [[0, 1]],'
            ' "functions": [{"edge": [0, 1], "values": [[1, 2], [%s, 4]]}]}'
        )
        for weight, error, message in (
            ("NaN", NonPositiveWeight, r"weights must be finite and > 0, got \[0.5, nan\]"),
            ("Infinity", NonPositiveWeight, r"got \[0.5, inf\]"),
            ("-Infinity", NonPositiveWeight, r"got \[0.5, -inf\]"),
        ):
            with pytest.raises(error, match=message):
                instance_from_dict(parse_json(text % (weight, "3")))
        for value in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ShapeMismatch, match=r"edge \(0, 1\) contains non-finite"):
                instance_from_dict(parse_json(text % ("0.5", value)))

    def test_zero_weight(self):
        data = {
            "spaces": [[0.5, 0.5], [1.0, 0.0]],
            "edges": [[0, 1]],
            "functions": [{"edge": [0, 1], "values": [[1.0, 2.0], [3.0, 4.0]]}],
        }
        with pytest.raises(NonPositiveWeight, match=r"got \[1.0, 0.0\]"):
            instance_from_dict(data)

    def test_first_error_in_file_order(self):
        # A bad value raises before a malformed entry that follows it.
        data = {
            "spaces": [[0.5, -1.0], "x"],
            "edges": [[0, 1]],
            "functions": [{"edge": [0, 1], "values": [[1.0, 2.0], [3.0, 4.0]]}],
        }
        with pytest.raises(NonPositiveWeight):
            instance_from_dict(data)
        data["spaces"] = [[0.5, 0.5], [1.0, 1.0]]
        data["functions"] = [
            {"edge": [0, 1], "values": [[1.0, 2.0], [3.0, math.inf]]},
            {"edge": [0, 2], "values": [1.0]},
        ]
        with pytest.raises(ShapeMismatch):
            instance_from_dict(data)
        data["functions"][0]["values"] = [1.0, 2.0]
        with pytest.raises(ShapeMismatch, match="does not match"):
            instance_from_dict(data)
        data["functions"][0]["values"] = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(MalformedProblem, match="unknown edge"):
            instance_from_dict(data)

    def test_json_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"spaces": [[1.0],\n  oops]}')
        with pytest.raises(MalformedProblem, match=r"line 2, column"):
            load_instance(str(path))


@pytest.fixture
def ones_instance(tmp_path):
    path = str(tmp_path / "ones.json")
    system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
    save_instance(path, system, functions, meta)
    return path


@pytest.fixture
def perturbed_instance(tmp_path):
    path = str(tmp_path / "pert.json")
    system, functions, meta = generate(
        GenSpec(3, 2, 2, "perturbed_ones", epsilon=0.1, seed=7)
    )
    save_instance(path, system, functions, meta)
    return path


@pytest.fixture
def reweighted_pair(tmp_path):
    """Two K3 instances on 2 atoms, equal but for vertex 0's weights."""
    rng = np.random.Generator(np.random.Philox(key=21))
    paths = []
    for name, w0 in (("even", [1.0, 1.0]), ("heavy", [1.0, 9.0])):
        system = make_system([w0, [1.0, 1.0], [1.0, 1.0]], [(0, 1), (0, 2), (1, 2)])
        functions = {
            e: edge_function(system, e, rng.uniform(0.0, 1.0, size=(2, 2)))
            for e in system.edges
        }
        paths.append(str(tmp_path / f"{name}.json"))
        save_instance(paths[-1], system, functions)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip().startswith("{") else captured.err
    return code, out, err


class TestCliGenAndNorm:
    def test_gen_writes_instance_with_digest(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.json")
        code, out, _ = run_cli(
            capsys, "gen", "--n", "3", "--r", "2", "--atoms", "2",
            "--kind", "perturbed_ones", "--epsilon", "0.1", "--seed", "7",
            "--out", out_path,
        )
        assert code == 0
        with open(out_path, "r", encoding="utf-8") as fh:
            assert digest_text(fh.read()) == out["digest"]
        assert out["spec"]["kind"] == "perturbed_ones"

    def test_gen_atom_list(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen2.json")
        code, out, _ = run_cli(
            capsys, "gen", "--n", "3", "--r", "2", "--atoms", "2,3,4",
            "--kind", "ones", "--out", out_path,
        )
        assert code == 0
        assert out["spec"]["atoms"] == [2, 3, 4]

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
    def test_gen_bad_seed_exits_3(self, tmp_path, capsys, seed):
        out_path = tmp_path / "gen.json"
        code, out, err = run_cli(
            capsys, "gen", "--n", "3", "--r", "2", "--atoms", "2",
            "--kind", "ones", "--seed", seed, "--out", str(out_path),
        )
        assert (code, out) == (3, None)
        assert err["error"] == "BadSpec"
        assert not out_path.exists()

    @pytest.mark.parametrize("args, error", [
        (["--atoms", "x", "--kind", "ones"], "MalformedProblem"),
        (["--atoms", "2,,3", "--kind", "ones"], "MalformedProblem"),
        (["--atoms", "2", "--kind", "random_signed", "--scale", "inf"], "BadSpec"),
        (["--atoms", "2", "--kind", "random_signed", "--scale", "nan"], "BadSpec"),
        (["--atoms", "2", "--kind", "random_signed", "--scale", "1e308"], "BadSpec"),
        (["--atoms", "2", "--kind", "product_weights", "--weight-high", "inf"], "BadSpec"),
        (["--atoms", "2", "--kind", "ones", "--epsilon", "nan"], "BadSpec"),
    ])
    def test_gen_malformed_numbers_exit_3(self, tmp_path, capsys, args, error):
        out_path = tmp_path / "gen.json"
        code, out, err = run_cli(
            capsys, "gen", "--n", "3", "--r", "2", *args, "--out", str(out_path),
        )
        assert (code, out) == (3, None)
        assert err["error"] == error
        assert not out_path.exists()

    def test_norm_edge_index_and_list_agree(self, perturbed_instance, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0", "--ell", "2", "--stable",
        )
        code_b, out_b, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0,1", "--ell", "2", "--stable",
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a["elapsed_ms"] == 0.0
        assert out_a["method"] == "recursive"

    def test_norm_matches_library(self, perturbed_instance, capsys):
        from boxlab.boxnorm import box_norm

        system, functions, _, _ = load_instance(perturbed_instance)
        want = box_norm(system, (0, 1), functions[(0, 1)], 2).value
        _, out, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0,1", "--ell", "2",
        )
        assert math.isclose(out["value"], want, rel_tol=1e-15)

    def test_norm_with_p(self, perturbed_instance, capsys):
        _, out, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0", "--ell", "2", "--p", "2",
        )
        assert out["p"] == 2.0
        _, out_inf, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0", "--ell", "2", "--p", "inf",
        )
        assert out_inf["method"] == "sup"
        assert out["value"] <= out_inf["value"] + 1e-9

    def test_norm_with_p_uses_one_inner_norm_by_method(
        self, perturbed_instance, capsys, monkeypatch
    ):
        import boxlab.boxnorm as bn

        methods = []
        original = bn.box_norm
        monkeypatch.setattr(
            bn,
            "box_norm",
            lambda *a, **k: methods.append(k.get("method")) or original(*a, **k),
        )
        _, out, _ = run_cli(
            capsys, "norm", "--instance", perturbed_instance,
            "--edge", "0", "--ell", "2", "--p", "2", "--method", "direct",
        )
        assert methods == ["direct"]
        assert out["method"] == "direct"
        system, functions, _, _ = load_instance(perturbed_instance)
        m = float(np.max(np.abs(functions[(0, 1)].values)))
        inner = out["power_value"] ** (1.0 / 4.0)
        assert math.isclose(out["value"], m * inner ** 0.5, rel_tol=1e-12)

    def test_norm_bad_edge_exits_3(self, perturbed_instance, capsys):
        for edge in ("9", "x", "0,x"):
            code, _, err = run_cli(
                capsys, "norm", "--instance", perturbed_instance,
                "--edge", edge, "--ell", "2",
            )
            assert code == 3, edge
            assert err["error"] == "MalformedProblem", edge


class TestCliCutGcs:
    def test_cutnorm_matches_library(self, perturbed_instance, capsys):
        from boxlab.cutnorm import cut_norm

        system, functions, _, _ = load_instance(perturbed_instance)
        want = cut_norm(system, (0, 1), functions[(0, 1)], mode="exact").value
        code, out, _ = run_cli(
            capsys, "cutnorm", "--instance", perturbed_instance,
            "--edge", "0,1", "--mode", "exact",
        )
        assert code == 0
        assert math.isclose(out["value"], want, rel_tol=1e-15)
        assert out["mode"] == "exact"

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
    def test_cutnorm_bad_seed_exits_3(self, perturbed_instance, capsys, seed):
        # The Philox key must lie in [0, 2**128).
        code, out, err = run_cli(
            capsys, "cutnorm", "--instance", perturbed_instance,
            "--edge", "0,1", "--mode", "heuristic", "--seed", seed,
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    @pytest.mark.parametrize("bad", [("--seed", "-1"), ("--restarts", "0")])
    def test_cutnorm_bad_search_args_exit_3_without_heuristic(
        self, perturbed_instance, capsys, mode, bad
    ):
        # An exact solve runs no heuristic, and must refuse the same arguments.
        code, out, err = run_cli(
            capsys, "cutnorm", "--instance", perturbed_instance,
            "--edge", "0,1", "--mode", mode, *bad,
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"

    def test_gcs_reports_hold(self, perturbed_instance, capsys):
        code, out, _ = run_cli(
            capsys, "gcs", "--instance", perturbed_instance,
            "--edge", "0", "--ell", "2",
        )
        assert code == 0
        assert out["holds"] is True
        assert out["lhs"] <= out["rhs"] + out["tol"]


class TestCliCertificates:
    def test_vonneumann(self, ones_instance, capsys):
        code, out, _ = run_cli(
            capsys, "vonneumann", "--instance", ones_instance,
            "--C", "1.5", "--p", "2",
        )
        assert code == 0
        assert out["holds"] is True
        assert out["hypotheses"]["box_lp_at_most_one"] is True

    def test_counting(self, ones_instance, perturbed_instance, capsys):
        code, out, _ = run_cli(
            capsys, "counting", "--instance", ones_instance,
            "--instance2", perturbed_instance, "--C", "2", "--p", "2",
        )
        assert code == 0
        assert out["holds"] is True
        assert len(out["instance_digests"]) == 2

    @pytest.mark.parametrize(
        "command,big,other",
        [
            # The product over all six edges of K4 overflows.
            ("vonneumann", 1e60, None),
            ("counting", 1e60, 1e60),
            # Opposite signs near the float range on K3.
            ("counting", 1e308, -1e308),
        ],
    )
    def test_overflow_exits_3(self, tmp_path, capsys, command, big, other):
        n = 4 if big == 1e60 else 3
        edges = [[a, b] for a in range(n) for b in range(a + 1, n)]
        paths = []
        for name, corner in (("f", big), ("g", other)):
            if corner is None:
                continue
            functions = [{"edge": e, "values": [[corner, 1.0], [1.0, 1.0]]} for e in edges]
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(
                json.dumps({"spaces": [[1.0, 1.0]] * n, "edges": edges, "functions": functions})
            )
        argv = [command, "--instance", str(paths[0]), "--C", "2", "--p", "2"]
        if command == "counting":
            argv += ["--instance2", str(paths[1])]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out is None
        assert err["error"] == "NumericalInconsistency"
        assert f"{command.replace('vonneumann', 'von Neumann')} certificate" in err["message"]
        assert "not finite (p=2.0)" in err["message"]

    def test_counting_edge_set_mismatch(self, ones_instance, tmp_path, capsys):
        other = str(tmp_path / "tri.json")
        system, functions, meta = generate(GenSpec(4, 3, 2, "ones"))
        save_instance(other, system, functions, meta)
        code, _, err = run_cli(
            capsys, "counting", "--instance", ones_instance,
            "--instance2", other, "--C", "2", "--p", "2",
        )
        assert code == 3
        assert err["error"] == "MalformedProblem"

    @pytest.mark.parametrize("swap", [False, True])
    def test_counting_weight_mismatch(self, reweighted_pair, capsys, swap):
        first, second = reweighted_pair[::-1] if swap else reweighted_pair
        code, out, err = run_cli(
            capsys, "counting", "--instance", first,
            "--instance2", second, "--C", "2", "--p", "2",
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"
        assert "vertex weights" in err["message"]

    def test_pseudorandom_psi_weight_mismatch(self, reweighted_pair, capsys):
        code, out, err = run_cli(
            capsys, "pseudorandom", "check", "--instance", reweighted_pair[0],
            "--psi", reweighted_pair[1], "--C", "1.5", "--eta", "0.1",
            "--p", "2", "--mode", "exact",
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"
        assert "vertex weights" in err["message"]

    def test_pseudorandom_check_true(self, ones_instance, capsys):
        code, out, _ = run_cli(
            capsys, "pseudorandom", "check", "--instance", ones_instance,
            "--C", "1.5", "--eta", "0.1", "--p", "2", "--mode", "exact",
        )
        assert code == 0
        assert out["verdict"] == "true"
        assert set(out["conditions"]) == {"C1", "C2a", "C2b", "C3"}

    def test_pseudorandom_check_auto_past_cap_true(self, tmp_path, capsys):
        # 3 atoms: C2b's 2**36 combinations exceed the cap, and the zero
        # kernel still gets an exact verdict under auto.
        path = str(tmp_path / "ones3.json")
        system, functions, meta = generate(GenSpec(3, 2, 3, "ones"))
        save_instance(path, system, functions, meta)
        code, out, _ = run_cli(
            capsys, "pseudorandom", "check", "--instance", path,
            "--C", "1", "--eta", "0.5", "--p", "2", "--mode", "auto",
        )
        assert code == 0
        assert out["verdict"] == "true"
        assert out["conditions"]["C2b"]["mode"] == "exact"

    def test_pseudorandom_check_bad_seed_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "nonneg.json")
        system, functions, meta = generate(GenSpec(3, 2, 2, "random_nonneg", seed=1))
        save_instance(path, system, functions, meta)
        code, out, err = run_cli(
            capsys, "pseudorandom", "check", "--instance", path, "--C", "2",
            "--eta", "0.5", "--p", "2", "--mode", "heuristic", "--seed", "-1",
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"

    def test_pseudorandom_check_exact_bad_seed_exits_3(self, perturbed_instance, capsys):
        code, out, err = run_cli(
            capsys, "pseudorandom", "check", "--instance", perturbed_instance,
            "--C", "2", "--eta", "0.5", "--p", "2", "--mode", "exact", "--seed", "-1",
        )
        assert (code, out) == (3, None)
        assert err["error"] == "MalformedProblem"

    def test_pseudorandom_check_c3_overflow_exits_3(self, perturbed_instance, capsys):
        # Refused at the first moment past the float range, not by the serializer.
        code, out, err = run_cli(
            capsys, "pseudorandom", "check", "--instance", perturbed_instance,
            "--ell", "100000", "--C", "2", "--eta", "0.5", "--p", "2",
        )
        assert (code, out) == (3, None)
        assert err["error"] == "NumericalInconsistency"
        assert "C3" in err["message"] and "ell=100000" in err["message"]

    def test_pseudorandom_check_c1_overflow_exits_3_without_warnings(self, tmp_path, capsys):
        # 1e200 on edges (0, 2) and (1, 2): their product overflows, and C1
        # refuses its mean before any other condition runs.
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        for e in ((0, 2), (1, 2)):
            functions[e] = edge_function(system, e, np.full(system.edge_shape(e), 1e200))
        path = str(tmp_path / "big.json")
        save_instance(path, system, functions, meta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pseudorandom", "check", "--instance", path, "--mode", "exact",
                         "--C", "2", "--eta", "0.5", "--p", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (3, "", [])
        assert json.loads(captured.err) == {
            "error": "NumericalInconsistency",
            "message": "C1 mean of the product over [[0, 2], [1, 2]] is inf, not finite",
        }

    @pytest.mark.parametrize("mode", ["exact", "auto", "heuristic"])
    def test_pseudorandom_check_sup_overflow_exits_3(self, tmp_path, capsys, mode):
        # 1e308 on edge (0, 1): the C2b sup problem on edge (0, 2) has two
        # slots bounded by it, refused before any search, so its error is
        # all that reaches stderr.
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        ones = str(tmp_path / "ones.json")
        save_instance(ones, system, functions, meta)
        functions[(0, 1)] = edge_function(
            system, (0, 1), np.full(system.edge_shape((0, 1)), 1e308)
        )
        path = str(tmp_path / "huge.json")
        save_instance(path, system, functions, meta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pseudorandom", "check", "--instance", path, "--psi", ones,
                         "--C", "1", "--eta", "0.5", "--p", "2", "--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (3, "", [])
        err = json.loads(captured.err)
        assert err["error"] == "NumericalInconsistency"
        assert "sup problem on edge [0, 2]" in err["message"]

    @pytest.mark.parametrize("p", ["4", "inf"])
    def test_thm43_norm_overflow_exits_3_without_warnings(self, tmp_path, capsys, p):
        # 1e308 on edge (0, 1) of nu: the box norm of nu - psi there
        # overflows, reads inf and fails its hypothesis with no numpy
        # warning, and C2b then refuses its sup problem on edge (0, 2).
        # (At p = 2, ell = 6, and the pattern scan before the norms takes
        # seconds.)
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        ones = str(tmp_path / "ones.json")
        save_instance(ones, system, functions, meta)
        functions[(0, 1)] = edge_function(
            system, (0, 1), np.full(system.edge_shape((0, 1)), 1e308)
        )
        path = str(tmp_path / "huge.json")
        save_instance(path, system, functions, meta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pseudorandom", "thm43", "--instance", path, "--psi", ones,
                         "--C", "1", "--eta", "1e-300", "--p", p])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (3, "", [])
        err = json.loads(captured.err)
        assert err["error"] == "NumericalInconsistency"
        assert "sup problem on edge [0, 2]" in err["message"]

    def test_thm43_nan_difference_norm_exits_3_without_warnings(self, tmp_path, capsys):
        # 1e200 on one cell of nu's edge (0, 1): the peel of nu - psi there
        # meets inf * 0, and the nan norm is refused before anything else.
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        ones = str(tmp_path / "ones.json")
        save_instance(ones, system, functions, meta)
        functions[(0, 1)] = edge_function(system, (0, 1), np.array([[1e200, 1.0], [1.0, 1.0]]))
        path = str(tmp_path / "spike.json")
        save_instance(path, system, functions, meta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pseudorandom", "thm43", "--instance", path, "--psi", ones,
                         "--C", "1", "--eta", "0.5", "--p", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (3, "", [])
        assert json.loads(captured.err) == {
            "error": "NumericalInconsistency",
            "message": "box norm of nu - psi on edge [0, 1] is nan",
        }

    def test_pseudorandom_sum_family_requires_psi(self, ones_instance, capsys):
        code, _, err = run_cli(
            capsys, "pseudorandom", "thm42", "--instance", ones_instance,
            "--C", "1", "--eta", "1e-16", "--p", "inf",
        )
        assert code == 3
        assert err["error"] == "BadSpec"

    @pytest.mark.parametrize("command", ["thm42", "thm43"])
    def test_theorem_pattern_overflow_exits_3(self, tmp_path, capsys, command):
        # Replica patterns of 1e308 overflow: refused at the deviation scan,
        # with no numpy warning on the way.
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        functions[(0, 1)] = edge_function(
            system, (0, 1), np.full(system.edge_shape((0, 1)), 1e308)
        )
        path = str(tmp_path / "huge.json")
        save_instance(path, system, functions, meta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "pseudorandom", command, "--instance", path, "--psi", path,
                "--C", "1", "--eta", "1e-300", "--p", "inf",
            )
        assert (code, out) == (3, None)
        assert err["error"] == "NumericalInconsistency"
        assert "linear-forms pattern 0x3 " in err["message"]

    @pytest.mark.parametrize("command", ["check", "thm43", "vonneumann"])
    def test_nan_C_exits_3(self, ones_instance, capsys, command):
        if command == "vonneumann":
            args = ["vonneumann", "--instance", ones_instance]
        else:
            args = ["pseudorandom", command, "--instance", ones_instance,
                    "--psi", ones_instance, "--eta", "0.05"]
        code, _, err = run_cli(capsys, *args, "--C", "nan", "--p", "2")
        assert code == 3
        assert err["error"] == "BadSpec"

    @pytest.mark.parametrize("argv", [
        ["vonneumann", "--C", "inf"],
        ["counting", "--instance2", "ONES", "--C", "inf"],
        ["pseudorandom", "check", "--psi", "ONES", "--C", "inf", "--eta", "0.05"],
        ["pseudorandom", "thm42", "--psi", "ONES", "--C", "1", "--eta", "inf"],
        ["pseudorandom", "thm43", "--psi", "ONES", "--C", "inf", "--eta", "0.05"],
    ])
    def test_infinite_C_or_eta_exits_3(self, ones_instance, capsys, argv):
        # Refused as BadSpec on entry, not by the serializer after the work.
        argv = [ones_instance if a == "ONES" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--instance", ones_instance, "--p", "2")
        assert (code, out) == (3, None)
        assert err["error"] == "BadSpec"

    def test_pseudorandom_near_majorant(self, ones_instance, capsys):
        code, out, _ = run_cli(
            capsys, "pseudorandom", "thm43", "--instance", ones_instance,
            "--psi", ones_instance, "--C", "1", "--eta", "0.05", "--p", "inf",
            "--mode", "exact",
        )
        assert code == 0
        assert out["verdict"] == "true"
        assert out["psi_digest"] == out["instance_digest"]


class TestCliMalformedInstance:
    """Each defect reaches `norm` through the loader and must exit 3."""

    def norm_on_broken(self, tmp_path, capsys, breaker):
        system, functions, meta = generate(GenSpec(3, 2, 2, "perturbed_ones",
                                                   epsilon=0.1, seed=7))
        data = instance_to_dict(system, functions, meta)
        breaker(data)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "norm", "--instance", str(path), "--edge", "0", "--ell", "2",
        )
        assert code == 3
        assert err["error"] == "MalformedProblem"

    def test_ragged_values_exit_3(self, tmp_path, capsys):
        def breaker(data):
            data["functions"][0]["values"][0] = data["functions"][0]["values"][0][:1]
        self.norm_on_broken(tmp_path, capsys, breaker)

    def test_non_numeric_weight_exits_3(self, tmp_path, capsys):
        # numpy would read "1" and true as numbers; a JSON string or boolean
        # is not a weight.
        for bad in ("a", "1", True):
            def breaker(data, bad=bad):
                data["spaces"][1][0] = bad
            self.norm_on_broken(tmp_path, capsys, breaker)

    def test_bad_first_space_exits_3(self, tmp_path, capsys):
        # Space 0 fails before any other space has been read.
        for bad in ([], "x", ["a"]):
            def breaker(data, bad=bad):
                data["spaces"][0] = bad
            self.norm_on_broken(tmp_path, capsys, breaker)
        path = tmp_path / "bad_weight.json"
        for bad in ([0.0, 1.0], [math.nan, 1.0]):
            system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
            data = instance_to_dict(system, functions, meta)
            data["spaces"][0] = bad
            path.write_text(json.dumps(data))
            code, _, err = run_cli(capsys, "norm", "--instance", str(path), "--edge", "0", "--ell", "2")
            assert code == 3 and err["error"] == "NonPositiveWeight"

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1e308, 1e308], "sum past the float range"),  # normalized to [0, 0]
            ([1e-320, 1e10], "normalize to an atom of weight 0"),  # to [0, 1]
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["norm", "--instance", "INST", "--edge", "0", "--ell", "2"],
            ["vonneumann", "--instance", "INST", "--C", "1", "--p", "2"],
            ["pseudorandom", "check", "--instance", "INST", "--C", "1.5", "--eta", "0.1",
             "--p", "2"],
        ],
    )
    def test_unnormalizable_weights_exit_3(self, tmp_path, capsys, weights, message, command):
        # Finite positive raw weights whose normalized weights are not all
        # positive: exit 3 with one JSON error and no numpy warning.
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({
            "spaces": [weights, [0.5, 0.5]],
            "edges": [[0, 1]],
            "functions": [{"edge": [0, 1], "values": [[1, 2], [3, 4]]}],
        }))
        argv = [str(path) if a == "INST" else a for a in command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, None)
        assert err["error"] == "NonPositiveWeight"
        assert message in err["message"]

    @pytest.mark.parametrize("depth", [70, 900, 100_000])
    def test_deeply_nested_values_exit_3(self, tmp_path, capsys, depth):
        # Past numpy's 64 axes, past the loader's stack, past the JSON reader's.
        path = tmp_path / "deep.json"
        path.write_text(
            '{"spaces": [[1.0]], "edges": [[0]], "functions": [{"edge": [0], "values": '
            + "[" * depth + "1.0" + "]" * depth + "}]}"
        )
        code, _, err = run_cli(capsys, "norm", "--instance", str(path), "--edge", "0", "--ell", "2")
        assert code == 3 and err["error"] == "MalformedProblem"

    def test_non_numeric_value_exits_3(self, tmp_path, capsys):
        for bad in ("0.5", True, 10**400):
            def breaker(data, bad=bad):
                data["functions"][0]["values"][0][1] = bad
            self.norm_on_broken(tmp_path, capsys, breaker)

    def test_non_integer_edge_vertex_exits_3(self, tmp_path, capsys):
        for bad in ("x", 1.5):  # int() raised on one and truncated the other
            def breaker(data, bad=bad):
                data["edges"][0][1] = bad
            self.norm_on_broken(tmp_path, capsys, breaker)

    def test_non_integer_function_vertex_exits_3(self, tmp_path, capsys):
        for bad in ("x", 0.5):
            def breaker(data, bad=bad):
                data["functions"][0]["edge"][0] = bad
            self.norm_on_broken(tmp_path, capsys, breaker)


class TestCliErrors:
    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "norm", "--instance", "/nonexistent/x.json",
            "--edge", "0", "--ell", "2",
        )
        assert code == 3
        assert err["error"] == "OSError"

    def test_usage_errors_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--bogus"])
        assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("boxlab ")


class TestParserReuse:
    def test_calls_in_one_process_match_a_fresh_parser(self, perturbed_instance, capsys):
        # The parser is built once; no option of one call may leak into the
        # next (the last cutnorm must use its default --mode again).
        assert cli._parser() is cli._parser()
        common = ["--instance", perturbed_instance, "--stable"]
        runs = [
            ["norm", *common, "--edge", "0", "--ell", "2"],
            ["cutnorm", *common, "--edge", "0,2", "--mode", "heuristic", "--restarts", "2"],
            ["norm", *common, "--edge", "1", "--ell", "2", "--p", "2"],
            ["cutnorm", *common, "--edge", "0,2"],
        ]
        outs = []
        for argv in runs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        for argv, out in zip(runs, outs):
            args = cli.build_parser().parse_args(argv)
            assert args.fn(args) == 0
            assert capsys.readouterr().out == out
        assert json.loads(outs[1])["mode"] == "heuristic"
        assert json.loads(outs[3])["mode"] == "exact"
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--instance", perturbed_instance])
        assert exc.value.code == 3
        assert main(runs[0]) == 0
        assert capsys.readouterr().out == outs[0]


class TestModuleEntry:
    def test_python_dash_m_works(self):
        proc = subprocess.run(
            [sys.executable, "-m", "boxlab", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("boxlab ")


@pytest.fixture
def k4_pair(tmp_path):
    """Two K4 instances on 2 atoms per vertex, with random signed tensors."""
    rng = np.random.Generator(np.random.Philox(key=23))
    system = make_system([[1.0, 2.0]] * 4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    paths = []
    for name in ("f", "g"):
        functions = {
            e: edge_function(system, e, rng.uniform(-1.0, 1.0, size=(2, 2)))
            for e in system.edges
        }
        paths.append(str(tmp_path / f"k4_{name}.json"))
        save_instance(paths[-1], system, functions)
    return paths


class TestCliReplicatedGridCaps:
    """`norm --method direct` and `gcs` refuse a replicated grid they cannot
    evaluate (exit 3), and `gcs` does so before it builds any digit pattern.

    `gcs_certificate` and `itertools.product` are spied on, so that a tree
    that builds the patterns first fails fast instead of running on.
    """

    @pytest.fixture
    def no_patterns(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gcs_certificate called past the caps")

        product = itertools.product

        def bounded(*args, **kwargs):
            for n, item in enumerate(product(*args, **kwargs)):
                if n == 4096:
                    raise AssertionError("digit patterns built before the size check")
                yield item

        monkeypatch.setattr(cli, "gcs_certificate", refuse)
        monkeypatch.setattr(itertools, "product", bounded)

    def _instance(self, tmp_path, atoms, k):
        system = make_system([np.ones(atoms)] * k, [tuple(range(k))])
        e = system.edges[0]
        path = str(tmp_path / f"edge{k}_{atoms}.json")
        save_instance(path, system, {e: edge_function(system, e, np.full((atoms,) * k, 0.5))})
        return path

    @pytest.mark.parametrize("command", [["norm", "--method", "direct"], ["gcs"]])
    def test_past_numpy_axes(self, tmp_path, capsys, no_patterns, command):
        # A 1-atom 2-edge at ell=40: one cell, 80 axes.
        path = self._instance(tmp_path, 1, 2)
        code, out, err = run_cli(
            capsys, *command, "--instance", path, "--edge", "0", "--ell", "40"
        )
        assert (code, out) == (3, None)
        assert err["error"] == "SizeCapExceeded" and "80 axes" in err["message"]

    @pytest.mark.parametrize(
        "atoms,k,ell,word",
        [(2, 2, 1_000_000, "axes"), (1, 13, 4, "patterns"), (3, 3, 6, "cells")],
    )
    def test_gcs_refuses_before_patterns(self, tmp_path, capsys, no_patterns, atoms, k, ell, word):
        # 4**13 patterns of a 1-atom 13-edge fit 52 axes and one cell.
        path = self._instance(tmp_path, atoms, k)
        code, out, err = run_cli(
            capsys, "gcs", "--instance", path, "--edge", "0", "--ell", str(ell)
        )
        assert (code, out) == (3, None)
        assert err["error"] == "SizeCapExceeded" and word in err["message"]


class TestCliLargeReplicaCounts:
    """Replica counts whose peel cannot run exit 3 before anything is allocated.

    The replica count of each command is checked against `_check_peel` first,
    so the command only runs once its refusal is known to come first.
    """

    @pytest.mark.parametrize(
        "command,ell",
        [
            (["vonneumann", "--C", "2", "--p", "1.001"], 2002),
            (["norm", "--edge", "0", "--ell", "2002"], 2002),
            (["counting", "--C", "2", "--p", "1.0000001"], 20_000_002),
        ],
    )
    def test_exits_3(self, k4_pair, capsys, command, ell):
        from boxlab.boxnorm import _check_peel
        from boxlab.counting import ell_von_neumann
        from boxlab.errors import SizeCapExceeded
        from boxlab.spaces import Exponent

        if "--p" in command:
            assert ell_von_neumann(3, Exponent(float(command[-1]))) == ell
        with pytest.raises(SizeCapExceeded):
            _check_peel((2, 2), ell)
        argv = command + ["--instance", k4_pair[0]]
        if command[0] == "counting":
            argv += ["--instance2", k4_pair[1]]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out is None
        assert err["error"] == "SizeCapExceeded"
        assert peak < 4 << 20
