import concurrent.futures.process
import json
import os
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from boxlab import suite
from boxlab.cli import main
from boxlab.errors import BadSpec, MalformedProblem, WorkerFailure
from boxlab.generators import GenSpec, generate
from boxlab.instances import emit_json, parse_json, save_instance
from boxlab.spaces import constant_function, make_system
from boxlab.suite import (
    CHECKS,
    CheckResult,
    check_ell_rules,
    default_suite,
    exit_code,
    load_suite_file,
    resolve_threads,
    run_item,
    run_suite,
)


@pytest.fixture
def ones_instance(tmp_path):
    path = str(tmp_path / "ones.json")
    system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
    save_instance(path, system, functions, meta)
    return path


@pytest.fixture
def zero_edge_instance(tmp_path):
    path = str(tmp_path / "zero.json")
    system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
    functions[(0, 1)] = constant_function(system, (0, 1), 0.0)
    save_instance(path, system, functions, meta)
    return path


class TestCheckResult:
    def test_to_dict_maps_verdicts(self):
        res = CheckResult("x", True, 0.0, 1.0, "exact", {})
        assert res.to_dict()["holds"] is True
        res = CheckResult("x", None, 0.0, 1.0, "heuristic", {})
        assert res.to_dict()["holds"] == "unknown"

    def test_stable_zeroes_elapsed(self):
        res = CheckResult("x", True, 0.0, 1.0, "exact", {}, elapsed_ms=12.5)
        assert res.to_dict(stable=True)["elapsed_ms"] == 0.0
        assert res.to_dict(stable=False)["elapsed_ms"] == 12.5

    def test_slack(self):
        res = CheckResult("x", True, 0.25, 1.0, "exact", {})
        assert res.slack == 0.75


class TestRegistryAndItems:
    def test_registry_covers_default_suite(self):
        for item in default_suite():
            assert item["check"] in CHECKS

    def test_unknown_check_kind(self):
        with pytest.raises(MalformedProblem):
            run_item({"check": "astrology"})

    def test_run_item_renames_and_times(self):
        res = run_item({"name": "my-rules", "check": "ell_rules", "params": {}})
        assert res.name == "my-rules"
        assert res.holds is True
        assert res.elapsed_ms >= 0.0

    def test_relative_instance_paths_resolve_against_base_dir(self, ones_instance):
        import os

        base = os.path.dirname(ones_instance)
        rel = os.path.basename(ones_instance)
        res = run_item(
            {
                "check": "pseudorandom_instance",
                "params": {"instance": rel, "C": 1.5, "eta": 0.1, "p": 2,
                           "mode": "exact"},
            },
            base_dir=base,
        )
        assert res.holds is True

    @pytest.mark.parametrize(
        "kind,key", [("counting_instance", "instance2"), ("pseudorandom_instance", "psi")]
    )
    def test_second_instance_with_other_weights(self, tmp_path, ones_instance, kind, key):
        other = str(tmp_path / "heavy.json")
        system, functions, meta = generate(GenSpec(4, 3, 2, "ones"))
        save_instance(other, system, functions, meta)
        params = {"instance": ones_instance, key: other, "C": 1.5, "eta": 0.1, "p": 2}
        with pytest.raises(MalformedProblem, match="edge set"):
            run_item({"check": kind, "params": params})
        system, functions, meta = generate(GenSpec(3, 2, 2, "ones"))
        heavy = make_system([[1.0, 9.0]] + list(system.spaces[1:]), system.edges)
        save_instance(other, heavy, functions, meta)
        with pytest.raises(MalformedProblem, match="vertex weights"):
            run_item({"check": kind, "params": params})

    def test_ell_rules_standalone(self):
        res = check_ell_rules({})
        assert res.holds is True
        assert res.details["cases"] > 0


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("BOXLAB_THREADS", "4")
        assert resolve_threads(2) == 2

    def test_env_used(self, monkeypatch):
        monkeypatch.setenv("BOXLAB_THREADS", "3")
        assert resolve_threads(None) == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("BOXLAB_THREADS", "many")
        with pytest.raises(BadSpec):
            resolve_threads(None)

    def test_floor_of_one(self):
        assert resolve_threads(0) == 1
        assert resolve_threads(-5) == 1

    def test_default_is_usable_cpus_at_most_8(self, monkeypatch):
        monkeypatch.delenv("BOXLAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_threads(None) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(20)))
        assert resolve_threads(None) == 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_threads(None) == 5


class TestRunSuiteAndExitCodes:
    def items_for(self, instance, **over):
        params = {"instance": instance, "C": 1.5, "eta": 0.1, "p": 2,
                  "mode": "exact"}
        params.update(over)
        return [{"name": "one", "check": "pseudorandom_instance",
                 "params": params}]

    def test_all_true_exit_0(self, ones_instance):
        report = run_suite(self.items_for(ones_instance), threads=1)
        assert exit_code(report) == 0
        assert report["checks"][0]["holds"] is True

    def test_false_exit_1_with_witness(self, zero_edge_instance):
        report = run_suite(self.items_for(zero_edge_instance), threads=1)
        assert exit_code(report) == 1
        inner = report["checks"][0]["details"]["report"]
        assert inner["conditions"]["C1"]["verdict"] == "false"
        assert inner["conditions"]["C1"]["witness"]["subset"]

    def test_unknown_exit_2(self, ones_instance):
        report = run_suite(
            self.items_for(ones_instance, mode="heuristic"), threads=1
        )
        assert exit_code(report) == 2
        assert report["checks"][0]["holds"] == "unknown"

    def test_false_beats_unknown(self, ones_instance, zero_edge_instance):
        items = self.items_for(ones_instance, mode="heuristic") + self.items_for(
            zero_edge_instance
        )
        report = run_suite(items, threads=1)
        assert exit_code(report) == 1

    def test_report_order_follows_items(self, ones_instance):
        items = []
        for k in range(4):
            (item,) = self.items_for(ones_instance)
            item = dict(item, name=f"item-{k}")
            items.append(item)
        report = run_suite(items, threads=4)
        assert [c["name"] for c in report["checks"]] == [f"item-{k}" for k in range(4)]

    def test_report_round_trips_through_json(self, ones_instance):
        report = run_suite(self.items_for(ones_instance), threads=1, stable=True)
        assert parse_json(emit_json(report)) == report

    def test_stable_report_thread_count_invariant(self, ones_instance):
        items = self.items_for(ones_instance)
        a = emit_json(run_suite(items, threads=1, stable=True))
        b = emit_json(run_suite(items, threads=8, stable=True))
        assert a == b


class TestLoadSuiteFile:
    def test_accepts_list_or_items_object(self, tmp_path):
        p1 = tmp_path / "a.json"
        p1.write_text(json.dumps([{"check": "ell_rules"}]))
        assert load_suite_file(str(p1)) == [{"check": "ell_rules"}]
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps({"items": [{"check": "ell_rules"}]}))
        assert load_suite_file(str(p2)) == [{"check": "ell_rules"}]

    def test_rejects_empty_and_checkless(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[]")
        with pytest.raises(MalformedProblem):
            load_suite_file(str(p))
        p.write_text(json.dumps([{"name": "x"}]))
        with pytest.raises(MalformedProblem):
            load_suite_file(str(p))

    def test_json_error_location(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[\n  {broken}\n]")
        with pytest.raises(MalformedProblem, match=r"line 2"):
            load_suite_file(str(p))


class TestSuiteCli:
    def test_file_suite_exit_codes(self, tmp_path, ones_instance,
                                   zero_edge_instance, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps([{
            "name": "ones",
            "check": "pseudorandom_instance",
            "params": {"instance": ones_instance, "C": 1.5, "eta": 0.1,
                       "p": 2, "mode": "exact"},
        }]))
        assert main(["suite", "--file", str(good), "--stable"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == []
        assert report["elapsed_ms"] == 0.0

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{
            "name": "broken",
            "check": "pseudorandom_instance",
            "params": {"instance": zero_edge_instance, "C": 1.5, "eta": 0.1,
                       "p": 2, "mode": "exact"},
        }]))
        assert main(["suite", "--file", str(bad)]) == 1
        capsys.readouterr()

    def test_out_flag_writes_report(self, tmp_path, ones_instance, capsys):
        sf = tmp_path / "s.json"
        sf.write_text(json.dumps([{
            "name": "ones",
            "check": "pseudorandom_instance",
            "params": {"instance": ones_instance, "C": 1.5, "eta": 0.1,
                       "p": 2, "mode": "exact"},
        }]))
        out_path = tmp_path / "report.json"
        code = main(["suite", "--file", str(sf), "--stable",
                     "--out", str(out_path)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert out_path.read_text() == stdout


class TestMalformedItems:
    """A malformed item exits 3, not 1: 1 says that a check is false."""

    MALFORMED = [
        ({"check": "box_oracle", "params": [1]}, "params-not-object"),
        ({"check": "box_oracle", "params": {"count": "abc"}}, "count-not-numeric"),
        ({"check": "pseudorandom_instance", "params": {"C": 1.5, "eta": 0.1, "p": 2}},
         "instance-missing"),
        ({"check": "vonneumann", "params": {"seed": 1e400}}, "seed-infinite"),
        ({"check": "counting_instance", "params": {"instance": "x.json", "C": 2, "p": 2}},
         "instance2-missing"),
    ]

    @pytest.mark.parametrize(
        "item,threads",
        [
            pytest.param(item, threads, id=name if threads == "1" else f"{name}-threads-{threads}")
            for item, name in MALFORMED
            for threads in ("1", "2")
        ],
    )
    def test_exits_3(self, tmp_path, capsys, item, threads):
        sf = tmp_path / "s.json"
        items = [{"check": "ell_rules"}, item]
        sf.write_text(json.dumps(items).replace("Infinity", "1e400"))
        assert main(["suite", "--file", str(sf), "--threads", threads]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "MalformedProblem"
        with pytest.raises(MalformedProblem):
            run_item(item)

    def test_absent_or_null_params_use_defaults(self):
        assert run_item({"check": "ell_rules"}).holds is True
        assert run_item({"check": "ell_rules", "params": None}).holds is True


# ---------------------------------------------------------------------------
# Items on worker processes.  The helpers are module-level, so that a spawned
# worker can import them by name.


def _marked_run(item, base_dir):
    """`run_item` that first marks its item as started, by a file named after it.

    Opening with "x" fails if the same item starts twice.  An item's
    optional "sleep" key holds it back before it runs, and "interrupt"
    makes it raise KeyboardInterrupt instead.
    """
    if "marks" in item:
        open(os.path.join(item["marks"], item["name"]), "x").close()
    if item.get("interrupt"):
        raise KeyboardInterrupt
    time.sleep(item.get("sleep", 0.0))
    return run_item(item, base_dir)


def _die(item, base_dir):
    os._exit(7)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the worker pool with one that runs each job in the lane's thread.

    Returns the list of pool sizes asked for; no process starts.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlinePool)
    return sizes


def _items(count, **extra):
    checks = ("ell_rules", "generators")
    return [{"name": f"item-{k}", "check": checks[k % 2], **extra} for k in range(count)]


class TestProcessLanes:
    def test_one_item_starts_no_pool(self, inline_pool):
        run_suite(_items(1), threads=8)
        assert inline_pool == []

    def test_pool_holds_all_lanes_but_this_one(self, inline_pool):
        serial = emit_json(run_suite(_items(3), threads=1, stable=True))
        assert emit_json(run_suite(_items(3), threads=8, stable=True)) == serial
        run_suite(_items(5), threads=2)
        assert inline_pool == [2, 1]

    @pytest.mark.parametrize(
        "first,error",
        [
            ({"check": "box_oracle", "params": [1]}, MalformedProblem),
            ({"check": "ell_rules", "interrupt": True}, KeyboardInterrupt),
        ],
        ids=["malformed", "interrupt"],
    )
    def test_no_item_starts_after_a_failure(
        self, inline_pool, monkeypatch, tmp_path, first, error
    ):
        monkeypatch.setattr(suite, "run_item", _marked_run)
        items = [first] + _items(6, marks=str(tmp_path), sleep=0.05)[1:]
        with pytest.raises(error):
            run_suite(items, threads=2)
        # Only the item taken alongside the failing one may have started.
        assert os.listdir(tmp_path) in ([], ["item-1"])

    def test_lowest_indexed_failure_is_raised(self, inline_pool, monkeypatch):
        monkeypatch.setattr(suite, "run_item", _marked_run)
        items = [
            {"check": "ell_rules"},
            {"check": "box_oracle", "params": [1], "sleep": 0.2},
            {"check": "astrology"},
        ]
        for threads in (1, 3):
            with pytest.raises(MalformedProblem, match="must be an object"):
                run_suite(items, threads=threads)

    def _exits_3_with_worker_failure(self, tmp_path, capsys, monkeypatch, worker):
        monkeypatch.setattr(suite, "run_item", _marked_run)
        monkeypatch.setattr(suite, "_run_item_in_worker", worker)
        sf = tmp_path / "s.json"
        sf.write_text(json.dumps(_items(4, sleep=0.05)))
        assert main(["suite", "--file", str(sf), "--threads", "2"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "WorkerFailure"

    def test_unpicklable_job_exits_3(self, tmp_path, capsys, monkeypatch):
        self._exits_3_with_worker_failure(
            tmp_path, capsys, monkeypatch, lambda item, base_dir: None
        )

    def test_dead_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        self._exits_3_with_worker_failure(tmp_path, capsys, monkeypatch, _die)

    def test_four_lanes_under_fast_switching(self, monkeypatch, tmp_path):
        items = _items(30, marks=str(tmp_path))
        plain = [{k: v for k, v in item.items() if k != "marks"} for item in items]
        serial = emit_json(run_suite(plain, threads=1, stable=True))
        monkeypatch.setattr(suite, "run_item", _marked_run)
        monkeypatch.setattr(suite, "_run_item_in_worker", _marked_run)
        out = {}

        def target():
            try:
                out["report"] = run_suite(items, threads=4, stable=True)
            except BaseException as exc:
                out["error"] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=target, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        if "error" in out:
            raise out["error"]
        names = [item["name"] for item in items]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        assert [c["name"] for c in out["report"]["checks"]] == names
        assert emit_json(out["report"]) == serial
