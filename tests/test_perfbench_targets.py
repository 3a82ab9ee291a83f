"""The functions the benchmark's tracer wraps must exist under their names.

`perfbench/tracing.py` looks each traced function up as an attribute of
`boxlab.<module>`, and reads some arguments by position; a rename, a move
or a reordered signature breaks the traced run without any other test
failing.  The last test also installs the tracer around a suite run.
"""

import importlib
import importlib.util
import inspect
import os

from boxlab.boxnorm import box_norm, box_power_direct
from boxlab.engine import sup_multilinear
from boxlab.suite import run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    table = _tracing().TRACED
    assert table
    for mod_name, attr, _name, _counts in table:
        module = importlib.import_module(f"boxlab.{mod_name}")
        assert callable(getattr(module, attr, None)), f"boxlab.{mod_name}.{attr}"


def test_traced_argument_positions():
    # `perfbench/tracing.py` reads these arguments by position when a call
    # passes them positionally.
    for fn, pos, name in (
        (box_norm, 4, "method"),
        (box_power_direct, 3, "ell"),
        (sup_multilinear, 1, "mode"),
    ):
        assert list(inspect.signature(fn).parameters)[pos] == name, fn.__name__


def test_traced_suite_runs_items_on_workers():
    # The tracer wraps `run_item` and swaps `boxlab.suite.ThreadPoolExecutor`
    # for a subclass; the jobs sent to worker processes must still pickle.
    tracer = _tracing().Tracer(ROOT)
    tracer.install()
    try:
        items = [{"name": f"g{k}", "check": "generators"} for k in range(4)]
        report = run_suite(items, threads=2, stable=True)
    finally:
        tracer.remove()
    assert [c["name"] for c in report["checks"]] == ["g0", "g1", "g2", "g3"]
    assert any(span[0].startswith("suite.item.") for span in tracer.spans)
