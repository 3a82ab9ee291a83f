"""The functions the benchmark's tracer wraps must exist under their names.

`perfbench/tracing.py` looks each traced function up as an attribute of
`boxlab.<module>`, and reads some arguments by position; a rename, a move
or a reordered signature breaks the traced run without any other test
failing.  These tests only read the tracer's file.
"""

import importlib
import importlib.util
import inspect
import os

from boxlab.boxnorm import box_norm, box_power_direct
from boxlab.engine import sup_multilinear

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_table():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    table = _traced_table()
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
