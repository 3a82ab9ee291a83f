"""The functions the benchmark's tracer wraps must exist under their names.

`perfbench/tracing.py` looks each traced function up as an attribute of
`boxlab.<module>`; a rename or a move that drops one breaks the traced run
without any other test failing.  This test only reads the tracer's table.
"""

import importlib
import importlib.util
import os

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
