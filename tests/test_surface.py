import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "surface.py")

SAMPLE = '''"""Module docstring,
on two lines."""

from dataclasses import dataclass, field

# a comment


def public(a, b=1, *, c=2, d):
    """One-line docstring."""
    return a + b + c + d


def _private(a=1):
    return a


@dataclass(frozen=True)
class Spec:
    n: int
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def scaled(self, k=2):
        return self.n * k

    def _hidden(self, k=3):
        return k


class Plain:
    size: int = 4

    def __init__(self, size=4):
        self.size = size
'''


def run(*args):
    proc = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {row.split()[0]: [int(x) for x in row.split()[1:]]
            for row in proc.stdout.splitlines()[1:]}


def test_counts_on_a_sample_package(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    rows = run(str(tmp_path))
    # 35 lines, 18 of them code (no docstring, comment or blank line).
    # Settable: b, c; Spec.seed, Spec.extra, k of scaled; size of __init__.
    # Plain is not a dataclass, so its class attribute is no field.
    assert rows == {"sample": [35, 18, 6], "total": [35, 18, 6]}


def test_package_totals_add_up():
    rows = run()
    total = rows.pop("total")
    assert "pseudo" in rows and "engine" in rows
    assert total == [sum(col) for col in zip(*rows.values())]
    package = os.path.join(ROOT, "src", "boxlab")
    with open(os.path.join(package, "engine.py"), encoding="utf-8") as fh:
        assert rows["engine"][0] == fh.read().count("\n")
