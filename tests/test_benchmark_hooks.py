"""The functions the benchmark's tracer wraps must stay in the package.

``perfbench/tracer.py`` wraps package functions by dotted name, and these
tests do not run the benchmark, so a removed or renamed target would only
show as a broken traced run. The names are read with ``ast``, so the tracer
is never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> tuple[str, ...]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_tracer_target_is_a_package_function():
    targets = _tracer_targets()
    assert targets
    unresolved = []
    for target in targets:
        module, *names = target.split(".")
        obj = importlib.import_module(f"stereoedit.{module}")
        for name in names:
            obj = getattr(obj, name, None)
        if not inspect.isfunction(obj):
            unresolved.append(target)
    assert unresolved == []
