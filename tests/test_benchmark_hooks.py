"""The functions the benchmark's tracer wraps must stay in the package, and
its per-call helpers must accept every call to the function they measure.

``perfbench/tracer.py`` wraps package functions by dotted name and calls a
key or volume helper with each call's own arguments. These tests do not run
the benchmark, so a removed or renamed target, or a target that gained a
parameter its helper lacks, would only show as a broken traced run. The
tracer is read with ``ast`` and never imported.
"""

import __future__
import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TREE = ast.parse(TRACER.read_text(), filename=str(TRACER))
P = inspect.Parameter


def _assigned(name: str) -> ast.expr:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACER} assigns no {name}")


def _resolve(target: str):
    """The package function a dotted tracer target names, or None."""
    module, *names = target.split(".")
    obj = importlib.import_module(f"stereoedit.{module}")
    for name in names:
        obj = getattr(obj, name, None)
    return obj if inspect.isfunction(obj) else None


def _helper(name: str):
    """A stub with the signature of the tracer's function ``name``."""
    (node,) = [n for n in TREE.body
               if isinstance(n, ast.FunctionDef) and n.name == name]
    node.body = [ast.Pass(lineno=node.lineno, col_offset=node.col_offset)]
    code = compile(ast.Module([node], []), str(TRACER), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)  # annotations stay unevaluated
    namespace = {}
    exec(code, namespace)
    return namespace[name]


def _helpers() -> dict[str, str]:
    """Target -> name of each DISTINCT key and VOLUME size helper."""
    distinct, volume = _assigned("DISTINCT"), _assigned("VOLUME")
    names = [value.elts[1] for value in distinct.values] + volume.values
    return {ast.literal_eval(key): name.id
            for key, name in zip(distinct.keys + volume.keys, names)}


def _call(params, by_name: bool):
    """(args, kwargs) passing ``params`` by position, or by name where
    they can be."""
    by_position = {P.POSITIONAL_ONLY} | (
        set() if by_name else {P.POSITIONAL_OR_KEYWORD})
    return ([p.name for p in params if p.kind in by_position],
            {p.name: None for p in params if p.kind not in by_position})


def _calls(target):
    """Three calls the target accepts: its required parameters; every
    parameter by position, plus one more argument for each of its
    ``*args`` and ``**kwargs``; every parameter by name."""
    params = inspect.signature(target).parameters.values()
    kinds = {p.kind for p in params}
    fixed = [p for p in params
             if p.kind not in (P.VAR_POSITIONAL, P.VAR_KEYWORD)]
    args, kwargs = _call(fixed, by_name=False)
    if P.VAR_POSITIONAL in kinds:
        args.append(None)
    if P.VAR_KEYWORD in kinds:
        kwargs["extra"] = None
    return [_call([p for p in fixed if p.default is P.empty], by_name=False),
            (args, kwargs), _call(fixed, by_name=True)]


def test_every_tracer_target_is_a_package_function():
    targets = ast.literal_eval(_assigned("TARGETS"))
    assert targets
    assert [t for t in targets if _resolve(t) is None] == []


def test_every_tracer_helper_accepts_its_targets_calls():
    helpers = _helpers()
    assert helpers
    rejected = []
    for target, name in helpers.items():
        signature = inspect.signature(_helper(name))
        for args, kwargs in _calls(_resolve(target)):
            try:
                signature.bind(*args, **kwargs)
            except TypeError as exc:
                rejected.append(f"{name} for {target}: {exc}")
    assert rejected == []
