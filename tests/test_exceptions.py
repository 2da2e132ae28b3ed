"""Package-wide rules for exception handlers."""

import ast
from pathlib import Path

import stereoedit

SRC = Path(stereoedit.__file__).parent
BROAD = {"Exception", "BaseException"}

# The only handlers allowed to catch everything, by (module, function):
ALLOWED_CATCH_ALLS = {
    # scipy raises many unrelated types on corrupt WAV headers
    ("audio.py", "read_wav"),
    # these label the error with its step or round and re-raise it
    ("engine.py", "execute_plan"),
    ("metrics.py", "roundtrip_drift"),
}


class _CatchAlls(ast.NodeVisitor):
    """Collects (module, enclosing function) of each catch-all handler."""

    def __init__(self, module):
        self.module, self.function, self.found = module, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        if any(t is None or (isinstance(t, ast.Name) and t.id in BROAD)
               for t in types):
            self.found.append((self.module, self.function))
        self.generic_visit(node)


def test_only_the_allowed_handlers_catch_everything():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _CatchAlls(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    assert sorted(found) == sorted(ALLOWED_CATCH_ALLS)
