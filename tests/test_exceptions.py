"""Package-wide rules for exception handlers."""

import ast
from pathlib import Path

import stereoedit
from stereoedit.errors import error_text

SRC = Path(stereoedit.__file__).parent
BROAD = {"Exception", "BaseException"}

# The only handlers allowed to catch everything, by (module, function):
ALLOWED_CATCH_ALLS = {
    # scipy raises many unrelated types on corrupt WAV headers
    ("audio.py", "_read_pcm"),
    # these add a note naming the step or round, and re-raise the error
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


def test_no_code_assigns_to_an_args_attribute():
    # a label goes on as a note: the str() of an OSError ignores its args
    stores = [(path.name, node.lineno)
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(),
                                             filename=str(path)))
              if isinstance(node, ast.Attribute) and node.attr == "args"
              and not isinstance(node.ctx, ast.Load)]
    assert stores == []


def test_error_text_puts_the_outermost_note_first():
    exc = OSError(20, "Not a directory")
    exc.add_note("step 0 (Remove the sound of rain)")  # the inner handler
    exc.add_note("round 1")
    assert error_text(exc) == ("round 1: step 0 (Remove the sound of rain): "
                               "[Errno 20] Not a directory")
    assert error_text(ValueError("plain")) == "plain"
