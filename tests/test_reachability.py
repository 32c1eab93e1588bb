"""Every function, method and class defined in `src/commsyz` is reached from
the program: some code in `src/`, `scripts/` or `perfbench/` names it.

A definition that only tests call belongs in `tests/` (see `oracles.py`),
not in the library.  A name counts when code uses it as a name, an
attribute or an import, or when `perfbench/tracer.py` lists it in a target
path; docstrings and comments never count.  Dunder methods are exempt,
since Python calls them.  The test matches names, not bindings, so a
definition that shares its name with something used elsewhere (a local
variable, another class's method) passes unseen.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "commsyz"
TRACER = ROOT / "perfbench" / "tracer.py"
CODE_DIRS = ("src", "scripts", "perfbench")


def _definitions():
    """(file:line, qualified name, name) of every non-dunder def and class,
    methods included; functions nested in functions are local and skipped."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    where = f"{path.relative_to(ROOT)}:{child.lineno}"
                    out.append((where, prefix + name, name))
                if isinstance(child, ast.ClassDef):
                    visit(child, path, f"{prefix}{name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def _tracer_target_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    paths = [path for layer in module.LAYERS for path, _, _ in layer["targets"]]
    return {part for path in paths for part in path.split(".")}


def _names_used_in_code():
    used = set()
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used | _tracer_target_names()


def test_every_library_definition_is_reached_outside_the_tests():
    used = _names_used_in_code()
    unreached = [f"{where} {qual}" for where, qual, name in _definitions() if name not in used]
    assert not unreached, "defined in src/commsyz, named only by tests:\n" + "\n".join(unreached)


def test_the_scan_sees_definitions_and_uses():
    defined = {qualname for _, qualname, _ in _definitions()}
    assert {"PolyRing.dot", "Engine.run", "normal_form", "DeskContext"} <= defined
    assert not any(q.rsplit(".", 1)[-1].startswith("__") for q in defined)
    used = _names_used_in_code()
    # an import, an attribute, a tracer target path
    assert {"normal_form", "dot", "eval_expr", "decompile"} <= used
