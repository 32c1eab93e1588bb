#!/usr/bin/env python3
"""List every definition in src/commsyz that no desk-scale command runs.

Runs a fixed list of `commsyz` command lines in process under
`sys.setprofile`, recording the code object of every Python call, and then
checks each non-dunder function, method and class that `src/commsyz`
defines (functions nested in functions are local and skipped).  A function
or method counts as run when its code ran; a class, when one of its own
functions ran, those that `dataclass` and `NamedTuple` generate included,
so building an instance counts.  The package is imported under the
profile, so module-level tables count too.  A definition may be exempt by
name, each with its reason in EXEMPT; a class's name exempts its methods.

`tests/test_reachability.py` checks only that some code names each
definition; this check sees what actually runs.  It takes a few seconds,
so it runs in CI and not in tier-1.  Exit status is 1 when a command line
exits nonzero (each such line is named with its status), when a definition
that is not exempt never ran, or when an exemption names a definition that
did run or no longer exists.  An exception other than a usage error ends
the run with its traceback.

Example:
    PYTHONPATH=src python3 scripts/reach.py
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

#: the package as it is imported, found without running any of its modules
PACKAGE = Path(importlib.util.find_spec("commsyz").submodule_search_locations[0])

#: the command lines, each run as `commsyz <line>`; {matrix} is a file that
#: holds the 2x2 identity, a trace syzygy, and {empty} a directory with no
#: fixtures
COMMAND_LINES = (
    "verify -n 2",
    "verify -n 3",
    "verify -n 4",
    "verify -n 3 --field q",
    "verify -n 3 --order lex",
    "verify -n 3 --budget-spairs 50",
    "verify -n 2 --json",
    "commutator -n 2 --field q",
    "candidates --max-degree 3",
    "groebner -n 3 --degree-bound 4",
    "groebner -n 4 --degree-bound 5",
    "groebner -n 2 --ideal J --json",
    "colon -n 3",
    "syzygies -n 3",
    "syzygy-check -n 2 --matrix {matrix}",
    "hilbert -n 3",
    "check-splice -n 3",
    "check-splice -n 3 --fixtures {empty}",
    "predict betti -n 3",
    "predict colon-degrees -n 4",
    "predict shape -n 3",
    "predict knutson -n 3",
)

#: qualified name -> why no desk-scale command runs it
EXEMPT = {
    "intersect_ideals": "held only by the tracer, which wraps it (perfbench/tracer.py)",
    "module_membership": "held only by the tracer, which wraps it (perfbench/tracer.py)",
    "BlockElimination": "held only by the tracer, which wraps its encode (perfbench/tracer.py)",
    "eval_expr": "held only by the tracer, which wraps it (perfbench/tracer.py)",
    "is_trace_syzygy": "held only by the tracer, which wraps it (perfbench/tracer.py)",
    "compile_poly": "held only by the tracer, which wraps it (perfbench/tracer.py)",
    "check_product": "a cap guard: runs only past 255 in a packed exponent",
    "packed_lcm": "a cap guard: runs only past 255 in a packed exponent",
    "MonomialOrder.encode": "a fallback: every order the program builds overrides it",
    "_bad_exponent": "an error path: names an exponent that does not fit",
    "PolyRing.same_signature": "a fallback: runs only for polynomials of two ring objects",
    "IncompleteBasisError": "an exception type, which runs no code of its own",
    "FixtureNotFound": "an exception type, which runs no code of its own",
}


def _definitions():
    """(file:line, module name, qualified name, AST node) of every non-dunder
    def and class, methods included."""
    out = []

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    where = f"{path.relative_to(PACKAGE.parents[1])}:{child.lineno}"
                    out.append((where, module, prefix + name, child))
                if isinstance(child, ast.ClassDef):
                    visit(child, path, module, f"{prefix}{name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text()), path, module, "")
    return out


def _codes(value):
    """The code objects of a class attribute: a function, a property's
    accessors, a static or class method."""
    if isinstance(value, property):
        return [f.__code__ for f in (value.fget, value.fset, value.fdel) if f]
    value = getattr(value, "__func__", value)
    code = getattr(value, "__code__", None)
    return [code] if code else []


def _run(argv, seen) -> int:
    """The exit status of `commsyz argv`, run in process under the profile."""
    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from commsyz import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # a usage error
        return exc.code
    finally:
        sys.setprofile(None)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    seen, failed = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "identity.txt"
        matrix.write_text("1;0\n0;1\n")
        for line in COMMAND_LINES:
            code = _run(line.format(matrix=matrix, empty=tmp).split(), seen)
            if code:
                failed.append(f"exit {code}: commsyz {line}")

    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in seen}
    defined, unreached, ran_anyway = set(), [], []
    for where, module, qualname, node in _definitions():
        defined.add(qualname)
        if isinstance(node, ast.ClassDef):
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            hit = any(c in seen for value in vars(obj).values() for c in _codes(value))
        else:  # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            hit = (str(PACKAGE.parents[1] / where.rsplit(":", 1)[0]), first, node.name) in ran
        if qualname in EXEMPT and hit:
            ran_anyway.append(qualname)
        elif not hit and not any(qualname == n or qualname.startswith(n + ".") for n in EXEMPT):
            unreached.append(f"{where} {qualname}")
    stale = ran_anyway + sorted(set(EXEMPT) - defined)
    print(f"{len(COMMAND_LINES)} command lines, {len(seen)} code objects ran")
    for entry in failed:
        print(f"command line failed: {entry}")
    for entry in unreached:
        print(f"never ran: {entry}")
    for name in stale:
        print(f"exempt but ran or not defined: {name} ({EXEMPT[name]})")
    return 1 if failed or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
