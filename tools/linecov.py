"""List the statements of src/tantheta that tier-1 never executes.

    python3 tools/linecov.py

Runs tier-1 (the tests under tests/) in this process under the standard
library's trace module, with this checkout's src/ first on the path, and
prints `file:line` for each statement that no test executed. Code that runs
unconditionally at import, the statements at module top level and directly
in a top-level class body, is not counted; every other statement is: function
bodies, and the body of a module-level `if`. Tests that run the CLI in a
subprocess add nothing, since only this process is traced.

A module's `if __name__ == "__main__":` block never runs under pytest; its
statements are listed as expected and do not fail the run. Exit code 0 when
nothing else is listed, 1 when something is, and 2 when tier-1 fails or the
package is not imported from this checkout.
"""
from __future__ import annotations

import ast
import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tantheta"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
BODIES = ("body", "orelse", "handlers", "finalbody", "cases")


class _PackageOnly:
    """trace's ignore hook, deciding by file name. trace's own ignoredirs
    caches each decision by bare module name, so an ignored site-packages
    errors.py would hide the package's errors.py too."""

    @staticmethod
    def names(filename, modulename) -> bool:
        return not filename.startswith(str(PACKAGE) + os.sep)


def _is_main_guard(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__")


def counted_statements(tree: ast.Module):
    """(first line, last line, in a __main__ guard) of each counted simple
    statement; a def or class inside counted code counts by its header."""
    out = []

    def visit(body, counted, guard):
        for i, node in enumerate(body):
            if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # a docstring compiles to no instruction
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if counted:
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out.append((first, node.lineno, guard))
                is_def = not isinstance(node, ast.ClassDef)
                visit(node.body, counted or is_def, guard)
                continue
            children = [getattr(node, name) for name in BODIES if getattr(node, name, None)]
            if not children:
                if counted:
                    out.append((node.lineno, node.end_lineno, guard))
                continue
            for child in children:
                if isinstance(child[0], (ast.ExceptHandler, ast.match_case)):
                    for part in child:
                        visit(part.body, True, guard)
                else:
                    visit(child, True, guard or _is_main_guard(node))

    visit(tree.body, False, False)
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest
    import tantheta

    if Path(tantheta.__file__).resolve().parent != PACKAGE:
        print(f"error: tantheta was imported from {tantheta.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    code = tracer.runfunc(pytest.main, TIER1)
    if code != 0:
        print(f"error: tier-1 exited {int(code)}", file=sys.stderr)
        return 2
    hit = {}
    for (filename, line) in tracer.results().counts:
        hit.setdefault(str(Path(filename).resolve()), set()).add(line)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hit.get(str(path.resolve()), set())
        for first, last, guard in counted_statements(ast.parse(path.read_text())):
            if lines.isdisjoint(range(first, last + 1)):
                missed += not guard
                note = "  (the __main__ guard; expected)" if guard else ""
                print(f"{path.relative_to(ROOT)}:{first}{note}")
    print(f"{missed} unexecuted statement(s) outside a __main__ guard")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
