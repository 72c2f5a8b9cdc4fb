"""Every function, class and method of the library is read somewhere that
ships or is the spec: the package itself, the benchmark, or the acceptance
tests.  A member that only unit tests read is dead weight unless it is
listed below with its reason.  So is every name a module assigns at its top
level, such as a constant that a deletion left behind, and every name it
imports and never reads."""

import ast

from test_bench_bindings import BENCH, _load_spans

ROOT = BENCH.parent
SRC = ROOT / "src" / "potens"

# module.qualified name: why it stays although only tests read it
TEST_ONLY = {
    "kernels.kernel_asymptotic": "leading-order boundary kernel; ROADMAP item 11 decides its fate",
    "kernels.boundary_diag_asymptotic": "its diagonal; ROADMAP item 11 decides its fate",
    "geometry.ExteriorMap.phi": "public phi(w) that checks |w| >= 1; the library calls _phi_raw",
    "geometry.ExteriorMap.phi_prime": "phi'(w), checked alike; the library calls _phi_prime_raw",
}


def _definitions():
    """(module.qualified name, file, first line, last line) of every def and
    class in src/potens, dunder methods left out: Python calls those itself."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = prefix + child.name
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        out.append((qual, path, child.lineno, child.end_lineno))
                    visit(child, qual + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), path.stem + ".")
    return out


def _assignments():
    """(module.name, file, first line, last line) of every name assigned by a
    top-level statement of a module in src/potens, dunders left out."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (name.id.startswith("__")
                                                           and name.id.endswith("__")):
                        out.append((f"{path.stem}.{name.id}", path, node.lineno, node.end_lineno))
    return out


def _reads():
    """name -> [(file, line)] of every Name and attribute that is read, in
    src/ (its __init__ re-exports are imports, not reads), bench/*.py and
    the acceptance tests, plus each part of the SPANS attribute paths."""
    reads = {}
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            reads.setdefault(name, []).append((path, node.lineno))
    for _, _, attr_path, _ in _load_spans().SPANS:
        for part in attr_path.split("."):
            reads.setdefault(part, []).append((BENCH / "spans.py", 0))
    return reads


def _outside_reads(entries=None):
    """qualified name -> its reads outside its own lines, for each of
    entries, (qualified name, file, first line, last line); by default every
    definition."""
    reads = _reads()
    return {qual: [r for r in reads.get(qual.rsplit(".", 1)[-1], [])
                   if not (r[0] == path and first <= r[1] <= last)]
            for qual, path, first, last in (_definitions() if entries is None else entries)}


def test_every_library_member_is_read_outside_its_definition():
    unread = [qual for qual, outside in _outside_reads().items()
              if not outside and qual not in TEST_ONLY]
    assert not unread, f"read by no shipped code: {unread}"


def test_every_listed_exception_is_still_defined_and_still_test_only():
    outside = _outside_reads()
    for qual in TEST_ONLY:
        assert qual in outside, f"{qual} is gone; drop it from TEST_ONLY"
        assert not outside[qual], f"{qual} is now read at {outside[qual]}; drop it from TEST_ONLY"


def test_every_module_level_name_is_read_outside_its_assignment():
    outside = _outside_reads(_assignments())
    assert {"geometry.BOUNDARY_TOL", "kernels._TAU_POWER_MAX", "moments.HEAD_TOL"} <= set(outside)
    unread = [name for name, reads in outside.items() if not reads]
    assert not unread, f"assigned at module level and read by no shipped code: {unread}"


def test_every_imported_name_is_read_in_its_module():
    # __init__ imports to re-export, and "from __future__ import annotations"
    # binds nothing that is read
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}.{name} (line {node.lineno})")
    assert not unread, f"imported and never read: {unread}"
