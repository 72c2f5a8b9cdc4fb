"""Every function, class and method of the library is read somewhere that
ships or is the spec: the package itself, the benchmark, or the acceptance
tests.  A member that only unit tests read is dead weight unless it is
listed below with its reason."""

import ast
from pathlib import Path

from test_bench_bindings import BENCH, _load_spans

ROOT = BENCH.parent
SRC = ROOT / "src" / "potens"

# module.qualified name: why it stays although only tests read it
TEST_ONLY = {
    "kernels.kernel_asymptotic": "leading-order boundary kernel; ROADMAP item 11 decides its fate",
    "kernels.boundary_diag_asymptotic": "its diagonal; ROADMAP item 11 decides its fate",
    "geometry.ExteriorMap.phi": "public phi(w) that checks |w| >= 1; the library calls _phi_raw",
    "geometry.ExteriorMap.phi_prime": "phi'(w), checked alike; the library calls _phi_prime_raw",
    "faber.FaberBasis.outer_series": "a row of the outer Laurent table, for the remainder tests",
    "faber.FaberBasis.remainder_series": "E_n(phi(w)) phi'(w), for the remainder-decay tests",
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


def _outside_reads():
    """qualified name -> its reads outside its own definition."""
    reads = _reads()
    return {qual: [r for r in reads.get(qual.rsplit(".", 1)[-1], [])
                   if not (r[0] == path and first <= r[1] <= last)]
            for qual, path, first, last in _definitions()}


def test_every_library_member_is_read_outside_its_definition():
    unread = [qual for qual, outside in _outside_reads().items()
              if not outside and qual not in TEST_ONLY]
    assert not unread, f"read by no shipped code: {unread}"


def test_every_listed_exception_is_still_defined_and_still_test_only():
    outside = _outside_reads()
    for qual in TEST_ONLY:
        assert qual in outside, f"{qual} is gone; drop it from TEST_ONLY"
        assert not outside[qual], f"{qual} is now read at {outside[qual]}; drop it from TEST_ONLY"
