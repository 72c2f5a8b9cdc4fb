"""The benchmark under bench/ reaches into potens by name; every name it
reads must exist, or a benchmark run fails where no other test looks."""

import ast
import importlib
import importlib.util
from pathlib import Path

import potens
import potens.cli  # noqa: F401  -- the benchmark imports it first

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _potens_module(node, aliases):
    """The potens module an expression stands for: the name `potens`,
    `<any>["potens.x"]` (a sys.modules lookup) or a name assigned one."""
    if isinstance(node, ast.Name):
        return "potens" if node.id == "potens" else aliases.get(node.id)
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str) and node.slice.value.startswith("potens")):
        return node.slice.value
    return None


def _names_read(path: Path) -> set:
    """Dotted potens names that a file imports or reads as attributes."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            module = _potens_module(node.value, {})
            if isinstance(target, ast.Name) and module:
                aliases[target.id] = module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("potens"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("potens"))
        elif isinstance(node, ast.Attribute):
            chain = []
            base = node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            module = _potens_module(base, aliases)
            if module:
                names.add(".".join([module] + chain[::-1]))
    return names


def _resolve(dotted: str):
    """The object a dotted name stands for, from its longest importable
    module prefix on: the package attribute `potens.moments` is the
    function of that name, which hides the submodule."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def test_every_span_target_resolves():
    spans = _load_spans()
    assert len(spans.SPANS) >= 10
    for name, mod_name, path, _ in spans.SPANS:
        owner = importlib.import_module(f"potens.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"span {name}: potens.{mod_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_inside_marker_is_defined():
    assert hasattr(potens.geometry, "INSIDE")


def test_every_potens_name_the_benchmark_reads_exists():
    names = set()
    for script in ("selftest.py", "child.py", "spans.py"):
        names |= _names_read(BENCH / script)
    # the scan itself finds the names of all three access styles
    assert {"potens.cli.main", "potens.pointprocess.radius_cdf",
            "potens.pointprocess.kernel_r1_binned", "potens.moments.moments",
            "potens.geometry.INSIDE"} <= names
    for dotted in sorted(names):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError) as exc:
            raise AssertionError(f"the benchmark reads {dotted}, which is missing") from exc
