"""Names that code outside the package reaches risecure by must resolve.

The benchmark's tracer (perfbench/spans.py) wraps functions by module and
attribute path; a target that no longer resolves would only show as a zero
per-layer metric in a traced run, and one a class inherits would be
counted in every codec's span. The benchmark's other code reads module
attributes such as `isa.asm_sw`, which a rename would break only when the
benchmark runs. The demos import by name and are not run by this suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    spans = _load_spans()
    for name, (module, path) in spans.SPANS.items():
        assert callable(spans._resolve(module, path)), name
    assert callable(spans._resolve("risecure.isa", "step"))


def test_benchmark_span_targets_are_defined_on_their_class():
    # the tracer finds class attributes through vars(cls); a target that a
    # class only inherits would be wrapped on the base, once per subclass
    spans = _load_spans()
    for name, (module, path) in spans.SPANS.items():
        if "." in path:
            cls_name, attr = path.rsplit(".", 1)
            assert attr in vars(spans._resolve(module, cls_name)), name


def _dotted(node):
    """'a.b.c' for a chain of attribute reads rooted at a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def test_benchmark_module_attributes_resolve():
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> risecure module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "risecure":
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "risecure":
                for alias in node.names:
                    try:  # a submodule, or else a name read from node.module
                        importlib.import_module(f"{node.module}.{alias.name}")
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    except ModuleNotFoundError:
                        found.append((path.name, node.module, alias.name))
        for node in ast.walk(tree):
            parts = (_dotted(node) or "").split(".") if isinstance(node, ast.Attribute) else []
            # the longest module prefix, then the name read from that module
            for cut in range(len(parts) - 1, 0, -1):
                local = ".".join(parts[:cut])
                if local in modules:
                    found.append((path.name, modules[local], parts[cut]))
                    break
    assert any(name == "asm_sw" for _, _, name in found)
    for script, module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"


def test_demo_imports_resolve():
    found = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "risecure":
                found += [(demo.name, node.module, alias.name) for alias in node.names]
    assert len({demo for demo, _, _ in found}) == len(list((ROOT / "demos").glob("*.py")))
    for demo, module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{demo}: from {module} import {name}"
