"""Names that code outside the package reaches risecure by must resolve.

The benchmark's tracer (perfbench/spans.py) wraps functions by module and
attribute path; a target that no longer resolves would only show as a zero
per-layer metric in a traced run. The demos import by name and are not run
by this suite.
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


def test_demo_imports_resolve():
    found = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "risecure":
                found += [(demo.name, node.module, alias.name) for alias in node.names]
    assert len({demo for demo, _, _ in found}) == len(list((ROOT / "demos").glob("*.py")))
    for demo, module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{demo}: from {module} import {name}"
