"""Every name a module imports is used in that module.

The scan covers ``src/awgp`` (``__init__.py``, which only re-exports, aside) and ``tests/``.
The one exception is a name that ``bench/tracing.py`` wraps on the module by name: the
tracer can only time a call that goes through a module attribute, so such a module imports
the name without calling it.  ``TRACER_ONLY`` lists those imports in one place; a
diagnostics record inside the package would let them go (ROADMAP.md, item 5).
"""

import ast
from pathlib import Path

from test_bench_bindings import _load_tracing

ROOT = Path(__file__).resolve().parents[1]

TRACER_ONLY = {
    ("awgp.gauss_aw", "graded_gauss"),
    ("awgp.kernels", "graded_midpoint"),
    ("awgp.mart_approx", "eval_mg_kernel"),
    ("awgp.mart_approx", "graded_gauss"),
}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used_or_traced():
    modules = [(f"awgp.{p.stem}", p) for p in sorted((ROOT / "src" / "awgp").glob("*.py"))
               if p.name != "__init__.py"]
    modules += [(f"tests.{p.stem}", p) for p in sorted((ROOT / "tests").glob("*.py"))]
    unused = {(mod, name) for mod, path in modules for name in _unused_imports(path)}
    traced = {(getattr(owner, "__name__", None), attr)
              for owner, attr, _, _ in _load_tracing().bindings()}
    assert unused == TRACER_ONLY
    assert TRACER_ONLY <= traced
