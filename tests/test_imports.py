"""Every module-level import in the library is used.

No linter is a dependency of the project, so this stands in for the
unused-import rule: each ``src/qdeform/*.py`` except ``__init__`` is parsed
with ``ast`` and every name bound by a top-level ``import`` must be read
somewhere in the module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdeform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_modules_found():
    assert {"core.py", "algebra.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .errors import DomainViolation, QDeformError\n"
              "__all__ = ['QDeformError']\n"
              "def f():\n    import sys\n    return np.pi\n")
    assert unused_imports(source) == ["DomainViolation", "math", "os"]
