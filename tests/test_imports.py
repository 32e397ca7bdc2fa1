"""Every module-level import in the library is used, and the exports agree.

No linter is a dependency of the project, so this stands in for the
unused-import rule: each ``src/qdeform/*.py`` except ``__init__`` is parsed
with ``ast`` and every name bound by a top-level ``import`` must be read
somewhere in the module or listed in its ``__all__``.  The package's public
names and the modules' ``__all__`` lists must name the same objects.  Only
``core`` may read ``expm1`` or ``log1p``: the deformed log and exp have one
kernel pair, and every other module goes through it.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import qdeform

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


KERNEL_NAMES = {"expm1", "log1p"}


def kernel_reads(source: str) -> list:
    """Names and attributes in KERNEL_NAMES that the source reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in KERNEL_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in KERNEL_NAMES:
            found.append(node.name)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_reads_expm1_or_log1p(path):
    assert kernel_reads(path.read_text(encoding="utf-8")) == []


def test_kernel_detector_flags_every_spelling():
    source = ("import math\nimport numpy as np\nfrom math import log1p\n"
              "a = math.expm1(1.0)\nb = np.log1p(0.5)\nc = log1p\n"
              "expm1_doc = 'expm1 in a string is not a read'\n")
    assert kernel_reads(source) == ["expm1", "log1p", "log1p", "log1p"]
    assert kernel_reads((PACKAGE / "core.py").read_text(encoding="utf-8"))


def _module_exports() -> Counter:
    counts = Counter()
    for path in MODULES:
        module = importlib.import_module(f"qdeform.{path.stem}")
        counts.update(getattr(module, "__all__", ()))
    return counts


def test_every_public_name_is_exported_by_one_module():
    exports = _module_exports()
    public = [name for name, obj in vars(qdeform).items()
              if not name.startswith("_") and not inspect.ismodule(obj)
              and getattr(obj, "__module__", None) != "qdeform.errors"]
    assert public
    assert {name: exports[name] for name in public
            if exports[name] != 1} == {}


def test_every_module_export_is_a_package_attribute():
    assert sorted(name for name in _module_exports()
                  if not hasattr(qdeform, name)) == []
