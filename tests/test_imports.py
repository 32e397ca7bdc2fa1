"""Every module-level import in the library is used, and the exports agree.

No linter is a dependency of the project, so this stands in for the
unused-import rule: each ``src/qdeform/*.py`` except ``__init__`` is parsed
with ``ast`` and every name bound by a top-level ``import`` must be read
somewhere in the module or listed in its ``__all__``, which is the module's
row of the package's ``_EXPORTS`` table (or, in a test source, a literal).
The package's public names and the modules' ``__all__`` must name the same
objects.  Only ``core`` and its numpy twin ``_array`` may read ``expm1`` or
``log1p``: the deformed log and exp have one kernel pair, and every other
module goes through it; each function outside ``core`` that calls the drop
or the lift kernel is listed with what decides the values it cannot
represent.  Only ``tables._Rows._built`` may switch the cyclic collector off
and on.  The scalar modules and the CLI import no numpy at module level, and
the CLI no qdeform module but ``errors``, so the scalar commands start
without numpy.
"""

import ast
import importlib
import inspect
import subprocess
import sys
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
            if isinstance(node.value, ast.Subscript):  # __all__ = _EXPORTS["<module>"]
                exported.update(qdeform._EXPORTS[ast.literal_eval(node.value.slice)])
            else:
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


def test_detector_reads_exports_from_the_table():
    source = ("from . import _EXPORTS\nfrom .core import q_exp, q_log, check_index\n"
              "__all__ = _EXPORTS['core']\n")
    assert unused_imports(source) == ["check_index"]


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


KERNEL_MODULES = ("core.py", "_array.py")  # the scalar pair and its numpy twin


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in KERNEL_MODULES],
                         ids=lambda p: p.name)
def test_only_core_reads_expm1_or_log1p(path):
    assert kernel_reads(path.read_text(encoding="utf-8")) == []


def test_kernel_detector_flags_every_spelling():
    source = ("import math\nimport numpy as np\nfrom math import log1p\n"
              "a = math.expm1(1.0)\nb = np.log1p(0.5)\nc = log1p\n"
              "expm1_doc = 'expm1 in a string is not a read'\n")
    assert kernel_reads(source) == ["expm1", "log1p", "log1p", "log1p"]
    for name in KERNEL_MODULES:
        assert kernel_reads((PACKAGE / name).read_text(encoding="utf-8"))


def scopes(source: str, module: str, matches) -> list:
    """``module.function`` (dotted through nested scopes) for each node of the
    source that ``matches(node)`` is true of."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(source), module)
    return found


def library_scopes(matches) -> list:
    """:func:`scopes` over every library module."""
    return [name for path in MODULES
            for name in scopes(path.read_text(encoding="utf-8"), path.stem, matches)]


def handles_overflow(node) -> bool:
    """An ``except`` clause whose exception type names ``OverflowError``."""
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(n, ast.Name) and n.id == "OverflowError" for n in ast.walk(node.type))


def calls(names):
    """A predicate: a call of a function named in ``names``, bare or as an
    attribute."""
    return lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names)


_HOT = "a scalar primitive: one call frame more is a measurable share of its per-call time"
# every except clause in the library that names OverflowError, with its reason;
# any other result past the largest double leaves through core._finite_or_overflow
OVERFLOW_HANDLERS = {
    "core._finite_or_overflow": "the one helper that names a result past the largest double",
    "core.q_log": _HOT,
    "core.q_exp": _HOT,
    "core.q_log_of_ratio": _HOT,
    "algebra._combine": _HOT,
    "dynamics.analytic_solution": _HOT,
    "combinatorics._check_count": "a count check: int() of inf or nan, with ValueError",
    "combinatorics._check_probabilities": "a probability check: the entries' fsum less 1",
    "combinatorics._log_q_range": "an fsum check that also catches ValueError (inf - inf)",
    "qgaussian.mlp_stationarity": "an fsum check of two results that also catches ValueError",
    "cli._cmd_eval": "names the command-line flags that gave a result past the largest double",
    "cli.main": "turns any input error, an overflow among them, into the one exit-1 line",
}


def test_overflow_handlers_are_the_listed_ones():
    assert sorted(library_scopes(handles_overflow)) == sorted(OVERFLOW_HANDLERS)


def test_overflow_handler_detector_names_each_scope():
    source = ("def f():\n    try:\n        pass\n    except (ValueError, OverflowError):\n"
              "        pass\n    def g():\n        try:\n            pass\n"
              "        except OverflowError as err:\n            pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert scopes(source, "m", handles_overflow) == ["m.f", "m.f.g"]


_Q_EXP = "falls back to core.q_exp for each value its own expression cannot represent"
# every function outside core that evaluates exp_q through the kernel's drop,
# with what decides a value past its fast path; core.q_exp is exp_q's one range policy
DROP_CALLERS = {
    "_array._q_exp_array": _Q_EXP,
    "canonical._frequencies": _Q_EXP,
    "dynamics.integrate_ode": "falls back to analytic_solution for each point its "
                              "expression cannot represent",
    "algebra._combine": "the q-product and q-ratio: a lift past the largest double "
                        "raises RangeOverflow, a range policy of their own",
    "algebra.q_product_fold.fold": "the q-product fold: a lift past the largest double "
                                   "raises RangeOverflow, as in _combine",
}


def test_drop_is_called_outside_core_only_where_listed():
    assert {name for name in library_scopes(calls({"_drop", "_drop_array"}))
            if name.partition(".")[0] != "core"} == set(DROP_CALLERS)


def test_drop_call_detector_names_each_scope():
    source = ("from .core import _drop\nimport qdeform._array as a\n"
              "def f(q, d):\n    def g():\n        return a._drop_array(q, d)\n"
              "    return _drop(q, d)\nh = _drop\nk = _drop(2.0, 0.5)\n")
    assert sorted(scopes(source, "m", calls({"_drop", "_drop_array"}))) == [
        "m", "m.f", "m.f.g"]


_Q_PRODUCT = "the q-product's own policy: a lift past the largest double raises RangeOverflow"
# every function outside core that forms log_q's lift y**(1-q) - 1 through the kernel,
# with what decides a lift past its fast path; core.q_log is log_q's one range policy
LIFT_CALLERS = {
    "_array._q_log_array": "falls back to core.q_log for each value its own expression "
                           "cannot represent",
    "algebra._combine": _Q_PRODUCT,
    "algebra.q_product_bracket": _Q_PRODUCT,
    "algebra._fold_lifts": _Q_PRODUCT,
    "combinatorics.tsallis_entropy.entropy": "entries in (0, 1] at an index <= 1 keep "
                                             "the lift in (-1, 0]",
    "verify._identities.associativity.products_in_margin": "a sampler's acceptance mask "
                                                           "on the brackets, not values",
    "verify._identities.folds.fold_in_margin": "a sampler's acceptance mask on the running "
                                               "brackets, not values",
}


def test_lift_is_called_outside_core_only_where_listed():
    assert {name for name in library_scopes(calls({"_lift", "_lift_array"}))
            if name.partition(".")[0] != "core"} == set(LIFT_CALLERS)


def switches_collector(node) -> bool:
    """A read of ``gc.disable`` or ``gc.enable``, or an import of them."""
    return (isinstance(node, ast.Attribute) and node.attr in {"disable", "enable"}
            and isinstance(node.value, ast.Name) and node.value.id == "gc") or (
        isinstance(node, ast.ImportFrom) and node.module == "gc" and any(
            a.name in {"disable", "enable"} for a in node.names))


# every scope of the library that switches the cyclic collector, with its reason
COLLECTOR_PAUSES = {
    "tables._Rows._built": "row tuples of numbers form no cycle, and a 3e5-row build "
                           "otherwise starts hundreds of collector passes",
}


def test_collector_is_switched_only_where_listed():
    assert set(library_scopes(switches_collector)) == set(COLLECTOR_PAUSES)


def test_collector_switch_detector_names_each_scope():
    source = ("import gc\nfrom gc import enable\nclass A:\n    def f(self):\n"
              "        gc.disable()\n        gc.isenabled()\ngc.collect()\n")
    assert scopes(source, "m", switches_collector) == ["m", "m.A.f"]


def module_level_imports(source: str) -> list:
    """Modules imported when the source runs as a module: every import
    outside a function body, as ``numpy`` or ``.core`` (relative)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "." * node.level + (node.module or "")
            if node.module is None:  # from . import core
                found.extend(base + a.name for a in node.names)
            else:
                found.append(base)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _reads_numpy(modules) -> list:
    return [m for m in modules if m.split(".")[0] == "numpy"]


# the modules on the import path of every eval command and canonicalize
@pytest.mark.parametrize("name", ["__init__.py", "__main__.py", "cli.py", "errors.py",
                                  "core.py", "algebra.py", "canonical.py",
                                  "combinatorics.py"])
def test_scalar_path_imports_no_numpy_at_module_level(name):
    assert _reads_numpy(module_level_imports((PACKAGE / name).read_text(
        encoding="utf-8"))) == []


def test_cli_imports_only_errors_at_module_level():
    own = [m for m in module_level_imports((PACKAGE / "cli.py").read_text(
        encoding="utf-8")) if m.startswith(".") or m.split(".")[0] == "qdeform"]
    assert own == [".errors"]


def test_import_detector_flags_every_spelling():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport numpy.linalg\nfrom numpy import errstate\n"
              "from .core import q_log\nfrom . import verify\nimport qdeform.tables\n"
              "if True:\n    import json\n"
              "class C:\n    import csv\n"
              "def f():\n    import math\n    from .algebra import q_product\n"
              "g = lambda: __import__('numpy')\n")
    found = module_level_imports(source)
    assert found == ["numpy", "numpy.linalg", "numpy", ".core", ".verify",
                     "qdeform.tables", "json", "csv"]
    assert _reads_numpy(found) == ["numpy", "numpy.linalg", "numpy"]


def _module_exports() -> Counter:
    counts = Counter()
    for path in MODULES:
        module = importlib.import_module(f"qdeform.{path.stem}")
        counts.update(getattr(module, "__all__", ()))
    return counts


def test_every_public_name_is_exported_by_one_module():
    exports = _module_exports()
    public = [name for name, module in qdeform._MODULE_OF.items() if module != "errors"]
    assert public
    assert {name: exports[name] for name in public
            if exports[name] != 1} == {}


def test_every_module_export_is_a_package_attribute():
    assert sorted(name for name in _module_exports()
                  if not hasattr(qdeform, name)) == []


# the package's public names before it resolved them lazily: the modules'
# exports, the error classes and the nine library modules
PUBLIC_NAMES = sorted([
    "CanonicalQLogForm", "CaseResult", "DiscreteQDistribution",
    "DomainViolation", "FigureTable", "NonPositiveArgument", "ObservationSequence",
    "QDeformError", "QGaussianModel", "RangeOverflow", "SUITE_NAMES", "SuiteReport",
    "Trajectory", "UnnormalizableModel", "algebra", "analytic_solution", "beta_from",
    "build_distribution", "canonical", "canonical_form", "combinatorics",
    "compose_shifts", "core", "dynamics", "errors", "fig2_data", "fig3_data",
    "frequency_rescale", "integrate_ode", "mlp_stationarity", "normalization", "q_exp",
    "q_exp_bracket", "q_gaussian_pdf", "q_log", "q_log_factorial", "q_log_likelihood",
    "q_log_multinomial", "q_log_of_ratio", "q_log_sum", "q_product",
    "q_product_bracket", "q_product_fold", "q_ratio", "q_stirling", "qgaussian",
    "rescale_factor", "run_all", "run_suite", "scale_drift_expand", "shift_expansion",
    "split_representation", "tables", "tsallis_correspondence", "tsallis_entropy",
    "verify",
])


def _fresh(code, src_env):
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, env=src_env, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_loads_no_module(src_env):
    code = ("import sys, qdeform, qdeform.cli; "
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('qdeform', 'numpy')))")
    assert _fresh(code, src_env).split() == ["qdeform", "qdeform.cli", "qdeform.errors"]


def test_entropy_loads_no_numpy_until_a_factorial(src_env):
    code = ("import sys, qdeform.combinatorics as c; "
            "c.tsallis_entropy(1.5, [0.5, 0.25, 0.25]); c.q_stirling(1.5, 10); "
            "print('numpy' in sys.modules); "
            "c.q_log_factorial(1.5, 10); print('numpy' in sys.modules)")
    assert _fresh(code, src_env).split() == ["False", "True"]


def test_star_import_dir_and_hasattr_give_the_public_names(src_env):
    code = ("import qdeform; "
            "print(*(n for n in dir(qdeform) if not n.startswith('_'))); "
            "namespace = {}; exec('from qdeform import *', namespace); "
            "print(*sorted(n for n in namespace if n != '__builtins__'))")
    listed, star = _fresh(code, src_env).splitlines()
    assert listed.split() == PUBLIC_NAMES
    assert star.split() == PUBLIC_NAMES
    assert sorted(qdeform.__all__) == PUBLIC_NAMES
    assert all(hasattr(qdeform, name) for name in PUBLIC_NAMES)


def test_names_resolve_to_their_modules():
    for name, module in qdeform._MODULE_OF.items():
        assert getattr(qdeform, name) is getattr(
            importlib.import_module(f"qdeform.{module}"), name)
    for module in qdeform._EXPORTS:
        assert getattr(qdeform, module) is importlib.import_module(f"qdeform.{module}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qdeform' has no attribute 'q_logg'"):
        qdeform.q_logg
    assert not hasattr(qdeform, "_array_kernels")
