"""No floating point in ``gapcover`` outside its approximate diagnostics.

Every claim the package reports is exact, so the canonical reports cannot
depend on the interpreter's float arithmetic.  The ``ast`` of each module
in ``src/gapcover`` is walked for the ways a float is written there: a
float literal, a call of ``float``, a call of a float function of ``math``
(``math.sqrt`` and its kind, by attribute or imported by name), and a
float constant of ``math`` (``math.pi`` and its kind).  They are allowed
only in the functions below, which write wall-clock timings, the
``*_approx`` fields of a report, or the CSV's convenience columns; each of
those must still use one, so that the list cannot go stale.

The walk cannot see true division of two ints (``a / b`` gives a float),
since the operands' types are not in the source.  The reports catch it
instead: every number of a cover-mode and a verify-mode report outside the
``*_approx`` fields must be an int, for the golden instances.
"""

import ast
from pathlib import Path

import pytest

from gapcover.harness import batch_report_to_json, run_batch

from _golden import instances as golden_instances

SRC = Path(__file__).resolve().parent.parent / "src" / "gapcover"

MATH_FLOAT = {
    "sqrt", "exp", "log", "log2", "log10", "log1p", "pow", "hypot", "fsum", "dist", "cos", "sin", "tan", "atan2",
}

MATH_CONST = {"pi", "e", "tau", "inf", "nan"}

# (module, function): writes timings, *_approx fields or the CSV
APPROXIMATE = {
    ("cover", "cover"),
    ("cover", "verify_cover"),
    ("cover", "_certify"),
    ("harness", "cover_report_to_json"),
    ("harness", "run_batch"),
    ("harness", "batch_to_csv"),
}


def float_uses(source: str) -> list[tuple[str, int, str]]:
    """(innermost enclosing function or "<module>", line, what) for each
    float literal, float() call, math float function and math float
    constant in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                what = "float()"
            elif isinstance(f, ast.Attribute) and f.attr in MATH_FLOAT and getattr(f.value, "id", None) == "math":
                what = f"math.{f.attr}()"
        elif isinstance(node, ast.Attribute) and node.attr in MATH_CONST and getattr(node.value, "id", None) == "math":
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in MATH_FLOAT | MATH_CONST or a.name == "*"]
            if names:
                what = f"from math import {', '.join(names)}"
        if what is not None:
            found.append((scope, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_float_outside_approximate_diagnostics(path):
    uses = float_uses(path.read_text())
    stray = [(scope, line, what) for scope, line, what in uses if (path.stem, scope) not in APPROXIMATE]
    assert not stray, f"{path.name}: float arithmetic outside the approximate diagnostics: {stray}"


def test_every_allowed_function_uses_a_float():
    used = {(path.stem, scope) for path in MODULES for scope, _, _ in float_uses(path.read_text())}
    assert APPROXIMATE <= used, sorted(APPROXIMATE - used)


@pytest.mark.parametrize(
    "source",
    [
        "def f(x):\n    return x * 0.5\n",
        "def f(x):\n    return float(x)\n",
        "import math\ndef f(x):\n    return math.sqrt(x)\n",
        "import math\ndef f(x):\n    return math.log(x, 2)\n",
        "from math import exp\n",
        "def f(x):\n    return x ** 1e-3\n",
        "import math\ndef f(x):\n    return x * math.pi\n",
        "import math\ndef f(x):\n    return min(x, math.inf)\n",
        "from math import tau\n",
    ],
    ids=["literal", "float-call", "sqrt", "log", "import-exp", "exponent", "pi", "inf", "import-tau"],
)
def test_detector_flags_each_form(source):
    assert float_uses(source)


def test_detector_passes_exact_code():
    source = "import math\ndef f(x, y):\n    return math.isqrt(x) + math.floor(y) + isinstance(y, float)\n"
    assert float_uses(source) == []


def numbers_outside_approx(doc, path="report"):
    """(path, value) for every number of a report document that is not an
    int, outside the ``*_approx`` fields."""
    if isinstance(doc, dict):
        return [x for key, value in doc.items() if not key.endswith("_approx") for x in numbers_outside_approx(value, f"{path}.{key}")]
    if isinstance(doc, (list, tuple)):
        return [x for i, value in enumerate(doc) for x in numbers_outside_approx(value, f"{path}[{i}]")]
    if isinstance(doc, (int, str, bool)) or doc is None:
        return []
    return [(path, doc)]


def test_reports_hold_no_float_outside_approximate_fields():
    # a float from int / int anywhere in the pipeline reaches a report field
    # (Fractions are written as strings)
    for name, spec in golden_instances():
        doc = batch_report_to_json(run_batch([spec]))
        assert not numbers_outside_approx(doc), (name, numbers_outside_approx(doc))


def test_report_walk_flags_a_float():
    doc = {"a": [1, "2/3", {"b": 0.5}], "timings_ms_approx": {"c": 1.5}}
    assert numbers_outside_approx(doc) == [("report.a[2].b", 0.5)]
