"""Guard against calls to names that no module defines, and against
definitions that no module reads.

Every ``LOAD_GLOBAL``/``LOAD_NAME`` in a ``gapcover`` module must resolve to
an attribute of that module or to a builtin; otherwise the call site raises
``NameError`` only when it is reached.  Every top-level function and every
non-dunder method must be read somewhere in ``gapcover`` (a global or name
load, an attribute or method load, or a ``from ... import``); otherwise it is
code that only the tests run.  The names in ``gapcover.__all__`` and the
console entry point ``cli.main`` are read from outside.  Every name a module
binds with a relative import must be read in that module, annotations
included, except the package's re-exports and the attributes the
benchmark's tracer wraps.  Stdlib only: each module's source is compiled and
its code objects are walked with ``dis``; the imports are read from its
``ast``.
"""

import ast
import builtins
import dis
import importlib
import inspect
import pkgutil
import types

import pytest

import gapcover
from test_trace_sites import traced_sites

GLOBAL_LOADS = {"LOAD_GLOBAL", "LOAD_NAME"}


def undefined_globals(code: types.CodeType, namespace) -> list[tuple[str, str]]:
    """(code name, name) for each global load in ``code`` not in ``namespace``.

    Nested code objects are walked too.  A ``LOAD_NAME`` may also read a name
    its own code object stores (a class body reading its earlier attributes),
    or the ``__annotations__`` that a class body sets up.
    """
    known = set(namespace) | set(dir(builtins))
    found = []

    def walk(co):
        instrs = list(dis.get_instructions(co))
        stored = {i.argval for i in instrs if i.opname == "STORE_NAME"} | {"__annotations__"}
        for ins in instrs:
            if ins.opname not in GLOBAL_LOADS or ins.argval in known:
                continue
            if ins.opname == "LOAD_NAME" and ins.argval in stored:
                continue
            found.append((getattr(co, "co_qualname", co.co_name), ins.argval))
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(code)
    return found


# LOAD_METHOD is the method load before Python 3.12, LOAD_ATTR after it
NAME_READS = GLOBAL_LOADS | {"LOAD_ATTR", "LOAD_METHOD", "IMPORT_FROM"}


def names_read(code: types.CodeType) -> set[str]:
    """Every name ``code`` or a code object nested in it reads."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname in NAME_READS}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= names_read(const)
    return names


def definitions(code: types.CodeType) -> list[str]:
    """Qualified names of the top-level functions and non-dunder methods
    that module ``code`` defines.  Functions nested in functions, lambdas
    and comprehensions are not definitions."""
    found = []

    def walk(co):
        for const in co.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                walk(const)
            elif not (const.co_name.startswith("__") and const.co_name.endswith("__")):
                found.append(getattr(const, "co_qualname", const.co_name))

    walk(code)
    return found


def unread_definitions(codes: dict[str, types.CodeType], exempt) -> list[str]:
    """``module.qualname`` of each definition whose name no module reads;
    ``exempt`` holds bare names and ``module.qualname`` entries to skip."""
    read = set().union(*(names_read(code) for code in codes.values()))
    return [
        f"{modname}.{qualname}"
        for modname, code in codes.items()
        for qualname in definitions(code)
        if qualname.rsplit(".", 1)[-1] not in read
        and qualname not in exempt
        and f"{modname}.{qualname}" not in exempt
    ]


def unread_imports(source: str) -> list[str]:
    """Names that a module binds with a relative ``from`` import and never
    loads, annotations included; a name used only inside a quoted annotation
    counts as unread."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]
    loaded = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in loaded]


def _module_names():
    subs = (info.name for info in pkgutil.iter_modules(gapcover.__path__))
    return [gapcover.__name__] + sorted(f"{gapcover.__name__}.{name}" for name in subs)


def _source(modname):
    module = importlib.import_module(modname)
    with open(module.__file__, encoding="utf-8") as fh:
        return module, fh.read()


def _compile(modname):
    module, source = _source(modname)
    return module, compile(source, module.__file__, "exec")


@pytest.mark.parametrize("modname", _module_names())
def test_no_undefined_globals(modname):
    module, code = _compile(modname)
    assert undefined_globals(code, vars(module)) == []


def test_every_definition_is_read():
    codes = {modname: _compile(modname)[1] for modname in _module_names()}
    exempt = set(gapcover.__all__) | {"gapcover.cli.main"}
    assert unread_definitions(codes, exempt) == []


def test_every_relative_import_is_read():
    exempt = {(gapcover.__name__, name) for name in gapcover.__all__}
    exempt |= {(f"{gapcover.__name__}.{module}", attr) for module, attr in traced_sites()}
    unread = [
        f"{modname}.{name}"
        for modname in _module_names()
        for name in unread_imports(_source(modname)[1])
        if (modname, name) not in exempt
    ]
    assert unread == []


def test_guard_flags_undefined_call():
    source = (
        "import math\n"
        "X = 1\n"
        "def f(a):\n"
        "    return _missing(a) + math.pi + X + len(a)\n"
        "class C:\n"
        "    y = 2\n"
        "    z = y + X\n"
        "    w = [q for q in _absent]\n"
    )
    namespace = {"math": None, "X": 1, "f": None, "C": None}
    code = compile(source, "<guard>", "exec")
    assert sorted(name for _, name in undefined_globals(code, namespace)) == ["_absent", "_missing"]


def test_guard_flags_unread_definition():
    lib = (
        "def helper():\n"
        "    return 1\n"
        "def imported():\n"
        "    return helper()\n"
        "def dead():\n"
        "    def inner():\n"
        "        return 0\n"
        "    return inner, lambda: 0, [x for x in ()]\n"
        "def exported():\n"
        "    return 2\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.called()\n"
        "    def called(self):\n"
        "        return self.prop\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 3\n"
        "    def unused(self):\n"
        "        return 4\n"
        "    class Inner:\n"
        "        def nested_unused(self):\n"
        "            return 5\n"
    )
    app = "from lib import imported\ndef main():\n    return imported()\n"
    codes = {name: compile(src, name, "exec") for name, src in (("lib", lib), ("app", app))}
    assert unread_definitions(codes, {"exported", "app.main"}) == [
        "lib.dead",
        "lib.C.unused",
        "lib.C.Inner.nested_unused",
    ]


def test_guard_flags_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from os import path\n"
        "from .a import called, unused, annotated, quoted, renamed as alias\n"
        "from . import sub\n"
        "def f(x: annotated) -> 'quoted':\n"
        "    from .b import local, local_unused\n"
        "    return called(x) + sub.g() + local\n"
        "class C:\n"
        "    def m(self):\n"
        "        return [alias for _ in ()]\n"
    )
    assert unread_imports(source) == ["unused", "quoted", "local_unused"]
