"""Guard against calls to names that no module defines, and against
definitions that nothing reaches.

Every ``LOAD_GLOBAL``/``LOAD_NAME`` in a ``gapcover`` module must resolve to
an attribute of that module or to a builtin; otherwise the call site raises
``NameError`` only when it is reached.  Every top-level function and every
non-dunder method must be reachable; otherwise it is code that only the
tests run.  Reading starts where code runs without a caller in
``gapcover``: the names in ``gapcover.__all__``, the console entry point
``cli.main``, the attributes the benchmark's tracer wraps, the module and
class bodies (their imports left out) and the dunder methods, which the
language calls.  A reached function reaches every definition whose name it
reads (a global or name load, an attribute or method load, or a
``from ... import`` inside it), so two same-named methods that only read
each other stay unreached.  Every name a module binds with a relative
import must be read in that module, annotations included, except the
package's re-exports and the attributes the benchmark's tracer wraps.
Stdlib only: each module's source is compiled and its code objects are
walked with ``dis``; the imports are read from its ``ast``.
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


def names_read(code: types.CodeType, nested=lambda co: True, reads=NAME_READS) -> set[str]:
    """Every name ``code`` reads, and each code object nested in it for
    which ``nested`` holds."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname in reads}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and nested(const):
            names |= names_read(const, nested, reads)
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(code: types.CodeType) -> tuple[list[tuple[str, types.CodeType]], list[types.CodeType]]:
    """(defs, bodies) of module ``code``: defs pairs the qualified name of
    each top-level function and method, dunders included, with its code;
    bodies holds the module's code and its class bodies, which run on
    import.  Functions nested in functions, lambdas and comprehensions are
    not definitions."""
    defs, bodies = [], [code]

    def walk(co):
        for const in co.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                bodies.append(const)
                walk(const)
            else:
                defs.append((getattr(const, "co_qualname", const.co_name), const))

    walk(code)
    return defs, bodies


def unreached_definitions(codes: dict[str, types.CodeType], roots) -> list[str]:
    """``module.qualname`` of each top-level function and non-dunder method
    that nothing reaches.  ``roots`` holds bare names, read from outside,
    and ``module.qualname`` entries, each of which reaches that one
    definition; the module and class bodies, their imports left out, and
    every dunder method are reached too.  A reached definition reaches
    every definition whose last name component it reads."""
    found = {modname: definitions(code) for modname, code in codes.items()}
    defs = [
        (f"{modname}.{qualname}", qualname.rsplit(".", 1)[-1], co)
        for modname, (module_defs, _) in found.items()
        for qualname, co in module_defs
    ]
    reached = {key for key, name, _ in defs if key in roots or is_dunder(name)}
    # module and class bodies: their own loads and their lambdas' and comprehensions'
    on_import = (
        names_read(body, lambda co: co.co_name.startswith("<"), NAME_READS - {"IMPORT_FROM"})
        for _, bodies in found.values()
        for body in bodies
    )
    names = set(roots).union(*on_import)
    todo = [co for key, _, co in defs if key in reached]
    while names or todo:
        for key, name, co in defs:
            if name in names and key not in reached:
                reached.add(key)
                todo.append(co)
        names = set().union(*(names_read(co) for co in todo))
        todo = []
    return [key for key, name, _ in defs if key not in reached]


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
    roots = set(gapcover.__all__) | {"gapcover.cli.main"} | {attr for _, attr in traced_sites()}
    assert unreached_definitions(codes, roots) == []


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
    assert unreached_definitions(codes, {"exported", "app.main"}) == [
        "lib.dead",
        "lib.C.unused",
        "lib.C.Inner.nested_unused",
    ]


def test_guard_flags_definitions_that_only_read_each_other():
    # each contains reads the name contains, and a module-level import
    # reads dead; neither keeps them reachable, as a call from main does
    lib = (
        "KINDS = ('box',)\n"
        "def dead():\n"
        "    return 0\n"
        "def kept():\n"
        "    return 1\n"
        "class Ellipsoid:\n"
        "    def contains(self, x):\n"
        "        return self.form.contains(x)\n"
        "class Body:\n"
        "    def contains(self, x):\n"
        "        return self.rep.contains(x)\n"
        "    def size(self):\n"
        "        return len(KINDS)\n"
    )
    app = "from lib import dead, kept\ndef main(body):\n    return kept(), body.size()\n"
    codes = {name: compile(src, name, "exec") for name, src in (("lib", lib), ("app", app))}
    assert unreached_definitions(codes, {"app.main"}) == [
        "lib.dead",
        "lib.Ellipsoid.contains",
        "lib.Body.contains",
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
