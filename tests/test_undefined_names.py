"""Guard against calls to names that no module defines, and against
definitions that no module reads.

Every ``LOAD_GLOBAL``/``LOAD_NAME`` in a ``gapcover`` module must resolve to
an attribute of that module or to a builtin; otherwise the call site raises
``NameError`` only when it is reached.  Every top-level function and every
non-dunder method must be read somewhere in ``gapcover`` (a global or name
load, an attribute or method load, or a ``from ... import``); otherwise it is
code that only the tests run.  The names in ``gapcover.__all__`` and the
console entry point ``cli.main`` are read from outside.  Stdlib only: each
module's source is compiled and its code objects are walked with ``dis``.
"""

import builtins
import dis
import importlib
import inspect
import pkgutil
import types

import pytest

import gapcover

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


def _module_names():
    subs = (info.name for info in pkgutil.iter_modules(gapcover.__path__))
    return [gapcover.__name__] + sorted(f"{gapcover.__name__}.{name}" for name in subs)


def _compile(modname):
    module = importlib.import_module(modname)
    with open(module.__file__, encoding="utf-8") as fh:
        return module, compile(fh.read(), module.__file__, "exec")


@pytest.mark.parametrize("modname", _module_names())
def test_no_undefined_globals(modname):
    module, code = _compile(modname)
    assert undefined_globals(code, vars(module)) == []


def test_every_definition_is_read():
    codes = {modname: _compile(modname)[1] for modname in _module_names()}
    exempt = set(gapcover.__all__) | {"gapcover.cli.main"}
    assert unread_definitions(codes, exempt) == []


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
