"""Guard against one object's code writing another object's slots.

The immutable classes set their slots through ``Frozen._set``.  Every
``X._set(...)`` call in a ``gapcover`` module must have X = ``self``, or X a
name that the same function binds to ``object.__new__(...)``, as
``UnimodularMat.inverse`` builds its result.  A function that computes a
result for an object it did not build hands it to that object's
constructor instead.  Stdlib only: each module's ``ast`` is read.
"""

import ast

from test_undefined_names import _module_names, _source

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a module, function or class, without those of the
    functions and classes defined in it (they are yielded, not entered)."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _is_new_object(node) -> bool:
    """Whether node is a call object.__new__(...)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def foreign_slot_writes(source: str) -> list[str]:
    """The qualified name of the function (``<module>`` outside any) around
    each ``X._set(...)`` call whose X is neither ``self`` nor a name bound in
    that function to ``object.__new__(...)``, in source order."""
    found = []

    def visit(scope, qualname):
        nodes = list(_own_nodes(scope))
        fresh = {"self"} | {
            target.id
            for node in nodes
            if isinstance(node, ast.Assign) and _is_new_object(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in nodes:
            if isinstance(node, SCOPES):
                visit(node, f"{qualname}.{node.name}" if qualname else node.name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_set"
                and not (isinstance(node.func.value, ast.Name) and node.func.value.id in fresh)
            ):
                found.append((node.lineno, qualname or "<module>"))

    visit(ast.parse(source), "")
    return [qualname for _, qualname in sorted(found)]


def test_no_module_writes_another_objects_slots():
    found = [f"{modname}.{qualname}" for modname in _module_names() for qualname in foreign_slot_writes(_source(modname)[1])]
    assert found == []


def test_guard_flags_foreign_slot_writes():
    source = (
        "class C:\n"
        "    def __init__(self, m):\n"
        "        self._set(m=m)\n"
        "    def copy(self):\n"
        "        out = object.__new__(C)\n"
        "        out._set(m=self.m)\n"
        "        return out\n"
        "    def seed(self, other):\n"
        "        other._set(m=self.m)\n"
        "def memo(m):\n"
        "    m._set(inv=1)\n"
        "def outer():\n"
        "    fresh = object.__new__(C)\n"
        "    def inner():\n"
        "        fresh._set(m=0)\n"
        "    return [x._set(m=1) for x in ()], inner\n"
        "pair = object.__new__(C)\n"
        "pair._set(m=2)\n"
        "C(0).copy()._set(m=3)\n"
    )
    # fresh is bound in outer, not in inner; a module may bind a fresh
    # object too, but not write one it did not bind
    assert foreign_slot_writes(source) == ["C.seed", "memo", "outer.inner", "outer", "<module>"]
