"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import citbdd

SOURCES = sorted(Path(citbdd.__file__).parent.glob("*.py"))


def self_calling_closures(tree):
    """(name, line) of every function nested in a function that calls itself
    by name: such a closure holds a cell that refers back to it, a reference
    cycle that only the cycle collector frees."""
    found = []
    stack = [(tree, False)]  # (node, whether it sits inside a function)
    while stack:
        node, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_function and in_function and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == child.name for call in ast.walk(child)):
                found.append((child.name, child.lineno))
            stack.append((child, in_function or is_function))
    return sorted(found, key=lambda site: site[1])


# The rule's own check: it finds a nested self-call and passes a method's.
SELF_CALLING = ("def outer():\n"
                "    def rec(n):\n"
                "        return rec(n - 1) if n else 0\n"
                "    return rec(3)\n"
                "class C:\n"
                "    def method(self):\n"
                "        return self.method()\n")


def test_no_self_calling_closures():
    assert self_calling_closures(ast.parse(SELF_CALLING)) == [("rec", 2)]
    assert {path.name for path in SOURCES} >= {"bdd.py", "model.py", "validity.py"}
    found = {path.name: self_calling_closures(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {name: sites for name, sites in found.items() if sites} == {}


def environment_reads(tree):
    """(name, line) of every read of the process environment: ``os.environ``,
    ``os.getenv`` and their bytes forms, by attribute or by import.  The
    package takes its settings from arguments only, so none may be a knob
    an environment variable turns."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((f"os.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(f"os.{alias.name}", node.lineno)
                      for alias in node.names if alias.name in names]
    return sorted(found, key=lambda site: site[1])


# The rule's own check: each form of reading the environment is found.
ENVIRONMENT = ("import os\n"
               "from os import environ, path\n"
               "a = os.environ['A']\n"
               "b = os.getenv('B', '1')\n"
               "c = os.path.join('x')\n")


def test_no_environment_reads():
    assert environment_reads(ast.parse(ENVIRONMENT)) == [
        ("os.environ", 2), ("os.environ", 3), ("os.getenv", 4)]
    found = {path.name: environment_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {name: sites for name, sites in found.items() if sites} == {}
