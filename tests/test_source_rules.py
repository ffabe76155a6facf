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


def self_calling_functions(tree):
    """Names of the non-dunder functions whose body calls their own name,
    as ``name(...)`` or ``<expr>.name(...)``: each is a recursion whose
    depth the interpreter's recursion limit caps."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and any(isinstance(call, ast.Call)
                        and (isinstance(call.func, ast.Name) and call.func.id == node.name
                             or isinstance(call.func, ast.Attribute)
                             and call.func.attr == node.name)
                        for call in ast.walk(node))):
            found.add(node.name)
    return found


# The rule's own check: a call of the function's own name, bare or as an
# attribute of any expression, is found; a dunder and a call of another
# name are not.
SELF_CALLING_ANY = ("def countdown(n):\n"
                    "    return countdown(n - 1) if n else 0\n"
                    "class Node:\n"
                    "    def size(self):\n"
                    "        return 1 + sum(c.size() for c in self.children)\n"
                    "    def __eq__(self, other):\n"
                    "        return self.child.__eq__(other.child)\n"
                    "    def walk(self):\n"
                    "        return [n.visit() for n in self.children]\n")

# The functions in the package that still recurse.  Converting one to an
# explicit stack takes it off this list; a new recursion fails the test.
RECURSIVE = {"_apply", "_exists", "_extend_dash", "_binary", "_unary"}


def test_recursion_ratchet():
    assert self_calling_functions(ast.parse(SELF_CALLING_ANY)) == {"countdown", "size"}
    found = set().union(*(self_calling_functions(ast.parse(path.read_text(encoding="utf-8")))
                          for path in SOURCES))
    assert found == RECURSIVE


def tree_walkers(tree):
    """Names of the functions that read ``.child`` or test ``isinstance``
    against ``Not`` or ``Connective``: each walks a constraint tree by hand.
    Code outside any function counts as ``<module>``."""
    found = set()
    stack = [(tree, "<module>")]  # (node, name of the innermost function around it)
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "child"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(name, ast.Name) and name.id in ("Not", "Connective")
                        for name in ast.walk(node.args[1]))):
            found.add(function)
        stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return found


# The rule's own check: a ``.child`` read, a test against either node kind,
# alone or in a tuple, is found, in a function or at module level; a test
# against a relation kind and another attribute are not.
WALKS = ("def fold(e):\n"
         "    return e.child if isinstance(e, Not) else e\n"
         "def walk(e):\n"
         "    if isinstance(e, (Compare, Connective)):\n"
         "        return e.left\n"
         "def relation(e):\n"
         "    return isinstance(e, Compare) and e.children\n"
         "top = node.child\n")


def test_fold_is_the_only_tree_walk():
    assert tree_walkers(ast.parse(WALKS)) == {"fold", "walk", "<module>"}
    found = {path.name: tree_walkers(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {name: walkers for name, walkers in found.items() if walkers} == {
        "model.py": {"fold"}}


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


def unused_functions(defining, using):
    """Names of the non-dunder functions defined in the ``defining`` trees
    that no tree in ``using`` loads by name, as a ``Name``, an ``Attribute``
    or an import alias, outside the function's own body: a function that
    only calls itself is as dead as one that nothing calls."""
    function_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {node.name for tree in defining for node in ast.walk(tree)
               if isinstance(node, function_types)
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    loaded = set()
    for tree in using:
        stack = [(tree, frozenset())]  # (node, names of the functions around it)
        while stack:
            node, inside = stack.pop()
            name = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name is not None and name not in inside:
                loaded.add(name)
            if isinstance(node, function_types):
                inside = inside | {node.name}
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return sorted(defined - loaded)


# The rule's own check: a function loaded by name, attribute or import
# passes; one that only calls itself, or nothing loads, is found.
DEFINES = ("def called():\n"
           "    return 0\n"
           "def imported():\n"
           "    return called()\n"
           "def countdown(n):\n"
           "    return countdown(n - 1) if n else 0\n"
           "class C:\n"
           "    def __repr__(self):\n"
           "        return 'C'\n"
           "    def method(self):\n"
           "        return self.method()\n"
           "    def attribute(self):\n"
           "        return 1\n"
           "    def unused(self):\n"
           "        return 2\n")
USES = ("from module import imported\n"
        "value = C().attribute()\n")

ROOT = Path(__file__).resolve().parent.parent
USING_DIRS = ("src", "tests", "demos", "perfbench")


def test_no_unused_functions():
    defines = ast.parse(DEFINES)
    assert unused_functions([defines], [defines, ast.parse(USES)]) == [
        "countdown", "method", "unused"]
    using = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in USING_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(using) > len(SOURCES)
    defining = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert unused_functions(defining, using) == []


def private_names(tree, cls):
    """The private names of class ``cls`` in ``tree``: its methods and the
    attributes it sets on ``self`` whose names start with one underscore."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for member in ast.walk(node):
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(member.name)
                elif (isinstance(member, ast.Attribute) and isinstance(member.ctx, ast.Store)
                      and isinstance(member.value, ast.Name) and member.value.id == "self"):
                    names.add(member.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def private_reads(tree, names):
    """Where ``tree`` reads an attribute named in ``names``: a map from the
    dotted name of the innermost class and function around each read
    (``<module>`` outside any) to the names read there."""
    found = {}
    stack = [(tree, "")]  # (node, dotted name of the definitions around it)
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in names):
            found.setdefault(where or "<module>", set()).add(node.attr)
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


# The rule's own check: a class's private methods and ``self`` attributes
# are its private names, a dunder and a public name are not; a read of one
# is placed by class and function, and a write or another name is not read.
ENGINE = ("class Engine:\n"
          "    def __init__(self):\n"
          "        self._store = []\n"
          "        self.size = 0\n"
          "    def _grow(self):\n"
          "        return self._store\n"
          "    def run(self):\n"
          "        return self._grow()\n")
CLIENT = ("class Client:\n"
          "    def walk(self, engine):\n"
          "        engine._store = engine._store + [engine.size]\n"
          "        self._own = 1\n"
          "def build(engine):\n"
          "    return engine._grow()\n"
          "first = Engine()._store\n")

# Outside bdd.py the engine's private names are read in two places only:
# the conjunction check builds its cube and conjoins it without the public
# methods' handle checks, and the traversal handler's constructor follows
# codes through the nodes into its jump tables.
ENGINE_READS = {("validity.py", "ConjunctionHandler.__init__"): {"_mk", "_apply"},
                ("validity.py", "TraversalHandler.__init__"): {"_level", "_low", "_high"}}


def test_engine_privates_read_in_two_places():
    engine = private_names(ast.parse(ENGINE), "Engine")
    assert engine == {"_store", "_grow"}
    assert private_reads(ast.parse(CLIENT), engine) == {
        "Client.walk": {"_store"}, "build": {"_grow"}, "<module>": {"_store"}}
    [bdd] = [path for path in SOURCES if path.name == "bdd.py"]
    names = private_names(ast.parse(bdd.read_text(encoding="utf-8")), "BddManager")
    assert {"_level", "_low", "_high", "_mk", "_apply", "_unique", "_cache"} <= names
    found = {(path.name, where): read for path in SOURCES if path.name != "bdd.py"
             for where, read in private_reads(ast.parse(path.read_text(encoding="utf-8")),
                                              names).items()}
    assert found == ENGINE_READS


# The rule's own check: a call of ``compact`` on any object is placed by
# class and function, and a call of ``collect`` is not a call of it.
COMPACTS = ("class Manager:\n"
            "    def collect(self, base, roots):\n"
            "        return self.compact(base, roots)\n"
            "def build(mgr):\n"
            "    mgr.compact(2, ())\n"
            "    return mgr.collect(2, ())\n")


def test_compact_is_called_only_by_collect():
    # ``BddManager.collect`` holds the one rule that decides when to
    # collect, so no other code calls ``compact``.
    assert private_reads(ast.parse(COMPACTS), {"compact"}) == {
        "Manager.collect": {"compact"}, "build": {"compact"}}
    found = {(path.name, where) for path in SOURCES
             for where in private_reads(ast.parse(path.read_text(encoding="utf-8")),
                                        {"compact"})}
    assert found == {("bdd.py", "BddManager.collect")}
