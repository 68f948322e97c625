"""Source-level rules for the package."""

import ast
import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

import grassperm
from grassperm import oracle, paths, patterns

SOURCES = sorted(Path(grassperm.__file__).parent.glob("*.py"))
CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set"}
CACHES = {"cache", "lru_cache"}
PROXY = "MappingProxyType"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def import_time_nodes(tree):
    """Every node run at import: the module body, not function or class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def builds_container(value):
    if isinstance(value, ast.Tuple):
        return any(builds_container(v) for v in value.elts)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in CONTAINER_CALLS
    return isinstance(value, CONTAINER_DISPLAYS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so a check written as one silently vanishes.
    tree = parse(path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_containers(path):
    # A module-level container that code fills is a memo shared by every
    # caller in the process.  UPPER_CASE names are read-only tables by
    # convention.
    bound = []
    for node in import_time_nodes(parse(path)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        lower = [n for n in names if n.islower() and not n.startswith("__")]
        if lower and builds_container(node.value):
            bound.append((node.lineno, lower))
    assert bound == [], f"module-level containers in {path.name}: {bound}"


def decorator_name(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    return getattr(target, "id", getattr(target, "attr", None))


def keeps_a_cache(node):
    """A function decorated as a cache, or a use of ``MappingProxyType``,
    the read-only view that hands a cached value out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return any(decorator_name(dec) in CACHES for dec in node.decorator_list)
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == PROXY for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == PROXY


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_keeps_a_cache(path):
    # No module keeps a cache, the oracle included: a memo is state shared
    # by every caller in the process.
    cached = [node.lineno for node in ast.walk(parse(path)) if keeps_a_cache(node)]
    assert cached == [], f"caches in {path.name} at lines {cached}"


def is_minus_one(node):
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sign_powers(path):
    # An alternating sum written term by term as (-1) ** j * ... recomputes
    # every term; counting walks them all in one kernel.
    powers = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and is_minus_one(node.left)
    ]
    assert powers == [], f"(-1) ** ... in {path.name} at lines {powers}"


RECORD_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_records_are_named_tuples(path):
    # One record idiom: a value type is a typing.NamedTuple, not a class
    # that writes its own equality, hashing or immutability.
    written = [
        (node.name, item.name)
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in RECORD_METHODS
    ]
    assert written == [], f"hand-written record methods in {path.name}: {written}"


# The one writer of stdout, and the function that silences it after a
# closed pipe.
STDOUT_WRITERS = {("cli.py", "main"), ("cli.py", "_discard_stdout")}


def located(tree, wanted):
    """(function, line) of each node of ``tree`` that ``wanted`` accepts,
    naming the innermost function it is in, or ``<module>``."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if wanted(node):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(tree, "<module>")


def uses_stdout(node):
    return (isinstance(node, ast.Name) and node.id == "print") or (
        isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_main_writes_stdout(path):
    # Handlers return their lines and `cli.main` writes them, so a refused
    # command prints nothing and a closed pipe is handled in one place.
    uses = [
        (function, line)
        for function, line in located(parse(path), uses_stdout)
        if (path.name, function) not in STDOUT_WRITERS
    ]
    assert uses == [], f"print or sys.stdout in {path.name}: {uses}"


def calls_divmod(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod"


def test_only_exact_quotient_divides_with_a_remainder():
    # A quotient the paper proves exact is refused in one place when it is
    # not: an inexact division means a count upstream is wrong.
    sites = {
        (path.name, function)
        for path in SOURCES
        for function, _ in located(parse(path), calls_divmod)
    }
    assert sites == {("counting.py", "exact_quotient")}


def raises_a_cap_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "CapExceededError"


def test_only_the_harness_raises_a_cap_error():
    # A cap error bounds the in-process work of the oracle and the harness,
    # and ends a verify run; a command refuses an oversized flag in cli.
    sites = {
        path.name
        for path in SOURCES
        if any(raises_a_cap_error(node) for node in ast.walk(parse(path)))
    }
    assert sites == {"oracle.py", "verify.py"}


def words_a_cap_refusal(node):
    return isinstance(node, ast.Constant) and "over cap" in str(node.value)


def test_one_statement_words_a_cap_refusal():
    # Every command refuses an oversized flag through one check, so the
    # refusals share one message shape.
    sites = [
        (path.name, function)
        for path in SOURCES
        for function, _ in located(parse(path), words_a_cap_refusal)
    ]
    assert sites == [("cli.py", "_within_cap")]


# The exception names an ``except`` clause can catch a DomainError by.
DOMAIN_ERROR_CATCHERS = {"DomainError", "ValueError", "Exception", "BaseException"}


def catches_a_domain_error(node):
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    caught = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
    return bool(caught & DOMAIN_ERROR_CATCHERS)


def test_verify_reads_a_refusal_only_in_value():
    # One reader of a refusal: a formula or grid that refuses fails the
    # cells that read it, and only a cap refusal ends the run.
    [path] = [path for path in SOURCES if path.name == "verify.py"]
    handlers = {function for function, _ in located(parse(path), catches_a_domain_error)}
    assert handlers == {"_value"}


def name_uses(node):
    """Each name that ``node`` and its children use: names, attributes,
    imported names, and strings equal to a name, as the tables that name
    functions by string hold them (a docstring is never one)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                yield child.value


def test_every_public_name_is_reached():
    # A module-level function or class that nothing in the package names
    # outside its own definition is dead code that every command still
    # compiles: the package writes no bytecode where PYTHONDONTWRITEBYTECODE
    # is set.  A test of such a name keeps nothing alive.
    trees = {path.stem: parse(path) for path in SOURCES}
    used = Counter(name for tree in trees.values() for name in name_uses(tree))
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] == Counter(name_uses(node))[node.name]
    ]
    assert unreached == [], f"public names nothing in the package reaches: {unreached}"


def own_body_nodes(function):
    """The nodes of ``function``'s body, not those of functions or classes
    nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def undeleted_recursive_closures(tree):
    """(enclosing function, nested function) for each nested function that
    names itself and that its enclosing function does not ``del``."""
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(own_body_nodes(outer))
        deleted = {
            target.id
            for node in nodes
            if isinstance(node, ast.Delete)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for inner in nodes:
            if not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            named = {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
            if inner.name in named and inner.name not in deleted:
                yield outer.name, inner.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_recursive_closures_are_deleted(path):
    # A nested function that calls itself holds itself through its closure,
    # and with it everything else it closes over, such as the list it fills:
    # the cycle lives on until the next garbage collection unless the
    # enclosing function deletes the name.
    found = list(undeleted_recursive_closures(parse(path)))
    assert found == [], f"recursive closures never deleted in {path.name}: {found}"


# Each constructor that skips its type's check: the module that defines it, and
# the functions outside that module that may name it.  The module's maps
# state the proof of each object they build this way; outside it, only the
# harness suite that reads a listing proven to hold such objects may.
UNCHECKED_CONSTRUCTORS = {
    ("DyckPath", "_make"): ("paths.py", {("verify.py", "suite_paths")}),
    ("LatticePath", "_of_word"): ("paths.py", {("verify.py", "suite_paths")}),
    ("LatticePath", "_make"): ("paths.py", set()),
    ("Grassmannian", "_make"): ("core.py", set()),
}


def unchecked_builds(tree, owner, attr):
    """The module-level function (or ``<module>``) around each use of
    ``owner.attr``."""
    for top in tree.body:
        named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        function = top.name if named else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                if getattr(node.value, "id", getattr(node.value, "attr", None)) == owner:
                    yield function


@pytest.mark.parametrize("constructor", UNCHECKED_CONSTRUCTORS, ids=".".join)
def test_unchecked_constructors_are_named_only_beside_their_proof(constructor):
    home, allowed = UNCHECKED_CONSTRUCTORS[constructor]
    outside = {
        (path.name, function)
        for path in SOURCES
        if path.name != home
        for function in unchecked_builds(parse(path), *constructor)
    }
    assert outside == allowed


# Functions built on a recursive closure, with arguments that reach it:
# first those that return the listing their closure fills.
LISTING_CALLS = [
    (paths.enumerate_dyck, (4,)),
    (oracle.grassmannian_statistics, (5,)),
    (patterns.enumerate_avoiding_words, (4, 5)),
    (patterns.avoiding_words, (5, (2, 3, 1))),
]
CLOSURE_CALLS = LISTING_CALLS + [(patterns.permutation_contains, ((3, 1, 4, 2, 5), (2, 1, 3)))]


@pytest.mark.parametrize("call", CLOSURE_CALLS, ids=lambda c: c[0].__name__)
def test_recursive_closures_leave_no_garbage(call):
    function, args = call
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            function(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("call", LISTING_CALLS, ids=lambda c: c[0].__name__)
def test_a_returned_listing_has_no_hidden_owner(call):
    function, args = call
    gc.disable()
    try:
        out = function(*args)
        # this name and getrefcount's own argument
        assert sys.getrefcount(out) == 2
    finally:
        gc.enable()
