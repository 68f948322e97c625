"""Mutation analysis of the harness (DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978): each public function of
the formula and object layers is perturbed in turn, and a default
``verify`` must then exit 1 with its full report, never 0 and never with
an error."""

import inspect
from collections.abc import Iterator

import pytest

from grassperm import classes, cli, core, counting, oracle, parity, paths, patterns, series, verify

# The modules whose public functions are perturbed, and every module that
# may hold a reference to one of them.
SWEPT_MODULES = (core, counting, parity, classes, series, paths, patterns)
PACKAGE = SWEPT_MODULES + (oracle, verify, cli)

SWEPT = {
    f"{module.__name__.rsplit('.', 1)[1]}.{name}": function
    for module in SWEPT_MODULES
    for name, function in vars(module).items()
    if inspect.isfunction(function)
    and function.__module__ == module.__name__
    and not name.startswith("_")
}

# Functions that no check reads, each with the command that runs it; a
# check that comes to read one must take it off this list.
UNREAD = {
    "core.perm_from_str": "a parser of command-line permutations",
    "paths.path_svg": "a renderer, for biject --svg",
    # Every path the paths suite reads comes typed from its listing or from
    # a map that proves it, so no check scans one.
    "paths.is_dyck_path": "the Dyck-path validator, for biject's input paths",
    # Run by a command, certified by no check yet.
    "core.fixed_points": "enumerate avoiders --stats fixed-points",
    "paths.dyck_run_sequence": "the a= line of biject",
    "paths.word_to_dyck": "biject word-to-dyck",
    "paths.word_to_lattice": "biject word-to-lattice",
    "patterns.is_avoiding_word": "biject's avoidance test",
    # Run by no command either; exported only.
    "patterns.word_contains": "none; exported only",
    "patterns.grassmannian_contains": "none; exported only",
}

# Functions that checks read, but whose perturbation no check can see.
EXEMPT = {
    "core.perm_to_str": "a renderer: verify prints it only in a cell's params",
}


def swapped(seq):
    """``seq`` with its last pair of unequal adjacent items swapped, as its
    own type and unchecked; unchanged if it has no such pair."""
    for i in reversed(range(len(seq) - 1)):
        if seq[i] != seq[i + 1]:
            items = seq[:i] + seq[i + 1 : i + 2] + seq[i : i + 1] + seq[i + 2 :]
            return (str if isinstance(seq, str) else tuple).__new__(type(seq), items)
    return seq


def all_but_last(items):
    """The items of an iterator but its last, as lazily as it yields them."""
    items = iter(items)
    for previous in items:
        for item in items:
            yield previous
            previous = item


def perturbed(value):
    """One fault per return type: a bool flips, an int gains 1, a list or an
    iterator loses its last item, a word, path or permutation (a lattice
    path's steps) has its last unequal adjacent pair swapped, and a record
    of mixed types, such as an (index, kind, height) extremum, has its first
    field perturbed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[:-1]
    if isinstance(value, Iterator):
        return all_but_last(value)
    if isinstance(value, paths.LatticePath):
        return value._replace(steps=swapped(value.steps))
    if isinstance(value, tuple) and len(set(map(type, value))) > 1:
        return (perturbed(value[0]), *value[1:])
    if isinstance(value, (str, tuple)):
        return swapped(value)
    raise TypeError(f"no perturbation for a {type(value).__name__}")


def rebind(monkeypatch, original, replacement):
    """Point every reference the package holds to ``original`` at
    ``replacement``: each module's name for it, and each entry of
    ``verify._CLASSES``, which binds the class avoider counts at import."""
    for module in PACKAGE:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
    for name, entry in verify._CLASSES.items():
        if original in entry:
            bound = tuple(replacement if item is original else item for item in entry)
            monkeypatch.setitem(verify._CLASSES, name, bound)


@pytest.fixture(scope="module")
def readers():
    """For each suite, the swept functions that a default run of it calls."""
    called = set()

    def traced(key, function):
        def call(*args):
            called.add(key)
            return function(*args)

        return call

    found = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for key, function in SWEPT.items():
            rebind(monkeypatch, function, traced(key, function))
        for suite in verify.SUITES:
            called.clear()
            assert verify.run_suites([suite])[0].passed
            found[suite] = set(called)
    return found


def test_the_exemptions_name_swept_functions(readers):
    assert not UNREAD.keys() & EXEMPT.keys()
    assert UNREAD.keys() | EXEMPT.keys() <= SWEPT.keys()
    read = set().union(*readers.values())
    assert sorted(UNREAD.keys() & read) == []
    assert sorted(EXEMPT.keys() - read) == []


@pytest.mark.parametrize("key", sorted(SWEPT.keys() - UNREAD.keys() - EXEMPT.keys()))
def test_a_perturbed_function_turns_verify_red(monkeypatch, capsys, readers, key):
    # The suites that do not call the function report as before, so the
    # mutant runs only through those that do: a full run fails iff they do.
    suites = [suite for suite in verify.SUITES if key in readers[suite]]
    assert suites, f"no check reads {key}"
    original = SWEPT[key]
    rebind(monkeypatch, original, lambda *args: perturbed(original(*args)))
    argv = ["verify", "--suite", suites[0]] if len(suites) == 1 else ["verify"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith(" checks passed\n")
