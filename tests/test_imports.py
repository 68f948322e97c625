"""What each command imports, and the package's lazily served names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grassperm
from grassperm import cli

SRC = str(Path(grassperm.__file__).resolve().parents[1])

# Runs cli.main(argv) in a fresh interpreter and writes the modules it
# loaded (beyond those loaded at start-up) to the file named first.
FOOTPRINT = """
import sys
before = set(sys.modules)
from grassperm import cli
try:
    cli.main(sys.argv[2:])
except SystemExit:
    pass
loaded = sorted(set(sys.modules) - before)
import json
with open(sys.argv[1], "w") as fh:
    json.dump(loaded, fh)
"""

# Module names are tuples, not sets, so that the test ids they spell do not
# change with the interpreter's string hash seed.
COUNTING = ("counting",)
OBJECTS = ("patterns", "core", "paths")
EVERYTHING = ("core", "oracle", "verify", "classes", "counting", "parity", "paths", "patterns", "series")


def footprint(tmp_path, argv):
    """The package modules (without the ``grassperm.`` prefix and besides
    ``cli`` and ``errors``) and the standard modules of interest that
    ``argv`` loads."""
    out = tmp_path / "modules.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(out), *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        check=True,
        timeout=60,
    )
    loaded = set(json.loads(out.read_text()))
    package = {m.split(".", 1)[1] for m in loaded if m.startswith("grassperm.")}
    assert {"cli", "errors"} <= package
    return package - {"cli", "errors"}, loaded & {"json", "dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv,modules,stdlib",
    [
        (("--help",), (), ()),
        (("count", "--quantity", "B", "--k", "3", "--m", "4"), COUNTING, ()),
        (("count", "--quantity", "A", "--k", "3", "--m", "4"), COUNTING, ()),
        (("count", "--quantity", "O", "--k", "3", "--m", "4"), ("parity", "counting"), ()),
        (("count", "--quantity", "bigrass", "--m", "4"), ("core", "counting", "classes"), ()),
        (("count", "--quantity", "B", "--k", "3"), (), ()),
        (("table", "--quantity", "B"), COUNTING, ()),
        (("table", "--quantity", "B", "--format", "json"), COUNTING, ("json",)),
        (("table", "--quantity", "parity"), ("parity", "counting"), ()),
        (("table", "--quantity", "classes"), ("core", "counting", "classes"), ()),
        (("table", "--quantity", "gf"), ("series",), ()),
        (("enumerate", "words", "--k", "3", "--m", "4"), ("patterns", "core"), ()),
        (("enumerate", "avoiders", "--n", "4", "--pattern", "123"), ("patterns", "core"), ()),
        (("enumerate", "dyck", "--n", "3", "--stats", "peaks"), ("paths",), ()),
        # a flag past its cap is refused before any module is imported
        (("enumerate", "words", "--k", "3", "--m", "25"), (), ()),
        (("table", "--quantity", "gf", "--n-max", "121"), (), ()),
        (("verify", "--k-max", "201"), (), ()),
        (("biject", "word-to-lattice", "--k", "5", "--input", "110011"), OBJECTS, ()),
        (("biject", "halve", "--input", "UUUDDD"), ("paths",), ()),
        (("biject", "toggle", "--input", "UDUUDUDD"), ("paths",), ()),
        (("biject", "toggle", "--k", "5", "--input", "DDUUDD"), ("paths", "core"), ()),
        (("verify", "--suite", "identities"), EVERYTHING, ()),
        (("verify", "--suite", "identities", "--format", "json"), EVERYTHING, ("json",)),
    ],
    ids=" ".join,
)
def test_a_command_imports_only_what_it_runs(tmp_path, argv, modules, stdlib):
    assert footprint(tmp_path, argv) == (set(modules), set(stdlib))


def test_verify_choices_and_defaults_match_the_harness():
    from grassperm import verify

    assert cli.VERIFY_SUITES == tuple(verify.SUITES)
    defaults = verify.Options()
    args = cli.build_parser().parse_args(["verify"])
    assert (args.k_max, args.perm_cap, args.word_cap) == (
        defaults.k_max,
        defaults.perm_cap,
        defaults.word_cap,
    )


@pytest.mark.parametrize("name", grassperm.__all__)
def test_exported_name_is_its_modules_object(name):
    module = importlib.import_module(f"grassperm.{grassperm.EXPORTS[name]}")
    assert getattr(grassperm, name) is getattr(module, name)
    assert name in dir(grassperm)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        grassperm.no_such_name
