import doctest
from pathlib import Path

import pytest

from grassperm import classes, core, counting, oracle, parity, paths, patterns, series

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module",
    [classes, core, counting, oracle, parity, paths, patterns, series],
    ids=lambda m: m.__name__.rsplit(".", 1)[-1],
)
def test_module_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_quick_start():
    # Starts with `from grassperm import *`, served by the package's lazy names.
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    example = block.split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(example, {}, "README", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert failed == 0 and attempted > 1
