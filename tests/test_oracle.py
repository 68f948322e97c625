import ast
import inspect
import sys

import pytest

from grassperm import oracle
from grassperm.errors import CapExceededError, DomainError


def avoiders(tally, k, keep=lambda key: True) -> int:
    """Objects in ``tally`` avoiding the length-k patterns, among those kept."""
    return sum(count for key, count in tally.items() if key.longest < k and keep(key))


class TestPermutationOracle:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 12)])
    def test_sizes(self, n, count):
        assert sum(oracle.grassmannian_statistics(n).values()) == count

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            oracle.grassmannian_statistics(11)
        with pytest.raises(DomainError):
            oracle.grassmannian_statistics(-1)
        # explicit cap raise is honored
        assert sum(oracle.grassmannian_statistics(4, cap=4).values()) == 12

    def test_count_examples(self):
        tally = oracle.grassmannian_statistics(4)
        assert avoiders(tally, 3) == 2
        assert avoiders(tally, 3, lambda key: key.inversions % 2 == 1) == 1

    def test_short_hosts_avoid_everything(self):
        for k in range(3, 6):
            for m in range(1, k):
                assert avoiders(oracle.grassmannian_statistics(m), k) == 2**m - m


class TestWordOracle:
    def test_example(self):
        assert avoiders(oracle.word_statistics(4), 3) == 2

    def test_summed_sweep(self):
        total = sum(avoiders(oracle.word_statistics(m), 3) for m in range(5))
        assert total == 13

    def test_zero_count_refinement(self):
        total = sum(
            avoiders(oracle.word_statistics(m), 3, lambda key: key.zeros == 2)
            for m in range(5)
        )
        assert total == 5

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            oracle.word_statistics(25)
        with pytest.raises(DomainError):
            oracle.word_statistics(-1)


def test_oracle_module_stays_independent():
    """The oracle may not lean on the code it certifies.

    Only the standard library and the package's error types may be
    imported: no patterns (containment), counting, parity, classes, series,
    or core (the word encoding).
    """
    tree = ast.parse(inspect.getsource(oracle))
    package, stdlib = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stdlib.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            stdlib.add(node.module.split(".")[0])
    assert package == {"errors"}
    assert stdlib <= sys.stdlib_module_names
