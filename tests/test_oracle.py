import ast
import hashlib
import inspect
import sys
from collections import Counter
from itertools import permutations, product

import pytest

from grassperm import oracle
from grassperm.errors import CapExceededError, DomainError


def brute_word_tally(m):
    """The word tally one word at a time, over all 2^m words."""
    tally = Counter()
    for word in product("01", repeat=m):
        zeros = ones = longest = inversions = 0
        for c in word:
            if c == "0":
                zeros += 1
                longest = max(longest, zeros)
                inversions += ones
            else:
                ones += 1
                longest += 1
        tally[oracle.WordKey(longest, zeros, inversions % 2 == 1)] += 1
    return tally


def brute_grassmannian_tally(n):
    """The permutation tally by filtering all n! permutations."""

    def descents(p):
        return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])

    def longest_increasing(p):
        # longest[i]: the longest increasing subsequence ending at p[i]
        longest = []
        for i, v in enumerate(p):
            longest.append(1 + max((longest[j] for j in range(i) if p[j] < v), default=0))
        return max(longest, default=0)

    tally = Counter()
    for p in permutations(range(1, n + 1)):
        if descents(p) > 1:
            continue
        inverse = tuple(sorted(range(1, n + 1), key=lambda i: p[i - 1]))
        key = oracle.PermKey(
            longest_increasing(p),
            descents(inverse) <= 1,
            inverse == p,
            sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]),
            sum(1 for i, v in enumerate(p, 1) if i == v),
        )
        tally[key] += 1
    return tally


def avoiders(tally, k, keep=lambda key: True) -> int:
    """Objects in ``tally`` avoiding the length-k patterns, among those kept."""
    return sum(count for key, count in tally.items() if key.longest < k and keep(key))


class TestPermutationOracle:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 12)])
    def test_sizes(self, n, count):
        assert sum(oracle.grassmannian_statistics(n).values()) == count

    def test_cap_refusal(self):
        assert oracle.PERM_CAP == 12
        with pytest.raises(CapExceededError):
            oracle.grassmannian_statistics(13)
        with pytest.raises(DomainError):
            oracle.grassmannian_statistics(-1)

    @pytest.mark.parametrize("n", range(10))
    def test_walk_equals_filter(self, n):
        assert oracle.grassmannian_statistics(n) == brute_grassmannian_tally(n)

    # sha256 of repr(sorted((tuple(key), count) ...)) over the tally, for
    # sizes whose n! filter is too slow to run here.  Taken from the walk
    # that visited every prefix with at most one descent, before it was
    # pruned to the prefixes that complete.
    @pytest.mark.parametrize(
        "n,digest",
        [
            (10, "b7b356c435a8399b35fe10ef4bc2e1bf19ded32afad459a275b50f481953b400"),
            (11, "998cfb09799e89c2b4c2ab818f0699e83a99e1fd679ccab381245c93382831fe"),
            (12, "c4c882394108dbddce39c862a1903e809017136e20af848325bc0ccb09b05ceb"),
        ],
    )
    def test_walk_beyond_the_filter_is_pinned(self, n, digest):
        tally = oracle.grassmannian_statistics(n)
        items = sorted((tuple(key), count) for key, count in tally.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest

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
        assert avoiders(oracle.word_statistics(4)[4], 3) == 2

    def test_summed_sweep(self):
        total = sum(avoiders(oracle.word_statistics(m)[m], 3) for m in range(5))
        assert total == 13

    def test_zero_count_refinement(self):
        total = sum(
            avoiders(oracle.word_statistics(m)[m], 3, lambda key: key.zeros == 2)
            for m in range(5)
        )
        assert total == 5

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            oracle.word_statistics(25)
        # the walk passes every length, so it names the first past the cap
        with pytest.raises(CapExceededError, match="up to 24, not 25$"):
            oracle.word_statistics(30)
        with pytest.raises(DomainError):
            oracle.word_statistics(-1)

    @pytest.mark.parametrize("m", range(17))
    def test_aggregated_walk_equals_word_loop(self, m):
        tallies = oracle.word_statistics(m)
        assert len(tallies) == m + 1
        assert tallies[m] == brute_word_tally(m)


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
