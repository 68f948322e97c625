"""
Brute-force ground truth used to certify every closed form in the package.

One tally per size, shared with nothing: ``word_statistics(m)`` walks all
2^m words, and ``grassmannian_statistics(n)`` filters all n! permutations
by descent count, never through the binary-word encoding.  Each counts its
objects by the statistics the paper refines by, so a question about
avoiders is a sum over one tally: a word avoids every ``0^j 1^(k-j)`` iff
its longest ``0*1*`` subsequence is shorter than k, and a permutation
avoids ``12...k`` iff its longest increasing subsequence is (Schensted
1961).  The module imports nothing from the package but its error types.
Caps keep a sweep in the seconds range; raise them explicitly when you
mean to.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import CapExceededError, DomainError

PERM_CAP = 10
WORD_CAP = 24


class WordKey(NamedTuple):
    longest: int  # longest 0*1* subsequence
    zeros: int
    odd: bool  # odd number of inversions, the 10 subsequences


class PermKey(NamedTuple):
    longest: int  # longest increasing subsequence
    bigrass: bool  # the inverse is Grassmannian too
    involution: bool
    inversions: int
    fixed_points: int


def _check_size(size: int, cap: int, what: str) -> None:
    if size < 0:
        raise DomainError(f"{what} must be nonnegative")
    if size > cap:
        raise CapExceededError(
            f"oracle capped at {what} {cap} (asked for {size}); "
            "raise the cap explicitly to go further"
        )


@lru_cache(maxsize=None)
def _word_tally(m: int) -> Counter[WordKey]:
    tally: Counter[WordKey] = Counter()
    for word in product("01", repeat=m):
        # longest is that of the prefix read so far: a 1 extends every 0*1*
        # subsequence, a 0 only the one made of all the zeros
        zeros = ones = longest = inversions = 0
        for c in word:
            if c == "0":
                zeros += 1
                longest = max(longest, zeros)
                inversions += ones
            else:
                ones += 1
                longest += 1
        tally[WordKey(longest, zeros, inversions % 2 == 1)] += 1
    return tally


def word_statistics(m: int, cap: int = WORD_CAP) -> Mapping[WordKey, int]:
    """How many length-m binary words have each (longest ``0*1*``
    subsequence, zero count, inversion parity).

    >>> tally = word_statistics(4)
    >>> sum(c for key, c in tally.items() if key.longest < 3)
    2
    >>> sum(c for key, c in tally.items() if key.longest < 3 and key.odd)
    1
    """
    _check_size(m, cap, "word length")
    return MappingProxyType(_word_tally(m))


def _descents(p: tuple[int, ...]) -> int:
    d = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            d += 1
            if d > 1:
                break
    return d


def _longest_increasing(p: tuple[int, ...]) -> int:
    # Patience sorting: tops[i] is the least value that ends an increasing
    # subsequence of length i + 1, so tops stays sorted.
    tops: list[int] = []
    for v in p:
        i = bisect_left(tops, v)
        if i == len(tops):
            tops.append(v)
        else:
            tops[i] = v
    return len(tops)


@lru_cache(maxsize=None)
def _grassmannian_tally(n: int) -> Counter[PermKey]:
    tally: Counter[PermKey] = Counter()
    for p in permutations(range(1, n + 1)):
        if _descents(p) > 1:
            continue
        # the positions, in the order of the values they hold
        inverse = tuple(sorted(range(1, n + 1), key=lambda i: p[i - 1]))
        key = PermKey(
            _longest_increasing(p),
            _descents(inverse) <= 1,
            inverse == p,
            sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]),
            sum(1 for i, v in enumerate(p, 1) if i == v),
        )
        tally[key] += 1
    return tally


def grassmannian_statistics(n: int, cap: int = PERM_CAP) -> Mapping[PermKey, int]:
    """How many Grassmannian permutations of [n], found by filtering all of
    S_n, have each (longest increasing subsequence, biGrassmannian,
    involution, inversions, fixed points).

    >>> tally = grassmannian_statistics(4)
    >>> sum(tally.values())
    12
    >>> sum(c for key, c in tally.items() if key.longest < 3)
    2
    """
    _check_size(n, cap, "permutation size")
    return MappingProxyType(_grassmannian_tally(n))
