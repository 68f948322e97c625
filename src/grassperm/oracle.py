"""
Brute-force ground truth used to certify every closed form in the package.

Each call runs its own walk and returns fresh ``Counter``s; the module
keeps no state.  ``word_statistics(m_max)`` reads all 2^m words of every
length m <= m_max one letter at a time, but aggregated: it counts the
words that share a key (longest ``0*1*`` subsequence, zeros, inversions
mod 2) instead of visiting each word, the transfer-matrix method
(Stanley, *EC1* 4.7).  The tally of each length is the walk's state, so
it keeps each length as it passes it, O(m_max^3) steps in all.
``grassmannian_statistics(n)`` filters S_n by descent count, never through
the binary-word encoding: a depth-first walk over the permutations of [n]
that extends a prefix only while it can still end with at most one
descent, so every prefix it visits completes and its cost follows the
2^n - n permutations it lists.  The last value is forced, the one left,
so each permutation is tallied where that value is placed, with no call
of its own; the inverse is one list for the whole walk, each value's
position written as it is placed, so a leaf reads it whole without
rebuilding it.  It tallies each permutation under a plain tuple and makes
each distinct key a ``PermKey`` once.  Each tally counts its objects
by the statistics the paper refines by, so a question about avoiders is a
sum over one tally: a word avoids every ``0^j 1^(k-j)`` iff its longest
``0*1*`` subsequence is shorter than k, and a permutation avoids
``12...k`` iff its longest increasing subsequence is (Schensted 1961).
The module imports nothing from the package but its error types.  Sizes
past ``PERM_CAP`` and ``WORD_CAP`` are refused.  Both walks serve more in
a second, but a cap is in ``verify``'s refusals, so raising one changes
the CLI's bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import gt
from typing import NamedTuple

from .errors import CapExceededError, DomainError

PERM_CAP = 12
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
        raise CapExceededError(f"oracle serves {what}s up to {cap}, not {size}")


def word_statistics(m_max: int) -> list[Counter[WordKey]]:
    """For each length m <= m_max, how many length-m binary words have each
    (longest ``0*1*`` subsequence, zero count, inversion parity).

    >>> tally = word_statistics(4)[4]
    >>> sum(c for key, c in tally.items() if key.longest < 3)
    2
    >>> sum(c for key, c in tally.items() if key.longest < 3 and key.odd)
    1
    """
    # The walk passes every length, so a refusal names the first one past
    # the cap.
    _check_size(min(m_max, WORD_CAP + 1), WORD_CAP, "word length")
    # How many words of each length have each key; a key is the whole walk
    # state, as the ones of a length-m word number m - zeros.  longest is
    # that of the prefix read so far: a 1 extends every 0*1* subsequence,
    # a 0 only the one made of all the zeros; a 0 makes one inversion with
    # each 1 before it.
    tallies = [Counter({WordKey(0, 0, False): 1})]
    for m in range(m_max):
        after: Counter[WordKey] = Counter()
        for (longest, zeros, odd), count in tallies[m].items():
            odd_ones = (m - zeros) % 2 == 1
            after[WordKey(max(longest, zeros + 1), zeros + 1, odd ^ odd_ones)] += count
            after[WordKey(longest + 1, zeros, odd)] += count
        tallies.append(after)
    return tallies


def _descents(p: list[int]) -> int:
    return sum(map(gt, p, p[1:]))


def _longest_increasing(p: list[int]) -> int:
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


def grassmannian_statistics(n: int) -> Counter[PermKey]:
    """How many Grassmannian permutations of [n], found by filtering S_n
    by descent count, have each (longest increasing subsequence,
    biGrassmannian, involution, inversions, fixed points).

    >>> tally = grassmannian_statistics(4)
    >>> sum(tally.values())
    12
    >>> sum(c for key, c in tally.items() if key.longest < 3)
    2
    """
    _check_size(n, PERM_CAP, "permutation size")
    # Each leaf is tallied under a plain tuple; each distinct key is made a
    # PermKey once, at the end.  perm[i] is the value at position i + 1, and
    # inverse[v - 1] the position of v, written as each value is placed, so
    # a leaf reads every value at its current place.
    tally: Counter[tuple] = Counter()
    perm = [0] * n
    inverse = [0] * n

    def extend(
        position: int, used: int, last: int, descended: bool, inversions: int, fixed: int
    ) -> None:
        # used has bit v set for each value v placed before position
        least = (~used & (used + 2)).bit_length() - 1  # lowest clear bit past 0
        if position >= n:
            # The last value is forced, the one left: least.  It is tallied
            # here, with no call of its own; at n = 0 there is none.
            if n:
                perm[-1] = least
                inverse[least - 1] = n
            key = (
                _longest_increasing(perm),
                _descents(inverse) <= 1,
                inverse == perm,
                inversions + (used >> least).bit_count(),  # earlier values above it
                fixed + (least == n),
            )
            tally[key] += 1
            return
        # The least unused value always fits: below the last it is the
        # descent, and the rest rise from it.  Before the descent the prefix
        # rises, so every value above the last is unused, and any above the
        # least may follow too; past it, that would force a second.
        choices = [least]
        if not descended:
            choices += range(max(last, least) + 1, n + 1)
        for v in choices:
            perm[position - 1] = v
            inverse[v - 1] = position
            extend(
                position + 1,
                used | 1 << v,
                v,
                descended or v < last,
                inversions + (used >> v).bit_count(),  # earlier values above v
                fixed + (v == position),
            )

    extend(1, 0, 0, False, 0, 0)
    del extend  # break the cycle through extend's closure
    return Counter({PermKey._make(key): count for key, count in tally.items()})
