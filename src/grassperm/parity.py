"""
Odd/even refinements of the avoiding-word counts.

A word is odd when its permutation has an odd number of inversions.  The
counts split the avoiding-word table into odd and even halves; all closed
forms below reduce to the plain counts at roughly half the parameters, with
a separate shape when both k and m are even.  Single values come from the
binomial difference; :func:`parity_table` reads whole tables off one
recurrence grid, and ``verify``'s parity suite holds each of its rows to
the single values.

Every halving is taken by :func:`~grassperm.counting.exact_quotient`,
which refuses a remainder: the toggle pairs odd words with even ones and
the correction counts the unpaired ones, so an odd doubled count means a
count it was built from is wrong.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .counting import avoiding_word_count, avoiding_word_table, ballot, catalan, exact_quotient
from .errors import DomainError


def _odd_from_counts(k: int, m: int, count: Callable[[int, int], int]) -> int:
    """The odd count at (k, m) >= 0 from plain counts ``count(k', m')``.

    Twice the odd count is the plain count corrected by counts at halved
    parameters; the correction pairs up paths through the parity-flipping
    peak/valley toggle and counts the unpaired ones directly.
    """
    if k == 0 or m == 0:
        return 0
    total = count(k, m)
    if k % 2 == 0 and m % 2 == 0:
        doubled = (
            total
            + count(k // 2, (m - 2) // 2)
            - count(k // 2, m // 2)
            - count((k - 2) // 2, (m - 2) // 2)
        )
    else:
        doubled = total - 2 * count(k // 2, (m - 1) // 2)
    return exact_quotient(doubled, 2, "2*odd_word_count({}, {}) is not even: {}", k, m, doubled)


def odd_word_count(k: int, m: int) -> int:
    """Number of odd length-m avoiding words for parameter k.

    >>> odd_word_count(3, 4)
    1
    >>> odd_word_count(4, 4)
    6
    """
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    return _odd_from_counts(k, m, avoiding_word_count)


def even_word_count(k: int, m: int) -> int:
    """Complement of :func:`odd_word_count` within the avoiding words."""
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    return avoiding_word_count(k, m) - odd_word_count(k, m)


def parity_table(k_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Rows (k, m, B, O, E) for 1 <= k <= k_max, 0 <= m <= 2k - 2, row-major:
    the plain, odd and even counts, all read off one
    :func:`~grassperm.counting.avoiding_word_table` grid.
    """
    grid = {(k, m): count for k, m, count in avoiding_word_table(k_max)}

    def count(k: int, m: int) -> int:
        return grid.get((k, m), 0)

    for (k, m), total in grid.items():
        odd = _odd_from_counts(k, m, count)
        yield k, m, total, odd, total - odd


def odd_word_count_max_length(k: int) -> int:
    """Closed form for the odd count at the maximal word length m = 2k - 2:
    (catalan(k-1) + catalan((k-2)/2)) / 2, the half-index term vanishing for
    odd k.

    >>> [odd_word_count_max_length(k) for k in range(2, 6)]
    [1, 1, 3, 7]
    """
    if k < 2:
        raise DomainError("k must be at least 2")
    doubled = catalan(k - 1) + (catalan((k - 2) // 2) if k % 2 == 0 else 0)
    return exact_quotient(
        doubled, 2, "catalan({}) + catalan(({} - 2)/2) is not even: {}", k - 1, k, doubled
    )


def all_odd_extrema_count(n: int) -> int:
    """Dyck paths of semilength n with every peak and valley at odd height:
    catalan((n-1)/2), hence 0 for even n.
    """
    if n < 1:
        raise DomainError("n must be positive")
    return catalan((n - 1) // 2) if n % 2 == 1 else 0


def odd_avoiding_words_with_zeros(k: int, j: int) -> int:
    """Odd avoiding words (any length) with exactly j zeros.

    Refines the ballot-number count T(k, j+1) by inversion parity; the
    subtracted terms count the lattice paths with no toggleable extremum.
    """
    if k < 1 or j < 0:
        raise DomainError("need k >= 1 and j >= 0")
    total = ballot(k, j + 1)
    if j % 2 == 0:
        if k % 2 == 0:
            doubled = total - 2 * ballot(k // 2, (j + 2) // 2)
        else:
            doubled = (
                total
                - 2 * ballot((k - 1) // 2, (j + 2) // 2)
                - ballot((k - 1) // 2, j // 2)
            )
    else:
        doubled = total - ballot((k - 1) // 2, (j + 1) // 2)
    return exact_quotient(
        doubled, 2, "2*odd_avoiding_words_with_zeros({}, {}) is not even: {}", k, j, doubled
    )


def total_odd_avoiders(k: int) -> int:
    """Odd Grassmannian permutations (any size) avoiding the identity of
    size k.  Odd permutations are never the identity, so this is also the
    total number of odd avoiding words.

    >>> total_odd_avoiders(3)
    4
    >>> total_odd_avoiders(4)
    16
    """
    if k < 1:
        raise DomainError("k must be positive")
    top = catalan(k + 1)
    if k % 2 == 1:
        half = exact_quotient(top, 2, "catalan({}) is not even: {}", k + 1, top)
        return half - 2 * catalan((k + 1) // 2) + 1
    doubled = top - catalan(k // 2)
    half = exact_quotient(
        doubled, 2, "catalan({}) - catalan({}) is not even: {}", k + 1, k // 2, doubled
    )
    return half - catalan((k + 2) // 2) + 1
