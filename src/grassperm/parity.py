"""
Odd/even refinements of the avoiding-word counts.

A word is odd when its permutation has an odd number of inversions.  The
counts split the avoiding-word table into odd and even halves; all closed
forms below reduce to the plain counts at roughly half the parameters, with
a separate shape when both k and m are even.  That identity is stated once,
in :func:`_odd_counts`, which reads the plain counts as rows ``rows[k][m]``:
the single values hand it row k as the one count they read there, and
half rows whose counts come from the binomial difference as they are read;
:func:`parity_table` hands it the recurrence rows of ``counting``, built one
k at a time.  ``verify``'s parity suite holds each row of the table to the
single values.

Every halving is taken by :func:`~grassperm.counting.exact_quotient`,
which refuses a remainder: the toggle pairs odd words with even ones and
the correction counts the unpaired ones, so an odd doubled count means a
count it was built from is wrong.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .counting import _word_rows, avoiding_word_count, ballot, catalan, exact_quotient
from .errors import DomainError


def _odd_counts(k: int, ms: Iterable[int], rows) -> list[int]:
    """The odd counts at k >= 0, one for each m >= 0 of ``ms``, from the
    plain counts ``rows[j][i]`` = count(j, i) at j = k, k // 2 and, for
    even k, (k - 2) // 2, read also past the end of a row, where they are 0.

    Twice the odd count is the plain count corrected by counts at halved
    parameters; the correction pairs up paths through the parity-flipping
    peak/valley toggle and counts the unpaired ones directly.
    """
    row, half = rows[k], rows[k // 2]
    lower = rows[(k - 2) // 2] if k % 2 == 0 else None
    odd = []
    for m in ms:
        if k == 0 or m == 0:
            doubled = 0
        elif k % 2 or m % 2:
            doubled = row[m] - 2 * half[(m - 1) // 2]
        else:
            doubled = row[m] + half[(m - 2) // 2] - half[m // 2] - lower[(m - 2) // 2]
        odd.append(
            exact_quotient(doubled, 2, "2*odd_word_count({}, {}) is not even: {}", k, m, doubled)
        )
    return odd


class _CountRow:
    """Row k of the plain counts for the point forms: ``row[m]`` is
    :func:`~grassperm.counting.avoiding_word_count` (k, m), computed when
    read."""

    def __init__(self, k: int):
        self.k = k

    def __getitem__(self, m: int) -> int:
        return avoiding_word_count(self.k, m)


def _odd_and_total(k: int, m: int) -> tuple[int, int]:
    """The odd and the plain count at (k, m).  The plain count is computed
    once and handed to the identity as row k; the half rows compute their
    counts as they are read."""
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    total = avoiding_word_count(k, m)
    rows = {j: _CountRow(j) for j in (k // 2, (k - 2) // 2)} | {k: {m: total}}
    return _odd_counts(k, (m,), rows)[0], total


def odd_word_count(k: int, m: int) -> int:
    """Number of odd length-m avoiding words for parameter k.

    >>> odd_word_count(3, 4)
    1
    >>> odd_word_count(4, 4)
    6
    """
    return _odd_and_total(k, m)[0]


def even_word_count(k: int, m: int) -> int:
    """Complement of :func:`odd_word_count` within the avoiding words."""
    odd, total = _odd_and_total(k, m)
    return total - odd


def parity_table(k_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Rows (k, m, B, O, E) for 1 <= k <= k_max, 0 <= m <= 2k - 2, row-major:
    the plain, odd and even counts, read off the recurrence rows of
    :func:`~grassperm.counting.avoiding_word_table` one row at a time.

    Each row is kept with two zeros appended, and row 0 as ``[0, 0]``: the
    odd counts at k read rows k // 2 and (k - 2) // 2 up to two cells past
    their end, where the count is 0.
    """
    rows = [[0, 0]]
    for k, row in enumerate(_word_rows(k_max), 1):
        rows.append(row + [0, 0])
        for m, (total, odd) in enumerate(zip(row, _odd_counts(k, range(len(row)), rows))):
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
