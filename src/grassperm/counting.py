"""
Exact counting formulas: binomials, Catalan and ballot numbers, the three
equivalent expressions for the number of length-m words avoiding every
``0^j 1^(k-j)``, peak statistics of Dyck paths, fixed-point counts, the
grand totals, and the ballot number as an alternating Catalan sum.

Everything is exact integer arithmetic.  Binomials follow the combinatorial
convention C(n, k) = 0 outside 0 <= k <= n.  Every alternating Catalan sum
is one walk, :func:`_alternating_catalan_sum`.  Every quotient that the
paper proves exact, here, in ``parity`` and in ``classes``, is taken by
:func:`exact_quotient`, which refuses a remainder: it means a count upstream
is wrong.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator

from .errors import DomainError


def exact_quotient(numerator: int, divisor: int, refusal: str, *args) -> int:
    """``numerator / divisor`` where it is exact; otherwise a
    :class:`DomainError` whose message is ``refusal.format(*args)``,
    formatted only then.

    >>> exact_quotient(12, 4, "{} is not a multiple of 4", 12)
    3
    """
    q, r = divmod(numerator, divisor)
    if r:
        raise DomainError(refusal.format(*args))
    return q


def binomial(n: int, k: int) -> int:
    """C(n, k), and 0 whenever k < 0, k > n, or n < 0.

    >>> binomial(5, 2)
    10
    >>> binomial(1, 2)
    0
    >>> binomial(-1, 0)
    0
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1); 0 for negative n.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        return 0
    return math.comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    """Ballot number T(n, k) = (n - k + 1)/(n + 1) * C(n + k, n).

    Counts Dyck paths of semilength n + 1 whose last peak has height
    n + 1 - k.  Zero outside 0 <= k <= n + 1 or for n < 0.

    >>> ballot(3, 0), ballot(3, 1), ballot(3, 3)
    (1, 3, 5)
    """
    if n < 0 or k < 0 or k > n + 1:
        return 0
    return exact_quotient(
        (n - k + 1) * math.comb(n + k, n), n + 1, "ballot({}, {}) not an integer", n, k
    )


def _alternating_catalan_sum(n: int, c: int, f: int) -> int:
    """sum_{j>=f} (-1)^(j-f) * C(j, f) * C(n-j, j) * catalan(c-j), for f in
    {0, 1}: the one shape of the paper's alternating Catalan sums.

    Terms vanish once 2j > n or j > c, so the last is j = min(n // 2, c),
    and the first is already 0 when that is below f.  Each term is walked
    from the one before by the ratio of small factors, one multiplication
    and one exact division, and the walk stops at the last term, so no step
    divides by zero.
    """
    total = term = binomial(n - f, f) * catalan(c - f)  # the term at j = f
    for j in range(f, min(n // 2, c)):
        # term j + 1 over term j: -1 for the sign,
        # C(j+1, f) / C(j, f) = (j + 1) / (j + 1 - f),
        # C(n-j-1, j+1) / C(n-j, j) = (n-2j)(n-2j-1) / ((j+1)(n-j)), and
        # catalan(c-j-1) / catalan(c-j) = (c-j+1) / (2(2(c-j)-1)); the two
        # factors j + 1 cancel
        term = (
            -term
            * (n - 2 * j) * (n - 2 * j - 1) * (c - j + 1)
            // (2 * (j + 1 - f) * (n - j) * (2 * (c - j) - 1))
        )
        total += term
    return total


def avoiding_word_count_alternating(k: int, m: int) -> int:
    """Alternating closed form for the number of length-m avoiding words.

    sum_{j=1}^{2k-m} (-1)^(j-1) * j * C(2k-m-j, j) * catalan(k-j), defined
    for all k, m >= 0 (empty sum once m >= 2k - 1).
    """
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    return _alternating_catalan_sum(2 * k - m, k, 1)


def alternating_word_table(k_max: int) -> Iterator[tuple[int, int, int]]:
    """Rows (k, m, count) for 1 <= k <= k_max, 0 <= m <= 2k - 2, row-major,
    each by :func:`avoiding_word_count_alternating`.

    >>> [c for k, m, c in alternating_word_table(3) if k == 3]
    [1, 2, 4, 4, 2]
    """
    if k_max < 1:
        raise DomainError("k_max must be positive")
    for k in range(1, k_max + 1):
        for m in range(2 * k - 1):
            yield k, m, avoiding_word_count_alternating(k, m)


def avoiding_word_count(k: int, m: int) -> int:
    """Number of length-m words avoiding every ``0^j 1^(k-j)``.

    Binomial-difference form: with t = 2k - m - 1,

        count(k, m) = sum_{j=k-t}^{k-1} C(m, j) - t * C(m, k),

    and 0 once t <= 0 (that is, m >= 2k - 1).  O(k) exact terms, each
    binomial one multiplication and one division from the last, no table;
    :func:`avoiding_word_table` and :func:`avoiding_word_count_alternating`
    are the certified alternatives ``verify`` compares it with.

    >>> avoiding_word_count(3, 4)
    2
    >>> avoiding_word_count(4, 4)
    11
    """
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    t = 2 * k - m - 1
    if t <= 0:
        return 0
    lo = max(k - t, 0)
    head, c = 0, math.comb(m, lo)
    for j in range(lo, min(k, m + 1)):
        head += c
        c = c * (m - j) // (j + 1)
    return head - t * c  # c has walked on to C(m, k), 0 once past C(m, m)


def avoiding_perm_count(k: int, m: int) -> int:
    """Grassmannian permutations of [m] avoiding the identity of size k.

    Below length k nothing contains an increasing run of k, so the count is
    all of them (2^m - m); from length k on it matches the word count, the
    identity words having been excluded already.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if m < k:
        return 2**m - m
    return avoiding_word_count(k, m)


def nonidentity_avoider_count(n: int, k: int) -> int:
    """Grassmannian permutations of [n] avoiding a fixed non-identity
    Grassmannian pattern of size k: 1 + sum_{j=2}^{k-1} C(n, j).

    Independent of which non-identity pattern is chosen.

    >>> nonidentity_avoider_count(4, 3)
    7
    """
    if k < 2:
        raise DomainError("pattern size k must be at least 2")
    return 1 + sum(binomial(n, j) for j in range(2, k))


def dyck_peak_pair_count(n: int, a: int, b: int) -> int:
    """Dyck paths of semilength n + 1 with first peak height a and last peak
    height b: C(2n-a-b, n-a) - C(2n-a-b, n), valid for a, b >= 1, a+b <= 2n.
    """
    if a < 1 or b < 1 or a + b > 2 * n:
        raise DomainError(f"need a, b >= 1 and a + b <= 2n, got ({n}, {a}, {b})")
    return binomial(2 * n - a - b, n - a) - binomial(2 * n - a - b, n)


def dyck_peak_sum_count(n: int, s: int) -> int:
    """Dyck paths of semilength n whose first and last peak heights sum to s.

    sum_{j=1}^{floor(s/2)} (-1)^(j-1) * j * C(s-j, j) * catalan(n-1-j),
    valid for s <= 2n - 2 (the single-peak staircase path is excluded).
    Through the word-to-Dyck bijection this is the number of length
    2n - 2 - s words avoiding every ``0^j 1^(n-1-j)``.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if s > 2 * n - 2:
        raise DomainError(f"s must be at most 2n - 2, got s={s}, n={n}")
    return avoiding_word_count_alternating(n - 1, 2 * n - 2 - s)


def fixed_point_count(n: int, k: int) -> int:
    """Grassmannian permutations of [n] with exactly k fixed points.

    1 for k = n (the identity), 0 for k = n - 1, else (k+1) * 2^(n-k-2).

    >>> [fixed_point_count(4, k) for k in range(5)]
    [4, 4, 3, 0, 1]
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got ({n}, {k})")
    if k == n:
        return 1
    if k == n - 1:
        return 0
    return (k + 1) * 2 ** (n - k - 2)


def total_avoiding_words(k: int) -> int:
    """Words of any length avoiding every ``0^j 1^(k-j)``: catalan(k+1) - 1."""
    if k < 1:
        raise DomainError("k must be positive")
    return catalan(k + 1) - 1


def total_avoiding_perms(k: int) -> int:
    """Grassmannian permutations of any size avoiding the identity of size k:
    catalan(k+1) - C(k, 2) - 1.

    The C(k, 2) correction removes the identity-word multiplicity: each size
    m < k contributes m extra words for its single identity permutation.
    """
    if k < 1:
        raise DomainError("k must be positive")
    return catalan(k + 1) - binomial(k, 2) - 1


def avoiding_words_with_zeros(k: int, j: int) -> int:
    """Avoiding words (any length) with exactly j zeros: the ballot number
    T(k, j + 1).

    >>> avoiding_words_with_zeros(3, 2)
    5
    """
    if k < 1 or j < 0:
        raise DomainError("need k >= 1 and j >= 0")
    return ballot(k, j + 1)


def ballot_alternating(a: int, b: int) -> int:
    """The ballot number T(a, b) as an alternating Catalan sum:
    sum_{j=0}^{a-b} (-1)^j * C(a-b-j, j) * catalan(a-j).

    >>> ballot_alternating(3, 1)
    3
    """
    if a < 0 or b < 0 or b > a:
        raise DomainError(f"need 0 <= b <= a, got ({a}, {b})")
    return _alternating_catalan_sum(a - b, a, 0)


def _word_rows(k_max: int) -> Iterator[list[int]]:
    """Row k of the counts, ``row[m]`` = count(k, m) for 0 <= m <= 2k - 2,
    for each 1 <= k <= k_max in turn, by the recurrence that splits on the
    last letter:

        count(k, m) = count(k, m-1) + count(k-1, m-1) - ballot(k-1, m-k),

    subtracting the ballot number of shorter words that already carry
    k - 1 zeros.  Base cases: count(k, 0) = 1 for k >= 1, and 0 for k = 0
    or m >= 2k - 1.  Each row is built from the one before, and beside it
    the ballot row T(k-1, b), 0 <= b <= k-1, by addition alone: T(a, 0) = 1
    and

        T(a, b) = T(a-1, b) + T(a, b-1)  for 1 <= b <= a, with T(a-1, a) = 0,

    so each ballot row is the running sum of the one before, a 0 appended.
    A caller may keep the rows but must not change one: the next row is
    built from it.
    """
    if k_max < 1:
        raise DomainError("k_max must be positive")
    prev: list[int] = []  # row k - 1; cells past its end are 0
    ballots = [1]  # T(k - 1, b) for 0 <= b <= k - 1
    for k in range(1, k_max + 1):
        row = [1]
        for m in range(1, 2 * k - 1):
            above = prev[m - 1] if m - 1 < len(prev) else 0
            row.append(row[m - 1] + above - (ballots[m - k] if m >= k else 0))
        yield row
        prev = row
        ballots = list(accumulate(ballots + [0]))


def avoiding_word_table(k_max: int) -> Iterator[tuple[int, int, int]]:
    """Rows (k, m, count) for 1 <= k <= k_max, 0 <= m <= 2k - 2, row-major:
    the cells of the recurrence rows, one row at a time.

    >>> [c for k, m, c in avoiding_word_table(3) if k == 3]
    [1, 2, 4, 4, 2]
    """
    for k, row in enumerate(_word_rows(k_max), 1):
        for m, count in enumerate(row):
            yield k, m, count
