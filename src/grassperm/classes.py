"""
Two special classes of Grassmannian permutations: biGrassmannian ones
(inverse also Grassmannian, equivalently 2413-avoiding) and involutions
(word form ``0^a 1^b 0^b 1^c``).  For each class: recognition, total count,
count of those avoiding the identity pattern of size k, and the odd
refinements of both.
"""

from __future__ import annotations

from . import core
from .core import Permutation
from .counting import binomial
from .errors import DomainError


def _inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_bigrassmannian(p: Permutation) -> bool:
    """True iff the inverse is Grassmannian too.

    >>> is_bigrassmannian((3, 4, 1, 2))
    True
    >>> is_bigrassmannian((2, 4, 1, 3))
    False
    """
    p = core.check_grassmannian(p)
    return core.is_grassmannian(_inverse(p))


def is_grassmannian_involution(p: Permutation) -> bool:
    """True iff p composed with itself is the identity."""
    p = core.check_grassmannian(p)
    return _inverse(p) == p


def has_involution_word_form(w: str) -> bool:
    """True iff ``w`` is ``0^a 1^b 0^b 1^c``, the involutions' word shape."""
    core.check_word(w)
    n = len(w)
    a = n - len(w.lstrip("0"))
    c = n - len(w.rstrip("1"))
    middle = w[a : n - c]  # the leading zeros and trailing ones never overlap
    b2 = len(middle)
    return b2 % 2 == 0 and middle == "1" * (b2 // 2) + "0" * (b2 // 2)


def bigrassmannian_count(m: int) -> int:
    """Total biGrassmannian permutations of [m]: 1 + C(m+1, 3).

    >>> bigrassmannian_count(3)
    5
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    return 1 + binomial(m + 1, 3)


def bigrassmannian_avoider_count(k: int, m: int) -> int:
    """BiGrassmannian permutations of [m] avoiding the identity of size k.

    Everything avoids while m < k; from m = 2k on everything contains; in
    between the count telescopes down to C(2k-m+1, 3).
    """
    if k < 2:
        raise DomainError("k must be at least 2")
    if m < 0:
        raise DomainError("m must be nonnegative")
    if m < k:
        return bigrassmannian_count(m)
    if m < 2 * k:
        return binomial(2 * k - m + 1, 3)
    return 0


def odd_bigrassmannian_count(m: int) -> int:
    """Odd biGrassmannian permutations of [m]:
    C(m+2, 3)/4 for even m, (m-1)(m+1)(m+3)/24 for odd m.

    >>> [odd_bigrassmannian_count(m) for m in range(6)]
    [0, 0, 1, 2, 5, 8]
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    if m % 2 == 0:
        q, r = divmod(binomial(m + 2, 3), 4)
    else:
        q, r = divmod((m - 1) * (m + 1) * (m + 3), 24)
    if r:
        raise DomainError(f"odd biGrassmannian count at m={m} not integral")
    return q


def _reduced_size(k: int, m: int) -> int:
    """Size the odd avoider counts reduce to: m itself below the pattern
    size, else 2k - m shrunk by 2 more when m - k is odd (may go negative,
    meaning the count is 0)."""
    if m <= k:
        return m
    if (m - k) % 2 == 0:
        return 2 * k - m
    return 2 * k - m - 2


def odd_bigrassmannian_avoider_count(k: int, m: int) -> int:
    """Odd biGrassmannian permutations of [m] avoiding the identity of size k."""
    if k < 1 or m < 0:
        raise DomainError("need k >= 1 and m >= 0")
    t = _reduced_size(k, m)
    return odd_bigrassmannian_count(t) if t >= 0 else 0


def involution_count(m: int) -> int:
    """Total Grassmannian involutions of [m]: ceil((m^2 + 1) / 4).

    >>> [involution_count(m) for m in range(6)]
    [1, 1, 2, 3, 5, 7]
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    return (m * m + 4) // 4


def involution_avoider_count(k: int, m: int) -> int:
    """Grassmannian involutions of [m] avoiding the identity of size k."""
    if k < 1 or m < 0:
        raise DomainError("need k >= 1 and m >= 0")
    if m < k:
        return involution_count(m)
    if m < 2 * k:
        return (2 * k - m) ** 2 // 4
    return 0


def odd_involution_count(m: int) -> int:
    """Odd Grassmannian involutions of [m]: floor((m+1)^2 / 8).

    Satisfies the shift relation count(m) = count(m-4) + m - 1 for m >= 5.

    >>> [odd_involution_count(m) for m in range(6)]
    [0, 0, 1, 2, 3, 4]
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    return (m + 1) ** 2 // 8


def odd_involution_avoider_count(k: int, m: int) -> int:
    """Odd Grassmannian involutions of [m] avoiding the identity of size k."""
    if k < 1 or m < 0:
        raise DomainError("need k >= 1 and m >= 0")
    t = _reduced_size(k, m)
    return odd_involution_count(t) if t >= 0 else 0


def class_table(m_max: int) -> list[tuple[str, int, int]]:
    """Rows (class, m, count) of the four class totals for 0 <= m <= m_max,
    one class after another.

    >>> class_table(1)[:3]
    [('bigrass', 0, 1), ('bigrass', 1, 1), ('bigrass_odd', 0, 0)]
    """
    if m_max < 0:
        raise DomainError("m_max must be nonnegative")
    totals = (
        ("bigrass", bigrassmannian_count),
        ("bigrass_odd", odd_bigrassmannian_count),
        ("invol", involution_count),
        ("invol_odd", odd_involution_count),
    )
    return [(name, m, total(m)) for name, total in totals for m in range(m_max + 1)]
