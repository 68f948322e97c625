"""
Binary words, Grassmannian permutations, and the encoding between them.

Conventions used throughout the package:

- A binary word is a ``str`` over ``{'0', '1'}`` (the empty word is allowed).
- A permutation of [n] = {1, ..., n} is a ``tuple[int, ...]`` in one-line
  notation, 1-based values.  A permutation is *Grassmannian* if it has at
  most one descent.  A ``Grassmannian`` is such a tuple checked once: the
  classifiers scan a plain tuple on every call and take a ``Grassmannian``
  as it is.  ``grassmannian_permutations`` lists them built unchecked.
- ``zeros_to_front(w)`` builds the Grassmannian permutation whose first
  block lists the positions of the 0-bits of ``w`` in increasing order and
  whose second block lists the positions of the 1-bits in increasing order.
  Every Grassmannian permutation arises this way; the word is unique except
  for the identity, which is produced by all n + 1 words ``0^j 1^(n-j)``.

Positions are 1-based in every external format (word positions, fixed
points, one-line entries).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from .errors import DomainError

Word = str
Permutation = tuple[int, ...]

# Byte masks of a binary word: 1 where it has a 0-bit, and where a 1-bit.
_ZERO_BITS = bytes.maketrans(b"01", b"\x01\x00")
_ONE_BITS = bytes.maketrans(b"01", b"\x00\x01")


def check_word(w: Word) -> Word:
    """Validate that ``w`` consists only of '0' and '1' characters."""
    if w.strip("01"):  # strip stops at the first foreign character from either end
        raise DomainError(f"not a binary word: {w!r}")
    return w


def is_permutation(p: Iterable[int]) -> bool:
    """True iff ``p`` lists each of 1..n exactly once.

    >>> is_permutation((3, 4, 1, 2))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    p = tuple(p)
    return sorted(p) == list(range(1, len(p) + 1))


def check_permutation(p: Iterable[int]) -> Permutation:
    p = tuple(p)
    if not is_permutation(p):
        raise DomainError(f"not a permutation of [n]: {p!r}")
    return p


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def descent_count(p: Permutation) -> int:
    """Number of positions i with p[i] > p[i+1] (1-based descent positions)."""
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def is_grassmannian(p: Permutation) -> bool:
    """True iff ``p`` has at most one descent.  The empty permutation counts."""
    return descent_count(p) <= 1


class Grassmannian(tuple):
    """A permutation checked Grassmannian once, when built; the classifiers
    take it without a scan.  ``_make`` builds one without the check, for a
    listing that proves its permutations Grassmannian."""

    __slots__ = ()

    def __new__(cls, p: Iterable[int]) -> Grassmannian:
        p = check_permutation(p)
        if not is_grassmannian(p):
            raise DomainError(f"not Grassmannian: {p!r}")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, p: Iterable[int]) -> Grassmannian:
        return tuple.__new__(cls, p)


def check_grassmannian(p: Iterable[int]) -> Grassmannian:
    return p if isinstance(p, Grassmannian) else Grassmannian(p)


def is_identity(p: Permutation) -> bool:
    return all(v == i + 1 for i, v in enumerate(p))


def grassmannian_of_word(w: Word) -> Permutation:
    """Decode ``w`` into its Grassmannian permutation.

    Positions of the 0-bits come first in increasing order, then the
    positions of the 1-bits in increasing order.

    >>> grassmannian_of_word("000101110")
    (1, 2, 3, 5, 9, 4, 6, 7, 8)
    >>> grassmannian_of_word("1100")
    (3, 4, 1, 2)
    >>> grassmannian_of_word("")
    ()
    """
    bits = check_word(w).encode()
    positions = range(1, len(w) + 1)
    return (
        *compress(positions, bits.translate(_ZERO_BITS)),
        *compress(positions, bits.translate(_ONE_BITS)),
    )


def identity_words(n: int) -> list[Word]:
    """The n + 1 words ``0^j 1^(n-j)`` that all decode to the identity of [n]."""
    return ["0" * j + "1" * (n - j) for j in range(n + 1)]


def words_of_permutation(p: Permutation) -> set[Word]:
    """All words decoding to ``p``: a singleton unless ``p`` is the identity.

    >>> sorted(words_of_permutation((3, 4, 1, 2)))
    ['1100']
    >>> sorted(words_of_permutation((1, 2)))
    ['00', '01', '11']
    """
    p = check_grassmannian(p)
    if is_identity(p):
        return set(identity_words(len(p)))
    return {canonical_word(p)}


def canonical_word(p: Permutation) -> Word:
    """The unique word for a non-identity Grassmannian ``p``; ``0^n`` for the identity.

    A non-identity Grassmannian permutation has its single descent at some
    position d, and its word has 0-bits exactly at positions p[0..d-1].
    """
    p = check_grassmannian(p)
    n = len(p)
    if is_identity(p):
        return "0" * n
    d = next((i + 1 for i in range(n - 1) if p[i] > p[i + 1]), None)
    if d is None:  # no descent, so is_identity was wrong
        raise DomainError(f"{p!r} has no descent but is not the identity")
    zeros = set(p[:d])
    return "".join("0" if i in zeros else "1" for i in range(1, n + 1))


def fixed_points(p: Permutation) -> set[int]:
    """The set {i : p(i) = i}.

    >>> fixed_points((1, 2, 3)) == {1, 2, 3}
    True
    >>> fixed_points((3, 4, 1, 2))
    set()
    """
    return {i + 1 for i, v in enumerate(p) if v == i + 1}


def a_sequence(w: Word) -> tuple[int, ...]:
    """Run lengths (a_0, ..., a_j) with w = 1^a_j 0 1^a_(j-1) 0 ... 1^a_1 0 1^a_0.

    j is the number of 0-bits; a_i counts the 1-bits between consecutive
    0-bits, indexed from the *right* end of the word.  Always has j + 1
    entries (all zero for ``0^n``; the single entry (len,) for ``1^n``).

    >>> a_sequence("1010")
    (0, 1, 1)
    >>> a_sequence("")
    (0,)
    """
    check_word(w)
    runs = [len(block) for block in w.split("0")]
    return tuple(reversed(runs))


def inversion_count(w: Word) -> int:
    """Number of occurrences of the subsequence ``10`` in ``w``.

    Equals the inversion number of ``grassmannian_of_word(w)``: each 1-bit
    lying before i of the 0-bits contributes i inversions, so the count is
    sum(i * a_i) over the a-sequence.

    >>> inversion_count("1010")
    3
    >>> inversion_count("1100")
    4
    """
    a = a_sequence(w)
    return sum(i * x for i, x in enumerate(a))


def is_odd_word(w: Word) -> bool:
    """True iff ``grassmannian_of_word(w)`` has an odd number of inversions.

    Equivalent to an odd number of odd entries among (a_1, a_3, a_5, ...),
    the rule ``paths.is_odd_lattice`` reads off a lattice path.
    """
    return inversion_count(w) % 2 == 1


def grassmannian_permutations(n: int) -> list[Grassmannian]:
    """All 2^n - n Grassmannian permutations of [n] (just the identity for n = 0).

    Materialized by decoding every length-n word and deduplicating the
    identity.  Sorted lexicographically.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    seen = {grassmannian_of_word(format(x, f"0{n}b") if n else "") for x in range(2**n)}
    # A decoded word lists each position once, in two increasing blocks, so
    # each permutation has at most one descent: typed unchecked.
    return list(map(Grassmannian._make, sorted(seen)))


def perm_to_str(p: Permutation) -> str:
    """Serialize in one-line notation as comma-separated integers."""
    return ",".join(str(v) for v in p)


def perm_from_str(s: str) -> Permutation:
    """Parse one-line notation; accepts ``3,4,1,2`` or compact ``3412`` (n <= 9)."""
    s = s.strip()
    if not s:
        return ()
    try:
        if "," in s:
            entries = tuple(int(tok) for tok in s.split(","))
        else:
            entries = tuple(int(c) for c in s)
    except ValueError:
        raise DomainError(f"not a permutation in one-line notation: {s!r}") from None
    return check_permutation(entries)
