"""
Pattern containment for permutations and binary words, and enumeration of
the avoider sets the counting formulas are certified against.

Word containment is plain subsequence containment.  Containment between
Grassmannian permutations is decided on their words, by
``grassmannian_contains``; the generic backtracking search
``permutation_contains`` is kept as the reference it is certified against.
Avoiders are generated, not filtered: each generator extends a prefix only
while it can still be completed to an avoiding word, so every prefix it
visits yields a word and the cost follows the output, not the 2^n words.
A word is appended at its last letter, with no call for the finished word.
``avoiding_words`` lists the avoiders of a pattern as their words, one word
each: the words other than ``0^n`` that decode to the identity are found in
the sorted listing by bisection and removed in place.
``enumerate_avoiders`` decodes that list into permutations; a caller that
only counts avoiders counts the words.  A caller that tests many
permutations against one pattern builds the pattern's neighbour table once
and hands it to ``permutation_contains`` in place of the pattern.
"""

from __future__ import annotations

from bisect import bisect, bisect_left

from . import core
from .core import Permutation, Word
from .errors import DomainError


def word_contains(wprime: Word, w: Word) -> bool:
    """True iff ``w`` is a subsequence of ``wprime`` (greedy left-to-right match).

    >>> word_contains("01001101100", "1100")
    True
    >>> word_contains("01001101100", "001001")
    False
    >>> word_contains("0", "")
    True
    """
    it = iter(wprime)
    return all(c in it for c in w)


def permutation_contains(sigma: Permutation, pi: Permutation) -> bool:
    """True iff some subsequence of ``sigma`` is order-isomorphic to ``pi``.

    Backtracking over candidate index sequences; exponential in the worst
    case but fine at the enumeration sizes used here (n <= 12).  Both may be
    any sequences of distinct values.  A candidate for ``pi[j]`` is tested
    only against the images of the earlier entries of ``pi`` nearest below
    and nearest above it in value: the images chosen so far are ordered as
    those entries are, so a value between those two images is ordered
    against every earlier image as ``pi[j]`` is.  ``pi`` may also be its
    ``_neighbours`` table, built once by a caller that tests many
    permutations against one pattern.
    """
    neighbours = pi if isinstance(pi, _Neighbours) else _neighbours(pi)
    n, m = len(sigma), len(neighbours)
    if m == 0:
        return True
    if m > n:
        return False
    images: list = []

    def extend(j: int, start: int) -> bool:
        if j == m:
            return True
        below, above = neighbours[j]
        low = None if below is None else images[below]
        high = None if above is None else images[above]
        for i in range(start, n - (m - j) + 1):
            v = sigma[i]
            if (low is None or low < v) and (high is None or v < high):
                images.append(v)
                if extend(j + 1, i + 1):
                    return True
                images.pop()
        return False

    found = extend(0, 0)
    del extend  # break the cycle through extend's closure, as below
    return found


class _Neighbours(tuple):
    """A pattern's neighbour table: for each entry, (the index of the
    earlier entry nearest below it in value, that of the one nearest above
    it), None where there is none."""

    __slots__ = ()


def _neighbours(pi: Permutation) -> _Neighbours:
    # read off the earlier entries kept sorted
    neighbours = []
    values: list = []  # the earlier entries of pi, in increasing order
    at: list[int] = []  # their indices, in the same order
    for j, v in enumerate(pi):
        i = bisect(values, v)
        neighbours.append((at[i - 1] if i else None, at[i] if i < j else None))
        values.insert(i, v)
        at.insert(i, j)
    return _Neighbours(neighbours)


def grassmannian_contains(wprime: Word, w: Word) -> bool:
    """Containment of G(w) in G(w'), decided at the word level.

    For non-identity G(w) this is word containment.  G(w) is the identity
    of size k = len(w) iff w has no ``10``, and G(w') contains it iff w'
    contains some ``0^j 1^(k-j)``: iff its longest ``0*1*`` subsequence
    reaches k.
    """
    core.check_word(wprime)
    core.check_word(w)
    if "10" in w:
        return word_contains(wprime, w)
    return _longest_01(wprime) >= len(w)


def _longest_01(w: Word) -> int:
    """Length of the longest ``0*1*`` subsequence of the binary word ``w``."""
    longest = zeros = 0
    for c in w:  # longest 0*1* subsequence of the prefix read so far
        zeros += c == "0"
        longest = max(longest + (c == "1"), zeros)
    return longest


def is_avoiding_word(k: int, w: Word) -> bool:
    """True iff ``w`` avoids every word ``0^j 1^(k-j)``, j in [0, k].

    These are exactly the words whose permutation avoids the identity of
    size k: those whose longest ``0*1*`` subsequence is shorter than k.  No
    word does for k = 0.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    return _longest_01(core.check_word(w)) < k


def enumerate_avoiding_words(k: int, m: int) -> list[Word]:
    """All length-m words avoiding every ``0^j 1^(k-j)``, lexicographically sorted.

    Generated depth first, ``0`` before ``1``, over the state (zeros,
    longest ``0*1*`` subsequence, letters left).  A prefix is extended only
    while it can still be completed, so every prefix visited yields a word
    and the cost follows the output, not the 2^m words; a word is appended
    at its last letter, which saves the call of each leaf, about half of
    all calls.

    >>> enumerate_avoiding_words(3, 4)
    ['1010', '1100']
    >>> enumerate_avoiding_words(2, 0)
    ['']
    """
    if k < 0 or m < 0:
        raise DomainError("k and m must be nonnegative")
    # Appending b ones and then left - b zeros ends with longest
    # max(longest + b, zeros + left - b), and no order of the same letters
    # ends lower.  Some b in [0, left] keeps both below k iff
    # longest < k and zeros + longest + left <= 2k - 2.
    top = 2 * k - 2
    out: list[Word] = []

    def extend(prefix: Word, zeros: int, longest: int, left: int) -> None:
        # left >= 1: a word is appended at its last letter, with no call of
        # its own
        left -= 1
        # longest >= zeros, so a 0 raises longest only from longest == zeros
        after_zero = longest if longest > zeros else zeros + 1
        if after_zero < k and zeros + 1 + after_zero + left <= top:
            if left:
                extend(prefix + "0", zeros + 1, after_zero, left)
            else:
                out.append(prefix + "0")
        if longest + 1 < k and zeros + longest + 1 + left <= top:
            if left:
                extend(prefix + "1", zeros, longest + 1, left)
            else:
                out.append(prefix + "1")

    if 0 < k and m <= top:
        if m:
            extend("", 0, 0, m)
        else:
            out.append("")
    # extend's closure holds extend itself: without this the cycle, and the
    # list with it, would live on until the next garbage collection
    del extend
    return out


def _words_avoiding(n: int, u: Word) -> list[Word]:
    """All length-n words that do not contain the nonempty ``u`` as a
    subsequence, lexicographically sorted.

    Generated depth first, ``0`` before ``1``, over the state (prefix,
    letters of ``u`` matched greedily).  The letter ``u`` does not ask for
    next never advances the match, so a prefix whose match is incomplete
    can always be completed.  A word is appended at its last letter.
    """
    out: list[Word] = []
    size = len(u)

    def extend(prefix: Word, matched: int, left: int) -> None:
        # left >= 1: a word is appended at its last letter, as above
        left -= 1
        for c in "01":
            advanced = matched + (c == u[matched])
            if advanced < size:
                if left:
                    extend(prefix + c, advanced, left)
                else:
                    out.append(prefix + c)

    if n:
        extend("", 0, n)
    else:
        out.append("")
    del extend  # break the cycle through extend's closure, as above
    return out


def avoiding_words(n: int, pattern: Permutation) -> list[Word]:
    """The words of the Grassmannian permutations of [n] avoiding
    ``pattern``, one word each, lexicographically sorted.

    The pattern must itself be Grassmannian; a ``core.Grassmannian`` is
    taken as it is, any other sequence checked.  The words are generated: for
    the identity of size k, those avoiding every ``0^j 1^(k-j)``; for any
    other pattern, those avoiding its word as a subsequence.  Every
    ``0^j 1^(n-j)`` decodes to the identity, so all but ``0^n`` are removed
    from the listing in place, and each avoider has exactly one word here.

    >>> avoiding_words(2, (1, 2, 3))
    ['00', '10']
    >>> avoiding_words(3, (1, 2, 3))
    ['010', '100', '101', '110']
    """
    if not isinstance(pattern, core.Grassmannian):
        pattern = core.check_permutation(pattern)
        if not core.is_grassmannian(pattern):
            raise DomainError(f"pattern is not Grassmannian: {pattern!r}")
    if n < 0:
        raise DomainError("n must be nonnegative")
    if core.is_identity(pattern):
        words = enumerate_avoiding_words(len(pattern), n)
    else:
        words = _words_avoiding(n, core.canonical_word(pattern))
    # The listing is sorted, so each such word it holds is found by bisection
    # and removed in place: at most n deletions, and no copy of the listing.
    for w in core.identity_words(n)[:-1]:
        i = bisect_left(words, w)
        if i < len(words) and words[i] == w:
            del words[i]
    return words


def enumerate_avoiders(n: int, pattern: Permutation) -> list[Permutation]:
    """All Grassmannian permutations of [n] avoiding ``pattern``, sorted:
    the :func:`avoiding_words`, decoded.  The words come in lexicographic
    order, which leaves the permutations nearly sorted.
    """
    return sorted(map(core.grassmannian_of_word, avoiding_words(n, pattern)))
