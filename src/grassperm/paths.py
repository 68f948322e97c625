"""
Dyck paths, the shifted lattice paths used for the parity arguments, their
peak statistics and peak/valley toggles, and the constructive bijections
with avoiding words.

Paths are strings over {'U', 'D'}.  A Dyck path of semilength n has n of
each step and never dips below height 0.  A ``DyckPath`` is such a string
checked once: the classifiers scan a plain string on every call and take a
``DyckPath`` as it is.  The maps that prove their image a Dyck path
(``lattice_to_dyck``, and through it ``word_to_dyck``,
``toggle_first_even_extremum``, ``halve_all_odd_path``) return one built
unchecked.  ``dyck_listing`` builds the text of the Dyck paths of a
semilength, as ``enumerate dyck`` prints it, and ``enumerate_dyck`` lists
its lines as plain strings.

A word with j zeros in the avoiding set for parameter k maps two ways:

- to a lattice path ``D^a0 U D^a1 ... U D^aj`` staying weakly above the
  line y = j - k + 1 from the origin on (used for the odd/even counts);
  that floor is exactly the avoidance condition, and
- to that lattice path framed by ``U^(k-j) D`` and ``U D^(k+j-m)``
  (``lattice_to_dyck``), a Dyck path of semilength k + 1 whose first and
  last peak heights sum to 2k - m.

``word_to_lattice`` tests avoidance once and builds the path unchecked; a
word that a listing proves avoiding is encoded by ``LatticePath._of_word``
without the test.

Here (a_0, ..., a_j) is the run-length sequence of the word, m its length.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from .core import Word

UP = "U"
DOWN = "D"
# A word read backwards, 0 as an up and 1 as a down, is the lattice path
# D^a0 U D^a1 ... U D^aj of its run-length sequence; and back.
_WORD_TO_STEPS = str.maketrans("01", UP + DOWN)
_STEPS_TO_WORD = str.maketrans(UP + DOWN, "01")
# Read backwards with U and D swapped, a path that falls from height h to
# the axis climbs from the axis to h.
_SWAP_STEPS = str.maketrans(UP + DOWN, DOWN + UP)


def check_steps(p: str) -> str:
    # strip stops at the first foreign character from either end
    if p.strip(UP + DOWN):
        raise DomainError(f"not a U/D step string: {p!r}")
    return p


def _heights(steps: str) -> list[int]:
    """The heights of a U/D string at the origin and after every step."""
    return list(accumulate((1 if c == UP else -1 for c in steps), initial=0))


def is_dyck_path(p: str) -> bool:
    """True iff ``p`` is a U/D string, balanced, and no prefix has more downs
    than ups.

    >>> is_dyck_path("UUDD"), is_dyck_path("UDD"), is_dyck_path("UX")
    (True, False, False)
    """
    if p.strip(UP + DOWN):
        return False
    h = _heights(p)
    return min(h) == 0 == h[-1]


class DyckPath(str):
    """A U/D string checked to be a Dyck path once, when built; the
    classifiers take it without a scan.  ``_make`` builds one without the
    check, for a listing or a map that proves its paths Dyck paths."""

    __slots__ = ()

    def __new__(cls, p: str) -> DyckPath:
        check_steps(p)
        if not is_dyck_path(p):
            raise DomainError(f"not a Dyck path: {p!r}")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, p: str) -> DyckPath:
        return str.__new__(cls, p)


def check_dyck(p: str) -> DyckPath:
    return p if isinstance(p, DyckPath) else DyckPath(p)


def semilength(p: str) -> int:
    return len(p) // 2


def _turns(p: str) -> Iterator[tuple[int, str, int]]:
    """The peaks and valleys of the U/D string ``p``, left to right, as
    (i, kind, height), from one pass over its steps: each run but the last
    ends in one.  The turn occupies steps i and i + 1 (0-based) and
    ``height`` is the y-coordinate at the turning point."""
    h = 0
    run = p[:1]
    for i, c in enumerate(p):
        if c != run:
            yield i - 1, "peak" if run == UP else "valley", h
            run = c
        h += 1 if c == UP else -1


def peaks(p: str) -> list[int]:
    """Peak heights in left-to-right order.

    >>> peaks("UDUD")
    [1, 1]
    """
    return [h for _, kind, h in _turns(check_steps(p)) if kind == "peak"]


def all_extrema_odd(p: str) -> bool:
    """True iff every peak and valley of the Dyck path ``p`` is at odd height.

    >>> all_extrema_odd("UUUDDD"), all_extrema_odd("UUDD")
    (True, False)
    """
    return _all_extrema_odd(check_dyck(p))


def _all_extrema_odd(p: str) -> bool:
    # The heights at the turns are all odd iff the first run is odd and
    # every inner run even: iff, inside its first and last step, the path
    # is a string of UU and DD pairs.
    inner = p[1:-1]
    return inner[::2] == inner[1::2]


def first_last_peak_sum(p: str) -> int:
    """Height of the first peak plus height of the last peak.

    A single-peak path contributes twice its peak height.  The first peak
    ends the leading run of ups and the last one starts the trailing run of
    downs, so the two heights are those runs' lengths.
    """
    check_dyck(p)
    if not p:
        raise DomainError("the empty path has no peaks")
    return 2 * len(p) - len(p.lstrip(UP)) - len(p.rstrip(DOWN))


def dyck_run_sequence(p: str) -> tuple[int, ...]:
    """(a_1, ..., a_n) where a_i is the number of downs right after the i-th up."""
    return tuple(map(len, check_dyck(p).split(UP)[1:]))


def is_odd_dyck(p: str) -> bool:
    """Parity of a Dyck path: an odd number of odd terms among a_1, a_3, a_5, ...

    Matches the word parity transported through the lattice-path encoding
    (not through ``word_to_dyck``, whose parity behaviour shifts with k and
    the number of zeros).

    >>> is_odd_dyck("UDUD"), is_odd_dyck("UUDD")
    (True, False)
    """
    # the number of odd terms has the parity of their sum
    return sum(map(len, check_dyck(p).split(UP)[1::2])) % 2 == 1


def word_to_dyck(k: int, w: Word) -> DyckPath:
    """Encode an avoiding word as a Dyck path of semilength k + 1: its
    lattice path, framed.  Its first and last peak heights sum to
    2k - len(w).

    >>> word_to_dyck(3, "1100")
    'UDUUDDUD'
    """
    return lattice_to_dyck(word_to_lattice(k, w))


def dyck_to_word(k: int, p: str) -> Word:
    """Inverse of :func:`word_to_dyck`.

    Defined on every Dyck path of semilength k + 1 except the staircase
    ``U^(k+1) D^(k+1)``; the recovered word has length 2k minus the path's
    first/last peak height sum.
    """
    if k < 1:
        raise DomainError("k must be positive")
    check_dyck(p)
    if semilength(p) != k + 1:
        raise DomainError(f"expected semilength {k + 1}, got {semilength(p)}")
    first_run = len(p) - len(p.lstrip(UP))
    if first_run > k:
        raise DomainError("path outside the bijection image (first peak too high)")
    # p is U^(k-j) D, then the lattice path of the word, then U and a final
    # run of downs.  That path starts at height k - j - 1 and p stays above
    # the axis, so it stays above its floor j - k + 1, unchecked.
    return lattice_to_word(LatticePath._make((p[first_run + 1 : p.rindex(UP)], k)))


class _LatticeFields(NamedTuple):
    steps: str
    k: int


class LatticePath(_LatticeFields):
    """A U/D path from the origin staying weakly above y = zeros - k + 1.

    ``zeros`` up-steps stand for the word's 0-bits, the down-steps for its
    1-bits, so the word length is len(steps).  Equal paths have equal steps
    and k.  ``_make`` and ``_replace`` build a tuple without this check, and
    ``_of_word`` the path of a word proven avoiding.

    The floor, checked from the origin on, is exactly avoidance.  A word w
    with j zeros, read backwards with 0 as U and 1 as D, is the path, and
    the height after a suffix of w is that suffix's zeros minus its ones.
    So the height stays at least j - k + 1 iff, at every split of w, the
    prefix's zeros plus the suffix's ones stay below k (the empty suffix
    gives j < k at the origin), iff w has no ``0*1*`` subsequence of
    length k, iff w avoids every ``0^j 1^(k-j)``.
    """

    __slots__ = ()

    def __new__(cls, steps: str, k: int) -> LatticePath:
        check_steps(steps)
        if k < 1:
            raise DomainError("k must be positive")
        floor = steps.count(UP) - k + 1
        if min(_heights(steps)) < floor:
            raise DomainError(f"path {steps!r} falls below its floor y={floor}")
        return super().__new__(cls, steps, k)

    @classmethod
    def _of_word(cls, k: int, w: Word) -> LatticePath:
        return cls._make((w[::-1].translate(_WORD_TO_STEPS), k))

    @property
    def zeros(self) -> int:
        return self.steps.count(UP)

    @property
    def floor(self) -> int:
        return self.zeros - self.k + 1


def lattice_run_sequence(path: LatticePath) -> tuple[int, ...]:
    """(a_0, ..., a_j): leading down-run, then the down-run after each up-step."""
    return tuple(map(len, path.steps.split(UP)))


def is_odd_lattice(path: LatticePath) -> bool:
    """Same odd/even rule as for words: odd count of odd a_i at odd i."""
    # the number of odd terms has the parity of their sum
    return sum(map(len, path.steps.split(UP)[1::2])) % 2 == 1


def word_to_lattice(k: int, w: Word) -> LatticePath:
    """Encode an avoiding word as the lattice path ``D^a0 U D^a1 ... U D^aj``.

    >>> word_to_lattice(5, "110011").steps
    'DDUUDD'
    """
    from . import patterns  # here, so that listing or toggling paths never loads it

    if not patterns.is_avoiding_word(k, w):
        raise DomainError(f"{w!r} is not an avoiding word for k={k}")
    # avoidance is the floor (see LatticePath), and it implies k >= 1
    return LatticePath._of_word(k, w)


def lattice_to_word(path: LatticePath) -> Word:
    """Inverse of :func:`word_to_lattice`."""
    return path.steps[::-1].translate(_STEPS_TO_WORD)


def lattice_to_dyck(path: LatticePath) -> DyckPath:
    """Frame a lattice path by ``U^(k-j) D`` and ``U D^(k+j-m)``: a Dyck path
    of semilength k + 1 whose first and last peak heights sum to 2k - m.

    The origin is on or above the floor j - k + 1, so k - j >= 1, and the
    path starts at height k - j - 1, which raises its floor to the axis.
    It ends at 2j - m, on or above the floor, so k + j - m >= 1 and the
    closing ``U D^(k+j-m)`` comes back to the axis: the image is a Dyck
    path as it stands, unchecked.

    >>> lattice_to_dyck(LatticePath("UUDD", 3))
    'UDUUDDUD'
    """
    k, j, m = path.k, path.zeros, len(path.steps)
    return DyckPath._make(UP * (k - j) + DOWN + path.steps + UP + DOWN * (k + j - m))


def _toggle(steps: str, i: int) -> str:
    return steps[:i] + steps[i + 1] + steps[i] + steps[i + 2 :]


def find_first_even_extremum(p: str) -> tuple[int, str, int]:
    """First peak or valley of a Dyck path at even height, as (index, kind, height)."""
    for item in _turns(check_dyck(p)):
        if item[2] % 2 == 0:
            return item
    raise DomainError(f"all peaks and valleys of {p!r} are at odd height")


def toggle_first_even_extremum(p: str) -> DyckPath:
    """Swap the first even-height peak into a valley (or valley into a peak).

    An involution on Dyck paths with at least one even-height extremum, and
    it flips the path's parity under :func:`is_odd_dyck`.

    >>> toggle_first_even_extremum("UDUUDUDD")
    'UUDUDUDD'
    >>> toggle_first_even_extremum("UUDUDUDD")
    'UDUUDUDD'
    """
    i, _, _ = find_first_even_extremum(p)
    # A peak stands above a point on the axis or higher, so an even-height
    # peak is at height 2 or more and the valley it becomes stays on the
    # axis or above; a valley only rises.  The step counts are kept, so the
    # image is a Dyck path, unchecked.
    return DyckPath._make(_toggle(p, i))


def find_first_floor_parity_extremum(path: LatticePath) -> tuple[int, str, int]:
    """First extremum whose height has the parity of the floor line."""
    parity = path.floor % 2
    for item in _turns(path.steps):
        if item[2] % 2 == parity:
            return item
    raise DomainError(f"no peak or valley of {path.steps!r} matches the floor parity")


def toggle_lattice_path(path: LatticePath) -> LatticePath:
    """The parity-flipping involution on lattice paths.

    Toggles the first peak/valley whose height has the same parity as the
    floor y = zeros - k + 1.
    """
    i, _, _ = find_first_floor_parity_extremum(path)
    # The point before a peak is on the floor or above, and has the other
    # parity, so a peak at the floor's parity is at least 2 above the floor
    # and the valley it becomes stays on it or above; a valley only rises.
    # The zeros, and so the floor, are kept: the image is a lattice path,
    # unchecked.
    return LatticePath._make((_toggle(path.steps, i), path.k))


def halve_all_odd_path(p: str) -> DyckPath:
    """Collapse a Dyck path with all extrema at odd height to half its size.

    Such a path has odd semilength n and run form
    ``U^(2a+1) D^(2b) ... U^(2c) D^(2d+1)``; halving every run (after
    shaving the forced odd step off the first and last) gives a Dyck path
    of semilength (n - 1) / 2, bijectively.

    >>> halve_all_odd_path("UUUDDD")
    'UD'
    >>> halve_all_odd_path("UD")
    ''
    """
    check_dyck(p)
    if not p:
        raise DomainError("the empty path is not in the domain")
    if not _all_extrema_odd(p):
        raise DomainError(f"{p!r} has a peak or valley at even height")
    # Inside its first and last step the path is UU and DD pairs, so its
    # semilength is odd, and one step of each pair halves every run.  Each
    # pair starts at an odd height, so at 1 or more, and halving takes that
    # height h to (h - 1) / 2 >= 0: the image is a Dyck path, unchecked.
    return DyckPath._make(p[1:-1:2])


def dyck_listing(n: int, peaks: bool) -> Iterator[str]:
    """The Dyck paths of semilength n in lexicographic order ('D' < 'U'),
    each ended by ``"\\n"``, or with ``peaks`` by `` peaks=v\\n`` for its
    v peaks: the text ``enumerate dyck`` prints, one string for all the
    paths of one first half, with no interpreter step per path.

    Each path is a sorted first half of n steps, from the axis up to some
    height h, joined to each sorted second half of n steps from h back
    down, never dipping below the axis.  A first half ``a`` and its second
    halves ``b1, b2, ...``, each with its line ending, are the lines
    ``a + a.join([b1, b2, ...])``.  A peak is a ``UD`` factor, so the peaks
    of ``a + b`` are those of ``a`` and those of ``a[-1:] + b``, which holds
    the one across the join.  A second half's line ending thus reads the
    first half only through its height, its peak count and its last step,
    and each list of ended second halves is built once per such triple.
    The halves are built before the first line, so a bad n is refused at
    the call.

    >>> list(dyck_listing(2, True))
    ['UDUD peaks=2\\n', 'UUDD peaks=1\\n']
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    # ends[h]: the strings of r steps from height h down to the axis that
    # never dip below it, sorted, for r = 0, ..., n.  The last row is always
    # empty, and ends[h - 1] at h = 0 reads it.
    ends = [[""]] + [[] for _ in range(n + 1)]
    for _ in range(n):
        ends = [
            [DOWN + s for s in ends[h - 1]] + [UP + s for s in ends[h + 1]] for h in range(n + 1)
        ] + [[]]
    # A first half is a second half read backwards with its steps swapped;
    # ``a`` ends at height 2 * a.count(UP) - n.
    heads = sorted(s[::-1].translate(_SWAP_STEPS) for row in ends for s in row)
    if not peaks:
        ended = [[b + "\n" for b in row] for row in ends]
        return (a + a.join(ended[2 * a.count(UP) - n]) for a in heads)
    peak = UP + DOWN
    built: dict[tuple[int, int, str], list[str]] = {}

    def lines(a: str) -> str:
        key = (2 * a.count(UP) - n, a.count(peak), a[-1:])
        if key not in built:
            h, v, last = key
            built[key] = [f"{b} peaks={v + (last + b).count(peak)}\n" for b in ends[h]]
        return a + a.join(built[key])

    return map(lines, heads)


def enumerate_dyck(n: int) -> list[str]:
    """All Dyck paths of semilength n in lexicographic order ('D' < 'U'):
    the lines of ``dyck_listing(n, False)`` with their endings cut off.

    >>> enumerate_dyck(2)
    ['UDUD', 'UUDD']
    """
    return "".join(dyck_listing(n, False)).splitlines()


SVG_UNIT = 24  # pixels per step, across and up


def path_svg(steps: str, floor: int = 0) -> str:
    """Minimal SVG rendering of a path, with its floor line when below 0."""
    check_steps(steps)
    hs = _heights(steps)
    top, bot = max(hs), min(hs + [floor])
    width, height = SVG_UNIT * (len(steps) + 2), SVG_UNIT * (top - bot + 2)
    y = lambda v: height - SVG_UNIT * (v - bot + 1)
    pts = " ".join(f"{SVG_UNIT * (i + 1)},{y(v)}" for i, v in enumerate(hs))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{SVG_UNIT}" y1="{y(floor)}" x2="{width - SVG_UNIT}" y2="{y(floor)}" '
        'stroke="#999" stroke-dasharray="4"/>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>',
        "</svg>",
    ]
    return "\n".join(lines)
