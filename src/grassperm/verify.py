"""
Verification suites: every closed form, recurrence, and bijection swept
against the brute-force oracles and against each other.

Each check compares a family of cells and records how many agree; a check
passes iff every cell does, and the first disagreeing cell is kept in the
check's params so failures name the exact spot.  Suites run in a fixed
declared order and all output is deterministic.

``run_suites`` walks each oracle tally that the selected suites read once
per run and passes the ``Tallies`` to every suite as an argument, so a run
pays for each walk once and keeps nothing after it.  A suite lists each
family of objects once for every check that reads it: the counting suite
the avoiders of 12...k in S_m of each (k, m), as words, decoded into
permutations only where the permutation oracle reads them (m <= perm_cap);
the paths suite the Dyck paths of each semilength and the avoiding words of
each (k, m); the classes suite the Grassmannian permutations of each size.
Where a command prints a listing or table, the suite reads it as printed:
the paths suite the Dyck paths to semilength 7 as ``paths.dyck_listing``
prints them for ``enumerate dyck --stats peaks``, each path with its peak
count, and 8 through ``paths.enumerate_dyck``, that listing's lines (at 9
it builds only the all-odd paths the halving reads, by ``_all_odd_dyck``);
the counting suite ``counting.avoiding_word_table`` and
``counting.alternating_word_table`` (``table --quantity B`` and ``A``), each
from m = 0; the parity suite each row of ``parity.parity_table``
(``table --quantity parity``) whole, as [B, O, E]; the series suite
``series.inversion_rows`` (``table --quantity gf``), whose row sums add
every row printed for a size.  Each listed object is also typed once,
unchecked, on the proof of its listing, so no map or classifier checks it
again: the paths suite types each listed Dyck path as a ``paths.DyckPath``
and encodes each listed avoiding word once as its ``paths.LatticePath``,
which both word encodings read (the Dyck image is that path framed); the
classes suite reads the ``core.Grassmannian`` permutations that
``core.grassmannian_permutations`` lists.  The paths suite toggles and
classifies each path once and reads both checks of a toggle off that
table.  Each listing is a whole semilength or (k, m) cell, which the maps
it checks keep, so an image outside its listing fails its cell.

Each check sweeps the cells its ``Options`` declare, never the rows a table
happens to hold, and reads every value through ``_value``, the one reader
of an absent value.  A table a suite builds before its sweeps (the
recurrence grid and the alternating table, the [B, O, E] rows of
``parity.parity_table``, the ``classes.class_table`` totals, the
``series.inversion_rows`` of each size) is one dict that each cell reads by
key, and a listing of Grassmannian permutations is read by index over its
declared size.  So a formula that refuses a cell of its own domain, as
``counting.exact_quotient`` refuses the inexact quotient that a wrong count
upstream leaves, a refused table, a missing row and a missing item all give
their cells the value None, which never matches; so does a cell that one of
the first four tables prints twice (``_by_cell``; a gf row printed twice
shows in its size's sum), and a Dyck path whose printed peak count is not
that of ``paths.peaks``, in the cells that read its first and last peak
(at semilengths 0 and 1, which no peak formula reads, in a cell of its
own).  Only a cap refusal ends the run.  A cell names its fields with a
constant tuple and gives their values as another, so a passing cell
builds no dict.

``Options.fault`` perturbs one cell of the recurrence table as seen by the
oracle-agreement check; it exists so the harness can prove that a single
wrong value turns the run red.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple

from . import classes, core, counting, oracle, parity, paths, patterns, series
from .errors import CapExceededError, DomainError

# The most avoiders the counting suite lists in one run, one word each,
# summed over its cells; a run that would list more is refused as a cap
# error.  ``--k-max 13`` lists 1,921,283 and runs in 1.27 s of CPU with a
# 51 MB peak; ``--k-max 14`` would list 3,453,826 and hold 78 MB (2-vCPU
# Intel Xeon VM, Python 3.11.7).
LISTING_CAP = 2_000_000


class Options(NamedTuple):
    k_max: int = 6
    perm_cap: int = 9
    word_cap: int = 20
    fault: tuple[int, int] | None = None


class Check(NamedTuple):
    name: str
    params: dict
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class SuiteResult(NamedTuple):
    suite: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sweep(name: str, params: dict, cells: Iterable[tuple]) -> Check:
    """Fold per-cell (keys, values, expected, actual) comparisons into one
    check.  A cell names its fields by ``keys``, one constant tuple for each
    shape of cell, and gives their ``values`` as a tuple; the named dict is
    built only for the first mismatch, in the same order."""
    total = matched = 0
    first = None
    for keys, values, expected, actual in cells:
        total += 1
        if expected is not None and expected == actual:  # an absent value never matches
            matched += 1
        elif first is None:
            first = {**dict(zip(keys, values)), "expected": expected, "actual": actual}
    params = dict(params)
    if first is not None:
        params["first_mismatch"] = first
    return Check(name, params, total, matched)


def _value(formula: Callable, *args):
    """``formula(*args)``, or None where it refuses the cell with a domain
    error that is not a cap refusal, or reads a row or item that a table or
    listing lacks (a ``LookupError``); the one place ``verify`` reads an
    absent value.  The harness asks only for cells in a formula's domain
    and for the rows and items its options declare, so either is a fault,
    as when a wrong count upstream leaves a quotient inexact or a table
    stops a row short: it fails the cells that read the value instead of
    ending the run or going uncompared."""
    try:
        return formula(*args)
    except CapExceededError:
        raise
    except (DomainError, LookupError):
        return None


def _sweep_index(
    name: str, key: str, indices: range, expected: Callable, actual: Callable
) -> Check:
    """Compare two formulas at each index of ``indices``; the check reports
    the last index compared as ``{key}_max``."""
    keys = (key,)
    cells = ((keys, (i,), _value(expected, i), _value(actual, i)) for i in indices)
    return _sweep(name, {f"{key}_max": indices.stop - 1}, cells)


def _m_range(k: int, cap: int) -> range:
    """The lengths m, 0 to 2k - 2, at which an avoider of 12...k exists, up
    to ``cap``."""
    return range(0, min(2 * k - 2, cap) + 1)


def _by_cell(rows: Iterable[tuple], width: int) -> dict[tuple, object]:
    """A printed table by cell: each row keyed by its first ``width`` fields,
    to the field after them, or to a list of the fields after them where
    there are more.  A key printed twice maps to None, which never matches,
    so a repeated row fails its cells instead of overwriting the first."""
    cells: dict[tuple, object] = {}
    for row in rows:
        key, rest = row[:width], row[width:]
        cells[key] = None if key in cells else rest[0] if len(rest) == 1 else list(rest)
    return cells


def word_oracle_cells(opts: Options) -> list[tuple[int, int]]:
    """The (k, m) cells compared with the word oracle one length at a time;
    ``Options.fault`` only shows if it names one of them."""
    ks = range(1, opts.k_max + 1)
    return [(k, m) for k in ks for m in _m_range(k, opts.word_cap)]


class Tallies(NamedTuple):
    """The oracle tallies of one run, built once and passed to every suite:
    ``words[m]`` counts the words of length m <= min(2 k_max - 2, word_cap),
    ``perms[n]`` the Grassmannian permutations of [n], n <= perm_cap.  A
    list is empty when no selected suite reads it."""

    words: list[Counter[oracle.WordKey]]
    perms: list[Counter[oracle.PermKey]]


def _count(tally: dict[tuple, int], keep: Callable) -> int:
    """How many objects of one oracle tally have statistics passing ``keep``."""
    return sum(count for key, count in tally.items() if keep(key))


def _sweep_by_length(
    name: str, opts: Options, words: list[Counter[oracle.WordKey]], formula: Callable
) -> Check:
    """``formula(k, m)`` against the words of length m whose longest ``0*1*``
    subsequence is shorter than k, over the word oracle cells."""
    cells = (
        (("k", "m"), (k, m), _count(words[m], lambda w: w.longest < k), _value(formula, k, m))
        for k, m in word_oracle_cells(opts)
    )
    return _sweep(name, {"k_max": opts.k_max, "word_cap": opts.word_cap}, cells)


def _sweep_by_zeros(
    name: str, opts: Options, words: list[Counter[oracle.WordKey]], formula: Callable
) -> Check:
    """``formula(k, j)`` against the words of every length with j zeros whose
    longest ``0*1*`` subsequence is shorter than k.  Only the k whose words
    (lengths up to 2k - 2) all fit under the word cap are swept, so each sum
    over lengths is complete; the params report the largest k swept, the
    cap, and the k it cut, if any."""
    top = min(opts.k_max, opts.word_cap // 2 + 1)
    params = {"k_max": top, "word_cap": opts.word_cap}
    if top < opts.k_max:
        params["skipped_k"] = list(range(top + 1, opts.k_max + 1))
    all_words = sum(words, Counter())
    cells = (
        (
            ("k", "j"),
            (k, j),
            _count(all_words, lambda w: w.longest < k and w.zeros == j),
            _value(formula, k, j),
        )
        for k in range(1, top + 1)
        for j in range(k + 1)
    )
    return _sweep(name, params, cells)


def suite_counting(opts: Options, tallies: Tallies) -> list[Check]:
    words, perms = tallies
    # The (k, m) whose avoiders of 12...k in S_m two checks read, each
    # listed once, one word per avoider: avoiding_perm_count(k, m) words.
    word_cells = [(k, m) for k, m in word_oracle_cells(opts) if k > 1]
    perm_cells = [(k, m) for k in range(1, opts.k_max + 1) for m in _m_range(k, opts.perm_cap)]
    to_list = sum(counting.avoiding_perm_count(k, m) for k, m in {*word_cells, *perm_cells})
    if to_list > LISTING_CAP:
        raise CapExceededError(f"counting suite lists up to {LISTING_CAP} avoiders, not {to_list}")
    grid = _value(lambda: _by_cell(counting.avoiding_word_table(opts.k_max), 2)) or {}
    # `table --quantity A`, by cell.
    alternating = _value(lambda: _by_cell(counting.alternating_word_table(opts.k_max), 2)) or {}

    def table(k: int, m: int) -> int | None:
        """The grid as the oracle check reads it, one more at the fault; a
        repeated cell stays None."""
        count = grid[k, m]
        return None if count is None else count + (opts.fault == (k, m))

    def listed(k: int, m: int) -> tuple[int, int | None]:
        """The avoiders of 12...k in S_m as (avoiding words, distinct
        permutations).  The listing has one word per avoider, so below
        length k, where every word avoids, the m words other than 0^m that
        decode to the identity are added back.  The words are decoded only
        where the permutation oracle reads them, m <= perm_cap, so a
        decoding that merges two words shows there."""
        identity, surplus = core.identity_permutation(k), m if m < k else 0
        if m > opts.perm_cap:
            return len(patterns.avoiding_words(m, identity)) + surplus, None
        avoiders = patterns.enumerate_avoiders(m, identity)
        return len(avoiders) + surplus, len(set(avoiders))

    # A refused listing stands as (None, None).
    identity_avoiders = {
        cell: _value(listed, *cell) or (None, None) for cell in sorted({*word_cells, *perm_cells})
    }

    return [
        _sweep_by_length("recurrence_vs_word_oracle", opts, words, table),
        _sweep(
            "closed_forms_agree",
            {"k_max": opts.k_max},
            # from m = 0: the printed rows, 0 to 2k - 2, and one length past them
            (
                (("k", "m", "form"), (k, m, form), counting.avoiding_word_count(k, m), value)
                for k in range(1, opts.k_max + 1)
                for m in range(2 * k)
                for form, value in (
                    ("alternating", alternating.get((k, m), 0)),
                    ("recurrence", grid.get((k, m), 0)),
                )
            ),
        ),
        _sweep(
            "word_count_vs_permutation_count",
            {"k_max": opts.k_max, "word_cap": opts.word_cap},
            (
                (
                    ("k", "m"),
                    (k, m),
                    counting.avoiding_word_count(k, m),
                    identity_avoiders[k, m][0],
                )
                for k, m in word_cells
            ),
        ),
        # The avoiding words are generated by the same word rule as the
        # formulas, so the distinct permutations they decode to are also
        # held to the permutation oracle.
        _sweep(
            "perm_counts_vs_perm_oracle",
            {"k_max": opts.k_max, "perm_cap": opts.perm_cap},
            (
                (
                    ("k", "m", "form"),
                    (k, m, form),
                    _count(perms[m], lambda p: p.longest < k),
                    value,
                )
                for k, m in perm_cells
                for form, value in (
                    ("formula", counting.avoiding_perm_count(k, m)),
                    ("enumeration", identity_avoiders[k, m][1]),
                )
            ),
        ),
        _sweep(
            "nonidentity_count_vs_enumeration",
            {"k_max": 5, "n_max": min(opts.perm_cap, 7)},
            (
                (
                    ("pattern", "n"),
                    (name, n),
                    counting.nonidentity_avoider_count(n, k),
                    _value(lambda: len(patterns.avoiding_words(n, ps[i]))),
                )
                for k in range(2, 6)
                for ps in [core.grassmannian_permutations(k)]
                # sorted, so the identity first and the 2^k - k - 1 others after it
                for i in range(1, 2**k - k)
                # each pattern named once, for all its sizes
                for name in [_value(lambda: core.perm_to_str(ps[i]))]
                for n in range(min(opts.perm_cap, 7) + 1)
            ),
        ),
        _sweep_index(
            "total_words",
            "k",
            range(1, opts.k_max + 1),
            counting.total_avoiding_words,
            lambda k: sum(counting.avoiding_word_count(k, m) for m in range(2 * k - 1)),
        ),
        _sweep_index(
            "total_perms",
            "k",
            range(1, opts.k_max + 1),
            counting.total_avoiding_perms,
            lambda k: sum(counting.avoiding_perm_count(k, m) for m in range(2 * k - 1)),
        ),
        _sweep_by_zeros("words_by_zero_count", opts, words, counting.avoiding_words_with_zeros),
        _sweep(
            "fixed_points_vs_oracle",
            {"perm_cap": opts.perm_cap},
            (
                (
                    ("n", "k"),
                    (n, k),
                    _count(perms[n], lambda p: p.fixed_points == k),
                    counting.fixed_point_count(n, k),
                )
                for n in range(opts.perm_cap + 1)
                for k in range(n + 1)
            ),
        ),
        _sweep_index(
            "fixed_point_row_sums",
            "n",
            range(1, 21),
            lambda n: 2**n - n,
            lambda n: sum(counting.fixed_point_count(n, k) for k in range(n + 1)),
        ),
    ]


def suite_parity(opts: Options, tallies: Tallies) -> list[Check]:
    # The odd words of each length, read by both word oracle checks.
    odd = [Counter({w: c for w, c in tally.items() if w.odd}) for tally in tallies.words]
    # the closed forms at m = 2k - 2 and 2k - 3 need k >= 2
    from_two = range(2, max(opts.k_max, 2) + 1)
    # `table --quantity parity`, each row [B, O, E] by cell.
    printed = _value(lambda: _by_cell(parity.parity_table(opts.k_max), 2)) or {}

    def point_row(k: int, m: int) -> list[int]:
        """[B, O, E] at (k, m) by the point forms: the odd count is the total
        less the even count."""
        b, e = counting.avoiding_word_count(k, m), parity.even_word_count(k, m)
        return [b, b - e, e]

    return [
        _sweep_by_length("odd_vs_word_oracle", opts, odd, parity.odd_word_count),
        # Each printed row, read off the table's own grid, against the point forms.
        _sweep(
            "odd_plus_even_is_total",
            {"k_max": opts.k_max},
            (
                (("k", "m"), (k, m), _value(point_row, k, m), printed.get((k, m)))
                for k in range(1, opts.k_max + 1)
                for m in range(2 * k - 1)
            ),
        ),
        _sweep_index(
            "closed_form_at_max_length",
            "k",
            from_two,
            lambda k: parity.odd_word_count(k, 2 * k - 2),
            parity.odd_word_count_max_length,
        ),
        _sweep_index(
            "one_shorter_is_twice_even",
            "k",
            from_two,
            lambda k: parity.odd_word_count(k, 2 * k - 3),
            lambda k: 2 * parity.even_word_count(k, 2 * k - 2),
        ),
        _sweep_by_zeros(
            "odd_words_by_zero_count", opts, odd, parity.odd_avoiding_words_with_zeros
        ),
        _sweep_index(
            "total_odd",
            "k",
            range(1, opts.k_max + 1),
            lambda k: sum(parity.odd_word_count(k, m) for m in range(2 * k - 1)),
            parity.total_odd_avoiders,
        ),
    ]


# name -> (member field, odd only, avoider formula); classes.class_table
# prints each class's totals under its name.
_CLASSES = {
    "bigrass": ("bigrass", False, classes.bigrassmannian_avoider_count),
    "bigrass_odd": ("bigrass", True, classes.odd_bigrassmannian_avoider_count),
    "invol": ("involution", False, classes.involution_avoider_count),
    "invol_odd": ("involution", True, classes.odd_involution_avoider_count),
}


def _oracle_class(tally: dict[tuple, int], k: int, member: str, odd: bool) -> int:
    """Members of one class among the Grassmannian permutations of one
    tally that avoid 12...k; those of [n] all avoid 12...(n + 1)."""
    return _count(
        tally,
        lambda p: p.longest < k and getattr(p, member) and (not odd or p.inversions % 2),
    )


def suite_classes(opts: Options, tallies: Tallies) -> list[Check]:
    perms = tallies.perms
    n_max = min(opts.perm_cap, 8)
    # Each size listed once, for both membership checks, and each listed
    # permutation named once, for both; an item the listing lacks is named
    # None.
    grassmannians = [core.grassmannian_permutations(n) for n in range(n_max + 1)]
    names = [
        [_value(lambda: core.perm_to_str(ps[i])) for i in range(2**n - n)]
        for n, ps in enumerate(grassmannians)
    ]
    # The class totals, by (class, m).
    totals = _value(lambda: _by_cell(classes.class_table(opts.perm_cap), 2)) or {}
    # 2413 as its neighbour table, built once for every permutation tested.
    avoided = patterns._neighbours((2, 4, 1, 3))

    def recognition(name: str, characterised: Callable, recognised: Callable) -> Check:
        """A recognition predicate against its characterisation, each 1 or 0,
        on each of the 2^n - n Grassmannian permutations of [n] listed; a
        permutation the listing lacks, or a side that refuses one, gives
        None there."""
        cells = (
            (
                ("n", "perm"),
                (n, perm),
                _value(lambda: characterised(ps[i])),
                _value(lambda: int(recognised(ps[i]))),
            )
            for n, ps in enumerate(grassmannians)
            for i, perm in enumerate(names[n])
        )
        return _sweep(name, {"n_max": n_max}, cells)

    return [
        _sweep(
            "class_totals_vs_oracle",
            {"perm_cap": opts.perm_cap},
            (
                (
                    ("class", "m"),
                    (name, m),
                    _oracle_class(perms[m], m + 1, member, odd),
                    totals.get((name, m)),
                )
                for name, (member, odd, _) in _CLASSES.items()
                for m in range(opts.perm_cap + 1)
            ),
        ),
        _sweep(
            "class_avoiders_vs_oracle",
            {"k_max": opts.k_max, "perm_cap": opts.perm_cap},
            (
                (
                    ("class", "k", "m"),
                    (name, k, m),
                    _oracle_class(perms[m], k, member, odd),
                    _value(avoiders, k, m),
                )
                for k in range(2, opts.k_max + 1)
                for m in range(opts.perm_cap + 1)
                for name, (member, odd, avoiders) in _CLASSES.items()
            ),
        ),
        _sweep_index(
            "odd_involution_shift_relation",
            "m",
            range(5, 41),
            lambda m: classes.odd_involution_count(m - 4) + m - 1,
            classes.odd_involution_count,
        ),
        recognition(
            "bigrassmannian_iff_avoids_2413",
            lambda p: int(not patterns.permutation_contains(p, avoided)),
            classes.is_bigrassmannian,
        ),
        recognition(
            "involution_iff_word_form",
            lambda p: int(classes.has_involution_word_form(core.canonical_word(p))),
            classes.is_grassmannian_involution,
        ),
    ]


def _all_odd_dyck(n: int) -> list[str]:
    """The Dyck paths of semilength n whose peaks and valleys are all at odd
    height, as plain strings, without listing the others: built step by
    step, depth first, never turning the path at an even height and never
    stepping down to the axis before the last up step.

    >>> _all_odd_dyck(3)
    ['UUUDDD']
    """
    out: list[str] = []

    def extend(prefix: str, height: int, ups: int) -> None:
        # ups up steps are left; a step unlike the last turns the path at
        # this height, which must then be odd
        last, turns = prefix[-1], height % 2
        if not ups:
            if turns or last == paths.DOWN:
                out.append(prefix + paths.DOWN * height)
            return
        if height > 1 and (turns or last == paths.DOWN):
            extend(prefix + paths.DOWN, height - 1, ups)
        if turns or last == paths.UP:
            extend(prefix + paths.UP, height + 1, ups - 1)

    if n:
        extend(paths.UP, 1, n - 1)
    else:
        out.append("")
    del extend  # break the cycle through extend's closure
    return out


def suite_paths(opts: Options, tallies: Tallies) -> list[Check]:
    k_top = min(opts.k_max, 7)

    # Every semilength the checks below read in full, each listed once by
    # paths.dyck_listing and each path classified once: to 7 (the peak
    # formulas' largest) as `enumerate dyck --stats peaks` prints them, each
    # line split into its path and its peak count, and 8 (the toggle's
    # largest, and at least k_top + 1) through enumerate_dyck.  The listing
    # joins a rise from the axis to a fall back to it that never dips below
    # it, so each path is a Dyck path, typed unchecked.  At 9 the halving
    # reads only the 14 all-odd paths, so only they are built, by
    # _all_odd_dyck, which never dips below the axis and ends on it: typed
    # unchecked too.  They are built step by step, not by doubling a path
    # of 4, which would certify the halving against its own inverse.
    listings = ("".join(paths.dyck_listing(n, True)).splitlines() for n in range(8))
    printed = [[line.rpartition(" peaks=") for line in lines] for lines in listings]
    dyck = [[paths.DyckPath._make(p) for p, _, _ in lines] for lines in printed]
    dyck.append(list(map(paths.DyckPath._make, paths.enumerate_dyck(8))))
    all_odd = [[paths.all_extrema_odd(p) for p in ps] for ps in dyck]
    odd_paths = [[p for p, odd in zip(ps, flags) if odd] for ps, flags in zip(dyck, all_odd)]
    odd_paths.append(list(map(paths.DyckPath._make, _all_odd_dyck(9))))
    # The avoiding words of every (k, m) cell, listed once, and each word's
    # lattice path, encoded once for the Dyck and the lattice encodings
    # (k <= 6 for the lattice).  enumerate_avoiding_words extends a prefix
    # only while it can still avoid, and the counting suite counts its
    # listing, so each path is built unchecked; a word that does not avoid
    # falls below its floor and fails both encodings' cells.
    avoiding = {
        (k, m): patterns.enumerate_avoiding_words(k, m)
        for k in range(1, k_top + 1)
        for m in _m_range(k, opts.word_cap)
    }
    encoded = {
        (k, m): [paths.LatticePath._of_word(k, w) for w in words]
        for (k, m), words in avoiding.items()
    }

    # The first-plus-last peak sum of every path the bijection (semilength
    # k + 1) and the peak formulas (2 to 7) read, each computed once.
    peak_sums = {
        n: list(map(paths.first_last_peak_sum, dyck[n])) for n in range(2, max(k_top, 6) + 2)
    }

    def bijection_cells():
        for k in range(1, k_top + 1):
            by_sum: dict[int, set[str]] = {}
            for p, s in zip(dyck[k + 1], peak_sums[k + 1]):
                by_sum.setdefault(s, set()).add(p)
            for m in _m_range(k, opts.word_cap):
                words = avoiding[k, m]
                images = [paths.lattice_to_dyck(lp) for lp in encoded[k, m]]
                image_set = set(images)
                # The target's peak sum is at most 2k, so it lacks the
                # staircase and lies in dyck_to_word's domain.
                target = by_sum.get(2 * k - m, set())
                round_trip = all(
                    p in target and _value(paths.dyck_to_word, k, p) == w
                    for w, p in zip(words, images)
                )
                yield (
                    ("k", "m", "aspect"),
                    (k, m, "image_set"),
                    int(image_set == target and len(image_set) == len(words)),
                    1,
                )
                yield (("k", "m", "aspect"), (k, m, "round_trip"), int(round_trip), 1)

    def toggle_cells():
        for n in range(1, 9):
            domain = [p for p, odd in zip(dyck[n], all_odd[n]) if not odd]
            # each path's image (None where the toggle refuses it) and parity, once
            image = {p: _value(paths.toggle_first_even_extremum, p) for p in domain}
            odd = {p: paths.is_odd_dyck(p) for p in domain}
            for p in domain:
                q = image[p]
                yield (
                    ("n", "path", "aspect"),
                    (n, p, "involution"),
                    int(image.get(q) == p),
                    1,
                )
                yield (
                    ("n", "path", "aspect"),
                    (n, p, "parity_flip"),
                    int(odd.get(q, odd[p]) != odd[p]),
                    1,
                )
            yield (
                ("n", "aspect"),
                (n, "all_odd_count"),
                len(odd_paths[n]),
                parity.all_odd_extrema_count(n),
            )

    def halving_cells():
        for n in range(1, 10, 2):
            domain = odd_paths[n]
            # None where the halving refuses a path, and None is no path
            images = {_value(paths.halve_all_odd_path, p) for p in domain}
            yield (
                ("n",),
                (n,),
                int(len(images) == len(domain) and images == set(dyck[(n - 1) // 2])),
                1,
            )
            yield (
                ("n", "aspect"),
                (n, "all_odd_paths_are_odd"),
                sum(1 for p in domain if paths.is_odd_dyck(p)),
                len(domain),
            )

    def peak_formula_cells():
        # The lines of semilengths 0 and 1, which no formula below reads,
        # each against its path's peaks; the empty path has none.
        for n in (0, 1):
            for p, (_, _, v) in zip(dyck[n], printed[n]):
                yield (
                    ("n", "path", "aspect"),
                    (n, p, "printed_peaks"),
                    int(str(len(paths.peaks(p))) == v),
                    1,
                )
        for n in range(2, 8):
            for s in range(2, 2 * n - 1):
                yield (
                    ("n", "s"),
                    (n, s),
                    peak_sums[n].count(s),
                    counting.dyck_peak_sum_count(n, s),
                )
            # Each of these paths has a peak, so an empty peak list is a
            # fault, and so is a peak count that the path's printed line
            # misstates: either reads None, which no (a, b) cell counts.
            firsts_lasts = [
                _value(lambda: (pk[0], pk[-1]) if str(len(pk)) == v else None)
                for pk, (_, _, v) in zip(map(paths.peaks, dyck[n]), printed[n])
            ]
            for a in range(1, n + 1):
                for b in range(1, 2 * (n - 1) - a + 1):
                    yield (
                        ("n", "a", "b"),
                        (n - 1, a, b),
                        firsts_lasts.count((a, b)),
                        counting.dyck_peak_pair_count(n - 1, a, b),
                    )

    def lattice_cells():
        for k in range(1, min(opts.k_max, 6) + 1):
            for m in _m_range(k, opts.word_cap):
                words, lps = avoiding[k, m], encoded[k, m]
                partners = {lp: _value(paths.toggle_lattice_path, lp) for lp in lps}
                odd = {lp: paths.is_odd_lattice(lp) for lp in lps}
                untoggleable_balance = 0
                for w, lp in zip(words, lps):
                    yield (
                        ("k", "m", "word", "aspect"),
                        (k, m, w, "round_trip"),
                        int(paths.lattice_to_word(lp) == w),
                        1,
                    )
                    yield (
                        ("k", "m", "word", "aspect"),
                        (k, m, w, "parity_transport"),
                        int(odd[lp] == core.is_odd_word(w)),
                        1,
                    )
                    partner = partners[lp]
                    if partner is None:
                        untoggleable_balance += -1 if odd[lp] else 1
                        continue
                    yield (
                        ("k", "m", "word", "aspect"),
                        (k, m, w, "toggle"),
                        int(partners.get(partner) == lp and odd[partner] != odd[lp]),
                        1,
                    )
                # The toggle pairs odd with even, so the even-odd surplus
                # lives entirely on the untoggleable paths.
                yield (
                    ("k", "m", "aspect"),
                    (k, m, "untoggleable_balance"),
                    _value(
                        lambda: counting.avoiding_word_count(k, m)
                        - 2 * parity.odd_word_count(k, m)
                    ),
                    untoggleable_balance,
                )

    return [
        _sweep(
            "word_dyck_bijection",
            {"k_max": k_top, "word_cap": opts.word_cap},
            bijection_cells(),
        ),
        _sweep("even_extremum_toggle", {"n_max": 8}, toggle_cells()),
        _sweep("all_odd_halving", {"n_max": 9}, halving_cells()),
        _sweep("peak_statistics_formulas", {"n_max": 7}, peak_formula_cells()),
        _sweep(
            "lattice_encoding",
            {"k_max": min(opts.k_max, 6), "word_cap": opts.word_cap},
            lattice_cells(),
        ),
    ]


def suite_series(opts: Options, tallies: Tallies) -> list[Check]:
    # Row n does not depend on the bound it is computed to, so the row-sum
    # table also serves the histogram check.  It is read off the rows that
    # `table --quantity gf` prints: row n maps each inversion number to its
    # count, and its sum adds every row printed for size n, a repeated or
    # extra one included.
    n_max = max(opts.perm_cap, 12)
    table: dict[int, dict[int, int]] = {}
    sums: dict[int, int] = {}
    for n, i, count in _value(series.inversion_rows, n_max) or ():
        table.setdefault(n, {})[i] = count
        sums[n] = sums.get(n, 0) + count

    def histogram_cells():
        # row n holds the inversion numbers 0 to n^2 // 4, each count positive
        for n, tally in enumerate(tallies.perms):
            for i in range(n * n // 4 + 1):
                expected = _count(tally, lambda p: p.inversions == i)
                yield (("n", "inversions"), (n, i), expected, _value(lambda: table[n][i]))

    return [
        _sweep(
            "coefficients_vs_oracle", {"perm_cap": opts.perm_cap}, histogram_cells()
        ),
        _sweep_index(
            "row_sums",
            "n",
            range(1, n_max + 1),
            lambda n: 2**n - n,
            sums.__getitem__,
        ),
    ]


def suite_identities(opts: Options, tallies: Tallies) -> list[Check]:
    a_max = max(opts.k_max, 6)

    def concluding_cells():
        # (i) the alternating sum is 2^m for m < k; (ii) at m = k it is
        # 2^k - k - 1
        for k in range(1, opts.k_max + 1):
            for m in range(k):
                yield (
                    ("identity", "k", "m"),
                    ("alternating_sum_is_power_of_two", k, m),
                    2**m,
                    counting.avoiding_word_count_alternating(k, m),
                )
            yield (
                ("identity", "k", "m"),
                ("alternating_sum_at_full_length", k, None),
                2**k - k - 1,
                counting.avoiding_word_count_alternating(k, k),
            )

    ballot_cells = (
        (("a", "b"), (a, b), _value(counting.ballot, a, b), counting.ballot_alternating(a, b))
        for a in range(a_max + 1)
        for b in range(a + 1)
    )
    return [
        _sweep("ballot_catalan_alternating_sum", {"a_max": a_max}, ballot_cells),
        _sweep("concluding_identities", {"k_max": opts.k_max}, concluding_cells()),
    ]


SUITES: dict[str, Callable[[Options, Tallies], list[Check]]] = {
    "counting": suite_counting,
    "parity": suite_parity,
    "classes": suite_classes,
    "paths": suite_paths,
    "series": suite_series,
    "identities": suite_identities,
}


# The suites that read each oracle tally.
_WORD_READERS = frozenset({"counting", "parity"})
_PERM_READERS = frozenset({"counting", "classes", "series"})


def run_suites(names: Iterable[str] | None = None, opts: Options | None = None) -> list[SuiteResult]:
    """Run the named suites (all of them by default) in declared order.

    First the oracle tallies that the selected suites read are built, each
    once: the words, then the permutations, so a cap past both oracles' is
    refused with the word oracle's message, and before any suite's own
    refusal."""
    opts = opts or Options()
    selected = list(SUITES) if names is None else list(names)
    for name in selected:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}")
    words, perms = [], []
    if _WORD_READERS.intersection(selected):
        words = oracle.word_statistics(min(2 * opts.k_max - 2, opts.word_cap))
    if _PERM_READERS.intersection(selected):
        perms = [oracle.grassmannian_statistics(n) for n in range(opts.perm_cap + 1)]
    tallies = Tallies(words, perms)
    return [SuiteResult(name, SUITES[name](opts, tallies)) for name in selected]
