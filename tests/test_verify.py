"""The harness builds each object once, and its records are values."""

from itertools import islice
from math import comb

import pytest

from grassperm import classes, cli, core, counting, oracle, parity, paths, patterns, series, verify
from grassperm.errors import CapExceededError, DomainError

RAISED = verify.Options(k_max=8, perm_cap=9, word_cap=14)


def checks_of(suite, opts):
    """The checks of one suite, run through the harness, by name."""
    [result] = verify.run_suites([suite], opts)
    return {c.name: c for c in result.checks}


def counting_calls(monkeypatch, module, name, key):
    """Replace ``module.name`` by a wrapper that records ``key(*args)`` for
    each call (None records nothing); returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        record = key(*args)
        if record is not None:
            calls.append(record)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_suite_paths_enumerates_each_semilength_once(monkeypatch):
    # Every listed path comes from the one builder: semilengths 0 to 7 with
    # their printed peak counts, and 8 plain, through enumerate_dyck.  At 9
    # only the all-odd paths are built, by their own builder, never the
    # whole listing.
    calls = counting_calls(monkeypatch, paths, "dyck_listing", lambda n, peaks: (n, peaks))
    joined = counting_calls(monkeypatch, paths, "enumerate_dyck", lambda n: n)
    all_odd = counting_calls(monkeypatch, verify, "_all_odd_dyck", lambda n: n)
    assert all(c.passed for c in checks_of("paths", RAISED).values())
    assert sorted(calls) == [(n, n < 8) for n in range(9)]
    assert joined == [8]
    assert all_odd == [9]


@pytest.mark.parametrize("n", range(12))
def test_all_odd_paths_are_built_without_the_listing(n):
    # The builder gives the paths that the classifier keeps from the whole
    # listing: C_((n-1)/2) of them at odd n, none at even n > 0, and the
    # empty path at 0.
    built = verify._all_odd_dyck(n)
    kept = list(filter(paths._all_extrema_odd, paths.enumerate_dyck(n)))
    assert set(built) == set(kept) and len(built) == len(kept)
    j = (n - 1) // 2
    assert len(built) == (comb(2 * j, j) // (j + 1) if n % 2 else int(n == 0))


def test_suite_paths_lists_each_word_cell_once(monkeypatch):
    calls = counting_calls(monkeypatch, patterns, "enumerate_avoiding_words", lambda k, m: (k, m))
    assert all(c.passed for c in checks_of("paths", RAISED).values())
    # the cells of the Dyck encoding, k <= 7; the lattice encoding's are among them
    assert sorted(calls) == [(k, m) for k in range(1, 8) for m in range(min(2 * k - 2, 14) + 1)]


@pytest.mark.parametrize("opts", [verify.Options(), RAISED], ids=["default", "raised"])
def test_suite_paths_scans_no_path(monkeypatch, opts):
    # Every path the suite reads comes typed from the listing or from a map
    # that proves its image, so no classifier scans one again.
    scans = counting_calls(monkeypatch, paths, "is_dyck_path", lambda p: p)
    assert all(c.passed for c in checks_of("paths", opts).values())
    assert scans == []
    # a plain string is still scanned, through the same name
    paths.is_odd_dyck("UD")
    assert scans == ["UD"]


@pytest.mark.parametrize("opts", [verify.Options(), RAISED], ids=["default", "raised"])
def test_suite_paths_tests_no_word_for_avoidance(monkeypatch, opts):
    # Each listed word is encoded once, unchecked, for both encodings, so
    # no word the listing generated is tested for avoidance again.
    tests = counting_calls(monkeypatch, patterns, "is_avoiding_word", lambda k, w: (k, w))
    assert all(c.passed for c in checks_of("paths", opts).values())
    assert tests == []
    # a word from outside is still tested, through the same name
    paths.word_to_dyck(3, "1100")
    assert tests == [(3, "1100")]


def test_a_listed_word_that_does_not_avoid_fails_both_encodings(monkeypatch, capsys):
    # The listing is encoded unchecked, so a word that is not avoiding
    # falls below its floor: its Dyck image leaves the peak-sum class and
    # its lattice path has no toggle, and the run reports both as FAILs.
    listing = patterns.enumerate_avoiding_words
    monkeypatch.setattr(
        patterns,
        "enumerate_avoiding_words",
        lambda k, m: listing(k, m) + (["111"] if (k, m) == (3, 3) else []),
    )
    failing = {
        name: (c.expected, c.actual, c.params["first_mismatch"])
        for name, c in checks_of("paths", verify.Options()).items()
        if not c.passed
    }
    at_3_3 = {"k": 3, "m": 3, "expected": 0, "actual": 1}
    assert failing == {
        "word_dyck_bijection": (72, 70, {**at_3_3, "aspect": "image_set"}),
        "lattice_encoding": (1792, 1791, {**at_3_3, "aspect": "untoggleable_balance"}),
    }
    assert cli.main(["verify", "--suite", "paths"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("3/5 checks passed\n") and err == ""


def test_suite_classes_scans_no_permutation(monkeypatch):
    # The listed permutations come typed, so no classifier checks one again.
    scans = counting_calls(monkeypatch, core, "is_permutation", lambda p: p)
    assert all(c.passed for c in checks_of("classes", verify.Options()).values())
    assert scans == []
    # a plain tuple is still checked, through the same name
    classes.is_bigrassmannian((3, 4, 1, 2))
    assert scans == [(3, 4, 1, 2)]


def test_suite_classes_lists_each_size_once(monkeypatch):
    calls = counting_calls(monkeypatch, core, "grassmannian_permutations", lambda n: n)
    assert all(c.passed for c in checks_of("classes", RAISED).values())
    assert calls == list(range(9))  # n <= min(perm_cap, 8)


def test_suite_counting_lists_each_identity_cell_once(monkeypatch):
    identity_cell = lambda n, p: (len(p), n) if core.is_identity(p) else None
    listed = counting_calls(monkeypatch, patterns, "avoiding_words", identity_cell)
    decoded = counting_calls(monkeypatch, patterns, "enumerate_avoiders", identity_cell)
    checks = checks_of("counting", RAISED)
    assert checks["word_count_vs_permutation_count"].passed
    assert checks["perm_counts_vs_perm_oracle"].passed
    # the cells of both checks, those of m <= perm_cap shared, each listed
    # once, and decoded only where the permutation oracle reads them
    word_cells = {(k, m) for k in range(2, 9) for m in range(min(2 * k - 2, 14) + 1)}
    perm_cells = {(k, m) for k in range(1, 9) for m in range(min(2 * k - 2, 9) + 1)}
    assert sorted(listed) == sorted(word_cells | perm_cells)
    assert sorted(decoded) == sorted(perm_cells)


def test_a_decoding_that_merges_two_words_fails_on_its_cell(monkeypatch):
    # Two non-identity words of length 7 <= perm_cap decode to one
    # permutation; the word counts cannot see it, the permutation oracle can.
    merged, kept = "1010100", "1001010"
    decode = core.grassmannian_of_word
    monkeypatch.setattr(
        core, "grassmannian_of_word", lambda w: decode(kept if w == merged else w)
    )
    checks = checks_of("counting", verify.Options())
    assert [name for name, c in checks.items() if not c.passed] == [
        "perm_counts_vs_perm_oracle"
    ]
    # the first k whose avoiders of length 7 hold both words
    k = min(k for k in range(1, 7) if all(patterns.is_avoiding_word(k, w) for w in (merged, kept)))
    first = checks["perm_counts_vs_perm_oracle"].params["first_mismatch"]
    assert (first["k"], first["m"], first["form"]) == (k, 7, "enumeration")
    assert first["expected"] == first["actual"] + 1


def test_suite_parity_certifies_the_parity_table(monkeypatch):
    # A table cell moved from the even column to the odd one keeps its row
    # summing to B, so only the comparison with the point forms sees it.
    table = parity.parity_table

    def mutant(k_max):
        for k, m, total, odd, even in table(k_max):
            if (k, m) == (5, 4):
                odd, even = odd + 1, even - 1
            yield k, m, total, odd, even

    monkeypatch.setattr(parity, "parity_table", mutant)
    check = checks_of("parity", verify.Options())["odd_plus_even_is_total"]
    assert (check.expected, check.actual) == (36, 35)
    assert (check.params["first_mismatch"]["k"], check.params["first_mismatch"]["m"]) == (5, 4)


def test_suite_classes_certifies_the_class_table(monkeypatch):
    # The totals are checked under the names the table prints them by.
    table = classes.class_table
    swap = {"invol": "invol_odd", "invol_odd": "invol"}

    def mutant(m_max):
        return [(swap.get(name, name), m, total) for name, m, total in table(m_max)]

    monkeypatch.setattr(classes, "class_table", mutant)
    assert not checks_of("classes", verify.Options())["class_totals_vs_oracle"].passed


def oracle_walks(monkeypatch):
    """Count the oracle walks: the largest word length of each word walk,
    and the size of each permutation walk."""
    words = counting_calls(monkeypatch, oracle, "word_statistics", lambda m_max: m_max)
    perms = counting_calls(monkeypatch, oracle, "grassmannian_statistics", lambda n: n)
    return words, perms


def test_a_run_walks_each_oracle_tally_once(monkeypatch):
    words, perms = oracle_walks(monkeypatch)
    assert all(r.passed for r in verify.run_suites())
    assert words == [10]  # min(2 * k_max - 2, word_cap) at the defaults
    assert perms == list(range(10))


@pytest.mark.parametrize(
    "suite,reads_words,reads_perms",
    [
        ("counting", True, True),
        ("parity", True, False),
        ("classes", False, True),
        ("paths", False, False),
        ("series", False, True),
        ("identities", False, False),
    ],
)
def test_a_run_walks_only_the_tallies_it_reads(monkeypatch, suite, reads_words, reads_perms):
    words, perms = oracle_walks(monkeypatch)
    assert verify.run_suites([suite])[0].passed
    assert words == ([10] if reads_words else [])
    assert perms == (list(range(10)) if reads_perms else [])


# A path with an even extremum, its toggle, and another path of its
# semilength with one; a word, its toggle and another word of its cell.
PATH, PATH_TOGGLED, OTHER_PATH = "UUDUDD", "UDUUDD", "UUDDUD"
WORD, WORD_TOGGLED, OTHER_WORD = "0110", "0101", "1010"


def leaving_toggle(monkeypatch, name, target, image):
    """Make ``paths.name`` send ``target`` to ``image(toggled target)``."""
    toggle = getattr(paths, name)
    monkeypatch.setattr(
        paths, name, lambda p: image(toggle(p)) if p == target else toggle(p)
    )


@pytest.mark.parametrize(
    "image",
    [
        lambda q: OTHER_PATH,  # not an involution on PATH
        lambda q: q + "UD",  # out of the semilength's paths
        lambda q: "UUUDDD",  # to a path with no even extremum
    ],
    ids=["not-involution", "leaves-domain", "all-odd"],
)
def test_a_faulty_dyck_toggle_fails_on_its_cell(monkeypatch, image):
    assert paths.toggle_first_even_extremum(PATH) == PATH_TOGGLED
    leaving_toggle(monkeypatch, "toggle_first_even_extremum", PATH, image)
    checks = checks_of("paths", verify.Options())
    assert [name for name, c in checks.items() if not c.passed] == ["even_extremum_toggle"]
    # the path whose toggle is PATH meets the fault first, as when every
    # path was toggled where it was read
    assert checks["even_extremum_toggle"].params["first_mismatch"] == {
        "n": 3, "path": PATH_TOGGLED, "aspect": "involution", "expected": 0, "actual": 1
    }


@pytest.mark.parametrize(
    "image",
    [
        lambda q: paths.word_to_lattice(4, OTHER_WORD),  # not an involution
        lambda q: paths.LatticePath(q.steps, q.k + 1),  # out of the (k, m) cell
        lambda q: paths.word_to_lattice(4, "1000"),  # to a path the toggle refuses
    ],
    ids=["not-involution", "leaves-domain", "untoggleable"],
)
def test_a_faulty_lattice_toggle_fails_on_its_cell(monkeypatch, image):
    target = paths.word_to_lattice(4, WORD)
    assert paths.toggle_lattice_path(target) == paths.word_to_lattice(4, WORD_TOGGLED)
    leaving_toggle(monkeypatch, "toggle_lattice_path", target, image)
    checks = checks_of("paths", verify.Options())
    assert [name for name, c in checks.items() if not c.passed] == ["lattice_encoding"]
    assert checks["lattice_encoding"].params["first_mismatch"] == {
        "k": 4, "m": 4, "word": WORD_TOGGLED, "aspect": "toggle", "expected": 0, "actual": 1
    }


def refuse(*args):
    raise DomainError(f"refused {args!r}")


# Faults of the maps that the toggle tests above leave alone: (paths
# function, the arguments it answers wrongly, its answer, {failing check:
# (cells, matched, first mismatch)}).  Each sends a listed path or word out
# of its listing, or refuses one, and so fails its cells rather than ending
# the run.
AT_3 = {"n": 3, "aspect": "involution"}
LISTED_FAULTS = {
    "word-to-staircase": (
        "lattice_to_dyck", (paths.word_to_lattice(3, "1100"),),
        lambda lp: paths.DyckPath("UUUUDDDD"),
        {"word_dyck_bijection": (72, 70, {"k": 3, "m": 4, "aspect": "image_set"})},
    ),
    "all-odd-misjudged": (
        "all_extrema_odd", ("UUUDDD",), lambda p: False,
        {
            "even_extremum_toggle": (4102, 4099, {**AT_3, "path": "UUUDDD"}),
            "all_odd_halving": (10, 9, {"n": 3}),
        },
    ),
    "extremum-refused": (
        "find_first_even_extremum", (PATH_TOGGLED,), refuse,
        {"even_extremum_toggle": (4100, 4097, {**AT_3, "path": PATH_TOGGLED})},
    ),
}


def faulty_at(monkeypatch, fault):
    """Make one ``paths`` function answer ``LISTED_FAULTS[fault]``'s arguments wrongly."""
    name, at, wrong, _ = LISTED_FAULTS[fault]
    original = getattr(paths, name)
    monkeypatch.setattr(paths, name, lambda *a: wrong(*a) if a == at else original(*a))


@pytest.mark.parametrize("fault", LISTED_FAULTS)
def test_a_faulty_map_of_a_listing_fails_only_its_checks(monkeypatch, fault):
    faulty_at(monkeypatch, fault)
    failing = {
        name: (c.expected, c.actual, c.params["first_mismatch"])
        for name, c in checks_of("paths", verify.Options()).items()
        if not c.passed
    }
    assert failing == {
        name: (cells, matched, {**first, "expected": 0, "actual": 1})
        for name, (cells, matched, first) in LISTED_FAULTS[fault][3].items()
    }


def test_a_faulty_map_fails_the_verify_command(monkeypatch, capsys):
    faulty_at(monkeypatch, "word-to-staircase")
    assert cli.main(["verify", "--suite", "paths"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL paths.word_dyck_bijection 70/72 cells" in out and err == ""


def test_a_misjudged_all_odd_path_fails_its_halving(monkeypatch, capsys):
    # The classifier accepts a path with peaks at height 2, which the halving
    # refuses: the refused image fails the cell instead of ending the run.
    original = paths.all_extrema_odd
    monkeypatch.setattr(paths, "all_extrema_odd", lambda p: p == "UUDUDD" or original(p))
    assert cli.main(["verify", "--suite", "paths"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL paths.all_odd_halving" in out and err == ""


def fail_lines_of_a_full_run(capsys):
    """Run a default ``verify`` that must fail with every check reported and
    nothing on stderr; the lines of the checks that failed."""
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 31
    failed = [line for line in lines if line.startswith("FAIL")]
    assert lines[-1] == f"{30 - len(failed)}/30 checks passed"
    return failed


def failing_checks_of_a_full_run(capsys):
    """The names of the checks that fail a default ``verify``, as above."""
    return [line.split()[1] for line in fail_lines_of_a_full_run(capsys)]


def test_a_short_peak_list_fails_its_cells(monkeypatch, capsys):
    # One peak short, a single-peak path has an empty peak list, which has no
    # first or last peak.
    original = paths.peaks
    monkeypatch.setattr(paths, "peaks", lambda p: original(p)[:-1])
    assert failing_checks_of_a_full_run(capsys) == ["paths.peak_statistics_formulas"]


def test_a_misprinted_peak_count_fails_its_cells(monkeypatch, capsys):
    # The paths suite reads each path's peak count off the line that
    # `enumerate dyck --stats peaks` prints, so one count off by one makes
    # that path's first and last peak read None.
    original = paths.dyck_listing
    line = "UUDDUUDD peaks=2\n"

    def misprinted(n, peaks):
        text = "".join(original(n, peaks))
        if (n, peaks) == (4, True):
            assert text.count(line) == 1
            text = text.replace(line, "UUDDUUDD peaks=3\n")
        return iter([text])

    monkeypatch.setattr(paths, "dyck_listing", misprinted)
    assert fail_lines_of_a_full_run(capsys) == [
        "FAIL paths.peak_statistics_formulas 178/179 cells"
        " (first mismatch at n=3 a=2 b=2: expected 1, actual 2)",
    ]


@pytest.mark.parametrize(
    "n,line,wrong,where",
    [
        (0, " peaks=0\n", " peaks=5\n", "n=0 path="),
        (1, "UD peaks=1\n", "UD peaks=2\n", "n=1 path=UD"),
    ],
)
def test_a_misprinted_peak_count_of_a_short_path_fails_its_cell(
    monkeypatch, capsys, n, line, wrong, where
):
    # No peak formula reads semilengths 0 and 1, so their printed lines are
    # read against the peaks of their paths; the empty path has none.
    original = paths.dyck_listing

    def misprinted(size, peaks):
        text = "".join(original(size, peaks))
        if (size, peaks) == (n, True):
            assert text == line
            text = wrong
        return iter([text])

    monkeypatch.setattr(paths, "dyck_listing", misprinted)
    assert fail_lines_of_a_full_run(capsys) == [
        "FAIL paths.peak_statistics_formulas 178/179 cells"
        f" (first mismatch at {where} aspect=printed_peaks: expected 0, actual 1)",
    ]


def test_a_missing_grid_row_fails_its_cells(monkeypatch, capsys):
    # The recurrence rows without the last, k = 6, as every module reads them.
    original = counting._word_rows

    def short(k_max):
        return islice(original(k_max), k_max - 1)

    for module in (counting, parity):
        monkeypatch.setattr(module, "_word_rows", short)
    # the parity table, built on the same grid, lacks the row's odd column
    assert failing_checks_of_a_full_run(capsys) == [
        "counting.recurrence_vs_word_oracle",
        "counting.closed_forms_agree",
        "parity.odd_plus_even_is_total",
    ]
    check = checks_of("counting", verify.Options())["recurrence_vs_word_oracle"]
    assert check.params["first_mismatch"] == {"k": 6, "m": 0, "expected": 1, "actual": None}


def one_short(original):
    """``original`` with the last row or item of what it returns dropped."""
    return lambda *args: list(original(*args))[:-1]


def one_more(column, where):
    """``original`` with one more in ``column`` of each row it returns that
    ``where`` accepts."""
    return lambda original: lambda *args: [
        (*row[:column], row[column] + where(row), *row[column + 1 :]) for row in original(*args)
    ]


# A table or listing one row or item short, or with a row too many, a
# printed cell one too high, and a semilength one too high: (module,
# function, perturbation, the FAIL lines of a full run).  Each check sweeps
# the cells its options declare, so the missing row or item reads None, or
# drops out of a row's sum, or reads 0 where the closed forms read 0 past
# 2k - 2; a size's sum reads every row printed for it, and a parity row is
# read whole; the refused inverse of the bijection reads None.
SHORT_OR_WRONG = {
    "parity_table": (parity, "parity_table", one_short, [
        "FAIL parity.odd_plus_even_is_total 35/36 cells"
        " (first mismatch at k=6 m=10: expected [42, 22, 20], actual None)",
    ]),
    # `table --quantity parity` printing 3,2,5,1,3 and 4,3,8,2,7
    "parity_table_total": (parity, "parity_table", one_more(2, lambda r: r[:2] == (3, 2)), [
        "FAIL parity.odd_plus_even_is_total 35/36 cells"
        " (first mismatch at k=3 m=2: expected [4, 1, 3], actual [5, 1, 3])",
    ]),
    "parity_table_even": (parity, "parity_table", one_more(4, lambda r: r[:2] == (4, 3)), [
        "FAIL parity.odd_plus_even_is_total 35/36 cells"
        " (first mismatch at k=4 m=3: expected [8, 2, 6], actual [8, 2, 7])",
    ]),
    "class_table": (classes, "class_table", one_short, [
        "FAIL classes.class_totals_vs_oracle 39/40 cells"
        " (first mismatch at class=invol_odd m=9: expected 12, actual None)",
    ]),
    # the rows `table --quantity gf` prints: every row of size 12 dropped,
    # its last row dropped, a row past its last, and its first row twice
    "inversion_rows_of_a_size": (
        series, "inversion_rows", lambda original: lambda n: original(n)[: -(n * n // 4 + 1)], [
            "FAIL series.row_sums 11/12 cells (first mismatch at n=12: expected 4084, actual None)",
        ]
    ),
    "inversion_rows": (series, "inversion_rows", one_short, [
        "FAIL series.row_sums 11/12 cells (first mismatch at n=12: expected 4084, actual 4083)",
    ]),
    "inversion_rows_extra": (
        series, "inversion_rows", lambda original: lambda n: [*original(n), (12, 37, 5)], [
            "FAIL series.row_sums 11/12 cells (first mismatch at n=12: expected 4084, actual 4089)",
        ]
    ),
    "inversion_rows_repeated": (
        series, "inversion_rows", lambda original: lambda n: [*original(n), (12, 0, 1)], [
            "FAIL series.row_sums 11/12 cells (first mismatch at n=12: expected 4084, actual 4085)",
        ]
    ),
    # the rows `table --quantity A` prints: the closed forms read 0 past them
    "alternating_word_table": (counting, "alternating_word_table", one_short, [
        "FAIL counting.closed_forms_agree 83/84 cells"
        " (first mismatch at k=6 m=10 form=alternating: expected 42, actual 0)",
    ]),
    "alternating_word_table_m0": (
        counting, "alternating_word_table", one_more(2, lambda r: r[1] == 0), [
            "FAIL counting.closed_forms_agree 78/84 cells"
            " (first mismatch at k=1 m=0 form=alternating: expected 1, actual 2)",
        ]
    ),
    # [()] short is empty, so the first cell of each check meets the fault
    "grassmannian_permutations": (core, "grassmannian_permutations", one_short, [
        "FAIL counting.nonidentity_count_vs_enumeration 304/336 cells"
        " (first mismatch at pattern=None n=0: expected 1, actual None)",
        "FAIL classes.bigrassmannian_iff_avoids_2413 466/475 cells"
        " (first mismatch at n=0 perm=None: expected None, actual None)",
        "FAIL classes.involution_iff_word_form 466/475 cells"
        " (first mismatch at n=0 perm=None: expected None, actual None)",
    ]),
    "semilength": (paths, "semilength", lambda original: lambda p: original(p) + 1, [
        "FAIL paths.word_dyck_bijection 36/72 cells"
        " (first mismatch at k=1 m=0 aspect=round_trip: expected 0, actual 1)",
    ]),
}


@pytest.mark.parametrize("fault", SHORT_OR_WRONG)
def test_a_short_table_or_a_wrong_semilength_fails_its_cells(monkeypatch, capsys, fault):
    module, name, perturb, fail_lines = SHORT_OR_WRONG[fault]
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    assert fail_lines_of_a_full_run(capsys) == fail_lines


def sixth_row_repeated(original):
    """``original`` with the sixth row it returns printed again at the end."""

    def repeated(*args):
        rows = list(original(*args))
        return [*rows, rows[5]]

    return repeated


# A table with its sixth row printed twice: each table is read by cell, and a
# cell printed twice reads None, so each of these faults fails the checks
# that read the row, where a second copy used to overwrite the first.
REPEATED_ROW = {
    "avoiding_word_table": (counting, [
        "FAIL counting.recurrence_vs_word_oracle 35/36 cells"
        " (first mismatch at k=3 m=1: expected 2, actual None)",
        "FAIL counting.closed_forms_agree 83/84 cells"
        " (first mismatch at k=3 m=1 form=recurrence: expected 2, actual None)",
    ]),
    "alternating_word_table": (counting, [
        "FAIL counting.closed_forms_agree 83/84 cells"
        " (first mismatch at k=3 m=1 form=alternating: expected 2, actual None)",
    ]),
    "parity_table": (parity, [
        "FAIL parity.odd_plus_even_is_total 35/36 cells"
        " (first mismatch at k=3 m=1: expected [2, 0, 2], actual None)",
    ]),
    "class_table": (classes, [
        "FAIL classes.class_totals_vs_oracle 39/40 cells"
        " (first mismatch at class=bigrass m=5: expected 21, actual None)",
    ]),
}


@pytest.mark.parametrize("name", REPEATED_ROW)
def test_a_repeated_table_row_fails_its_cells(monkeypatch, capsys, name):
    module, fail_lines = REPEATED_ROW[name]
    monkeypatch.setattr(module, name, sixth_row_repeated(getattr(module, name)))
    assert fail_lines_of_a_full_run(capsys) == fail_lines


def test_a_repeated_grid_cell_is_not_offset_by_the_fault(monkeypatch):
    # The oracle check's fault adds one to a grid cell; a cell printed twice
    # stays None under it.
    monkeypatch.setattr(
        counting, "avoiding_word_table", sixth_row_repeated(counting.avoiding_word_table)
    )
    check = checks_of("counting", verify.Options(fault=(3, 1)))["recurrence_vs_word_oracle"]
    assert check.params["first_mismatch"] == {"k": 3, "m": 1, "expected": 2, "actual": None}


def test_a_wrong_identity_test_fails_its_cells(monkeypatch, capsys):
    # Every permutation but the identity judged the identity: the avoider
    # listings that take the pattern as the identity, or not, go wrong.
    # canonical_word finds the identity by its lack of a descent, so the
    # classes suite is untouched.
    original = core.is_identity
    monkeypatch.setattr(core, "is_identity", lambda p: not original(p))
    assert core.canonical_word((1, 2, 3)) == "000"
    assert failing_checks_of_a_full_run(capsys) == [
        "counting.word_count_vs_permutation_count",
        "counting.perm_counts_vs_perm_oracle",
        "counting.nonidentity_count_vs_enumeration",
    ]


def off_by_one_at(at):
    """Make a formula return one more at the arguments ``at``."""
    return lambda original: lambda *args: original(*args) + (args == at)


def wrong_count_at(monkeypatch, at):
    """Make ``avoiding_word_count`` one more at ``at``, where both
    ``counting`` and ``parity`` read it."""
    wrong = off_by_one_at(at)(counting.avoiding_word_count)
    for module in (counting, parity):
        monkeypatch.setattr(module, "avoiding_word_count", wrong)


def test_an_odd_halving_fails_its_cells(monkeypatch, capsys):
    # One too many at (4, 4) leaves twice the odd count there odd.  The
    # halving refuses it, and each cell that reads it fails, with None for
    # the refused value, instead of ending the run.
    wrong_count_at(monkeypatch, (4, 4))
    with pytest.raises(DomainError, match=r"2\*odd_word_count\(4, 4\) is not even: 13"):
        parity.odd_word_count(4, 4)
    failing = {
        name: (c.expected, c.actual, c.params["first_mismatch"])
        for name, c in checks_of("parity", verify.Options()).items()
        if not c.passed
    }
    assert failing == {
        "odd_vs_word_oracle": (36, 35, {"k": 4, "m": 4, "expected": 6, "actual": None}),
        "odd_plus_even_is_total": (
            36, 35, {"k": 4, "m": 4, "expected": None, "actual": [11, 6, 5]}
        ),
        "total_odd": (6, 5, {"k": 4, "expected": None, "actual": 16}),
    }
    assert cli.main(["verify", "--suite", "parity"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL parity.odd_vs_word_oracle 35/36 cells" in out and err == ""
    assert out.endswith("3/6 checks passed\n")
    # every suite reports, the paths suite's parity balance among them
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL paths.lattice_encoding 1789/1790 cells" in out and err == ""
    assert out.endswith("21/30 checks passed\n")


def test_a_cap_refusal_in_a_sweep_still_ends_the_run(monkeypatch, capsys):
    def capped(k, m):
        raise CapExceededError(f"capped at {k}, {m}")

    monkeypatch.setattr(parity, "odd_word_count", capped)
    assert cli.main(["verify", "--suite", "parity"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: capped at 1, 0\n"


def test_a_refused_value_never_matches():
    # both sides refused is no agreement
    check = verify._sweep_index("demo", "k", range(1, 4), refuse, refuse)
    assert (check.expected, check.actual) == (3, 0)
    assert check.params["first_mismatch"] == {"k": 1, "expected": None, "actual": None}
    # a row or item that a table or listing lacks reads None too
    check = verify._sweep_index("demo", "k", range(1, 4), lambda k: k, [0, 1, 2].__getitem__)
    assert (check.expected, check.actual) == (3, 2)
    assert check.params["first_mismatch"] == {"k": 3, "expected": 3, "actual": None}
    assert verify._value({}.__getitem__, (1, 2)) is None
    cells = [(("k",), (1,), None, 1), (("k",), (2,), 1, None), (("k",), (3,), 2, 2)]
    check = verify._sweep("demo", {}, cells)
    assert (check.expected, check.actual) == (3, 1)
    assert check.params["first_mismatch"] == {"k": 1, "expected": None, "actual": 1}


def test_a_refused_parity_grid_fails_every_cell_that_reads_it(monkeypatch, capsys):
    # One too many at (4, 4) in the rows the parity table reads leaves a
    # doubled odd count odd there, and the table is refused as a whole.
    original = parity._word_rows

    def wrong_rows(k_max):
        for k, row in enumerate(original(k_max), 1):
            yield [c + ((k, m) == (4, 4)) for m, c in enumerate(row)]

    monkeypatch.setattr(parity, "_word_rows", wrong_rows)
    with pytest.raises(DomainError, match=r"2\*odd_word_count\(4, 4\) is not even: 13"):
        list(parity.parity_table(4))
    assert cli.main(["verify", "--suite", "parity"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL parity.odd_plus_even_is_total 0/36 cells"
        " (first mismatch at k=1 m=0: expected [1, 0, 1], actual None)"
    ]
    assert out.endswith("5/6 checks passed\n")
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("29/30 checks passed\n")


def test_a_refused_class_table_fails_every_cell_that_reads_it(monkeypatch, capsys):
    # C(6, 3) one too many makes C(6, 3) / 4, the odd biGrassmannian count
    # at m = 4, inexact: the totals table is refused as a whole, and each
    # avoider cell that reduces to m = 4 is refused alone.
    monkeypatch.setattr(classes, "binomial", off_by_one_at((6, 3))(classes.binomial))
    with pytest.raises(DomainError, match="odd biGrassmannian count at m=4 not integral"):
        classes.class_table(9)
    failing = {
        name: (c.expected, c.actual, c.params["first_mismatch"])
        for name, c in checks_of("classes", verify.Options()).items()
        if not c.passed
    }
    assert failing == {
        "class_totals_vs_oracle": (
            40, 0, {"class": "bigrass", "m": 0, "expected": 1, "actual": None}
        ),
        "class_avoiders_vs_oracle": (
            200, 193, {"class": "bigrass_odd", "k": 4, "m": 4, "expected": 5, "actual": None}
        ),
    }
    assert cli.main(["verify", "--suite", "classes"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("3/5 checks passed\n")


def test_no_exactness_refusal_ends_the_run(monkeypatch, capsys):
    # Every exact quotient refused, through each name it is called by: the
    # run still reports every check.  The recurrence grid takes no quotient
    # (it carries its ballot row by addition), so the two checks that hold
    # it to the word oracle and to the closed forms still pass.
    def inexact(numerator, divisor, refusal, *args):
        raise DomainError(refusal.format(*args))

    for module in (counting, parity, classes):
        monkeypatch.setattr(module, "exact_quotient", inexact)
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 31 and lines[-1] == "19/30 checks passed"
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "counting.words_by_zero_count",
        "parity.odd_vs_word_oracle",
        "parity.odd_plus_even_is_total",
        "parity.closed_form_at_max_length",
        "parity.one_shorter_is_twice_even",
        "parity.odd_words_by_zero_count",
        "parity.total_odd",
        "classes.class_totals_vs_oracle",
        "classes.class_avoiders_vs_oracle",
        "paths.lattice_encoding",
        "identities.ballot_catalan_alternating_sum",
    ]


# (suite, options, module, formula, mutation, cells, matched, params): each
# mutation puts one cell of one single-index check off by one, at an index
# no other check of the suite reads.
ONE_WRONG_CELL = {
    "total_words": (
        "counting", verify.Options(), counting, "total_avoiding_words", off_by_one_at((3,)),
        6, 5, {"k_max": 6, "first_mismatch": {"k": 3, "expected": 14, "actual": 13}},
    ),
    "total_perms": (
        "counting", verify.Options(), counting, "total_avoiding_perms", off_by_one_at((3,)),
        6, 5, {"k_max": 6, "first_mismatch": {"k": 3, "expected": 11, "actual": 10}},
    ),
    "fixed_point_row_sums": (
        "counting", verify.Options(), counting, "fixed_point_count", off_by_one_at((15, 0)),
        20, 19, {"n_max": 20, "first_mismatch": {"n": 15, "expected": 32753, "actual": 32754}},
    ),
    "closed_form_at_max_length": (
        "parity", verify.Options(), parity, "odd_word_count_max_length", off_by_one_at((4,)),
        5, 4, {"k_max": 6, "first_mismatch": {"k": 4, "expected": 3, "actual": 4}},
    ),
    # at k_max 1 the table's rows stop at k = 1, and this check still reads k = 2
    "one_shorter_is_twice_even": (
        "parity", verify.Options(k_max=1), parity, "even_word_count", off_by_one_at((2, 2)),
        1, 0, {"k_max": 2, "first_mismatch": {"k": 2, "expected": 0, "actual": 2}},
    ),
    "total_odd": (
        "parity", verify.Options(), parity, "total_odd_avoiders", off_by_one_at((3,)),
        6, 5, {"k_max": 6, "first_mismatch": {"k": 3, "expected": 4, "actual": 5}},
    ),
    # the relation reads m = 30 twice: as m, and as m - 4 at m = 34
    "odd_involution_shift_relation": (
        "classes", verify.Options(), classes, "odd_involution_count", off_by_one_at((30,)),
        36, 34, {"m_max": 40, "first_mismatch": {"m": 30, "expected": 120, "actual": 121}},
    ),
    # rows past perm_cap 9 are read by the row sums alone: one more at q^0 of size 11
    "row_sums": (
        "series", verify.Options(), series, "inversion_rows",
        one_more(2, lambda r: r[:2] == (11, 0)),
        12, 11, {"n_max": 12, "first_mismatch": {"n": 11, "expected": 2037, "actual": 2038}},
    ),
}


@pytest.mark.parametrize("name", ONE_WRONG_CELL)
def test_one_wrong_cell_fails_only_its_single_index_check(monkeypatch, name):
    suite, opts, module, formula, mutate, cells, matched, params = ONE_WRONG_CELL[name]
    monkeypatch.setattr(module, formula, mutate(getattr(module, formula)))
    checks = checks_of(suite, opts)
    assert [n for n, c in checks.items() if not c.passed] == [name]
    check = checks[name]
    assert (check.expected, check.actual) == (cells, matched)
    assert check.params == params


# (suite, module, formula): each formula one more at (k, j) = (3, 1), read
# only by its suite's zero-count check, with the oracle count as expected.
ZERO_COUNT_OFF_BY_ONE = {
    "words_by_zero_count": ("counting", counting, "avoiding_words_with_zeros", 5, 6),
    "odd_words_by_zero_count": ("parity", parity, "odd_avoiding_words_with_zeros", 2, 3),
}


@pytest.mark.parametrize("name", ZERO_COUNT_OFF_BY_ONE)
def test_one_wrong_zero_count_fails_only_its_check(monkeypatch, name):
    suite, module, formula, expected, actual = ZERO_COUNT_OFF_BY_ONE[name]
    monkeypatch.setattr(module, formula, off_by_one_at((3, 1))(getattr(module, formula)))
    checks = checks_of(suite, verify.Options())
    assert [n for n, c in checks.items() if not c.passed] == [name]
    check = checks[name]
    assert (check.expected, check.actual) == (27, 26)
    assert check.params == {
        "k_max": 6,
        "word_cap": 20,
        "first_mismatch": {"k": 3, "j": 1, "expected": expected, "actual": actual},
    }


# An odd word of length 3, one zero and longest 0*1* 2 ("101"), counted
# twice: every k >= 3 reads it at m = 3 and at j = 1.
EXTRA_ODD_WORD = {
    "counting": {
        "recurrence_vs_word_oracle": (36, 32, {"k": 3, "m": 3, "expected": 5, "actual": 4}),
        "words_by_zero_count": (27, 23, {"k": 3, "j": 1, "expected": 6, "actual": 5}),
    },
    "parity": {
        "odd_vs_word_oracle": (36, 32, {"k": 3, "m": 3, "expected": 3, "actual": 2}),
        "odd_words_by_zero_count": (27, 23, {"k": 3, "j": 1, "expected": 3, "actual": 2}),
    },
}


@pytest.mark.parametrize("suite", EXTRA_ODD_WORD)
def test_a_miscounted_word_tally_fails_only_the_word_oracle_checks(monkeypatch, suite):
    walk = oracle.word_statistics

    def mutant(m_max):
        tallies = walk(m_max)
        tallies[3][oracle.WordKey(2, 1, True)] += 1
        return tallies

    monkeypatch.setattr(oracle, "word_statistics", mutant)
    checks = checks_of(suite, verify.Options())
    failing = {n: c for n, c in checks.items() if not c.passed}
    assert list(failing) == list(EXTRA_ODD_WORD[suite])
    for name, (cells, matched, first) in EXTRA_ODD_WORD[suite].items():
        check = failing[name]
        assert (check.expected, check.actual) == (cells, matched)
        assert check.params["first_mismatch"] == first


# (recognition predicate, the permutation it misjudges, what it should say):
# the characterisation is the expected side of each check.
MISJUDGED = {
    "bigrassmannian_iff_avoids_2413": ("is_bigrassmannian", (2, 4, 1, 3), False),
    "involution_iff_word_form": ("is_grassmannian_involution", (1, 3, 2, 4), True),
}


@pytest.mark.parametrize("name", MISJUDGED)
def test_a_misjudging_recognition_fails_only_its_iff_check(monkeypatch, name):
    predicate, perm, truth = MISJUDGED[name]
    recognise = getattr(classes, predicate)
    assert recognise(perm) is truth
    monkeypatch.setattr(
        classes, predicate, lambda p: (not recognise(p)) if p == perm else recognise(p)
    )
    checks = checks_of("classes", verify.Options())
    assert [n for n, c in checks.items() if not c.passed] == [name]
    check = checks[name]
    assert check.expected == check.actual + 1
    assert check.params == {
        "n_max": 8,
        "first_mismatch": {
            "n": 4, "perm": core.perm_to_str(perm), "expected": int(truth), "actual": int(not truth)
        },
    }


def test_options_are_values():
    opts = verify.Options(k_max=3)
    assert opts == verify.Options(3, 9, 20, None)
    assert hash(opts) == hash(verify.Options(k_max=3))
    assert opts != verify.Options()
    assert repr(opts) == "Options(k_max=3, perm_cap=9, word_cap=20, fault=None)"
    assert verify.Options(fault=(2, 1)).fault == (2, 1)
    with pytest.raises(AttributeError):
        opts.k_max = 4
    with pytest.raises(AttributeError):
        del opts.k_max
    with pytest.raises(AttributeError):
        opts.other = 1


def test_checks_and_suite_results():
    good = verify.Check("c", {"n": 1}, 2, 2)
    bad = verify.Check(name="c", params={}, expected=2, actual=1)
    assert good.passed and not bad.passed
    assert good == verify.Check("c", {"n": 1}, 2, 2) != verify.Check("c", {"n": 2}, 2, 2)
    assert repr(bad) == "Check(name='c', params={}, expected=2, actual=1)"
    assert verify.SuiteResult("s", [good]).passed
    assert not verify.SuiteResult(suite="s", checks=[good, bad]).passed
    with pytest.raises(AttributeError):
        good.actual = 1
