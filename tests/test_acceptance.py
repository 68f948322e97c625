"""Acceptance suite: one test per criterion, each at its full stated range,
printing one PASS/FAIL line per criterion (run with ``pytest -v -s``)."""

import time

from grassperm import (
    classes,
    cli,
    core,
    counting,
    oracle,
    parity,
    paths,
    patterns,
    series,
)

id_k = core.identity_permutation


def report(n: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_01_closed_form_matches_oracle():
    ok = (
        counting.avoiding_word_count(3, 3) == 4
        and counting.avoiding_word_count(3, 4) == 2
        and counting.avoiding_word_count(4, 4) == 11
    )
    for k in range(2, 8):
        for m in range(k, 2 * k - 1):
            ok = ok and counting.avoiding_word_count_alternating(
                k, m
            ) == oracle.oracle_word_count(k, m)
    report(1, "alternating closed form equals exhaustive word count", ok)


def test_criterion_02_three_formulas_agree():
    start = time.monotonic()
    recurrence = {(k, m): c for k, m, c in counting.avoiding_word_table(40)}
    ok = True
    for k in range(1, 41):
        for m in range(1, 2 * k + 1):
            b = counting.avoiding_word_count(k, m)
            ok = (
                ok
                and counting.avoiding_word_count_alternating(k, m) == b
                and recurrence.get((k, m), 0) == b
            )
    elapsed = time.monotonic() - start
    report(2, f"binomial = alternating = recurrence up to k=40 ({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_03_dyck_bijection_certified():
    ok = True
    for k in range(1, 8):
        by_sum = {}
        for p in paths.enumerate_dyck(k + 1):
            if paths.peaks(p):
                by_sum.setdefault(paths.first_last_peak_sum(p), set()).add(p)
        for m in range(2 * k - 1):
            words = patterns.enumerate_avoiding_words(k, m)
            images = {paths.word_to_dyck(k, w) for w in words}
            ok = ok and len(images) == len(words)
            ok = ok and images == by_sum.get(2 * k - m, set())
            ok = ok and all(
                paths.dyck_to_word(k, paths.word_to_dyck(k, w)) == w for w in words
            )
    report(3, "word <-> Dyck path bijection onto the peak-sum class, k <= 7", ok)


def test_criterion_04_ballot_catalan_identity():
    ok = all(
        counting.ballot_catalan_identity_holds(a, b)
        for a in range(31)
        for b in range(a + 1)
    )
    report(4, "ballot number as alternating Catalan sum, a <= 30", ok)


def test_criterion_05_parity_split():
    ok = True
    for k in range(1, 8):
        for m in range(1, 2 * k - 1):
            ok = ok and parity.odd_word_count(k, m) == oracle.oracle_word_count(
                k, m, parity_filter="odd"
            )
    for k in range(2, 21):
        ok = ok and parity.odd_word_count_max_length(k) == parity.odd_word_count(
            k, 2 * k - 2
        )
        ok = ok and parity.odd_word_count(k, 2 * k - 3) == 2 * parity.even_word_count(
            k, 2 * k - 2
        )
    report(5, "odd counts match oracle (k <= 7) and closed forms (k <= 20)", ok)


def test_criterion_06_totals():
    ok = True
    for k in range(1, 13):
        ok = ok and sum(
            counting.avoiding_word_count(k, m) for m in range(2 * k - 1)
        ) == counting.catalan(k + 1) - 1
        ok = ok and sum(
            counting.avoiding_perm_count(k, m) for m in range(2 * k - 1)
        ) == counting.catalan(k + 1) - counting.binomial(k, 2) - 1
    for k in range(2, 7):
        observed = sum(
            oracle.oracle_count(m, id_k(k)) for m in range(2 * k - 1)
        )
        ok = ok and observed == counting.total_avoiding_perms(k)
    for k in range(1, 8):
        for j in range(k + 2):
            observed = sum(
                oracle.oracle_word_count(k, m, zeros=j) for m in range(2 * k - 1)
            )
            ok = ok and observed == counting.avoiding_words_with_zeros(k, j)
    report(6, "grand totals and zero-refined totals, k <= 12 (oracle k <= 6)", ok)


def test_criterion_07_special_classes():
    ok = True
    for m in range(10):
        ok = ok and classes.bigrassmannian_count(m) == oracle.oracle_count(
            m, id_k(m + 1), "bigrass"
        )
        ok = ok and classes.odd_bigrassmannian_count(m) == oracle.oracle_count(
            m, id_k(m + 1), "bigrass", "odd"
        )
        ok = ok and classes.involution_count(m) == oracle.oracle_count(
            m, id_k(m + 1), "involution"
        )
        ok = ok and classes.odd_involution_count(m) == oracle.oracle_count(
            m, id_k(m + 1), "involution", "odd"
        )
        for k in range(2, 7):
            ok = ok and classes.bigrassmannian_avoider_count(
                k, m
            ) == oracle.oracle_count(m, id_k(k), "bigrass")
            ok = ok and classes.odd_bigrassmannian_avoider_count(
                k, m
            ) == oracle.oracle_count(m, id_k(k), "bigrass", "odd")
            ok = ok and classes.involution_avoider_count(k, m) == oracle.oracle_count(
                m, id_k(k), "involution"
            )
            ok = ok and classes.odd_involution_avoider_count(
                k, m
            ) == oracle.oracle_count(m, id_k(k), "involution", "odd")
    for m in range(5, 41):
        ok = ok and classes.odd_involution_count(m) == classes.odd_involution_count(
            m - 4
        ) + m - 1
    report(7, "all eight class formulas vs oracle (m <= 9, k <= 6)", ok)


def test_criterion_08_all_odd_extrema_and_toggle():
    ok = True
    for n in range(1, 12):
        observed = sum(
            1
            for p in paths.enumerate_dyck(n)
            if all(h % 2 == 1 for h in paths.peaks(p) + paths.valleys(p))
        )
        ok = ok and observed == parity.all_odd_extrema_count(n)
    for n in range(1, 9):
        for p in paths.enumerate_dyck(n):
            if all(h % 2 == 1 for h in paths.peaks(p) + paths.valleys(p)):
                continue
            q = paths.toggle_first_even_extremum(p)
            ok = ok and paths.toggle_first_even_extremum(q) == p
            ok = ok and paths.is_odd_dyck(q) != paths.is_odd_dyck(p)
    report(8, "all-odd-extrema counts (n <= 11) and toggle involution (n <= 8)", ok)


def test_criterion_09_inversion_generating_table():
    table = series.inversion_table(10)
    ok = True
    for n in range(11):
        ok = ok and table.row(n) == oracle.oracle_inversion_histogram(n, cap=10)
        if n >= 1:
            ok = ok and sum(table.row(n).values()) == 2**n - n
    report(9, "inversion table equals oracle histogram, n <= 10", ok)


def test_criterion_10_concluding_identities():
    checks = counting.verify_concluding_identities(25)
    ok = all(c.ok for c in checks)
    spot = [
        c
        for c in checks
        if c.identity == "alternating_sum_at_full_length" and c.k == 3
    ]
    ok = ok and spot[0].actual == 4 == 2**3 - 3 - 1
    report(10, "closing identities hold for k <= 25", ok)


def test_criterion_11_verify_exit_codes(capsys):
    clean = cli.main(["verify"])
    out_clean = capsys.readouterr().out
    faulty = cli.main(
        ["verify", "--suite", "counting", "--inject-fault", "3,4"]
    )
    out_faulty = capsys.readouterr().out
    ok = (
        clean == 0
        and "FAIL" not in out_clean
        and faulty == 1
        and "k=3 m=4" in out_faulty
    )
    report(11, "verify exits 0 clean, 1 with the faulted cell named", ok)
