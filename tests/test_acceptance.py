"""Acceptance suite: one test per criterion, each at its full stated range,
printing one PASS/FAIL line per criterion (run with ``pytest -v -s``).
Ranges that ``verify`` sweeps are read from the session's harness run."""

import time
from itertools import accumulate

from grassperm import cli, counting, parity, paths, verify


def report(n: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_01_closed_form_matches_oracle(harness):
    ok = (
        counting.avoiding_word_count(3, 3) == 4
        and counting.avoiding_word_count(3, 4) == 2
        and counting.avoiding_word_count(4, 4) == 11
    )
    # alternating = binomial = recurrence cell by cell, and the oracle
    # certifies the recurrence for k <= 7 and every m <= 2k - 2
    ok = ok and harness("counting.closed_forms_agree", k_max=7).passed
    ok = ok and harness("counting.recurrence_vs_word_oracle", k_max=7, word_cap=12).passed
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


def test_criterion_03_dyck_bijection_certified(harness):
    ok = harness("paths.word_dyck_bijection", k_max=7, word_cap=12).passed
    report(3, "word <-> Dyck path bijection onto the peak-sum class, k <= 7", ok)


def test_criterion_04_ballot_catalan_identity():
    ballots, _ = verify.run_suites(["identities"], verify.Options(k_max=30))[0].checks
    ok = ballots.passed and ballots.params == {"a_max": 30}
    ok = ok and ballots.expected == sum(a + 1 for a in range(31))
    report(4, "ballot number as alternating Catalan sum, a <= 30", ok)


def test_criterion_05_parity_split(harness):
    ok = harness("parity.odd_vs_word_oracle", k_max=7, word_cap=12).passed
    for k in range(2, 21):
        ok = ok and parity.odd_word_count_max_length(k) == parity.odd_word_count(
            k, 2 * k - 2
        )
        ok = ok and parity.odd_word_count(k, 2 * k - 3) == 2 * parity.even_word_count(
            k, 2 * k - 2
        )
    report(5, "odd counts match oracle (k <= 7) and closed forms (k <= 20)", ok)


def test_criterion_06_totals(harness):
    ok = True
    for k in range(1, 13):
        ok = ok and sum(
            counting.avoiding_word_count(k, m) for m in range(2 * k - 1)
        ) == counting.catalan(k + 1) - 1
        ok = ok and sum(
            counting.avoiding_perm_count(k, m) for m in range(2 * k - 1)
        ) == counting.catalan(k + 1) - counting.binomial(k, 2) - 1
    # per-size permutation counts equal the oracle's for every m <= 2k - 2,
    # and total_perms sums them to the closed form
    ok = ok and harness("counting.perm_counts_vs_perm_oracle", k_max=6, perm_cap=10).passed
    ok = ok and harness("counting.total_perms", k_max=6).passed
    # the cell count shows that the word cap cut no k <= 7
    check = harness("counting.words_by_zero_count", k_max=7)
    ok = ok and check.passed and check.expected >= sum(k + 1 for k in range(1, 8))
    for k in range(1, 8):
        # a word with k + 1 zeros contains 0^k
        ok = ok and counting.avoiding_words_with_zeros(k, k + 1) == 0
    report(6, "grand totals and zero-refined totals, k <= 12 (oracle k <= 6)", ok)


def test_criterion_07_special_classes(harness):
    ok = (
        harness("classes.class_totals_vs_oracle", perm_cap=9).passed
        and harness("classes.class_avoiders_vs_oracle", k_max=6, perm_cap=9).passed
        and harness("classes.odd_involution_shift_relation", m_max=40).passed
    )
    report(7, "all eight class formulas vs oracle (m <= 9, k <= 6)", ok)


def test_criterion_08_all_odd_extrema_and_toggle(harness):
    def all_turns_odd(p):
        # the height after each step, kept where the next step turns
        heights = list(accumulate(1 if c == "U" else -1 for c in p))
        return all(h % 2 for h, c, d in zip(heights, p, p[1:]) if c != d)

    ok = True
    for n in range(1, 12):
        observed = sum(1 for p in paths.enumerate_dyck(n) if all_turns_odd(p))
        ok = ok and observed == parity.all_odd_extrema_count(n)
    ok = ok and harness("paths.even_extremum_toggle", n_max=8).passed
    report(8, "all-odd-extrema counts (n <= 11) and toggle involution (n <= 8)", ok)


def test_criterion_09_inversion_generating_table(harness):
    ok = (
        harness("series.coefficients_vs_oracle", perm_cap=10).passed
        and harness("series.row_sums", n_max=12).passed
    )
    report(9, "inversion table equals oracle histogram (n <= 10), row sums (n <= 12)", ok)


def test_criterion_10_concluding_identities():
    _, concluding = verify.run_suites(["identities"], verify.Options(k_max=25))[0].checks
    ok = concluding.passed and concluding.params == {"k_max": 25}
    ok = ok and concluding.expected == sum(k + 1 for k in range(1, 26))
    ok = ok and counting.avoiding_word_count_alternating(3, 3) == 4 == 2**3 - 3 - 1
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
