import math
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from grassperm import classes, counting, oracle, parity, paths, verify
from grassperm.errors import DomainError


class Unformattable:
    def __format__(self, spec):
        raise AssertionError("formatted")


class TestExactQuotient:
    def test_quotient(self):
        assert counting.exact_quotient(12, 4, "unused") == 3
        assert counting.exact_quotient(-12, 4, "unused") == -3
        assert counting.exact_quotient(0, 24, "unused") == 0

    def test_refusal_is_formatted(self):
        with pytest.raises(DomainError, match=r"^13 over 2 at \(4, 4\)$"):
            counting.exact_quotient(13, 2, "{} over {} at {}", 13, 2, (4, 4))
        with pytest.raises(DomainError, match="^-13 is odd$"):
            counting.exact_quotient(-13, 2, "{} is odd", -13)

    def test_no_formatting_when_exact(self):
        assert counting.exact_quotient(12, 4, "{}", Unformattable()) == 3
        # the same argument is formatted once the division is inexact
        with pytest.raises(AssertionError, match="formatted"):
            counting.exact_quotient(13, 4, "{}", Unformattable())


def one_more_at(original, at):
    return lambda *args: original(*args) + (args == at)


# Each caller of exact_quotient, pushed off exactness by one more in a value
# it divides: (module, name, replacement, call, message).  The messages are
# those each caller has always refused with.
INEXACT = {
    "ballot": (
        counting, "math", SimpleNamespace(comb=one_more_at(math.comb, (4, 3))),
        lambda: counting.ballot(3, 1), "ballot(3, 1) not an integer",
    ),
    "odd-bigrassmannian": (
        classes, "binomial", one_more_at(counting.binomial, (6, 3)),
        lambda: classes.odd_bigrassmannian_count(4), "odd biGrassmannian count at m=4 not integral",
    ),
    "odd-word-even-k-m": (
        parity, "avoiding_word_count", one_more_at(counting.avoiding_word_count, (4, 4)),
        lambda: parity.odd_word_count(4, 4), "2*odd_word_count(4, 4) is not even: 13",
    ),
    "odd-word": (
        parity, "avoiding_word_count", one_more_at(counting.avoiding_word_count, (3, 4)),
        lambda: parity.odd_word_count(3, 4), "2*odd_word_count(3, 4) is not even: 3",
    ),
    "max-length": (
        parity, "catalan", one_more_at(counting.catalan, (3,)),
        lambda: parity.odd_word_count_max_length(4),
        "catalan(3) + catalan((4 - 2)/2) is not even: 7",
    ),
    "zeros": (
        parity, "ballot", one_more_at(counting.ballot, (3, 3)),
        lambda: parity.odd_avoiding_words_with_zeros(3, 2),
        "2*odd_avoiding_words_with_zeros(3, 2) is not even: 5",
    ),
    "total-odd-odd-k": (
        parity, "catalan", one_more_at(counting.catalan, (4,)),
        lambda: parity.total_odd_avoiders(3), "catalan(4) is not even: 15",
    ),
    "total-odd-even-k": (
        parity, "catalan", one_more_at(counting.catalan, (5,)),
        lambda: parity.total_odd_avoiders(4), "catalan(5) - catalan(2) is not even: 41",
    ),
}


@pytest.mark.parametrize("case", INEXACT)
def test_an_inexact_quotient_is_refused_with_its_message(monkeypatch, case):
    module, name, replacement, call, message = INEXACT[case]
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


class TestBinomial:
    def test_plain_value(self):
        assert counting.binomial(5, 2) == 10

    def test_zero_conventions(self):
        assert counting.binomial(1, 2) == 0
        assert counting.binomial(-1, 0) == 0
        assert counting.binomial(4, -1) == 0


class TestCatalan:
    def test_values(self):
        assert [counting.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert counting.catalan(-1) == 0

    def test_counts_dyck_paths(self):
        for n in range(8):
            assert counting.catalan(n) == len(paths.enumerate_dyck(n))


class TestBallot:
    def test_first_column(self):
        for n in range(1, 10):
            assert counting.ballot(n, 0) == 1

    def test_spot_value(self):
        assert counting.ballot(3, 1) == 3

    def test_diagonal_is_catalan(self):
        for n in range(9):
            assert counting.ballot(n, n) == counting.catalan(n)

    def test_zero_outside_triangle(self):
        assert counting.ballot(3, 5) == 0
        assert counting.ballot(3, 4) == 0
        assert counting.ballot(-1, 0) == 0
        assert counting.ballot(2, -1) == 0

    def test_counts_last_peak_heights(self):
        # T(n, k) = Dyck paths of semilength n + 1 with last peak height n + 1 - k
        for n in range(5):
            last_heights = [paths.peaks(p)[-1] for p in paths.enumerate_dyck(n + 1)]
            for k in range(n + 1):
                assert last_heights.count(n + 1 - k) == counting.ballot(n, k), (n, k)

    def test_counts_words_saturated_with_zeros(self):
        # the recurrence subtracts exactly the length-(m-1) avoiding words
        # that already carry k - 1 zeros
        for k in range(2, 6):
            for m in range(k, 2 * k - 1):
                observed = sum(
                    count
                    for key, count in oracle.word_statistics(m - 1)[m - 1].items()
                    if key.longest < k and key.zeros == k - 1
                )
                assert observed == counting.ballot(k - 1, m - k), (k, m)


# The per-term alternating Catalan sums, literally as the paper writes them:
# the references the walked kernel behind them is held to.
def alternating_per_term(k: int, m: int) -> int:
    return sum(
        (-1) ** (j - 1) * j * counting.binomial(2 * k - m - j, j) * counting.catalan(k - j)
        for j in range(1, 2 * k - m + 1)
    )


def ballot_per_term(a: int, b: int) -> int:
    return sum(
        (-1) ** j * counting.binomial(a - b - j, j) * counting.catalan(a - j)
        for j in range(a - b + 1)
    )


def peak_sum_per_term(n: int, s: int) -> int:
    return sum(
        (-1) ** (j - 1) * j * counting.binomial(s - j, j) * counting.catalan(n - 1 - j)
        for j in range(1, s // 2 + 1)
    )


@cache
def recurrence_cells(k_max: int) -> dict[tuple[int, int], int]:
    return {(k, m): c for k, m, c in counting.avoiding_word_table(k_max)}


def recurrence(k: int, m: int) -> int:
    """The recurrence table's value, 0 past a row's end as for the count."""
    return recurrence_cells(120).get((k, m), 0)


class TestAvoidingWordCounts:
    @pytest.mark.parametrize(
        "k,m,value", [(3, 3, 4), (3, 4, 2), (4, 4, 11), (1, 0, 1), (1, 1, 0)]
    )
    def test_spot_values(self, k, m, value):
        assert counting.avoiding_word_count(k, m) == value
        assert counting.avoiding_word_count_alternating(k, m) == value

    def test_base_cases(self):
        for m in range(6):
            assert counting.avoiding_word_count(0, m) == 0
        for k in range(1, 6):
            assert counting.avoiding_word_count(k, 0) == 1
            for m in range(2 * k - 1, 2 * k + 3):
                assert counting.avoiding_word_count(k, m) == 0

    def test_powers_of_two_below_k(self):
        for k in range(1, 12):
            for m in range(k):
                assert counting.avoiding_word_count_alternating(k, m) == 2**m

    def test_catalan_at_max_length(self):
        for k in range(1, 9):
            assert counting.avoiding_word_count(k, 2 * k - 2) == counting.catalan(
                k - 1
            )

    def test_binomial_form_spots(self):
        assert counting.avoiding_word_count(3, 4) == 2
        assert counting.avoiding_word_count(4, 4) == 11
        for k in range(1, 6):
            assert counting.avoiding_word_count(k, 2 * k - 1) == 0
        rows = list(counting.avoiding_word_table(4))
        assert (3, 4, 2) in rows and (4, 4, 11) in rows

    @given(st.integers(1, 120), st.integers(0, 240))
    def test_three_way_agreement_random(self, k, m):
        b = counting.avoiding_word_count(k, m)
        assert counting.avoiding_word_count_alternating(k, m) == b
        assert recurrence(k, m) == b

    def test_recurrence_table_depth(self):
        # a cell far past any desk-size table, where the binomial form
        # must still agree with the alternating one
        assert counting.avoiding_word_count(
            300, 400
        ) == counting.avoiding_word_count_alternating(300, 400)

    def test_large_k_short_words(self):
        # below k every word avoids, whatever the size of k
        assert counting.avoiding_word_count(1000, 3) == 2**3
        assert counting.avoiding_word_count_alternating(1000, 3) == 2**3

    def test_alternating_walk_matches_per_term_sum(self):
        for k in range(60):
            for m in range(2 * k + 3):
                assert counting.avoiding_word_count_alternating(k, m) == alternating_per_term(
                    k, m
                ), (k, m)

    @pytest.mark.parametrize(
        "k,m",
        [(3000, 0), (3000, 1), (3000, 3000), (3000, 5998), (20000, 20000), (20000, 39990)],
    )
    def test_alternating_form_at_large_k(self, k, m):
        b = counting.avoiding_word_count(k, m)
        assert counting.avoiding_word_count_alternating(k, m) == b

    def test_concurrent_queries_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        cells = [(k, m) for k in range(1, 25) for m in range(2 * k - 1)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda c: counting.avoiding_word_count(*c), cells))
        for (k, m), value in zip(cells, results):
            assert value == counting.avoiding_word_count_alternating(k, m)

    def test_against_word_oracle(self, harness):
        # the oracle certifies the recurrence, which equals B cell by cell
        assert harness("counting.recurrence_vs_word_oracle", k_max=7, word_cap=12).passed
        assert harness("counting.closed_forms_agree", k_max=7).passed

    def test_perm_count_differs_by_m_below_k(self):
        for k in range(2, 7):
            for m in range(k):
                diff = counting.avoiding_word_count(
                    k, m
                ) - counting.avoiding_perm_count(k, m)
                assert diff == m


class TestNonidentityAvoiderCount:
    def test_k2_always_one(self):
        for n in range(10):
            assert counting.nonidentity_avoider_count(n, 2) == 1

    @pytest.mark.parametrize("n,k,value", [(4, 3, 7), (5, 4, 21)])
    def test_spots(self, n, k, value):
        assert counting.nonidentity_avoider_count(n, k) == value

    def test_rejects_small_pattern(self):
        with pytest.raises(DomainError):
            counting.nonidentity_avoider_count(4, 1)


class TestFixedPointCount:
    def test_edge_cases(self):
        for n in range(1, 8):
            assert counting.fixed_point_count(n, n) == 1
            assert counting.fixed_point_count(n, n - 1) == 0

    def test_spot(self):
        assert counting.fixed_point_count(4, 1) == 4

    def test_row_sums(self, harness):
        assert harness("counting.fixed_point_row_sums", n_max=20).passed

    def test_against_oracle(self, harness):
        assert harness("counting.fixed_points_vs_oracle", perm_cap=7).passed


class TestTotals:
    def test_word_total_spot(self):
        assert counting.total_avoiding_words(3) == 13
        assert counting.total_avoiding_words(1) == 1

    def test_perm_total_spot(self):
        assert counting.total_avoiding_perms(3) == 10

    def test_totals_vs_row_sums(self):
        for k in range(1, 21):
            rows = sum(counting.avoiding_word_count(k, m) for m in range(2 * k - 1))
            assert rows == counting.total_avoiding_words(k)
            perm_rows = sum(
                counting.avoiding_perm_count(k, m) for m in range(2 * k - 1)
            )
            assert perm_rows == counting.total_avoiding_perms(k)

    def test_zero_refined_total(self, harness):
        assert counting.avoiding_words_with_zeros(3, 2) == 5
        # the cell count shows that the word cap cut no k <= 6
        check = harness("counting.words_by_zero_count", k_max=6)
        assert check.passed and check.expected >= sum(k + 1 for k in range(1, 7))
        for k in range(1, 7):
            # a word with k + 1 zeros contains 0^k
            assert counting.avoiding_words_with_zeros(k, k + 1) == 0


class TestPeakSumCount:
    def test_matches_per_term_sum(self):
        for k in range(40):
            for s in range(-1, 2 * k + 1):
                assert counting.dyck_peak_sum_count(k + 1, s) == peak_sum_per_term(
                    k + 1, s
                ), (k, s)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            counting.dyck_peak_sum_count(0, 0)
        with pytest.raises(DomainError):
            counting.dyck_peak_sum_count(3, 5)


class TestIdentities:
    def test_degenerate_diagonal(self):
        for a in range(10):
            assert counting.ballot_alternating(a, a) == counting.ballot(a, a) == counting.catalan(a)

    def test_spot(self):
        assert counting.ballot_alternating(3, 1) == counting.ballot(3, 1) == 3

    def test_ballot_walk_matches_per_term_sum(self):
        for a in range(60):
            for b in range(a + 1):
                assert counting.ballot_alternating(a, b) == ballot_per_term(a, b), (a, b)

    def test_rejects_bad_domain(self):
        for a, b in [(2, 3), (-1, 0), (2, -1)]:
            with pytest.raises(DomainError):
                counting.ballot_alternating(a, b)

    def test_concluding_spot_values(self):
        assert counting.avoiding_word_count_alternating(3, 3) == 4 == 2**3 - 3 - 1
        assert counting.avoiding_word_count_alternating(1, 1) == 0
        assert counting.avoiding_word_count_alternating(3, 0) == 1

    def test_full_length_matches_per_term_sum(self):
        for k in range(1, 40):
            # the left side of identity (ii) is the per-term sum at m = k
            value = counting.avoiding_word_count_alternating(k, k)
            assert value == alternating_per_term(k, k) == 2**k - k - 1, k

    def test_mismatch_names_both_values(self, monkeypatch):
        def off_at_4_2(a, b):
            return counting.ballot(a, b) + ((a, b) == (4, 2))

        monkeypatch.setattr(counting, "ballot_alternating", off_at_4_2)
        ballots, _ = verify.run_suites(["identities"], verify.Options(k_max=6))[0].checks
        assert not ballots.passed
        value = counting.ballot(4, 2)
        assert ballots.params["first_mismatch"] == {
            "a": 4, "b": 2, "expected": value, "actual": value + 1
        }


def test_table_rows_shape():
    rows = list(counting.avoiding_word_table(3))
    assert rows[0] == (1, 0, 1)
    assert (3, 4, 2) in rows
    assert all(m <= 2 * k - 2 for k, m, _ in rows)


def test_alternating_table_matches_the_recurrence():
    alternating = list(counting.alternating_word_table(10))
    assert alternating == list(counting.avoiding_word_table(10))
    with pytest.raises(DomainError, match="k_max must be positive"):
        list(counting.alternating_word_table(0))
