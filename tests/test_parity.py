from itertools import accumulate

import pytest

from grassperm import counting, parity, paths
from grassperm.errors import DomainError


class TestOddEvenSplit:
    @pytest.mark.parametrize("k,m,value", [(3, 4, 1), (4, 4, 6), (3, 3, 2)])
    def test_spot_values(self, k, m, value):
        assert parity.odd_word_count(k, m) == value

    def test_length_one_words_are_even(self):
        for k in range(1, 8):
            assert parity.odd_word_count(k, 1) == 0

    def test_zero_cases(self):
        assert parity.odd_word_count(0, 5) == 0
        for k in range(1, 6):
            assert parity.odd_word_count(k, 0) == 0
            assert parity.even_word_count(k, 0) == 1

    def test_split_sums_to_total(self):
        for k in range(1, 9):
            for m in range(2 * k + 1):
                assert parity.odd_word_count(k, m) + parity.even_word_count(
                    k, m
                ) == counting.avoiding_word_count(k, m)

    @pytest.mark.parametrize("form", [parity.odd_word_count, parity.even_word_count])
    def test_a_point_form_computes_each_plain_count_once(self, monkeypatch, form):
        # the even count is the plain count less the odd one, and the odd
        # count's identity reads that plain count too: both read it once
        calls = []
        count = counting.avoiding_word_count
        monkeypatch.setattr(
            parity, "avoiding_word_count", lambda k, m: calls.append((k, m)) or count(k, m)
        )
        form(400, 700)
        assert sorted(calls) == [(199, 349), (200, 349), (200, 350), (400, 700)]

    def test_against_word_oracle(self, harness):
        # odd = oracle odd, odd + even = B and B = oracle total, so even
        # = oracle even
        assert harness("parity.odd_vs_word_oracle", k_max=6, word_cap=10).passed
        assert harness("parity.odd_plus_even_is_total", k_max=6).passed
        assert harness("counting.recurrence_vs_word_oracle", k_max=6, word_cap=10).passed
        assert harness("counting.closed_forms_agree", k_max=6).passed


class TestParityTable:
    @pytest.mark.parametrize("k_max", range(1, 13))
    def test_rows_match_point_values(self, k_max):
        # At small k the odd counts read row 0 and past the end of the
        # rows at halved k.
        rows = list(parity.parity_table(k_max))
        assert [(k, m) for k, m, *_ in rows] == [
            (k, m) for k in range(1, k_max + 1) for m in range(2 * k - 1)
        ]
        for k, m, b, o, e in rows:
            assert (b, o, e) == (
                counting.avoiding_word_count(k, m),
                parity.odd_word_count(k, m),
                parity.even_word_count(k, m),
            ), (k, m)
        assert rows == list(parity.parity_table(12))[: len(rows)]

    def test_large_k_agrees_across_forms(self, monkeypatch):
        k, ms = 400, (3, 398, 399, 600, 797, 798)
        table = {m: (b, o) for kk, m, b, o, _ in parity.parity_table(k) if kk == k}
        odd = {m: parity.odd_word_count(k, m) for m in ms}
        # the odd count's identity, fed the alternating form of each count
        monkeypatch.setattr(parity, "avoiding_word_count", counting.avoiding_word_count_alternating)
        for m in ms:
            assert odd[m] == parity.odd_word_count(k, m) == table[m][1], m
            assert counting.avoiding_word_count(k, m) == table[m][0], m


class TestMaxLengthClosedForm:
    @pytest.mark.parametrize("k,value", [(3, 1), (4, 3), (5, 7)])
    def test_spots(self, k, value):
        assert parity.odd_word_count_max_length(k) == value

    def test_odd_k_split_is_even(self):
        for k in range(3, 21, 2):
            assert parity.odd_word_count(k, 2 * k - 2) == parity.even_word_count(
                k, 2 * k - 2
            )

    def test_rejects_k_below_two(self):
        with pytest.raises(DomainError):
            parity.odd_word_count_max_length(1)


class TestAllOddExtrema:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 0), (5, 2)])
    def test_spots(self, n, value):
        assert parity.all_odd_extrema_count(n) == value

    def test_matches_enumeration(self, harness):
        # the harness counts the all-odd paths up to n = 8
        assert harness("paths.even_extremum_toggle", n_max=8).passed

        def all_turns_odd(p):
            # the height after each step, kept where the next step turns
            heights = list(accumulate(1 if c == "U" else -1 for c in p))
            return all(h % 2 for h, c, d in zip(heights, p, p[1:]) if c != d)

        observed = sum(1 for p in paths.enumerate_dyck(9) if all_turns_odd(p))
        assert observed == parity.all_odd_extrema_count(9)


class TestZeroRefinedOddCounts:
    def test_spot(self):
        assert parity.odd_avoiding_words_with_zeros(3, 2) == 2

    def test_vanishes_with_the_total(self):
        assert counting.avoiding_words_with_zeros(2, 3) == 0
        assert parity.odd_avoiding_words_with_zeros(2, 3) == 0

    def test_against_oracle(self, harness):
        # the cell count shows that the word cap cut no k <= 7
        check = harness("parity.odd_words_by_zero_count", k_max=7)
        assert check.passed and check.expected >= sum(k + 1 for k in range(1, 8))


class TestTotalOdd:
    @pytest.mark.parametrize("k,value", [(2, 1), (3, 4), (4, 16)])
    def test_spots(self, k, value):
        assert parity.total_odd_avoiders(k) == value

    def test_no_odd_avoiders_for_k1(self):
        assert parity.total_odd_avoiders(1) == 0

    def test_matches_row_sums(self):
        for k in range(1, 13):
            rows = sum(parity.odd_word_count(k, m) for m in range(2 * k - 1))
            assert rows == parity.total_odd_avoiders(k)

    def test_matches_oracle(self, harness):
        # the rows summed by total_odd are the rows the oracle certifies
        assert harness("parity.odd_vs_word_oracle", k_max=7, word_cap=12).passed
        assert harness("parity.total_odd", k_max=7).passed
