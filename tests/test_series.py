import pytest

from grassperm import series
from grassperm.errors import CapExceededError


def test_small_rows():
    table = series.inversion_table(3)
    assert table == [{0: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1, 1: 2, 2: 2}]


def test_row_sums():
    table = series.inversion_table(12)
    for n in range(1, 13):
        assert sum(table[n].values()) == 2**n - n


def test_single_zero_inversion_permutation_per_size():
    table = series.inversion_table(10)
    for n in range(1, 11):
        assert table[n][0] == 1


def test_matches_oracle_histogram(harness):
    assert harness("series.coefficients_vs_oracle", perm_cap=8).passed


def test_max_inversions_bound():
    table = series.inversion_table(10)
    for n in range(1, 11):
        assert max(table[n]) == n * n // 4


def test_rows_are_row_major():
    rows = series.inversion_rows(4)
    assert rows == sorted(rows)
    assert rows[0] == (0, 0, 1)


def shift_multiply_by_convolution(series_rows, max_n, r):
    """x/(1 - x t^r) = sum_{i>=1} x^i t^(r(i-1)), term by term: the reference
    for the division recurrence."""
    out = [{} for _ in range(max_n + 1)]
    for n, row in enumerate(series_rows):
        for inv, c in row.items():
            for i in range(1, max_n - n + 1):
                key = inv + r * (i - 1)
                out[n + i][key] = out[n + i].get(key, 0) + c
    return out


@pytest.mark.parametrize("r", [1, 2, 5])
def test_shift_multiply_matches_the_convolution(r):
    rows = [{0: 1}, {}, {1: 2, 3: -1}, {0: 4}, {}, {2: 7}, {}, {}]
    assert series._shift_multiply(rows, 7, r) == shift_multiply_by_convolution(rows, 7, r)


def test_size_past_the_cap_refused():
    assert sum(series.inversion_table(40)[40].values()) == 2**40 - 40
    with pytest.raises(CapExceededError, match="up to 120, not 121"):
        series.inversion_table(series.MAX_N + 1)
