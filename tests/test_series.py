import pytest

from grassperm import series
from grassperm.errors import CapExceededError


def test_small_rows():
    table = series.inversion_table(3)
    assert table == [{0: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1, 1: 2, 2: 2}]


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
    """Multiply by x/(1 - x t^r) = sum_{i>=1} x^i t^(r(i-1)), term by term,
    truncated past x^max_n."""
    out = [{} for _ in range(max_n + 1)]
    for n, row in enumerate(series_rows):
        for inv, c in row.items():
            for i in range(1, max_n - n + 1):
                key = inv + r * (i - 1)
                out[n + i][key] = out[n + i].get(key, 0) + c
    return out


@pytest.mark.parametrize("r", [1, 2, 5])
def test_shift_multiply_matches_the_convolution(r):
    # The reference must invert multiplication by (1 - x t^r)/x: that is the
    # division recurrence out[n] = series[n-1] + t^r out[n-1].
    rows = [{0: 1}, {}, {1: 2, 3: -1}, {0: 4}, {}, {2: 7}, {}, {}]
    out = shift_multiply_by_convolution(rows, 7, r)
    assert out[0] == {}
    for n in range(1, 8):
        row = dict(rows[n - 1])
        for inv, c in out[n - 1].items():
            row[inv + r] = row.get(inv + r, 0) + c
        assert out[n] == row


def inversion_table_by_expansion(max_n):
    """The generating function of the series docstring, expanded term by
    term up to x^max_n, as rows sorted by inversion number."""
    acc = [{0: 1}] + [{} for _ in range(max_n)]
    prod = [{0: 1}] + [{} for _ in range(max_n)]
    for k in range(1, max_n + 1):
        prod = shift_multiply_by_convolution(prod, max_n, k)
        for n, row in enumerate(prod):
            for inv, c in row.items():
                acc[n][inv] = acc[n].get(inv, 0) + c
    # 1/(1-x) is a running sum over x-degrees; x/(1-x)^2 takes n at x^n t^0.
    running, table = {}, []
    for n in range(max_n + 1):
        for inv, c in acc[n].items():
            running[inv] = running.get(inv, 0) + c
        row = dict(sorted(running.items()))
        row[0] -= n
        table.append({inv: c for inv, c in row.items() if c})
    return table


def test_recurrence_matches_the_expansion():
    expansion = inversion_table_by_expansion(40)
    for max_n in range(41):
        table = series.inversion_table(max_n)
        # items, not dicts: the key order is part of the contract
        assert [list(row.items()) for row in table] == [
            list(row.items()) for row in expansion[: max_n + 1]
        ]


def test_every_row_is_positive_and_sums_to_the_nonidentity_words():
    # the recurrence builds its rows unchecked; every row up to the cap is
    # held to the count of words less the identity's extra ones
    for n, row in enumerate(series.inversion_table(series.MAX_N)):
        assert list(row) == list(range(n * n // 4 + 1))
        assert min(row.values()) > 0
        assert sum(row.values()) == 2**n - n


def test_size_past_the_cap_refused():
    assert sum(series.inversion_table(40)[40].values()) == 2**40 - 40
    with pytest.raises(CapExceededError, match="up to 120, not 121"):
        series.inversion_table(series.MAX_N + 1)
