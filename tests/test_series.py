import pytest

from grassperm import series
from grassperm.errors import DomainError


def test_small_rows():
    table = series.inversion_table(3)
    assert table.row(0) == {0: 1}
    assert table.row(1) == {0: 1}
    assert table.row(2) == {0: 1, 1: 1}
    assert table.row(3) == {0: 1, 1: 2, 2: 2}


def test_row_sums():
    table = series.inversion_table(12)
    for n in range(1, 13):
        assert sum(table.row(n).values()) == 2**n - n


def test_single_zero_inversion_permutation_per_size():
    table = series.inversion_table(10)
    for n in range(1, 11):
        assert table.row(n)[0] == 1


def test_matches_oracle_histogram(harness):
    assert harness("series.coefficients_vs_oracle", perm_cap=8).passed


def test_max_inversions_bound():
    table = series.inversion_table(10)
    for n in range(1, 11):
        assert max(table.row(n)) == n * n // 4


def test_rows_are_row_major():
    rows = series.inversion_table(4).rows()
    assert rows == sorted(rows)
    assert rows[0] == (0, 0, 1)


def test_row_outside_table_rejected():
    with pytest.raises(DomainError):
        series.inversion_table(3).row(4)
