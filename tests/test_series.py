import pytest

from grassperm import cli, series


def test_small_rows():
    assert series.inversion_rows(3) == [
        (0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 2), (3, 2, 2)
    ]


def test_single_zero_inversion_permutation_per_size():
    assert [c for n, i, c in series.inversion_rows(10) if i == 0] == [1] * 11


def test_matches_oracle_histogram(harness):
    assert harness("series.coefficients_vs_oracle", perm_cap=8).passed


def test_max_inversions_bound():
    top = {}
    for n, i, _ in series.inversion_rows(10):
        top[n] = max(top.get(n, 0), i)
    assert top == {n: n * n // 4 for n in range(11)}


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
        # the row order is part of the contract
        assert series.inversion_rows(max_n) == [
            (n, inv, c) for n, row in enumerate(expansion[: max_n + 1]) for inv, c in row.items()
        ]


def test_every_row_is_positive_and_sums_to_the_nonidentity_words():
    # the recurrence builds its rows unchecked; every size the gf table
    # serves is held to the count of words less the identity's extra ones
    cap = cli.TABLE_CAPS["gf"]
    rows = series.inversion_rows(cap)
    assert [(n, i) for n, i, _ in rows] == [
        (n, i) for n in range(cap + 1) for i in range(n * n // 4 + 1)
    ]
    assert min(c for _, _, c in rows) > 0
    sums = [0] * (cap + 1)
    for n, _, c in rows:
        sums[n] += c
    assert sums == [2**n - n for n in range(cap + 1)]


def test_size_past_the_cap_refused(capsys):
    # the cap is the command's: the builder serves any size, and the table
    # refuses one past 120
    assert sum(c for n, _, c in series.inversion_rows(40) if n == 40) == 2**40 - 40
    assert cli.main(["table", "--quantity", "gf", "--n-max", "121"]) == 3
    assert capsys.readouterr() == ("", "error: n_max 121 over cap 120\n")
