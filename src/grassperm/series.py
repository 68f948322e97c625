"""
Bivariate coefficient table for Grassmannian permutations by size and
inversion number.

The table is the truncated expansion of

    1/(1-x) * [1 + sum_{k>=1} prod_{r=1..k} x/(1 - x t^r)] - x/(1-x)^2

with x marking the size and t the inversions.  The k-th product expands the
words with k zeros (each factor supplies one zero plus the 1-run before it,
whose inversions come r at a time); the leading 1/(1-x) supplies the final
1-run; the subtracted term removes the n extra identity words of each size.
The k-sum truncates itself: the k-th product starts at x^k.

Series arithmetic is exact: a series is a list indexed by the x-degree
whose entries are {t-degree: integer coefficient} dicts.
"""

from __future__ import annotations

from .errors import CapExceededError, DomainError

Row = dict[int, int]

# The largest size expanded: the 145,912 rows up to 120 take about 2.5 s to
# print (2-vCPU VM, Python 3.11), and the cost grows with the fourth power.
MAX_N = 120


def _shift_multiply(series: list[Row], max_n: int, r: int) -> list[Row]:
    """Multiply by x/(1 - x t^r), truncated, by the division recurrence
    out[n] = series[n-1] + t^r out[n-1]."""
    out: list[Row] = [{}]
    for n in range(1, max_n + 1):
        row = dict(series[n - 1])
        for inv, c in out[n - 1].items():
            row[inv + r] = row.get(inv + r, 0) + c
        out.append(row)
    return out


def inversion_table(max_n: int) -> list[Row]:
    """Expand the generating function up to size ``max_n``: row n maps each
    inversion number to its count, in ascending order, zero counts dropped.

    >>> inversion_table(3)[3]
    {0: 1, 1: 2, 2: 2}
    """
    if max_n < 0:
        raise DomainError("max_n must be nonnegative")
    if max_n > MAX_N:
        raise CapExceededError(f"inversion table serves sizes up to {MAX_N}, not {max_n}")
    acc: list[Row] = [{0: 1}] + [{} for _ in range(max_n)]
    prod: list[Row] = [{0: 1}] + [{} for _ in range(max_n)]
    for k in range(1, max_n + 1):
        prod = _shift_multiply(prod, max_n, k)
        for n, row in enumerate(prod):
            for inv, c in row.items():
                acc[n][inv] = acc[n].get(inv, 0) + c
    # Multiply by 1/(1-x): running sum over x-degrees, less the n extra
    # zero-inversion (identity) words at each size n >= 1.
    running: Row = {}
    table: list[Row] = []
    for n in range(max_n + 1):
        for inv, c in acc[n].items():
            running[inv] = running.get(inv, 0) + c
        row = dict(sorted(running.items()))
        row[0] -= n
        for inv, c in row.items():
            if c < 0:
                raise DomainError(f"negative coefficient at (n={n}, inv={inv})")
        table.append({inv: c for inv, c in row.items() if c})
    return table


def inversion_rows(max_n: int) -> list[tuple[int, int, int]]:
    """The (n, inversions, count) rows of :func:`inversion_table`, in
    row-major order."""
    return [(n, i, c) for n, row in enumerate(inversion_table(max_n)) for i, c in row.items()]
