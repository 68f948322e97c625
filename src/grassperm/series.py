"""
Coefficient table for Grassmannian permutations by size and inversion number.

Under the word encoding (:func:`core.grassmannian_of_word`) the words of
length n with j zeros have the Gaussian binomial [n choose j]_q as their
inversion polynomial, so row n of the table is G_n(q) - n: the Galois number
G_n(q) = sum_j [n choose j]_q, less the n extra identity words at q^0.  The
Galois numbers satisfy the Goldman-Rota recurrence

    G_{n+1} = 2 G_n + (q^n - 1) G_{n-1},    G_0 = 1, G_1 = 2

(Goldman and Rota, "On the foundations of combinatorial theory IV", 1970),
so each row costs what it prints.  Equivalently, the table is the expansion of

    1/(1-x) * [1 + sum_{k>=1} prod_{r=1..k} x/(1 - x t^r)] - x/(1-x)^2

with x marking the size and t the inversions; the tests certify the rows
against that expansion term by term.  :func:`inversion_rows` is the one
builder: the recurrence emits the (n, inversions, count) rows that
``table --quantity gf`` prints, and ``verify`` reads them.
"""

from __future__ import annotations

from .errors import CapExceededError, DomainError

# The cap bounds what is printed: `table --quantity gf --n-max 120` prints
# 145,911 rows.  In process, building them takes 0.05 s of CPU and
# formatting them, one format per row, 0.05 s; the cold command takes
# 0.17 s of CPU (medians of 7 and of 5, 2-vCPU Intel Xeon VM, Python
# 3.11.7).  The row count grows with the cube of n.
MAX_N = 120


def inversion_rows(max_n: int) -> list[tuple[int, int, int]]:
    """The (n, inversions, count) rows of sizes 0 to ``max_n`` by the
    Goldman-Rota recurrence, in row-major order: size n has one row for each
    inversion number from 0 to n^2 // 4, and every count is positive.

    >>> inversion_rows(3)[-3:]
    [(3, 0, 1), (3, 1, 2), (3, 2, 2)]
    """
    if max_n < 0:
        raise DomainError("max_n must be nonnegative")
    if max_n > MAX_N:
        raise CapExceededError(f"inversion table serves sizes up to {MAX_N}, not {max_n}")
    rows: list[tuple[int, int, int]] = []
    # G_{n-1} and G_n as coefficient lists; G_{-1} only meets the factor q^0 - 1 = 0.
    prev, galois = [], [1]
    for n in range(max_n + 1):
        # Each of the n + 1 Gaussian binomials in G_n has positive
        # coefficients from q^0 to its degree, with constant term 1, so row
        # n is 1 at q^0 and positive throughout.
        rows.append((n, 0, galois[0] - n))
        rows.extend((n, i, c) for i, c in enumerate(galois[1:], 1))
        step = [2 * c for c in galois] + [0] * (len(prev) + n - len(galois))
        for inv, c in enumerate(prev):
            step[inv] -= c
            step[inv + n] += c
        prev, galois = galois, step
    return rows
