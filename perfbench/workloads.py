"""The benchmark's workloads: the CLI commands each one runs, and the check
that each command's output must pass.

Every expected value is computed here, in the benchmark process, with its
own code: the word counts by the binomial-difference form (the CLI's
production path is the recurrence), the words, paths and bijection traces
by direct decoding, and the fixed-size outputs by SHA-256 digests of the
bytes the package printed when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

# A check returns None when the output is right, else a one-line reason.
Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check
    repeat: int = 1  # runs per pass: more samples of the short commands


# --- reference values -------------------------------------------------------


def binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1) if n >= 0 else 0


def ref_words(k: int, m: int) -> int:
    """Length-m words avoiding every 0^j 1^(k-j), by binomial differences."""
    if k <= 0 or m < 0:
        return 0
    return sum(binom(m, k - a) - binom(m, k) for a in range(1, 2 * k - m))


def ref_odd_words(k: int, m: int) -> int:
    """The odd ones among them, from word counts at halved parameters."""
    if k <= 0 or m <= 0:
        return 0
    if k % 2 == 0 and m % 2 == 0:
        doubled = (
            ref_words(k, m)
            + ref_words(k // 2, (m - 2) // 2)
            - ref_words(k // 2, m // 2)
            - ref_words((k - 2) // 2, (m - 2) // 2)
        )
    else:
        doubled = ref_words(k, m) - 2 * ref_words(k // 2, (m - 1) // 2)
    half, odd = divmod(doubled, 2)
    if odd:
        raise ValueError(f"odd doubled count at k={k}, m={m}")
    return half


def _reduced_size(k: int, m: int) -> int:
    if m <= k:
        return m
    return 2 * k - m if (m - k) % 2 == 0 else 2 * k - m - 2


def _odd_bigrass(m: int) -> int:
    if m % 2 == 0:
        return binom(m + 2, 3) // 4
    return (m - 1) * (m + 1) * (m + 3) // 24


def ref_class_count(quantity: str, k: int, m: int) -> int:
    """Class avoider counts, restated from their closed forms."""
    if quantity == "bigrass":
        if m < k:
            return 1 + binom(m + 1, 3)
        return binom(2 * k - m + 1, 3) if m < 2 * k else 0
    if quantity == "invol":
        if m < k:
            return (m * m + 4) // 4
        return (2 * k - m) ** 2 // 4 if m < 2 * k else 0
    t = _reduced_size(k, m)
    if t < 0:
        return 0
    return _odd_bigrass(t) if quantity == "bigrass-odd" else (t + 1) ** 2 // 8


def ref_fixed(n: int, k: int) -> int:
    if k == n:
        return 1
    return 0 if k == n - 1 else (k + 1) * 2 ** (n - k - 2)


def ref_total(quantity: str, k: int) -> int:
    """Totals over all lengths, as sums of the per-length counts."""
    if quantity == "total-odd":
        return sum(ref_odd_words(k, m) for m in range(2 * k - 1))
    words = sum(ref_words(k, m) for m in range(2 * k - 1))
    # Below length k every word avoids, and the identity of size m has m + 1
    # words; counting permutations drops the m surplus ones.
    return words if quantity == "total-words" else words - sum(range(k))


# --- words and paths --------------------------------------------------------


def longest_01(w: str) -> int:
    """Length of the longest subsequence of the form 0*1*; w avoids every
    0^j 1^(k-j) exactly when this is below k."""
    ones_after = w.count("1")
    best, zeros = ones_after, 0
    for c in w:
        if c == "0":
            zeros += 1
        else:
            ones_after -= 1
        best = max(best, zeros + ones_after)
    return best


def inversions(w: str) -> int:
    ones = total = 0
    for c in w:
        if c == "1":
            ones += 1
        else:
            total += ones
    return total


def a_sequence(w: str) -> tuple[int, ...]:
    """1-runs between the 0-bits, read from the right end of the word."""
    return tuple(len(run) for run in reversed(w.split("0")))


def word_of_runs(runs: list[int]) -> str:
    return "0".join("1" * r for r in reversed(runs))


def heights(steps: str) -> list[int]:
    h, out = 0, [0]
    for c in steps:
        h += 1 if c == "U" else -1
        out.append(h)
    return out


def peak_heights(steps: str) -> list[int]:
    hs = heights(steps)
    return [hs[i + 1] for i in range(len(steps) - 1) if steps[i : i + 2] == "UD"]


def dyck_to_word(k: int, steps: str) -> str:
    """Invert U^(k-j) D^(a0+1) (U D^ai for i = 1..j) U D^(k+j-m)."""
    first_run = len(steps) - len(steps.lstrip("U"))
    j = k - first_run
    downs = [len(run) for run in steps[first_run:].split("U")]
    return word_of_runs([downs[0] - 1] + downs[1 : j + 1])


def lattice_to_word(steps: str) -> str:
    """Invert D^a0 U D^a1 ... U D^aj."""
    return word_of_runs([len(run) for run in steps.split("U")])


def random_avoiding_word(rng: random.Random, k: int) -> str:
    while True:
        m = rng.randint(k, k + k // 2)
        w = "".join(rng.choice("01") for _ in range(m))
        if longest_01(w) < k:
            return w


# --- checks -----------------------------------------------------------------


def expect_value(value: int) -> Check:
    def check(out: str) -> str | None:
        got = out.splitlines()
        return None if got == [str(value)] else f"expected {value}, got {out[:80]!r}"

    return check


def expect_digest(digest: str, lines: int) -> Check:
    def check(out: str) -> str | None:
        n = out.count("\n")
        if n != lines:
            return f"expected {lines} lines, got {n}"
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"digest {got[:16]} differs from {digest[:16]}"

    return check


def check_verify(out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) < 2:
        return "verify printed no checks"
    for line in lines[:-1]:
        status, _, cells, unit = line.split(" ")
        actual, expected = cells.split("/")
        if status != "PASS" or actual != expected or unit != "cells":
            return f"not a PASS line: {line[:80]!r}"
    n = len(lines) - 1
    if lines[-1] != f"{n}/{n} checks passed":
        return f"bad summary line {lines[-1]!r}"
    return None


def expect_words(k: int, m: int) -> Check:
    count = ref_words(k, m)

    def check(out: str) -> str | None:
        words = out.splitlines()
        if len(words) != count:
            return f"expected {count} words, got {len(words)}"
        for prev, w in zip([""] + words, words):
            if len(w) != m or w.strip("01") or longest_01(w) >= k:
                return f"not an avoiding word: {w!r}"
            if w <= prev and prev:
                return f"not sorted: {prev!r} before {w!r}"
        return None

    return check


def expect_parity_table(k_max: int, digest: str) -> Check:
    digest_check = expect_digest(digest, k_max * k_max + 1)

    def check(out: str) -> str | None:
        rows = out.splitlines()
        for row in rows[1:]:
            _, _, b, o, e = (int(v) for v in row.split(","))
            if o + e != b:
                return f"O + E != B in row {row!r}"
        return digest_check(out)

    return check


def _fields(out: str) -> dict[str, str]:
    return dict(
        tok.split("=", 1) for line in out.splitlines() for tok in line.split() if "=" in tok
    )


def expect_word_to_dyck(k: int, w: str) -> Check:
    def check(out: str) -> str | None:
        f = _fields(out)
        steps = f.get("dyck", "")
        hs = heights(steps)
        if min(hs) < 0 or hs[-1] != 0 or len(steps) != 2 * (k + 1):
            return f"not a Dyck path of semilength {k + 1}"
        ps = peak_heights(steps)
        if f.get("peak_sum") != str(ps[0] + ps[-1]) or ps[0] + ps[-1] != 2 * k - len(w):
            return "first and last peak heights do not sum to 2k - m"
        if f.get("word") != w or f.get("a") != ",".join(map(str, a_sequence(w))):
            return "word or a-sequence line is wrong"
        return None if dyck_to_word(k, steps) == w else "path does not decode to the word"

    return check


def expect_word_to_lattice(k: int, w: str) -> Check:
    def check(out: str) -> str | None:
        f = _fields(out)
        steps = f.get("lattice", "")
        if lattice_to_word(steps) != w or f.get("word") != w:
            return "lattice path does not decode to the word"
        floor = steps.count("U") - k + 1
        if f.get("floor") != str(floor) or min(heights(steps)) < floor:
            return "floor line is wrong"
        if f.get("toggle") == "none":
            return None
        partner = lattice_to_word(f.get("toggle", ""))
        if partner != f.get("toggle_word") or longest_01(partner) >= k:
            return "toggled path is not an avoiding word's path"
        if inversions(partner) % 2 == inversions(w) % 2:
            return "toggle kept the parity"
        return None

    return check


# --- workloads --------------------------------------------------------------


def cli(line: str, check: Check, repeat: int = 1) -> Command:
    return Command(tuple(line.split()), check, repeat)


def verify_commands(rng: random.Random) -> list[Command]:
    cmds = [
        cli("verify", check_verify, repeat=2),
        # perm-cap 9, not 10: the run then takes about 11 s instead of 14,
        # and a run has room for two of them.
        cli("verify --k-max 8 --perm-cap 9 --word-cap 14", check_verify),
    ]
    rng.shuffle(cmds)
    return cmds


def word_count_command(quantity: str, k: int, m: int) -> Command:
    if quantity == "O":
        value = ref_odd_words(k, m)
    elif quantity == "E":
        value = ref_words(k, m) - ref_odd_words(k, m)
    else:
        value = ref_words(k, m)
    return cli(f"count --quantity {quantity} --k {k} --m {m}", expect_value(value))


def point_query_commands(rng: random.Random) -> list[Command]:
    # B, O and E go through the recurrence, whose cost grows with k and
    # hardly with m, and O costs more than B, so each rung of a fixed ladder
    # of k asks for a fixed one of the three, and the seed picks m.  That
    # keeps the latency profile the same for every seed, and places the p75
    # query among them and the p50 query among the start-up-bound ones.
    # They run twice a pass, since a run holds only a few passes and the
    # p75 and the slowest query are single commands.
    heavy = ("B", "O", "E")
    cmds = []
    for i in range(18):
        k = 100 + round(i * 300 / 17)
        m = rng.randint(0, 2 * k - 2)
        cmds.append(replace(word_count_command(heavy[i % 3], k, m), repeat=2))
    for _ in range(6):
        k = rng.randint(100, 400)
        cmds.append(word_count_command("A", k, rng.randint(0, 2 * k - 2)))
    for quantity in ("bigrass", "bigrass-odd", "invol", "invol-odd"):
        k = rng.randint(2, 400)
        m = rng.randint(0, 2 * k + 4)
        value = ref_class_count(quantity, k, m)
        cmds.append(cli(f"count --quantity {quantity} --k {k} --m {m}", expect_value(value)))
    for _ in range(2):
        n = rng.randint(100, 400)
        k = rng.randint(0, n)
        cmds.append(cli(f"count --quantity fixed --n {n} --k {k}", expect_value(ref_fixed(n, k))))
    for quantity in ("total-words", "total-perms", "total-odd"):
        k = rng.randint(50, 150)
        value = ref_total(quantity, k)
        cmds.append(cli(f"count --quantity {quantity} --k {k}", expect_value(value)))
    for i in range(7):
        k = rng.randint(20, 200)
        w = random_avoiding_word(rng, k)
        if i % 2:
            check, bijection = expect_word_to_lattice(k, w), "word-to-lattice"
        else:
            check, bijection = expect_word_to_dyck(k, w), "word-to-dyck"
        cmds.append(cli(f"biject {bijection} --k {k} --input {w}", check))
    rng.shuffle(cmds)
    return cmds


# Digests of the fixed-size outputs, taken from the package as first
# benchmarked; the ROADMAP keeps CLI bytes stable across refactors.
DIGESTS = {
    "parity": "40569d1e57443309164988da6272a3159dbd1fa4608ab95d62c35a4493e31f0d",
    "gf": "d177b64231537412013bf1cb829197497195b8fe42be1fa43e5c4922facd62ee",
    "classes": "d7893237f91ca6bd4e77a530d68b12714e265e213486ebc12281b7f224b4343d",
    "dyck": "7e259915c366d3ee3666879355242224b69a17f37329787b8223ed125e461650",
    "avoiders": "1c173492e5f9f1a24d815dd206806d922d78aca4bff3b6c0caa4a7911f4cc91a",
}


def bulk_output_commands(rng: random.Random) -> list[Command]:
    # The words cells are fixed: the alternatives at the same 2^14 words
    # tested print 3k to 16k lines for the same time, which would make
    # rows_per_s follow the seed instead of the code.  The seed only orders
    # the commands.  Every command takes about a second or less, so that a
    # run holds several samples of each; the two slowest, which give the
    # p75 and the slowest command, run twice a pass.
    cmds = [
        cli(
            "table --quantity parity --k-max 100",
            expect_parity_table(100, DIGESTS["parity"]),
            repeat=3,
        ),
        cli("table --quantity gf --n-max 40", expect_digest(DIGESTS["gf"], 5572), repeat=3),
        cli(
            "table --quantity classes --m-max 300",
            expect_digest(DIGESTS["classes"], 1205),
            repeat=3,
        ),
        cli(
            "enumerate dyck --n 11 --stats peaks",
            expect_digest(DIGESTS["dyck"], catalan(11)),
            repeat=2,
        ),
        cli("enumerate words --k 11 --m 14", expect_words(11, 14)),
        cli("enumerate words --k 8 --m 14", expect_words(8, 14)),
        cli(
            "enumerate avoiders --n 13 --pattern 2413 --stats inversions",
            expect_digest(DIGESTS["avoiders"], 365),
            repeat=2,
        ),
    ]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {
    "verify": verify_commands,
    "point-queries": point_query_commands,
    "bulk-output": bulk_output_commands,
}
