from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from grassperm import core, counting, patterns
from grassperm.errors import DomainError

word = st.text(alphabet="01", max_size=12)


def filtered_avoiders(n, pattern):
    """The avoiders by testing all 2^n words of length n, decoded and sorted."""
    u = core.canonical_word(pattern)
    words = (format(x, f"0{n}b") if n else "" for x in range(2**n))
    avoiders = {
        core.grassmannian_of_word(w) for w in words if not patterns.grassmannian_contains(w, u)
    }
    return sorted(avoiders)


def ranks(seq):
    """Each entry's rank among the entries of ``seq``, from 0."""
    order = sorted(seq)
    return tuple(order.index(v) for v in seq)


def brute_contains(sigma, pi):
    """Containment by testing every subsequence of ``sigma`` of the length
    of ``pi`` for the ranks of ``pi``."""
    target = ranks(pi)
    return any(ranks(sub) == target for sub in combinations(sigma, len(pi)))


def merged_avoiders(n, pattern):
    """The avoiders as the generated words, decoded into a set and sorted:
    the reference for dropping the identity's extra words before decoding."""
    if core.is_identity(pattern):
        words = patterns.enumerate_avoiding_words(len(pattern), n)
    else:
        words = patterns._words_avoiding(n, core.canonical_word(pattern))
    return sorted({core.grassmannian_of_word(w) for w in words})


class TestWordContainment:
    def test_scattered_match(self):
        assert patterns.word_contains("01001101100", "1100")

    def test_no_scattered_match(self):
        assert not patterns.word_contains("01001101100", "001001")

    def test_empty_pattern_always_contained(self):
        assert patterns.word_contains("", "")
        assert patterns.word_contains("0110", "")

    @given(word, word)
    def test_containment_is_reflexive_on_prefixes(self, u, v):
        assert patterns.word_contains(u + v, u)
        assert patterns.word_contains(u + v, v)

    @given(word, word, word)
    def test_containment_is_transitive(self, u, v, w):
        if patterns.word_contains(u, v) and patterns.word_contains(v, w):
            assert patterns.word_contains(u, w)


class TestPermutationContainment:
    def test_self_containment(self):
        assert patterns.permutation_contains((2, 4, 1, 3), (2, 4, 1, 3))

    def test_increasing_subsequence(self):
        assert patterns.permutation_contains((1, 2, 3, 5, 9, 4, 6, 7, 8), (1, 2, 3, 4))

    def test_avoids_longer_increasing(self):
        assert not patterns.permutation_contains((3, 4, 1, 2), (1, 2, 3))

    def test_matches_every_subsequence_on_small_hosts(self):
        pats = [p for m in range(5) for p in permutations(range(1, m + 1))]
        for n in range(7):
            for sigma in permutations(range(1, n + 1)):
                for pi in pats:
                    assert patterns.permutation_contains(sigma, pi) == brute_contains(
                        sigma, pi
                    ), (sigma, pi)

    def test_matches_every_subsequence_on_grassmannian_hosts(self):
        for n in range(10):
            for sigma in core.grassmannian_permutations(n):
                for pi in ((2, 4, 1, 3), (3, 4, 1, 2)):
                    assert patterns.permutation_contains(sigma, pi) == brute_contains(
                        sigma, pi
                    ), (sigma, pi)

    def test_any_distinct_values(self):
        # values need not be 1..n, nor integers
        assert patterns.permutation_contains((30, -5, 12, 7.5), (9, 2, 4))
        assert not patterns.permutation_contains(("b", "d", "a", "c"), (3, 2, 1))
        assert patterns.permutation_contains(("b", "d", "a", "c"), ("x", "z", "w", "y"))

    def test_matches_word_containment(self):
        # exhaustive over hosts of length <= 8 and patterns of length <= 4
        hosts = [
            format(x, f"0{n}b") if n else ""
            for n in range(9)
            for x in range(2**n)
        ]
        pats = [format(x, f"0{n}b") for n in range(1, 5) for x in range(2**n)]
        for wp in hosts:
            gp = core.grassmannian_of_word(wp)
            for w in pats:
                assert patterns.grassmannian_contains(wp, w) == (
                    patterns.permutation_contains(gp, core.grassmannian_of_word(w))
                ), (wp, w)


class TestGrassmannianContainment:
    def test_plain_subsequence_case(self):
        assert patterns.grassmannian_contains("1100", "10")

    def test_identity_case_avoider(self):
        assert not patterns.grassmannian_contains("1010", "000")

    def test_identity_case_container(self):
        assert patterns.grassmannian_contains("0011", "000")

    @given(word, st.integers(0, 14), st.data())
    def test_identity_case_is_any_identity_word(self, w, k, data):
        # every word 0^j 1^(k-j) names the identity of size k
        j = data.draw(st.integers(0, k))
        contained = any(patterns.word_contains(w, u) for u in core.identity_words(k))
        assert patterns.grassmannian_contains(w, "0" * j + "1" * (k - j)) == contained
        assert patterns.is_avoiding_word(k, w) == (not contained)


class TestEnumerateAvoidingWords:
    def test_small_table(self):
        assert patterns.enumerate_avoiding_words(3, 4) == ["1010", "1100"]

    def test_equals_brute_force_filter(self):
        # a word that avoids at k avoids at k + 1, so each k filters the
        # words kept at k + 1 rather than all 2^m words again
        for m in range(17):
            kept = [format(x, f"0{m}b") if m else "" for x in range(2**m)]
            for k in range(9, -1, -1):
                kept = [w for w in kept if patterns.is_avoiding_word(k, w)]
                assert patterns.enumerate_avoiding_words(k, m) == sorted(kept), (k, m)

    def test_empty_word_always_avoids(self):
        for k in range(1, 5):
            assert patterns.enumerate_avoiding_words(k, 0) == [""]

    def test_nothing_at_long_lengths(self):
        for k in range(1, 5):
            assert patterns.enumerate_avoiding_words(k, 2 * k - 1) == []

    def test_k_zero_is_empty(self):
        assert patterns.enumerate_avoiding_words(0, 3) == []

    def test_pattern_far_longer_than_words(self):
        # every word avoids, and no word pays for the length of the pattern
        words = patterns.enumerate_avoiding_words(10**7, 10)
        assert words == [format(x, "010b") for x in range(2**10)]

    def test_counts_match_avoider_permutations(self, harness):
        check = harness("counting.word_count_vs_permutation_count", k_max=7, word_cap=12)
        assert check.passed


class TestEnumerateAvoiders:
    def test_matches_backtracking_filter(self):
        # every Grassmannian pattern of size <= 5, the empty one included
        pats = [p for n in range(6) for p in core.grassmannian_permutations(n)]
        for n in range(9):
            hosts = core.grassmannian_permutations(n)
            for pat in pats:
                expected = [p for p in hosts if not patterns.permutation_contains(p, pat)]
                assert patterns.enumerate_avoiders(n, pat) == expected, (n, pat)

    def test_matches_word_filter(self):
        # every Grassmannian pattern of size <= 5, the empty one included
        pats = [p for n in range(6) for p in core.grassmannian_permutations(n)]
        assert len(pats) == 48
        for n in range(11):
            for pat in pats:
                assert patterns.enumerate_avoiders(n, pat) == filtered_avoiders(n, pat), (n, pat)

    def test_matches_the_set_merge(self):
        # every Grassmannian pattern of size <= 5, on hosts up to 12; the
        # identity's n + 1 words all avoid whenever n < k
        pats = [p for n in range(6) for p in core.grassmannian_permutations(n)]
        for n in range(13):
            for pat in pats:
                assert patterns.enumerate_avoiders(n, pat) == merged_avoiders(n, pat), (n, pat)

    def test_rejects_negative_size(self):
        with pytest.raises(DomainError):
            patterns.enumerate_avoiders(-1, (1, 2))

    def test_identity_pattern_size_3(self):
        assert patterns.enumerate_avoiders(3, (1, 2, 3)) == [
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
        ]

    def test_pattern_longer_than_host(self):
        for k in range(2, 6):
            n = k - 1
            avoiders = patterns.enumerate_avoiders(n, core.identity_permutation(k))
            assert len(avoiders) == 2**n - n

    def test_avoiding_21_forces_identity(self):
        assert patterns.enumerate_avoiders(4, (2, 1)) == [(1, 2, 3, 4)]

    def test_rejects_non_grassmannian_pattern(self):
        with pytest.raises(DomainError):
            patterns.enumerate_avoiders(5, (3, 2, 1))

    def test_nonidentity_pattern_count_formula(self):
        # every non-identity pattern of a given size gives the same count
        for k in range(2, 5):
            pats = [
                core.grassmannian_of_word(format(x, f"0{k}b")) for x in range(2**k)
            ]
            pats = [p for p in pats if not core.is_identity(p)]
            for n in range(11):
                expected = counting.nonidentity_avoider_count(n, k)
                for pat in pats:
                    assert len(patterns.enumerate_avoiders(n, pat)) == expected, (
                        n,
                        pat,
                    )

    def test_nonidentity_count_is_certified(self, harness):
        # the 42 non-identity patterns of sizes 2 to 5, on hosts n <= 7
        check = harness("counting.nonidentity_count_vs_enumeration", n_max=7)
        assert check.passed and check.expected == 42 * 8

    def test_nonidentity_pattern_count_spot_k5(self):
        pat = core.grassmannian_of_word("10001")
        assert len(patterns.enumerate_avoiders(10, pat)) == counting.nonidentity_avoider_count(10, 5)
