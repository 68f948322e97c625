from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from grassperm import classes, core, patterns
from grassperm.errors import DomainError

words_up_to = lambda top: [
    format(x, f"0{n}b") if n else ""
    for n in range(top + 1)
    for x in range(2**n)
]


def comprehension_decode(w):
    """Decoding position by position: the reference for the byte-mask form."""
    core.check_word(w)
    zeros = [i + 1 for i, c in enumerate(w) if c == "0"]
    ones = [i + 1 for i, c in enumerate(w) if c == "1"]
    return tuple(zeros + ones)


def words_decoding_to(p):
    """The words of length len(p) that decode to ``p``, by brute force."""
    return {w for w in words_up_to(len(p)) if core.grassmannian_of_word(w) == p}


def assert_round_trip(w):
    """``w`` is recovered from its permutation: as the canonical word, or
    among the identity words when it decodes to the identity."""
    p = core.grassmannian_of_word(w)
    if core.is_identity(p):
        assert w in core.identity_words(len(w))
    else:
        assert core.canonical_word(p) == w


def direct_inversions(p):
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )


class TestEncoding:
    def test_example_word(self):
        assert core.grassmannian_of_word("000101110") == (1, 2, 3, 5, 9, 4, 6, 7, 8)

    def test_all_zeros_is_identity(self):
        for n in range(6):
            assert core.grassmannian_of_word("0" * n) == core.identity_permutation(n)

    def test_two_ones_two_zeros(self):
        assert core.grassmannian_of_word("1100") == (3, 4, 1, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            core.grassmannian_of_word("0102")

    def test_words_of_nonidentity_is_singleton(self):
        for p, w in [((3, 4, 1, 2), "1100"), ((1, 2, 3, 5, 9, 4, 6, 7, 8), "000101110")]:
            assert core.canonical_word(p) == w
            assert words_decoding_to(p) == {w}

    def test_words_of_identity(self):
        assert core.identity_words(2) == ["11", "01", "00"]
        assert core.identity_words(0) == [""]
        for n in range(6):
            assert words_decoding_to(core.identity_permutation(n)) == set(core.identity_words(n))

    def test_words_of_rejects_two_descents(self):
        with pytest.raises(DomainError):
            core.canonical_word((3, 2, 1))
        assert words_decoding_to((3, 2, 1)) == set()

    def test_canonical_word_of_identity(self):
        assert core.canonical_word((1, 2, 3)) == "000"

    def test_matches_the_comprehension_decode(self):
        for w in words_up_to(14):
            assert core.grassmannian_of_word(w) == comprehension_decode(w), w

    def test_round_trip_all_words(self):
        for w in words_up_to(12):
            assert_round_trip(w)

    def test_grassmannian_count(self):
        for n in range(1, 13):
            assert len(core.grassmannian_permutations(n)) == 2**n - n


# Every function that takes a Grassmannian permutation, and the part of its
# refusal that names what is wrong.
GRASSMANNIAN_CLASSIFIERS = {
    "is_bigrassmannian": (classes.is_bigrassmannian, "not Grassmannian"),
    "is_grassmannian_involution": (classes.is_grassmannian_involution, "not Grassmannian"),
    "canonical_word": (core.canonical_word, "not Grassmannian"),
    "avoiding_words": (lambda p: patterns.avoiding_words(4, p), "pattern is not Grassmannian"),
}


class TestGrassmannianType:
    @pytest.mark.parametrize(
        "p,message",
        [
            ((1, 1, 2), "not a permutation of [n]: (1, 1, 2)"),
            ([3, 2, 1], "not Grassmannian: (3, 2, 1)"),
        ],
    )
    def test_refuses_with_the_check_messages(self, p, message):
        for build in (core.Grassmannian, core.check_grassmannian):
            with pytest.raises(DomainError) as exc:
                build(p)
            assert str(exc.value) == message

    def test_accepts_exactly_the_grassmannian_permutations(self):
        for n in range(6):
            for p in permutations(range(1, n + 1)):
                if core.descent_count(p) <= 1:
                    assert type(core.Grassmannian(p)) is core.Grassmannian
                    assert core.Grassmannian(p) == p
                else:
                    with pytest.raises(DomainError, match="not Grassmannian"):
                        core.Grassmannian(p)

    def test_is_its_tuple_in_sets_and_dicts(self):
        p = core.Grassmannian((3, 4, 1, 2))
        assert p == (3, 4, 1, 2) and hash(p) == hash((3, 4, 1, 2))
        assert {p} == {(3, 4, 1, 2)} and {(3, 4, 1, 2): 1}[p] == 1
        assert repr(p) == repr((3, 4, 1, 2)) and f"{p}" == "(3, 4, 1, 2)"
        assert sorted([p, (1, 2)]) == [(1, 2), (3, 4, 1, 2)]
        with pytest.raises(AttributeError):
            p.n = 4

    @pytest.mark.parametrize("name", GRASSMANNIAN_CLASSIFIERS)
    @pytest.mark.parametrize("p", [(3, 2, 1), (2, 1, 4, 3)])
    def test_classifiers_refuse_a_plain_non_grassmannian_tuple(self, name, p):
        classify, message = GRASSMANNIAN_CLASSIFIERS[name]
        with pytest.raises(DomainError, match=message):
            classify(p)

    def test_check_takes_a_typed_permutation_unscanned(self, monkeypatch):
        scanned = []
        scan = core.is_permutation
        monkeypatch.setattr(core, "is_permutation", lambda p: scanned.append(p) or scan(p))
        typed = core.Grassmannian((3, 4, 1, 2))
        assert scanned == [(3, 4, 1, 2)]
        assert core.check_grassmannian(typed) is typed
        assert core.canonical_word(typed) == "1100" and scanned == [(3, 4, 1, 2)]
        # a plain tuple is scanned on every call, and comes back typed
        assert type(core.check_grassmannian((1, 2))) is core.Grassmannian
        assert scanned == [(3, 4, 1, 2), (1, 2)]

    def test_listing_is_typed(self):
        for n in range(9):
            listed = core.grassmannian_permutations(n)
            assert {type(p) for p in listed} == {core.Grassmannian}, n
            words = [format(x, f"0{n}b") if n else "" for x in range(2**n)]
            assert listed == sorted(set(map(core.grassmannian_of_word, words)))


class TestDescents:
    @pytest.mark.parametrize(
        "p,count",
        [((1, 2, 3), 0), ((3, 4, 1, 2), 1), ((3, 2, 1), 2), ((), 0)],
    )
    def test_descent_count(self, p, count):
        assert core.descent_count(p) == count

    def test_is_grassmannian(self):
        assert core.is_grassmannian((3, 4, 1, 2))
        assert not core.is_grassmannian((3, 2, 1))
        assert core.is_grassmannian(())


class TestFixedPoints:
    def test_identity(self):
        assert core.fixed_points((1, 2, 3, 4)) == {1, 2, 3, 4}

    def test_no_fixed_points(self):
        assert core.fixed_points((3, 4, 1, 2)) == set()

    @pytest.mark.parametrize("a", range(3))
    @pytest.mark.parametrize("b", range(3))
    @pytest.mark.parametrize("inner", ["", "0", "1", "01", "10", "0110"])
    def test_sandwiched_block_form(self, a, b, inner):
        # words 0^a 1 w' 0 1^b pin the fixed points at both ends
        w = "0" * a + "1" + inner + "0" + "1" * b
        n = len(w)
        p = core.grassmannian_of_word(w)
        expected = set(range(1, a + 1)) | set(range(n - b + 1, n + 1))
        assert core.fixed_points(p) == expected


class TestWordStatistics:
    def test_a_sequence_example(self):
        assert core.a_sequence("1010") == (0, 1, 1)
        assert core.inversion_count("1010") == 3

    def test_constant_words_have_no_inversions(self):
        for n in range(6):
            assert core.inversion_count("0" * n) == 0
            assert core.inversion_count("1" * n) == 0

    def test_inversion_count_pair_example(self):
        assert core.inversion_count("1100") == 4

    def test_a_sequence_round_trip(self):
        for w in words_up_to(10):
            a = core.a_sequence(w)
            assert "0".join("1" * x for x in reversed(a)) == w

    def test_inversions_match_permutation(self):
        for w in words_up_to(12):
            p = core.grassmannian_of_word(w)
            assert core.inversion_count(w) == direct_inversions(p)

    def test_parity_criterion(self):
        # an odd number of odd entries among (a_1, a_3, a_5, ...)
        for w in words_up_to(12):
            a = core.a_sequence(w)
            assert core.is_odd_word(w) == (sum(x % 2 for x in a[1::2]) % 2 == 1)

    @pytest.mark.parametrize(
        "w,odd", [("1010", True), ("1100", False), ("", False)]
    )
    def test_is_odd_word_examples(self, w, odd):
        assert core.is_odd_word(w) is odd


@given(st.text(alphabet="01", max_size=40))
def test_round_trip_property(w):
    p = core.grassmannian_of_word(w)
    assert core.descent_count(p) <= 1
    assert_round_trip(w)
    assert core.inversion_count(w) == direct_inversions(p)


FOREIGN = [" ", "\n", "\t", "\u00a0", "\u0663", "\uff11", "2", "U", "D", "x"]


@given(st.text(st.sampled_from("01") | st.sampled_from(FOREIGN) | st.characters()))
def test_check_word_rejects_exactly_foreign_characters(w):
    # non-ASCII digits such as U+0663 and U+FF11 parse as int() digits
    if all(c in "01" for c in w):
        assert core.check_word(w) == w
    else:
        with pytest.raises(DomainError):
            core.check_word(w)


@given(st.text(st.sampled_from("01") | st.sampled_from(FOREIGN), max_size=20))
def test_decode_rejects_what_the_comprehension_rejects(w):
    try:
        expected = comprehension_decode(w)
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            core.grassmannian_of_word(w)
        assert str(raised.value) == str(exc)
    else:
        assert core.grassmannian_of_word(w) == expected


@given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
def test_a_sequence_inverse_property(a):
    a = tuple(a)
    assert core.a_sequence("0".join("1" * x for x in reversed(a))) == a
