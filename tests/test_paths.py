import pytest
from hypothesis import given, strategies as st

from grassperm import core, counting, parity, paths, patterns
from grassperm.errors import DomainError


def all_extrema_odd(p):
    return all(h % 2 == 1 for h in paths.peaks(p) + paths.valleys(p))


def assert_statistics_match_extrema(p):
    found = paths.extrema(p)
    peak_heights = [h for _, kind, h in found if kind == "peak"]
    assert paths.peaks(p) == peak_heights
    assert paths.valleys(p) == [h for _, kind, h in found if kind == "valley"]
    assert paths.peak_count(p) == len(peak_heights)


@st.composite
def avoiding_words(draw, k_max=12):
    """A parameter k and a word avoiding every 0^j 1^(k-j).

    Built from a run-length sequence (a_0, ..., a_j) drawn against the
    prefix budgets a_0 + ... + a_i < (k - j) + i, which characterize the
    avoiding words with j zeros.
    """
    k = draw(st.integers(1, k_max))
    j = draw(st.integers(0, k - 1))
    a = []
    total = 0
    for i in range(j + 1):
        budget = (k - j) + i - 1 - total
        a.append(draw(st.integers(0, budget)))
        total += a[-1]
    return k, core.word_from_a_sequence(tuple(a))


class TestStatistics:
    @pytest.mark.parametrize(
        "p,pk,vl",
        [
            ("UUDD", [2], []),
            ("UDUD", [1, 1], [0]),
            ("UDUUDUDD", [1, 2, 2], [0, 1]),
        ],
    )
    def test_peaks_and_valleys(self, p, pk, vl):
        assert paths.peaks(p) == pk
        assert paths.valleys(p) == vl

    def test_match_the_extrema_on_dyck_paths(self):
        for n in range(11):
            for p in paths.enumerate_dyck(n):
                assert_statistics_match_extrema(p)

    @given(st.text(alphabet="UD", max_size=40))
    def test_match_the_extrema_on_step_strings(self, p):
        assert_statistics_match_extrema(p)

    def test_peak_count_rejects_invalid_steps(self):
        with pytest.raises(DomainError):
            paths.peak_count("UDX")

    def test_peak_sum_single_peak_counts_twice(self):
        for n in range(1, 6):
            assert paths.first_last_peak_sum("U" * n + "D" * n) == 2 * n

    def test_peak_sum_sawtooth(self):
        assert paths.first_last_peak_sum("UD" * 5) == 2

    def test_peak_sum_mixed(self):
        assert paths.first_last_peak_sum("UUDDUD") == 3

    def test_peak_sum_rejects_empty(self):
        with pytest.raises(DomainError):
            paths.first_last_peak_sum("")

    def test_rejects_invalid_paths(self):
        with pytest.raises(DomainError):
            paths.check_dyck("UDD")
        with pytest.raises(DomainError):
            paths.check_dyck("DU")
        with pytest.raises(DomainError):
            paths.check_steps("UX")


class TestWordDyckBijection:
    def test_example(self):
        p = paths.word_to_dyck(3, "1100")
        assert paths.semilength(p) == 4
        assert paths.first_last_peak_sum(p) == 2 * 3 - 4

    def test_empty_word(self):
        for k in range(1, 6):
            p = paths.word_to_dyck(k, "")
            assert p == "U" * k + "D" + "U" + "D" * k
            assert paths.first_last_peak_sum(p) == 2 * k

    def test_round_trip_everywhere(self, harness):
        # the check's round_trip cells, for every m <= 2k - 2
        assert harness("paths.word_dyck_bijection", k_max=5, word_cap=8).passed

    def test_image_is_exactly_the_peak_sum_class(self, harness):
        # the check's image_set cells: images distinct and equal to the
        # Dyck paths of semilength k + 1 with peak sum 2k - m
        assert harness("paths.word_dyck_bijection", k_max=5, word_cap=8).passed

    def test_rejects_non_avoiding_word(self):
        with pytest.raises(DomainError):
            paths.word_to_dyck(2, "01")

    def test_rejects_wrong_semilength(self):
        with pytest.raises(DomainError):
            paths.dyck_to_word(3, "UUDD")

    def test_rejects_staircase(self):
        with pytest.raises(DomainError):
            paths.dyck_to_word(3, "UUUUDDDD")


class TestParityOfPaths:
    @pytest.mark.parametrize("p,odd", [("UDUD", True), ("UUDD", False)])
    def test_examples(self, p, odd):
        assert paths.is_odd_dyck(p) is odd

    def test_agreement_with_word_parity_at_max_length(self):
        # at m = 2k - 2 every avoiding word has k - 1 zeros and no trailing
        # ones, so dropping a_0 gives a semilength-(k - 1) Dyck path whose
        # parity matches the word's
        for k in range(2, 7):
            for w in patterns.enumerate_avoiding_words(k, 2 * k - 2):
                a = core.a_sequence(w)
                assert a[0] == 0 and len(a) == k
                p = "".join("U" + "D" * a[i] for i in range(1, k))
                assert paths.is_odd_dyck(p) == core.is_odd_word(w)


class TestToggle:
    def test_figure_pair(self):
        assert paths.toggle_first_even_extremum("UDUUDUDD") == "UUDUDUDD"
        assert paths.toggle_first_even_extremum("UUDUDUDD") == "UDUUDUDD"

    def test_run_sequence_shift(self):
        # the toggle moves one down-step between adjacent runs
        assert paths.dyck_run_sequence("UDUUDUDD") == (1, 0, 1, 2)
        assert paths.dyck_run_sequence("UUDUDUDD") == (0, 1, 1, 2)

    def test_involution_and_parity_flip(self, harness):
        assert harness("paths.even_extremum_toggle", n_max=6).passed

    def test_rejects_all_odd_path(self):
        with pytest.raises(DomainError):
            paths.toggle_first_even_extremum("UD")


class TestHalving:
    def test_smallest(self):
        assert paths.halve_all_odd_path("UD") == ""

    def test_single_tall_peak(self):
        assert paths.halve_all_odd_path("UUUDDD") == "UD"

    def test_counts(self, harness):
        # all-odd counts for n <= 8, halving images for odd n <= 9
        assert harness("paths.even_extremum_toggle", n_max=8).passed
        assert harness("paths.all_odd_halving", n_max=9).passed
        domain = [p for p in paths.enumerate_dyck(9) if all_extrema_odd(p)]
        assert len(domain) == parity.all_odd_extrema_count(9)

    def test_all_odd_paths_are_odd(self, harness):
        # odd n <= 9 by the halving check; even n <= 8 have no such path,
        # their all-odd count being 0
        assert harness("paths.all_odd_halving", n_max=9).passed
        assert harness("paths.even_extremum_toggle", n_max=8).passed

    def test_rejects_even_extremum(self):
        with pytest.raises(DomainError):
            paths.halve_all_odd_path("UUDD")


class TestLattice:
    def test_figure_left_path(self):
        lp = paths.word_to_lattice(5, "110011")
        assert lp.steps == "DDUUDD"
        assert lp.floor == -2

    def test_all_ones(self):
        for m in range(4):
            lp = paths.word_to_lattice(m + 1, "1" * m)
            assert lp.steps == "D" * m

    def test_figure_toggle_pair(self):
        lp = paths.word_to_lattice(5, "110011")
        partner = paths.toggle_lattice_path(lp)
        assert partner.steps == "DUDUDD"
        assert paths.lattice_to_word(partner) == "110101"
        assert paths.toggle_lattice_path(partner) == lp

    def test_round_trip_and_parity(self, harness):
        assert harness("paths.lattice_encoding", k_max=5, word_cap=8).passed

    def test_rejects_word_outside_class(self):
        with pytest.raises(DomainError):
            paths.word_to_lattice(2, "11")

    def test_floor_violation_rejected(self):
        with pytest.raises(DomainError):
            paths.LatticePath("DDD", 2)

    def test_value_semantics(self):
        lp = paths.LatticePath("DDUUDD", 5)
        assert (lp.zeros, lp.floor, lp.length) == (2, -2, 6)
        assert lp == paths.word_to_lattice(5, "110011")
        assert hash(lp) == hash(paths.LatticePath("DDUUDD", 5))
        assert lp != paths.LatticePath("DDUUDD", 6)
        with pytest.raises(AttributeError):
            lp.k = 6


class TestEnumeration:
    def test_counts_are_catalan(self):
        for n in range(9):
            assert len(paths.enumerate_dyck(n)) == counting.catalan(n)

    def test_sorted_and_unique(self):
        for n in range(7):
            out = paths.enumerate_dyck(n)
            assert out == sorted(out)
            assert len(set(out)) == len(out)

    def test_peak_pair_example(self):
        assert counting.dyck_peak_pair_count(2, 1, 1) == 1

    def test_peak_pair_matches_enumeration(self, harness):
        assert harness("paths.peak_statistics_formulas", n_max=6).passed

    def test_peak_sum_matches_enumeration(self, harness):
        # the harness sweeps s >= 2 for 2 <= n <= 7; no path has a peak sum
        # below 2, and the formula must say so
        assert harness("paths.peak_statistics_formulas", n_max=7).passed
        for n in range(1, 8):
            sums = [paths.first_last_peak_sum(p) for p in paths.enumerate_dyck(n)]
            for s in range(min(2, 2 * n - 1)):
                assert sums.count(s) == counting.dyck_peak_sum_count(n, s) == 0, (n, s)

    def test_peak_sum_ties_to_word_count(self):
        for k in range(1, 8):
            for m in range(1, 2 * k - 1):
                assert counting.dyck_peak_sum_count(
                    k + 1, 2 * k - m
                ) == counting.avoiding_word_count(k, m)

    def test_peak_pair_sums_to_peak_sum_count(self):
        for n in range(2, 7):
            for s in range(2, 2 * n - 1):
                total = sum(
                    counting.dyck_peak_pair_count(n, a, s - a)
                    for a in range(1, s)
                )
                assert total == counting.dyck_peak_sum_count(n + 1, s), (n, s)


@given(avoiding_words())
def test_dyck_bijection_on_random_words(kw):
    k, w = kw
    assert patterns.is_avoiding_word(k, w)
    p = paths.word_to_dyck(k, w)
    assert paths.semilength(p) == k + 1
    assert paths.first_last_peak_sum(p) == 2 * k - len(w)
    assert paths.dyck_to_word(k, p) == w


@given(avoiding_words())
def test_lattice_bijection_on_random_words(kw):
    k, w = kw
    lp = paths.word_to_lattice(k, w)
    assert paths.lattice_to_word(lp) == w
    assert paths.is_odd_lattice(lp) == core.is_odd_word(w)


FOREIGN = [" ", "\n", "\t", "\u00a0", "\u0663", "\uff11", "u", "d", "x", "0", "1"]


@given(st.text(st.sampled_from("UD") | st.sampled_from(FOREIGN) | st.characters()))
def test_check_steps_rejects_exactly_foreign_characters(p):
    if all(c in "UD" for c in p):
        assert paths.check_steps(p) == p
    else:
        with pytest.raises(DomainError):
            paths.check_steps(p)


def test_svg_rendering_smoke():
    svg = paths.path_svg("UUDD")
    assert svg.startswith("<svg") and "polyline" in svg
    svg = paths.path_svg("DDUUDD", floor=-2)
    assert "polyline" in svg
