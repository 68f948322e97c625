from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, strategies as st

from grassperm import cli, core, counting, parity, paths, patterns
from grassperm.errors import DomainError

FOREIGN = [" ", "\n", "\t", "\u00a0", "\u0663", "\uff11", "u", "d", "x", "0", "1"]
STEP_STRINGS = st.text("UD", max_size=40) | st.text(
    st.sampled_from("UD") | st.sampled_from(FOREIGN), max_size=40
)
ALL_DYCK = [p for n in range(11) for p in paths.enumerate_dyck(n)]


# Step-by-step walks and run-length constructions: the references that the
# string forms in `paths` must match.


def walked_is_dyck_path(p):
    h = 0
    for c in p:
        h += 1 if c == "U" else -1
        if h < 0:
            return False
    return h == 0


def walked_extrema(p):
    paths.check_steps(p)
    out = []
    h = 0
    for i, c in enumerate(p):
        h += 1 if c == "U" else -1
        if i + 1 < len(p) and c != p[i + 1]:
            out.append((i, "peak" if c == "U" else "valley", h))
    return out


def walked_turn_heights(p, turn):
    paths.check_steps(p)
    pieces = p.split(turn)[:-1]
    return list(accumulate(2 * piece.count("U") - len(piece) for piece in pieces))


def walked_peaks(p):
    return [h + 1 for h in walked_turn_heights(p, "UD")]


def walked_dyck_run_sequence(p):
    paths.check_dyck(p)
    runs = []
    for c in p:
        if c == "U":
            runs.append(0)
        else:
            runs[-1] += 1
    return tuple(runs)


def walked_is_odd_dyck(p):
    a = walked_dyck_run_sequence(p)
    return sum(a[i] % 2 for i in range(0, len(a), 2)) % 2 == 1


def walked_first_last_peak_sum(p):
    ps = walked_peaks(paths.check_dyck(p))
    if not ps:
        raise DomainError("the empty path has no peaks")
    return ps[0] + ps[-1]


def walked_all_extrema_odd(p):
    paths.check_dyck(p)
    return all(h % 2 == 1 for _, _, h in walked_extrema(p))


def walked_first_even_extremum(p):
    paths.check_dyck(p)
    for item in walked_extrema(p):
        if item[2] % 2 == 0:
            return item
    raise DomainError(f"all peaks and valleys of {p!r} are at odd height")


def walked_halve(p):
    paths.check_dyck(p)
    if not p:
        raise DomainError("the empty path is not in the domain")
    if any(h % 2 == 0 for _, _, h in walked_extrema(p)):
        raise DomainError(f"{p!r} has a peak or valley at even height")
    if paths.semilength(p) % 2 == 0:
        raise DomainError(f"{p!r} has even semilength")
    runs = []
    for c in p:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    runs[0][1] -= 1
    runs[-1][1] -= 1
    if any(n % 2 for _, n in runs):
        raise DomainError(f"{p!r} has an inner run of odd length")
    return "".join(c * (n // 2) for c, n in runs)


def built_word_to_dyck(k, w):
    if not patterns.is_avoiding_word(k, w):
        raise DomainError(f"{w!r} is not an avoiding word for k={k}")
    a = core.a_sequence(w)
    j = len(a) - 1
    middle = "".join("U" + "D" * a[i] for i in range(1, j + 1))
    return "U" * (k - j) + "D" * (a[0] + 1) + middle + "U" + "D" * (k + j - len(w))


def built_dyck_to_word(k, p):
    paths.check_dyck(p)
    if paths.semilength(p) != k + 1:
        raise DomainError(f"expected semilength {k + 1}, got {paths.semilength(p)}")
    first_run = len(p) - len(p.lstrip("U"))
    j = k - first_run
    if j < 0:
        raise DomainError("path outside the bijection image (first peak too high)")
    blocks = walked_dyck_run_sequence(p)[first_run - 1 :]
    a = (blocks[0] - 1,) + blocks[1 : j + 1]
    w = "0".join("1" * x for x in reversed(a))  # the word of run lengths a
    if not patterns.is_avoiding_word(k, w):
        raise DomainError(f"preimage of {p!r} is not an avoiding word for k={k}")
    return w


def built_lattice_steps(k, w):
    if not patterns.is_avoiding_word(k, w):
        raise DomainError(f"{w!r} is not an avoiding word for k={k}")
    a = core.a_sequence(w)
    return "D" * a[0] + "".join("U" + "D" * a[i] for i in range(1, len(a)))


def walked_lattice_run_sequence(steps):
    runs = [0]
    for c in steps:
        if c == "U":
            runs.append(0)
        else:
            runs[-1] += 1
    return tuple(runs)


def walked_floor_parity_extremum(path):
    for item in walked_extrema(path.steps):
        if item[2] % 2 == path.floor % 2:
            return item
    raise DomainError(f"no peak or valley of {path.steps!r} matches the floor parity")


def outcome(f, *args):
    """What ``f(*args)`` returns, or the message of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


STEP_FORMS = [(paths.peaks, walked_peaks)]
DYCK_FORMS = [
    (paths.dyck_run_sequence, walked_dyck_run_sequence),
    (paths.is_odd_dyck, walked_is_odd_dyck),
    (paths.first_last_peak_sum, walked_first_last_peak_sum),
    (paths.all_extrema_odd, walked_all_extrema_odd),
    (paths.find_first_even_extremum, walked_first_even_extremum),
    (paths.halve_all_odd_path, walked_halve),
]
FORM_IDS = lambda forms: forms[0].__name__


class TestAgainstTheWalks:
    @pytest.mark.parametrize("forms", STEP_FORMS + DYCK_FORMS, ids=FORM_IDS)
    def test_every_dyck_path_to_semilength_10(self, forms):
        new, walked = forms
        for p in ALL_DYCK:
            assert outcome(new, p) == outcome(walked, p), p

    @given(STEP_STRINGS)
    def test_step_strings(self, p):
        # foreign characters and non-Dyck strings raise the same DomainError
        for new, walked in STEP_FORMS + DYCK_FORMS:
            assert outcome(new, p) == outcome(walked, p), new.__name__

    def test_word_dyck_bijection(self):
        # every word of length <= 12 at k <= 7, avoiding or not, and every
        # Dyck path of semilength k + 1
        for k in range(1, 8):
            for m in range(13):
                for x in range(2**m):
                    w = format(x, f"0{m}b") if m else ""
                    image = outcome(paths.word_to_dyck, k, w)
                    assert image == outcome(built_word_to_dyck, k, w)
                    # an image is built unchecked, and typed
                    assert isinstance(image, tuple) or (
                        type(image) is paths.DyckPath and walked_is_dyck_path(image)
                    )
            for p in paths.enumerate_dyck(k + 1):
                assert outcome(paths.dyck_to_word, k, p) == outcome(built_dyck_to_word, k, p)

    def test_lattice_encoding(self):
        for k in range(1, 8):
            for m in range(13):
                for x in range(2**m):
                    w = format(x, f"0{m}b") if m else ""
                    steps = outcome(built_lattice_steps, k, w)
                    lp = outcome(paths.word_to_lattice, k, w)
                    if isinstance(steps, tuple):
                        assert lp == steps
                        continue
                    assert lp.steps == steps
                    # biject toggle --k prints this as its a= line
                    a = walked_lattice_run_sequence(steps)
                    assert core.a_sequence(paths.lattice_to_word(lp)) == a
                    assert paths.is_odd_lattice(lp) == (
                        sum(a[i] % 2 for i in range(1, len(a), 2)) % 2 == 1
                    )
                    assert paths.lattice_to_word(lp) == w
                    assert outcome(paths.find_first_floor_parity_extremum, lp) == outcome(
                        walked_floor_parity_extremum, lp
                    )

    @given(STEP_STRINGS)
    def test_dyck_recognition(self, p):
        assert paths.is_dyck_path(p) == (set(p) <= {"U", "D"} and walked_is_dyck_path(p))


def assert_peak_statistics_match_the_walk(p):
    assert paths.peaks(p) == walked_peaks(p)


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
    return k, "0".join("1" * x for x in reversed(a))


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
        # the valleys, which the toggles read, by the walked reference
        assert [h for _, kind, h in walked_extrema(p) if kind == "valley"] == vl

    def test_match_the_extrema_on_dyck_paths(self):
        for n in range(11):
            for p in paths.enumerate_dyck(n):
                assert_peak_statistics_match_the_walk(p)

    @given(st.text(alphabet="UD", max_size=40))
    def test_match_the_extrema_on_step_strings(self, p):
        assert_peak_statistics_match_the_walk(p)

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

    @pytest.mark.parametrize("p", ["UX", "U1", "UDX", "XUD", " UD", "UD\n", "UuDD", "U\u0663D"])
    def test_is_dyck_path_rejects_foreign_characters(self, p):
        assert not paths.is_dyck_path(p)
        with pytest.raises(DomainError, match="not a U/D step string"):
            paths.check_dyck(p)

    def test_rejects_invalid_paths(self):
        with pytest.raises(DomainError):
            paths.check_dyck("UDD")
        with pytest.raises(DomainError):
            paths.check_dyck("DU")
        with pytest.raises(DomainError):
            paths.check_steps("UX")


def dyck_to_word(p):
    return paths.dyck_to_word(1, p)


# Every public function of a Dyck path that checks its argument.
CLASSIFIERS = [
    paths.all_extrema_odd,
    paths.is_odd_dyck,
    paths.first_last_peak_sum,
    paths.dyck_run_sequence,
    paths.find_first_even_extremum,
    paths.toggle_first_even_extremum,
    paths.halve_all_odd_path,
    dyck_to_word,
]


class TestDyckPathType:
    @pytest.mark.parametrize(
        "p,message", [("DU", "not a Dyck path: 'DU'"), ("UX", "not a U/D step string: 'UX'")]
    )
    def test_refuses_with_the_check_messages(self, p, message):
        with pytest.raises(DomainError) as exc:
            paths.DyckPath(p)
        assert str(exc.value) == message

    @given(STEP_STRINGS)
    def test_accepts_exactly_the_dyck_paths(self, p):
        if set(p) <= {"U", "D"} and walked_is_dyck_path(p):
            assert type(paths.DyckPath(p)) is paths.DyckPath and paths.DyckPath(p) == p
        else:
            with pytest.raises(DomainError):
                paths.DyckPath(p)

    def test_is_its_string_in_sets_and_dicts(self):
        p = paths.DyckPath("UDUUDD")
        assert p == "UDUUDD" and hash(p) == hash("UDUUDD")
        assert {p} == {"UDUUDD"} and {"UDUUDD": 1}[p] == 1
        assert repr(p) == repr("UDUUDD") and f"{p}" == "UDUUDD"
        with pytest.raises(AttributeError):
            p.k = 1

    @pytest.mark.parametrize("classify", CLASSIFIERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "p,message", [("DU", "not a Dyck path"), ("UDD", "not a Dyck path"), ("UX", "step string")]
    )
    def test_classifiers_refuse_a_plain_non_dyck_string(self, classify, p, message):
        with pytest.raises(DomainError, match=message):
            classify(p)

    def test_check_dyck_takes_a_dyck_path_unscanned(self, monkeypatch):
        scanned = []
        scan = paths.is_dyck_path
        monkeypatch.setattr(paths, "is_dyck_path", lambda p: scanned.append(p) or scan(p))
        typed = paths.DyckPath("UUDD")
        assert scanned == ["UUDD"]
        assert paths.check_dyck(typed) is typed
        assert paths.is_odd_dyck(typed) is False and scanned == ["UUDD"]
        # a plain string is scanned on every call, and comes back typed
        assert type(paths.check_dyck("UD")) is paths.DyckPath and scanned == ["UUDD", "UD"]

    def test_listing_is_plain_strings(self):
        for n in range(11):
            assert {type(p) for p in paths.enumerate_dyck(n)} == {str}, n


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

    def test_every_image_is_a_dyck_path(self):
        # the toggle builds its image unchecked; every path to semilength 10
        # with an even extremum is held to the walk
        toggled = 0
        for p in ALL_DYCK:
            if p and not walked_all_extrema_odd(p):
                q = paths.toggle_first_even_extremum(p)
                assert type(q) is paths.DyckPath and walked_is_dyck_path(q), p
                toggled += 1
        assert toggled == sum(
            counting.catalan(n) - parity.all_odd_extrema_count(n) for n in range(1, 11)
        )


class TestHalving:
    def test_smallest(self):
        assert paths.halve_all_odd_path("UD") == ""

    def test_single_tall_peak(self):
        assert paths.halve_all_odd_path("UUUDDD") == "UD"

    def test_counts(self, harness):
        # all-odd counts for n <= 8, halving images for odd n <= 9
        assert harness("paths.even_extremum_toggle", n_max=8).passed
        assert harness("paths.all_odd_halving", n_max=9).passed
        domain = [p for p in paths.enumerate_dyck(9) if walked_all_extrema_odd(p)]
        assert len(domain) == parity.all_odd_extrema_count(9)

    def test_all_odd_paths_are_odd(self, harness):
        # odd n <= 9 by the halving check; even n <= 8 have no such path,
        # their all-odd count being 0
        assert harness("paths.all_odd_halving", n_max=9).passed
        assert harness("paths.even_extremum_toggle", n_max=8).passed

    def test_rejects_even_extremum(self):
        with pytest.raises(DomainError):
            paths.halve_all_odd_path("UUDD")

    def test_every_image_is_a_dyck_path_of_half_size(self):
        # the halving builds its image unchecked; every all-odd path to
        # semilength 10 is held to the walk
        halved = 0
        for p in ALL_DYCK:
            if p and walked_all_extrema_odd(p):
                q = paths.halve_all_odd_path(p)
                assert type(q) is paths.DyckPath and walked_is_dyck_path(q), p
                assert len(q) == paths.semilength(p) - 1, p
                halved += 1
        assert halved == sum(parity.all_odd_extrema_count(n) for n in range(1, 11))


def printed_turn(capsys, prefix, *argv):
    """The turn that ``biject *argv`` prints on its ``{prefix}position=``
    line, as (0-based index, kind, height)."""
    assert cli.main(["biject", *argv]) == 0
    [line] = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith(prefix + "position=")
    ]
    fields = dict(field.split("=") for field in line.split())
    position, kind, height = (fields[prefix + name] for name in ("position", "kind", "height"))
    return int(position) - 1, kind, int(height)


class TestBijectPrintsTheWalkedTurn:
    """The position, kind and height that ``biject toggle`` and ``biject
    word-to-lattice`` print, which no verify check reads, against the walk."""

    def test_dyck_toggle_on_every_path_to_semilength_6(self, capsys):
        past = 0
        for p in ALL_DYCK:
            if paths.semilength(p) > 6 or walked_all_extrema_odd(p):
                continue
            turn = walked_first_even_extremum(p)
            assert printed_turn(capsys, "", "toggle", "--input", p) == turn, p
            past += turn[0] > 1
        assert past > 0

    @pytest.mark.parametrize(
        "k,w,steps,turn",
        [
            # the turn below height 0, and past the first pair
            (5, "01110", "UDDDU", (3, "valley", -2)),
            (5, "1011", "DDUD", (2, "peak", -1)),
            (5, "011100", "UUDDDU", (4, "valley", -1)),
        ],
    )
    def test_lattice_toggle_past_the_first_pair(self, capsys, k, w, steps, turn):
        lp = paths.word_to_lattice(k, w)
        assert lp.steps == steps and walked_floor_parity_extremum(lp) == turn
        args = ("--k", str(k), "--input")
        assert printed_turn(capsys, "", "toggle", *args, steps) == turn
        assert printed_turn(capsys, "toggle_", "word-to-lattice", *args, w) == turn

    def test_lattice_toggle_on_every_avoiding_word_to_k_5(self, capsys):
        below = 0
        for k in range(1, 6):
            for m in range(2 * k - 1):
                for w in patterns.enumerate_avoiding_words(k, m):
                    lp = paths.word_to_lattice(k, w)
                    turn = outcome(walked_floor_parity_extremum, lp)
                    if turn[0] == "DomainError":
                        continue
                    args = ("--k", str(k), "--input")
                    assert printed_turn(capsys, "", "toggle", *args, lp.steps) == turn, (k, w)
                    assert printed_turn(capsys, "toggle_", "word-to-lattice", *args, w) == turn
                    below += turn[0] > 1 and turn[2] < 0
        assert below > 0


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

    def test_every_toggle_image_passes_the_floor_check(self):
        # the toggle builds its image unchecked; every avoiding word with
        # k <= 7 and m <= 12 that has a floor-parity turn is toggled and its
        # steps held to the checked constructor
        toggled = 0
        for k in range(1, 8):
            for m in range(13):
                for w in patterns.enumerate_avoiding_words(k, m):
                    lp = paths.word_to_lattice(k, w)
                    if outcome(walked_floor_parity_extremum, lp)[0] == "DomainError":
                        continue
                    image = paths.toggle_lattice_path(lp)
                    assert paths.LatticePath(image.steps, k) == image, (k, w)
                    toggled += 1
        assert toggled == 1894

    def test_framing_and_the_unchecked_encoding_match_the_checked_forms(self):
        # every avoiding word with k <= 7 and m <= 12: _of_word builds the
        # path that word_to_lattice builds after its avoidance test, and the
        # framed path is a typed Dyck path, the word's Dyck image
        framed = 0
        for k in range(1, 8):
            for m in range(13):
                for w in patterns.enumerate_avoiding_words(k, m):
                    lp = paths.LatticePath._of_word(k, w)
                    assert type(lp) is paths.LatticePath and lp == paths.word_to_lattice(k, w)
                    p = paths.lattice_to_dyck(lp)
                    assert type(p) is paths.DyckPath and walked_is_dyck_path(p)
                    assert p == built_word_to_dyck(k, w), (k, w)
                    framed += 1
        assert framed == 2047

    def test_rejects_word_outside_class(self):
        with pytest.raises(DomainError):
            paths.word_to_lattice(2, "11")

    def test_floor_violation_rejected(self):
        with pytest.raises(DomainError):
            paths.LatticePath("DDD", 2)

    def test_floor_is_avoidance(self):
        # every U/D string of length <= 12 at 1 <= k <= 7: the path is
        # accepted iff its word, read backwards with U as 0 and D as 1,
        # avoids every 0^j 1^(k-j)
        for k in range(1, 8):
            for n in range(13):
                for letters in product("UD", repeat=n):
                    steps = "".join(letters)
                    w = steps[::-1].translate(str.maketrans("UD", "01"))
                    try:
                        paths.LatticePath(steps, k)
                        accepted = True
                    except DomainError:
                        accepted = False
                    assert accepted == patterns.is_avoiding_word(k, w), (steps, k)

    def test_value_semantics(self):
        lp = paths.LatticePath("DDUUDD", 5)
        assert (lp.zeros, lp.floor) == (2, -2)
        assert lp == paths.word_to_lattice(5, "110011")
        assert hash(lp) == hash(paths.LatticePath("DDUUDD", 5))
        assert lp != paths.LatticePath("DDUUDD", 6)
        with pytest.raises(AttributeError):
            lp.k = 6


def chosen_dyck_paths(n):
    """The Dyck paths of semilength n, sorted, from every choice of the
    positions of their n up-steps."""
    chosen = (set(ups) for ups in combinations(range(2 * n), n))
    steps = ("".join("U" if i in ups else "D" for i in range(2 * n)) for ups in chosen)
    return sorted(filter(walked_is_dyck_path, steps))


class TestEnumeration:
    def test_counts_are_catalan(self):
        for n in (*range(9), 12):
            assert len(paths.enumerate_dyck(n)) == counting.catalan(n)

    def test_listing_is_the_sorted_reference(self):
        # list for list: the joined halves come out in order, each once
        for n in range(10):
            assert paths.enumerate_dyck(n) == chosen_dyck_paths(n), n

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
