import contextlib
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grassperm import cli, core, counting, paths, patterns, series, verify
from grassperm.errors import CapExceededError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment of a CLI subprocess that imports this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# Whole outputs pinned as (argv, line count, sha256). The verify reports are
# as printed before the harness shared its enumerations between checks (the
# raised JSON report, which holds every check's params at raised caps, as
# printed before a run shared its oracle tallies between suites); the gf
# tables as printed by the generating-function expansion, before the
# Goldman-Rota recurrence replaced it.
PINNED_VERIFY = {
    "default": ((), 31, "f18ca9ca71217af0e58805888ad4a32c526207d33cff99ed8d68404120c699a3"),
    "raised": (
        ("--k-max", "8", "--perm-cap", "9", "--word-cap", "14"),
        31,
        "06051e1d7cce416b8bdb9314f69408f1a212d6969dcc382fceeb29f10f41a5ce",
    ),
    "json": (
        ("--format", "json"),
        1,
        "64bdc5088c156c4b828b7c7481adc0328ed02339debb8bac3e4b23a84630bd85",
    ),
    "raised-json": (
        ("--k-max", "8", "--perm-cap", "9", "--word-cap", "14", "--format", "json"),
        1,
        "d3b0ecc59b4496455a274bea0ba4ad291177f5a7839c1c6059b7827d2092644d",
    ),
}
PINNED_GF = {
    "40": (
        ("--n-max", "40"),
        5572,
        "d177b64231537412013bf1cb829197497195b8fe42be1fa43e5c4922facd62ee",
    ),
    "120": (
        ("--n-max", "120"),
        145912,
        "b0ff54213ec8b20152fc1808fde88ce1706acb6400aa6f2877566f3db3dad963",
    ),
    "12-json": (
        ("--n-max", "12", "--format", "json"),
        1,
        "c17f4b075d0c0a9ec5ad89462049460ce569210456c431ebfbe30364ce954b1a",
    ),
}

# The two slowest tables and the largest listing of the bulk-output benchmark,
# as printed when each line was built by a join over the row's values or a
# chain of per-path generators.
PINNED_BULK = {
    "parity-100": (
        ("table", "--quantity", "parity", "--k-max", "100"),
        10001,
        "40569d1e57443309164988da6272a3159dbd1fa4608ab95d62c35a4493e31f0d",
    ),
    "classes-300": (
        ("table", "--quantity", "classes", "--m-max", "300"),
        1205,
        "d7893237f91ca6bd4e77a530d68b12714e265e213486ebc12281b7f224b4343d",
    ),
    "dyck-11-peaks": (
        ("enumerate", "dyck", "--n", "11", "--stats", "peaks"),
        58786,
        "7e259915c366d3ee3666879355242224b69a17f37329787b8223ed125e461650",
    ),
    "dyck-12": (
        ("enumerate", "dyck", "--n", "12"),
        208012,
        "d774f72ac6c08023568714e657a511a2da0ab679862e062e5eea722e4e637e70",
    ),
    "A-40": (
        ("table", "--quantity", "A", "--k-max", "40"),
        1601,
        "5256b254cdf1e38460df2579a37b0a10eca4a6a3f3b1c6b67542c49e3fe6be64",
    ),
}


def pinned(cases):
    return pytest.mark.parametrize(
        "argv,lines,digest", list(cases.values()), ids=list(cases)
    )


def assert_pinned(code, out, err, lines, digest):
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCount:
    @pytest.mark.parametrize(
        "argv,value",
        [
            (("count", "--quantity", "B", "--k", "3", "--m", "4"), "2"),
            (("count", "--quantity", "A", "--k", "3", "--m", "3"), "4"),
            (("count", "--quantity", "O", "--k", "4", "--m", "4"), "6"),
            (("count", "--quantity", "E", "--k", "4", "--m", "4"), "5"),
            (("count", "--quantity", "total-perms", "--k", "3"), "10"),
            (("count", "--quantity", "total-words", "--k", "3"), "13"),
            (("count", "--quantity", "total-words", "--k", "3", "--j", "2"), "5"),
            (("count", "--quantity", "total-odd", "--k", "4"), "16"),
            (("count", "--quantity", "fixed", "--n", "4", "--k", "4"), "1"),
            (("count", "--quantity", "bigrass", "--m", "3"), "5"),
            (("count", "--quantity", "bigrass", "--k", "3", "--m", "4"), "1"),
            (("count", "--quantity", "bigrass-odd", "--m", "4"), "5"),
            (("count", "--quantity", "invol", "--k", "3", "--m", "4"), "1"),
            (("count", "--quantity", "invol-odd", "--m", "4"), "3"),
        ],
    )
    def test_values(self, capsys, argv, value):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == value

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--quantity", "B", "--k", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (("--quantity", "fixed"), "--n, --k"),
            (("--quantity", "fixed", "--k", "1"), "--n"),
            (("--quantity", "bigrass", "--k", "3"), "--m"),
            (("--quantity", "total-words", "--j", "2"), "--k"),
            (("--quantity", "O", "--n", "2"), "--k, --m"),
        ],
    )
    def test_missing_flags_are_named(self, capsys, argv, flags):
        # a quantity with two forms names the flags its last form lacks
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", *argv])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message == f"grassperm: error: --quantity {argv[1]} requires {flags}"

    @pytest.mark.parametrize(
        "argv,value",
        [
            (
                ("--quantity", "total-perms", "--k", "20000"),
                counting.catalan(20001) - counting.binomial(20000, 2) - 1,
            ),
            (("--quantity", "fixed", "--n", "20000", "--k", "0"), 2**19998),
        ],
        ids=["total-perms", "fixed"],
    )
    def test_values_past_the_default_digit_limit(self, capsys, argv, value):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "count", *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert len(out) > limit and out == f"{value}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_argv_keeps_the_default_digit_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--quantity", "B", "--k", "9" * 5000, "--m", "3"])
        assert exc.value.code == 2

    def test_unknown_quantity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--quantity", "nope", "--k", "3"])
        assert exc.value.code == 2

    def test_domain_error_exits_3(self, capsys):
        code, _, err = run(capsys, "count", "--quantity", "fixed", "--n", "2", "--k", "5")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            (
                "--quantity",
                quantity,
                *(arg for flag in flags for arg in (f"--{flag}", "-1" if flag == bad else "3")),
            )
            for quantity, forms in cli.COUNT_FORMS.items()
            for flags, _, _ in forms
            for bad in flags
        ],
        ids=" ".join,
    )
    def test_negative_flag_exits_3(self, capsys, argv):
        # each form of each quantity, one of its flags negative
        code, out, err = run(capsys, "count", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "quantity,flags,big",
        [
            (quantity, flags, big)
            for quantity, forms in cli.COUNT_FORMS.items()
            if quantity in cli.COUNT_CAPS
            for flags, _, _ in forms
            for big in flags
        ],
        ids=str,
    )
    def test_flag_over_its_cap_exits_3_before_any_arithmetic(
        self, capsys, monkeypatch, quantity, flags, big
    ):
        # each form of each capped quantity, one of its flags at the cap and
        # then one past it; the formula is a stub, so nothing is computed
        monkeypatch.setattr(cli, "_function", lambda module, name: lambda *values: 7)
        cap = cli.COUNT_CAPS[quantity]
        refusal = f"error: {big} {cap + 1} over cap {cap}\n"
        for value, expected in ((cap, (0, "7\n", "")), (cap + 1, (3, "", refusal))):
            flag_values = (str(value if flag == big else 3) for flag in flags)
            argv = [arg for flag, v in zip(flags, flag_values) for arg in (f"--{flag}", v)]
            assert run(capsys, "count", "--quantity", quantity, *argv) == expected


class TestTable:
    def test_csv_header_and_spot_row(self, capsys):
        code, out, _ = run(capsys, "table", "--quantity", "B", "--k-max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,m,value"
        assert "4,4,11" in lines
        # no row ever reaches m = 2k - 1
        for line in lines[1:]:
            k, m, _ = (int(v) for v in line.split(","))
            assert m <= 2 * k - 2

    def test_json_round_trips_to_csv(self, capsys):
        code, csv_out, _ = run(capsys, "table", "--quantity", "B", "--k-max", "5")
        code2, json_out, _ = run(
            capsys, "table", "--quantity", "B", "--k-max", "5", "--format", "json"
        )
        assert code == code2 == 0
        rows = json.loads(json_out)
        rebuilt = ["k,m,value"] + [
            f"{r['k']},{r['m']},{r['value']}" for r in rows
        ]
        assert rebuilt == csv_out.strip().splitlines()

    def test_parity_table_columns(self, capsys):
        code, out, _ = run(capsys, "table", "--quantity", "parity", "--k-max", "3")
        lines = out.strip().splitlines()
        assert lines[0] == "k,m,B,O,E"
        for line in lines[1:]:
            _, _, b, o, e = (int(v) for v in line.split(","))
            assert b == o + e

    def test_classes_table(self, capsys):
        code, out, _ = run(capsys, "table", "--quantity", "classes", "--m-max", "4")
        lines = out.strip().splitlines()
        assert lines[0] == "class,m,value"
        assert "bigrass,3,5" in lines
        assert "invol_odd,4,3" in lines

    def test_gf_table(self, capsys):
        code, out, _ = run(capsys, "table", "--quantity", "gf", "--n-max", "3")
        lines = out.strip().splitlines()
        assert lines[0] == "n,i,count"
        assert "3,1,2" in lines

    @pinned(PINNED_GF)
    def test_gf_bytes_are_pinned(self, capsys, argv, lines, digest):
        assert_pinned(*run(capsys, "table", "--quantity", "gf", *argv), lines, digest)

    @pytest.mark.parametrize("quantity", cli.TABLE_FORMS)
    def test_csv_prints_every_value_of_every_row(self, capsys, quantity):
        # Each row fills the table's one format, which has a field per
        # header column; a surplus value would be dropped without a word.
        header, module, function, bound = cli.TABLE_FORMS[quantity]
        rows = list(cli._function(module, function)(5))
        assert {len(row) for row in rows} == {len(header)}
        joined = "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))
        flag = "--" + bound.replace("_", "-")
        assert run(capsys, "table", "--quantity", quantity, flag, "5") == (0, joined, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--quantity", "B", "--k-max", "-3"),
            ("--quantity", "A", "--k-max", "-3"),
            ("--quantity", "parity", "--k-max", "-3"),
            ("--quantity", "classes", "--m-max", "-3"),
            ("--quantity", "gf", "--n-max", "-1"),
            ("--quantity", "gf", "--n-max", "121"),
            # one past each cap, refused before a row is built
            ("--quantity", "B", "--k-max", "301"),
            ("--quantity", "A", "--k-max", "151"),
            ("--quantity", "parity", "--k-max", "301"),
            ("--quantity", "classes", "--m-max", "100001"),
        ],
    )
    def test_bad_bound_exits_3_before_the_header(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--quantity", "parity", "--k-max", "6")
        _, second, _ = run(capsys, "table", "--quantity", "parity", "--k-max", "6")
        assert first == second


class TestEnumerate:
    def test_words(self, capsys):
        code, out, _ = run(capsys, "enumerate", "words", "--k", "3", "--m", "4")
        assert code == 0
        assert out.strip().splitlines() == ["1010", "1100"]

    def test_words_with_stats(self, capsys):
        _, out, _ = run(
            capsys, "enumerate", "words", "--k", "3", "--m", "4", "--stats", "inversions"
        )
        assert out.strip().splitlines() == ["1010 inversions=3", "1100 inversions=4"]

    def test_avoiders(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "avoiders", "--n", "3", "--pattern", "123"
        )
        assert out.strip().splitlines() == ["1,3,2", "2,1,3", "2,3,1", "3,1,2"]

    def test_avoiders_fixed_point_stats(self, capsys):
        _, out, _ = run(
            capsys,
            "enumerate",
            "avoiders",
            "--n",
            "3",
            "--pattern",
            "1,2,3",
            "--stats",
            "fixed-points",
        )
        assert "1,3,2 fixed-points=1" in out.strip().splitlines()

    def test_dyck(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dyck", "--n", "3")
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines == sorted(lines)

    def test_malformed_pattern_exits_3(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "avoiders", "--n", "4", "--pattern", "12a"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_cap_is_not_a_flag(self, capsys):
        # the caps are fixed: no flag lifts the refusal above
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "dyck", "--n", "13", "--cap", "13"])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err


def _subsequence(u, w):
    it = iter(w)
    return all(c in it for c in u)


def _brute_words(k, m):
    identities = ["0" * j + "1" * (k - j) for j in range(k + 1)]
    for letters in itertools.product("01", repeat=m):
        w = "".join(letters)
        if not any(_subsequence(u, w) for u in identities):
            yield w, sum(a + b == "10" for a, b in itertools.combinations(w, 2))


def _brute_dyck(n):
    for steps in itertools.product("DU", repeat=2 * n):
        heights = itertools.accumulate(1 if c == "U" else -1 for c in steps)
        if all(h >= 0 for h in heights) and steps.count("U") == n:
            p = "".join(steps)
            yield p, sum(p[i : i + 2] == "UD" for i in range(len(p) - 1))


def _order_isomorphic(a, b):
    pairs = itertools.combinations(range(len(a)), 2)
    return all((a[i] < a[j]) == (b[i] < b[j]) for i, j in pairs)


def _brute_avoiders(n, pattern, stats):
    for p in itertools.permutations(range(1, n + 1)):
        if sum(p[i] > p[i + 1] for i in range(n - 1)) > 1:
            continue
        subs = itertools.combinations(p, len(pattern))
        if any(_order_isomorphic(sub, pattern) for sub in subs):
            continue
        if stats == "fixed-points":
            value = sum(v == i + 1 for i, v in enumerate(p))
        else:
            value = sum(a > b for a, b in itertools.combinations(p, 2))
        yield ",".join(map(str, p)), value


def _lines(objects, stats):
    if stats is None:
        return "".join(f"{name}\n" for name, _ in objects)
    return "".join(f"{name} {stats}={value}\n" for name, value in objects)


class TestEnumerateBytes:
    """Each listing is exactly the lines built here by brute force."""

    @pytest.mark.parametrize("stats", [None, "inversions"])
    @pytest.mark.parametrize("k,m", [(0, 2), (1, 0), (3, 4), (4, 5), (5, 8), (6, 3)])
    def test_words(self, capsys, k, m, stats):
        argv = ["enumerate", "words", "--k", str(k), "--m", str(m)]
        code, out, err = run(capsys, *argv, *(["--stats", stats] if stats else []))
        assert (code, err) == (0, "")
        assert out == _lines(_brute_words(k, m), stats)

    @pytest.mark.parametrize("stats", [None, "peaks"])
    @pytest.mark.parametrize("n", [0, 1, 4, 6, 8])
    def test_dyck(self, capsys, n, stats):
        argv = ["enumerate", "dyck", "--n", str(n)]
        code, out, err = run(capsys, *argv, *(["--stats", stats] if stats else []))
        assert (code, err) == (0, "")
        assert out == _lines(_brute_dyck(n), stats)

    @pytest.mark.parametrize("stats", [None, "inversions", "fixed-points"])
    @pytest.mark.parametrize(
        "n,pattern", [(5, (1, 2, 3)), (6, (2, 4, 1, 3)), (4, (2, 1)), (6, (1, 3, 2))]
    )
    def test_avoiders(self, capsys, n, pattern, stats):
        pattern_arg = ",".join(map(str, pattern))
        argv = ["enumerate", "avoiders", "--n", str(n), "--pattern", pattern_arg]
        code, out, err = run(capsys, *argv, *(["--stats", stats] if stats else []))
        assert (code, err) == (0, "")
        assert out == _lines(_brute_avoiders(n, pattern, stats), stats)


def walked_dyck(n, prefix="", ups=0, downs=0):
    """The Dyck paths of semilength n that extend ``prefix``, in
    lexicographic order, walked one step at a time, a down before an up."""
    if downs == n:
        yield prefix
    if downs < ups:
        yield from walked_dyck(n, prefix + "D", ups, downs + 1)
    if ups < n:
        yield from walked_dyck(n, prefix + "U", ups + 1, downs)


def rendered_dyck(n, stats):
    """The Dyck listing as rendered path by path, each peak count that of
    ``paths.peaks``."""
    if stats is None:
        return [f"{p}\n" for p in walked_dyck(n)]
    return [f"{p} {stats}={len(paths.peaks(p))}\n" for p in walked_dyck(n)]


@pytest.mark.parametrize("stats", [None, "peaks"])
def test_dyck_listing_is_the_per_path_rendering(capsys, stats):
    # The listing prints all the paths of one first half at once, with each
    # peak count summed from its halves; the per-path rendering walks the
    # paths one step at a time and counts the peaks on the whole path.
    for n in range(11):
        argv = ["enumerate", "dyck", "--n", str(n), *(["--stats", stats] if stats else [])]
        assert run(capsys, *argv) == (0, "".join(rendered_dyck(n, stats)), ""), n


@pinned(PINNED_BULK)
def test_bulk_output_bytes_are_pinned(capsys, argv, lines, digest):
    assert_pinned(*run(capsys, *argv), lines, digest)


class TestBiject:
    def test_word_to_dyck(self, capsys):
        code, out, _ = run(
            capsys, "biject", "word-to-dyck", "--k", "3", "--input", "1100"
        )
        lines = out.strip().splitlines()
        assert "word=1100" in lines
        assert "a=0,0,2" in lines
        assert "dyck=UDUUDDUD" in lines
        assert "peak_sum=2" in lines

    def test_word_to_lattice_figure_pair(self, capsys):
        code, out, _ = run(
            capsys, "biject", "word-to-lattice", "--k", "5", "--input", "110011"
        )
        lines = out.strip().splitlines()
        assert "lattice=DDUUDD" in lines
        assert "floor=-2" in lines
        assert "toggle=DUDUDD" in lines
        assert "toggle_word=110101" in lines

    def test_toggle_twice_is_identity(self, capsys):
        _, out1, _ = run(capsys, "biject", "toggle", "--input", "UDUUDUDD")
        toggled = next(
            line.split("=", 1)[1]
            for line in out1.strip().splitlines()
            if line.startswith("toggled=")
        )
        assert toggled == "UUDUDUDD"
        _, out2, _ = run(capsys, "biject", "toggle", "--input", toggled)
        assert "toggled=UDUUDUDD" in out2

    def test_toggle_reports_position_and_kind(self, capsys):
        _, out, _ = run(capsys, "biject", "toggle", "--input", "UDUUDUDD")
        assert "position=2 kind=valley height=0" in out

    def test_halve(self, capsys):
        code, out, _ = run(capsys, "biject", "halve", "--input", "UUUDDD")
        assert "halved=UD" in out

    def test_domain_error_names_precondition(self, capsys):
        code, _, err = run(capsys, "biject", "halve", "--input", "UUDD")
        assert code == 3
        assert "even height" in err

    def test_outside_image_exits_3(self, capsys):
        code, _, err = run(capsys, "biject", "word-to-dyck", "--k", "2", "--input", "01")
        assert code == 3
        assert "avoiding" in err

    def test_toggle_refuses_a_path_below_its_floor(self, capsys):
        # UUUD has 3 zeros, so for k = 3 its floor y = 1 is above the origin:
        # its word 1000 contains 000
        code, out, err = run(capsys, "biject", "toggle", "--k", "3", "--input", "UUUD")
        assert (code, out) == (3, "")
        assert err == "error: path 'UUUD' falls below its floor y=1\n"

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "path.svg"
        code, out, _ = run(
            capsys,
            "biject",
            "word-to-dyck",
            "--k",
            "3",
            "--input",
            "1100",
            "--svg",
            str(target),
        )
        assert code == 0
        assert target.read_text().startswith("<svg")

    def test_unwritable_svg_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(
            capsys,
            "biject",
            "word-to-dyck",
            "--k",
            "3",
            "--input",
            "1100",
            "--svg",
            str(target),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_toggle_svg_draws_the_lattice_floor(self, capsys, tmp_path):
        # DDUUDD for k = 5 has floor y = -2, and its toggle keeps that floor
        target = tmp_path / "toggle.svg"
        argv = ("biject", "toggle", "--k", "5", "--input", "DDUUDD", "--svg", str(target))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "toggled=DUDUDD" in out
        assert target.read_text() == paths.path_svg("DUDUDD", -2)


class TestVerify:
    @pinned(PINNED_VERIFY)
    def test_report_bytes_are_pinned(self, capsys, argv, lines, digest):
        assert_pinned(*run(capsys, "verify", *argv), lines, digest)

    def test_single_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--k-max", "12"
        )
        assert code == 0
        assert "FAIL" not in out
        assert "PASS identities.ballot_catalan_alternating_sum" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "identities",
            "--k-max",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [r["suite"] for r in report] == ["identities"]
        for check in report[0]["checks"]:
            assert set(check) == {"name", "params", "expected", "actual", "pass"}
            assert check["pass"] is True

    def test_fault_injection_fails_and_names_cell(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "counting",
            "--k-max",
            "4",
            "--inject-fault",
            "3,4",
        )
        assert code == 1
        assert "FAIL counting.recurrence_vs_word_oracle" in out
        assert "k=3 m=4" in out
        assert "expected 2, actual 3" in out

    def test_fault_injection_json_names_cell(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "counting",
            "--k-max",
            "4",
            "--format",
            "json",
            "--inject-fault",
            "3,4",
        )
        assert code == 1
        report = json.loads(out)
        failing = [c for c in report[0]["checks"] if not c["pass"]]
        assert failing
        mismatch = failing[0]["params"]["first_mismatch"]
        assert (mismatch["k"], mismatch["m"]) == (3, 4)

    def test_raised_caps_flow_through(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "counting",
            "--k-max",
            "7",
            "--word-cap",
            "24",
        )
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite", ["counting", "parity"])
    def test_small_word_cap_passes(self, capsys, suite):
        # sums over all word lengths only cover the k whose words fit the cap
        code, out, _ = run(capsys, "verify", "--suite", suite, "--word-cap", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_small_word_cap_names_the_skipped_k(self):
        # words of k = 5 and 6 reach length 8 and 10, past the cap of 6
        opts = verify.Options(k_max=6, word_cap=6)
        results = verify.run_suites(["counting", "parity"], opts)
        checks = {f"{r.suite}.{c.name}": c for r in results for c in r.checks}
        for name in ("counting.words_by_zero_count", "parity.odd_words_by_zero_count"):
            check = checks[name]
            assert check.params == {"k_max": 4, "word_cap": 6, "skipped_k": [5, 6]}
            assert check.passed and check.expected == sum(k + 1 for k in range(1, 5))
        [uncut] = verify.run_suites(["counting"], verify.Options(k_max=6, word_cap=10))
        uncut = {c.name: c for c in uncut.checks}
        assert uncut["words_by_zero_count"].params == {"k_max": 6, "word_cap": 10}

    @pytest.mark.parametrize(
        "argv",
        [
            # 13! permutations, or 2^25 words, are past what the oracle serves
            ("--suite", "counting", "--k-max", "3", "--perm-cap", "13"),
            ("--suite", "counting", "--k-max", "14", "--word-cap", "25"),
        ],
    )
    def test_cap_past_the_oracle_exits_3(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: oracle serves") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the word oracle refuses first, naming the first length past it
            (("--perm-cap", "13", "--word-cap", "30", "--k-max", "20"), "word lengths up to 24, not 25"),
            # then the permutation oracle, before the listing cap
            (("--perm-cap", "13", "--k-max", "20"), "permutation sizes up to 12, not 13"),
        ],
    )
    def test_oracle_refusals_come_in_order(self, capsys, argv, message):
        assert run(capsys, "verify", *argv) == (3, "", f"error: oracle serves {message}\n")

    @pytest.mark.parametrize(
        "argv", [("--suite", "classes", "--word-cap", "30"), ("--suite", "parity", "--perm-cap", "13")]
    )
    def test_a_suite_builds_no_tally_it_does_not_read(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and "FAIL" not in out

    def test_k_max_past_the_cap_exits_3_before_any_cell(self, capsys, monkeypatch):
        # verify --k-max 100000 built 2.1M word-oracle cells before any check
        def reached(opts):
            raise RuntimeError(f"cells built at k_max {opts.k_max}")

        monkeypatch.setattr(verify, "word_oracle_cells", reached)
        for k_max in (cli.VERIFY_K_MAX + 1, 10**7):
            for suite in ("all", "identities"):
                argv = ("verify", "--suite", suite, "--k-max", str(k_max))
                assert run(capsys, *argv) == (3, "", f"error: k_max {k_max} over cap 200\n")
        with pytest.raises(RuntimeError, match="at k_max 200$"):
            cli.main(["verify", "--k-max", "200"])

    @pytest.mark.parametrize(
        "argv,listed",
        [(("--k-max", "14"), 3453826), (("--suite", "counting", "--k-max", "20"), 15683998)],
    )
    def test_listing_past_the_cap_exits_3(self, capsys, argv, listed):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert err == f"error: counting suite lists up to 2000000 avoiders, not {listed}\n"

    def test_listing_cap_bounds_what_is_listed(self, monkeypatch):
        # the refusal counts exactly the words of the identity avoiders the
        # suite lists, decoded (m <= 4) or not
        opts = verify.Options(k_max=5, perm_cap=4, word_cap=6)
        listed = []
        avoiding_words = patterns.avoiding_words

        def counted(n, pattern):
            out = avoiding_words(n, pattern)
            if core.is_identity(pattern):
                listed.append(len(out))
            return out

        monkeypatch.setattr(patterns, "avoiding_words", counted)
        monkeypatch.setattr(verify, "LISTING_CAP", 0)
        with pytest.raises(CapExceededError):
            verify.run_suites(["counting"], opts)
        assert listed == []
        monkeypatch.setattr(verify, "LISTING_CAP", 10**9)
        verify.run_suites(["counting"], opts)
        total = sum(listed)
        monkeypatch.setattr(verify, "LISTING_CAP", total)
        assert verify.run_suites(["counting"], opts)[0].passed
        monkeypatch.setattr(verify, "LISTING_CAP", total - 1)
        with pytest.raises(CapExceededError):
            verify.run_suites(["counting"], opts)

    @pytest.mark.parametrize(
        "flags", [("--word-cap", "-1"), ("--perm-cap", "-1"), ("--k-max", "0")]
    )
    def test_bad_cap_is_usage_error(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "counting", "--inject-fault", "9,9"),
            ("--suite", "parity", "--inject-fault", "3,4"),
            ("--suite", "counting", "--inject-fault", "3,5"),
        ],
    )
    def test_fault_no_check_compares_is_usage_error(self, capsys, argv):
        # each of these once perturbed nothing and passed green
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("grassperm: error:") and out.err.count("\n") == 1

    def test_bad_fault_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--inject-fault", "oops"])
        assert exc.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


# Each capped flag of every command: the argv, with {} for the flag's value,
# and the refusal that one past the flag's cap prints, which ends with the cap.
CAPPED = {
    "count B": ("count --quantity B --k {} --m 3", "k 65001 over cap 65000"),
    "count A": ("count --quantity A --k 3 --m {}", "m 25001 over cap 25000"),
    "count O": ("count --quantity O --k {} --m 3", "k 50001 over cap 50000"),
    "count E": ("count --quantity E --k 3 --m {}", "m 40001 over cap 40000"),
    "count fixed": ("count --quantity fixed --n {} --k 3", "n 800001 over cap 800000"),
    "count total-words": ("count --quantity total-words --k {}", "k 140001 over cap 140000"),
    "count total-perms": ("count --quantity total-perms --k {}", "k 140001 over cap 140000"),
    "count total-odd": ("count --quantity total-odd --k {}", "k 110001 over cap 110000"),
    "table B": ("table --quantity B --k-max {}", "k_max 301 over cap 300"),
    "table A": ("table --quantity A --k-max {}", "k_max 151 over cap 150"),
    "table parity": ("table --quantity parity --k-max {}", "k_max 301 over cap 300"),
    "table classes": ("table --quantity classes --m-max {}", "m_max 100001 over cap 100000"),
    "table gf": ("table --quantity gf --n-max {}", "n_max 121 over cap 120"),
    "enumerate words": ("enumerate words --k 3 --m {}", "m 25 over cap 24"),
    "enumerate avoiders": ("enumerate avoiders --n {} --pattern 123", "n 15 over cap 14"),
    "enumerate dyck": ("enumerate dyck --n {}", "n 13 over cap 12"),
    "verify": ("verify --k-max {}", "k_max 201 over cap 200"),
}


def test_every_cap_table_is_swept():
    # a cap added to a command's table needs its CAPPED case
    caps = [
        *(f"count {q}" for q in cli.COUNT_CAPS),
        *(f"table {q}" for q in cli.TABLE_CAPS),
        *(f"enumerate {kind}" for kind in cli.ENUMERATE_CAPS),
        "verify",
    ]
    assert caps == list(CAPPED)


@pytest.mark.parametrize("argv,refusal", CAPPED.values(), ids=CAPPED)
def test_a_flag_is_served_at_its_cap_and_refused_past_it(capsys, monkeypatch, argv, refusal):
    # The count and table formulas and the suites are stubs, so a served
    # command computes nothing; the listings at their caps are cheap.
    monkeypatch.setattr(cli, "_function", lambda module, name: lambda *values: ())
    monkeypatch.setattr(verify, "run_suites", lambda names, opts: [])
    cap = int(refusal.rsplit(" ", 1)[1])
    code, _, err = run(capsys, *argv.format(cap).split())
    assert (code, err) == (0, "")
    assert run(capsys, *argv.format(cap + 1).split()) == (3, "", f"error: {refusal}\n")


class RecordedStdout:
    """A stdout stub that keeps the text of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def recorded_writes(monkeypatch, *argv):
    stub = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stub)
    assert cli.main(list(argv)) == 0
    return stub.writes


class TestBlockWriter:
    """`cli.main` writes its lines in blocks, each in slices of at most
    WRITE_CHARS characters, and writes nothing more."""

    @pytest.mark.parametrize(
        "argv,text",
        [
            (
                ("enumerate", "dyck", "--n", "11"),
                lambda: "".join(f"{p}\n" for p in paths.enumerate_dyck(11)),
            ),
            (
                ("enumerate", "dyck", "--n", "11", "--stats", "peaks"),
                lambda: "".join(rendered_dyck(11, "peaks")),
            ),
            (
                ("table", "--quantity", "gf", "--n-max", "30", "--format", "json"),
                lambda: json.dumps(
                    [dict(zip(("n", "i", "count"), row)) for row in series.inversion_rows(30)]
                )
                + "\n",
            ),
        ],
        ids=["dyck-11", "dyck-11-peaks", "one-long-line"],
    )
    def test_bytes_and_write_count(self, monkeypatch, argv, text):
        writes = recorded_writes(monkeypatch, *argv)
        expected = text()
        assert "".join(writes) == expected
        assert all(0 < len(w) <= cli.WRITE_CHARS for w in writes)
        # at most one short slice per block besides the full ones
        blocks = -(-expected.count("\n") // cli.WRITE_BLOCK)
        assert len(writes) <= blocks + len(expected) // cli.WRITE_CHARS

    def test_no_lines_no_write(self, monkeypatch):
        assert recorded_writes(monkeypatch, "enumerate", "words", "--k", "0", "--m", "0") == []

    def test_one_empty_line(self, monkeypatch):
        assert recorded_writes(monkeypatch, "enumerate", "dyck", "--n", "0") == ["\n"]

    def test_final_partial_block_is_written(self, monkeypatch):
        # 14 words in blocks of 4: three full blocks and one of 2
        monkeypatch.setattr(cli, "WRITE_BLOCK", 4)
        lines = [f"{w}\n" for w in patterns.enumerate_avoiding_words(5, 8)]
        writes = recorded_writes(monkeypatch, "enumerate", "words", "--k", "5", "--m", "8")
        assert writes == ["".join(lines[i : i + 4]) for i in (0, 4, 8, 12)]


# Under PYTHONUNBUFFERED stdout writes through, so each write is a system
# call on the pipe; without it the writes go through an 8 KiB buffer.
STDOUT_MODES = {"unbuffered": True, "buffered": False}


def stdout_mode_env(unbuffered):
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.parametrize(
    "argv,lines,code",
    [
        (("enumerate", "dyck", "--n", "10"), 1, 0),
        (("count", "--quantity", "B", "--k", "3", "--m", "4"), 0, 0),
        (("verify", "--suite", "counting", "--k-max", "4", "--inject-fault", "3,4"), 0, 1),
        (("table", "--quantity", "gf", "--n-max", "120"), 1, 0),
        # 208,012 lines in many slices; 3000 falls inside a later one
        (("enumerate", "dyck", "--n", "12"), 1, 0),
        (("enumerate", "dyck", "--n", "12"), 3000, 0),
    ],
)
@pytest.mark.parametrize("unbuffered", STDOUT_MODES.values(), ids=STDOUT_MODES)
def test_reader_closing_early(unbuffered, argv, lines, code):
    # The reader takes `lines` lines and closes the pipe; the dyck listings
    # and the gf table overflow the pipe buffer, so the writer meets the
    # closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassperm.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=stdout_mode_env(unbuffered),
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert err == b""


def test_unbuffered_pipe_gets_every_byte(capsys):
    # Read to the end through a pipe; under PYTHONUNBUFFERED the text layer
    # would drop the rest of a short write.
    def piped(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "grassperm.cli", *argv],
            capture_output=True,
            text=True,
            env=stdout_mode_env(True),
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    argv, lines, digest = PINNED_GF["120"]
    assert_pinned(*piped("table", "--quantity", "gf", *argv), lines, digest)
    dyck = ("enumerate", "dyck", "--n", "11", "--stats", "peaks")
    assert piped(*dyck) == run(capsys, *dyck)


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs job-control signals")
def test_writer_stopped_on_a_full_pipe_loses_no_bytes(capsys):
    # A write larger than PIPE_BUF to a full pipe returns short when a stop
    # signal (Ctrl-Z) reaches the writer, and under PYTHONUNBUFFERED the text
    # layer drops the rest.  The output is one 0.4 MB JSON line.
    argv = ("table", "--quantity", "gf", "--n-max", "50", "--format", "json")
    _, expected, _ = run(capsys, *argv)
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassperm.cli", *argv],
        stdout=subprocess.PIPE,
        env=stdout_mode_env(True),
    )
    chunks = []
    while chunk := proc.stdout.read1(16384):
        chunks.append(chunk)
        proc.send_signal(signal.SIGSTOP)
        time.sleep(0.001)
        proc.send_signal(signal.SIGCONT)
        time.sleep(0.002)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert b"".join(chunks).decode() == expected


def test_optimized_interpreter_prints_the_pinned_bytes():
    # python -O strips every assert statement, so it must change no result.
    for command, (argv, lines, digest) in [
        (("table", "--quantity", "gf"), PINNED_GF["40"]),
        (("verify",), PINNED_VERIFY["default"]),
        (("verify",), PINNED_VERIFY["raised-json"]),
        ((), PINNED_BULK["parity-100"]),
    ]:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "grassperm.cli", *command, *argv],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=60,
        )
        assert_pinned(proc.returncode, proc.stdout, proc.stderr, lines, digest)


SMALL = st.integers(-3, 6).map(str)
TEXT = st.text("01UD,a2", max_size=6)
OPTIONAL = {
    **dict.fromkeys(
        ("--k", "--m", "--n", "--j", "--cap", "--k-max", "--m-max", "--n-max"), SMALL
    ),
    "--perm-cap": SMALL,
    "--word-cap": SMALL,
    "--stats": st.sampled_from(["inversions", "fixed-points", "peaks"]),
    "--format": st.sampled_from(["csv", "json", "text"]),
    "--inject-fault": st.sampled_from(["3,4", "9,9", "1", "a,b"]) | TEXT,
    # a file under the null device can never be written
    "--svg": st.just(os.path.join(os.devnull, "x.svg")),
}
ENUMERATE = ("--stats", "--cap")
BIJECT = ({"--input": TEXT}, ("--k", "--svg"))
# each command with the flags it needs and the flags it may take
COMMANDS = {
    "count": (
        {"--quantity": st.sampled_from(sorted(cli.COUNT_FORMS))},
        ("--k", "--m", "--n", "--j"),
    ),
    "table": (
        {"--quantity": st.sampled_from(["B", "A", "parity", "classes", "gf"])},
        ("--k-max", "--m-max", "--n-max", "--format"),
    ),
    "enumerate words": ({"--k": SMALL, "--m": SMALL}, ENUMERATE),
    "enumerate avoiders": (
        {"--n": SMALL, "--pattern": st.sampled_from(["12a", "123", "2,1,3"]) | TEXT},
        ENUMERATE,
    ),
    "enumerate dyck": ({"--n": SMALL}, ENUMERATE),
    "biject word-to-dyck": BIJECT,
    "biject word-to-lattice": BIJECT,
    "biject toggle": BIJECT,
    "biject halve": BIJECT,
    "verify": (
        # the paths suite sweeps fixed sizes, too slow to repeat here
        {"--suite": st.sampled_from(["counting", "parity", "classes", "series"])},
        ("--k-max", "--perm-cap", "--word-cap", "--format", "--inject-fault"),
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    argv = command.split()
    for flag, values in required.items():
        argv += [flag, draw(values)]
    for flag in draw(st.lists(st.sampled_from(optional), max_size=3)):
        argv += [flag, draw(OPTIONAL[flag])]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        # a refused command prints nothing to stdout
        assert out.getvalue() == "", argv
