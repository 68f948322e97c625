"""The harness builds each object once, and its records are values."""

import pytest

from grassperm import classes, core, parity, paths, patterns, verify

RAISED = verify.Options(k_max=8, perm_cap=9, word_cap=14)


def counting_calls(monkeypatch, module, name, key):
    """Replace ``module.name`` by a wrapper that records ``key(*args)`` for
    each call (None records nothing); returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        record = key(*args)
        if record is not None:
            calls.append(record)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_suite_paths_enumerates_each_semilength_once(monkeypatch):
    calls = counting_calls(monkeypatch, paths, "enumerate_dyck", lambda n: n)
    assert all(c.passed for c in verify.suite_paths(RAISED))
    assert sorted(calls) == list(range(10))


def test_suite_counting_lists_each_identity_cell_once(monkeypatch):
    calls = counting_calls(
        monkeypatch,
        patterns,
        "enumerate_avoiders",
        lambda n, p: (len(p), n) if core.is_identity(p) else None,
    )
    checks = {c.name: c for c in verify.suite_counting(RAISED)}
    assert checks["word_count_vs_permutation_count"].passed
    assert checks["perm_counts_vs_perm_oracle"].passed
    assert len(calls) == len(set(calls))
    # the cells of both checks, those of m <= perm_cap shared
    word_cells = {(k, m) for k in range(2, 9) for m in range(min(2 * k - 2, 14) + 1)}
    perm_cells = {(k, m) for k in range(1, 9) for m in range(min(2 * k - 2, 9) + 1)}
    assert set(calls) == word_cells | perm_cells


def test_suite_parity_certifies_the_parity_table(monkeypatch):
    # A table cell moved from the even column to the odd one keeps its row
    # summing to B, so only the comparison with the point forms sees it.
    table = parity.parity_table

    def mutant(k_max):
        for k, m, total, odd, even in table(k_max):
            if (k, m) == (5, 4):
                odd, even = odd + 1, even - 1
            yield k, m, total, odd, even

    monkeypatch.setattr(parity, "parity_table", mutant)
    check = {c.name: c for c in verify.suite_parity(verify.Options())}["odd_plus_even_is_total"]
    assert (check.expected, check.actual) == (36, 35)
    assert (check.params["first_mismatch"]["k"], check.params["first_mismatch"]["m"]) == (5, 4)


def test_suite_classes_certifies_the_class_table(monkeypatch):
    # The totals are checked under the names the table prints them by.
    table = classes.class_table
    swap = {"invol": "invol_odd", "invol_odd": "invol"}

    def mutant(m_max):
        return [(swap.get(name, name), m, total) for name, m, total in table(m_max)]

    monkeypatch.setattr(classes, "class_table", mutant)
    check = verify.suite_classes(verify.Options())[0]
    assert check.name == "class_totals_vs_oracle" and not check.passed


def test_options_are_values():
    opts = verify.Options(k_max=3)
    assert opts == verify.Options(3, 9, 20, None)
    assert hash(opts) == hash(verify.Options(k_max=3))
    assert opts != verify.Options()
    assert repr(opts) == "Options(k_max=3, perm_cap=9, word_cap=20, fault=None)"
    assert verify.Options(fault=(2, 1)).fault == (2, 1)
    with pytest.raises(AttributeError):
        opts.k_max = 4
    with pytest.raises(AttributeError):
        del opts.k_max
    with pytest.raises(AttributeError):
        opts.other = 1


def test_checks_and_suite_results():
    good = verify.Check("c", {"n": 1}, 2, 2)
    bad = verify.Check(name="c", params={}, expected=2, actual=1)
    assert good.passed and not bad.passed
    assert good == verify.Check("c", {"n": 1}, 2, 2) != verify.Check("c", {"n": 2}, 2, 2)
    assert repr(bad) == "Check(name='c', params={}, expected=2, actual=1)"
    assert verify.SuiteResult("s", [good]).passed
    assert not verify.SuiteResult(suite="s", checks=[good, bad]).passed
    with pytest.raises(AttributeError):
        good.actual = 1
