import pytest

from grassperm import verify

# At least as wide as every range a test certifies through the harness:
# k <= 7, permutations of [n] for n <= 10, words up to length 2 * 7 - 2.
HARNESS_OPTIONS = verify.Options(k_max=7, perm_cap=10, word_cap=12)


@pytest.fixture(scope="session")
def harness():
    """``harness("suite.check", **at_least)`` is that verify check, run once
    per session at HARNESS_OPTIONS; each keyword names a range parameter of
    the check and the least value the calling test needs it to reach."""
    results = verify.run_suites(None, HARNESS_OPTIONS)
    checks = {f"{r.suite}.{c.name}": c for r in results for c in r.checks}

    def check(name: str, **at_least: int) -> verify.Check:
        found = checks[name]
        for param, least in at_least.items():
            assert found.params[param] >= least, (name, param, found.params[param])
        return found

    return check
