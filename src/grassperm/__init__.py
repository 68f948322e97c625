"""Grassmannian permutations avoiding an increasing pattern: exact counts,
bijections with binary words and Dyck paths, and brute-force certification.

The names below are imported from their modules on first use (PEP 562), so
that importing one module of the package does not import them all.
"""

from importlib import import_module

# Each public name and the module that defines it.
EXPORTS = {
    "CapExceededError": "errors",
    "DomainError": "errors",
    "a_sequence": "core",
    "avoiding_word_count": "counting",
    "avoiding_word_count_alternating": "counting",
    "ballot": "counting",
    "binomial": "counting",
    "canonical_word": "core",
    "catalan": "counting",
    "descent_count": "core",
    "dyck_to_word": "paths",
    "enumerate_avoiders": "patterns",
    "enumerate_avoiding_words": "patterns",
    "enumerate_dyck": "paths",
    "even_word_count": "parity",
    "fixed_point_count": "counting",
    "fixed_points": "core",
    "grassmannian_contains": "patterns",
    "grassmannian_of_word": "core",
    "grassmannian_permutations": "core",
    "inversion_count": "core",
    "is_grassmannian": "core",
    "is_odd_word": "core",
    "odd_word_count": "parity",
    "permutation_contains": "patterns",
    "total_avoiding_perms": "counting",
    "total_avoiding_words": "counting",
    "total_odd_avoiders": "parity",
    "word_contains": "patterns",
    "word_to_dyck": "paths",
    "word_to_lattice": "paths",
}

__all__ = sorted(EXPORTS)


def __getattr__(name: str):
    if name not in EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(EXPORTS))
