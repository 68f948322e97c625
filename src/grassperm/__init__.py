"""Grassmannian permutations avoiding an increasing pattern: exact counts,
bijections with binary words and Dyck paths, and brute-force certification."""

from .core import (
    a_sequence,
    canonical_word,
    descent_count,
    fixed_points,
    grassmannian_of_word,
    grassmannian_permutations,
    inversion_count,
    is_grassmannian,
    is_odd_word,
    words_of_permutation,
)
from .counting import (
    avoiding_word_count,
    avoiding_word_count_alternating,
    ballot,
    binomial,
    catalan,
    fixed_point_count,
    total_avoiding_perms,
    total_avoiding_words,
)
from .errors import CapExceededError, DomainError
from .parity import even_word_count, odd_word_count, total_odd_avoiders
from .patterns import (
    enumerate_avoiders,
    enumerate_avoiding_words,
    grassmannian_contains,
    permutation_contains,
    word_contains,
)
from .paths import dyck_to_word, enumerate_dyck, word_to_dyck, word_to_lattice

__all__ = [
    "CapExceededError",
    "DomainError",
    "a_sequence",
    "avoiding_word_count",
    "avoiding_word_count_alternating",
    "ballot",
    "binomial",
    "canonical_word",
    "catalan",
    "descent_count",
    "dyck_to_word",
    "enumerate_avoiders",
    "enumerate_avoiding_words",
    "enumerate_dyck",
    "even_word_count",
    "fixed_point_count",
    "fixed_points",
    "grassmannian_contains",
    "grassmannian_of_word",
    "grassmannian_permutations",
    "inversion_count",
    "is_grassmannian",
    "is_odd_word",
    "odd_word_count",
    "permutation_contains",
    "total_avoiding_perms",
    "total_avoiding_words",
    "total_odd_avoiders",
    "word_contains",
    "word_to_dyck",
    "word_to_lattice",
    "words_of_permutation",
]
