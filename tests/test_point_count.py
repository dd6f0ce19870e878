"""The strata tables against an independent count of points over F_q.

The number of ordered h-tuples of distinct k-subspaces of F_q^n with sum
of dimension i is a polynomial in q.  The stratum over C is irreducible
of dimension d exactly when this polynomial is nonzero, and then it has
degree d and leading coefficient 1.
"""

from __future__ import annotations

import pytest

from grassconf.grassmann import StratumId, is_stratum_nonempty, stratum_dimension

from oracles import (
    distinct_tuple_count,
    gaussian_binomial,
    poly_add,
    poly_at,
    rref_mod_q,
    stratum_point_count,
    stratum_point_counts_brute,
    subspaces_mod_q,
)

# (q, largest h) of the enumerations, all with n <= 4
BRUTE = ((2, 3), (3, 2))


def _grid(h_max: int, n_max: int):
    for h in range(1, h_max + 1):
        for n in range(2, n_max + 1):
            for k in range(1, n):
                for i in range(1, n + 1):
                    yield StratumId(h, i, k, n)


def test_subspace_enumeration_is_reduced_and_complete():
    for q in (2, 3):
        for n in range(1, 5):
            for k in range(n + 1):
                bases = subspaces_mod_q(k, n, q)
                assert len(bases) == poly_at(gaussian_binomial(n, k), q)
                assert all(tuple(rref_mod_q(list(b), q)) == b for b in bases)


@pytest.mark.parametrize("q, h_max", BRUTE)
def test_brute_force_count_equals_the_formula(q, h_max):
    for h in range(1, h_max + 1):
        for n in range(2, 5):
            for k in range(1, n):
                counts = stratum_point_counts_brute(h, k, n, q)
                formula = [poly_at(stratum_point_count(h, i, k, n), q) for i in range(n + 1)]
                assert counts == formula, (q, h, k, n)


def test_count_is_nonzero_exactly_on_nonempty_strata():
    for s in _grid(5, 10):
        count = stratum_point_count(s.h, s.i, s.k, s.n)
        assert bool(count) == is_stratum_nonempty(s), s


def test_count_degree_is_the_stratum_dimension_with_leading_coefficient_one():
    for s in _grid(5, 10):
        if is_stratum_nonempty(s):
            count = stratum_point_count(s.h, s.i, s.k, s.n)
            assert (len(count) - 1, count[-1]) == (stratum_dimension(s), 1), s


def test_strata_counts_sum_to_all_distinct_tuples():
    for h in range(1, 6):
        for n in range(2, 11):
            for k in range(1, n):
                total: tuple[int, ...] = ()
                for i in range(1, n + 1):
                    total = poly_add(total, stratum_point_count(h, i, k, n))
                assert total == distinct_tuple_count(h, k, n), (h, k, n)
