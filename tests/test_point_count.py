"""The strata tables against an independent count of points over F_q.

The number of ordered h-tuples of distinct k-subspaces of F_q^n with sum
of dimension i is a polynomial in q.  The stratum over C is irreducible
of dimension d exactly when this polynomial is nonzero, and then it has
degree d and leading coefficient 1.

The gamma, pr and eta fibrations are Zariski-locally trivial, so the count
of a total stratum is the count of the base times that of the fiber.  With
N the stratum count and [n, i] the Gaussian binomial:

* gamma, i < n: N(F_h^i(k,n)) = [n, i] N(F_h^i(k,i))
* pr, i = hk: N(F_h^i(k,n)) = q^(k(i-k)) [n-i+k, k] N(F_(h-1)^(i-k)(k,n))
* eta, i < 2k: N(F_2^i(k,n)) = [n, 2k-i] N(F_2^(2(i-k))(i-k, n-2k+i))

These identities check the rewrite rules of homotopy from outside it: each
gamma, pr or eta step of a derivation must hand its query to the stratum
that makes its identity hold.  The same walk backs each step with an
exact round trip of its fibration on its own stratum, whose fiber must be
the stratum the step hands on.
"""

from __future__ import annotations

from collections import Counter

import pytest

from grassconf import fibrations, homotopy
from grassconf._strata import fibration
from grassconf.errors import GrassconfError, OutOfScopeError
from grassconf.grassmann import StratumId, is_stratum_nonempty, stratum_dimension, subspace_sum
from grassconf.homotopy import FreeAbelian, PiQuery, Product, Unknown, Zero
from grassconf.verify import run_roundtrip_suite

from oracles import (
    _poly_mul,
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


def _count(q) -> tuple[int, ...]:
    return stratum_point_count(q.h, q.i, q.k, q.n)


def _fibration_sides(kind: str, total, rest) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of the count identity of kind, for the total stratum and
    the stratum its rule hands on.  With d the chart dimension in
    _strata.fibration, gamma's and eta's base is Gr(d, n), and pr's fiber
    is the k-planes that miss the d-dimensional sum of the front."""
    k, n = total.k, total.n
    d = fibration(kind, StratumId(total.h, total.i, k, n)).chart_dim
    missing = (0,) * (k * d) + gaussian_binomial(n - d, k)
    factor = missing if kind == "pr" else gaussian_binomial(n, d)
    return _count(total), _poly_mul(factor, _count(rest))


def test_fibration_counts_hold_on_every_stratum_they_apply_to():
    checked = {"gamma": 0, "pr": 0, "eta": 0}
    for s in _grid(5, 10):
        for kind in checked:
            try:
                rest = fibration(kind, s).hands_on
            except GrassconfError:
                continue
            if rest is None:  # gamma at h = 1: its fiber is a point
                continue
            left, right = _fibration_sides(kind, s, rest)
            assert left and left == right, (kind, s)
            checked[kind] += 1
    assert checked == {"gamma": 377, "pr": 57, "eta": 70}


STEP_KINDS = {"gamma-reduction": "gamma", "gamma-split": "gamma", "pr-equality": "pr",
              "eta-split": "eta"}


def _queries(expr) -> list:
    factors = expr.factors if isinstance(expr, Product) else (expr,)
    return [f for f in factors if isinstance(f, PiQuery)]


def _fibration_steps():
    """(rule, kind, query, rest) for every fibration step of every derive
    trace with h <= 5 and n <= 10: a step rewrites the first pending query
    of before; the query it hands on, rest, is the one in after that
    before did not already hold."""
    for s in _grid(5, 10):
        if not is_stratum_nonempty(s):
            continue
        for degree in (1, 2):
            try:
                _, trace = homotopy.derive(s, degree)
            except OutOfScopeError:
                assert degree == 2 and s.k == 1
                continue
            for step in trace.steps:
                query, *others = _queries(step.before)
                handed = _queries(step.after)
                for q in others:
                    handed.remove(q)
                if step.rule not in STEP_KINDS:
                    assert handed == [], step.rule
                    continue
                [rest] = handed
                yield step.rule, STEP_KINDS[step.rule], query, rest


def test_every_fibration_step_of_derive_keeps_the_count():
    checked: dict[str, set] = {"gamma": set(), "pr": set(), "eta": set()}
    for rule, kind, query, rest in _fibration_steps():
        left, right = _fibration_sides(kind, query, rest)
        assert left and left == right, (rule, query.render(), rest.render())
        checked[kind].add((query.h, query.i, query.k, query.n))
    assert {kind: len(strata) for kind, strata in checked.items()} == {
        "gamma": 307, "pr": 12, "eta": 20,
    }


def _fiber_stratum(kind: str, point, triv) -> tuple[int, int, int, int]:
    """(h, i, k, n) of the stratum a case's chart point hands on: gamma's
    fiber inside V0, eta's quotient pair inside L0, pr's front."""
    if kind == "gamma":
        fiber = point.fiber
        return fiber.h, fiber.span.k, fiber.k, triv.base_point.k
    if kind == "eta":
        first, second = point.fiber
        return 2, subspace_sum([first, second]).k, first.k, triv.complement.k
    front = point.base
    return front.h, front.span.k, front.k, front.n


def test_every_fibration_step_of_derive_round_trips_on_its_stratum(monkeypatch):
    # each distinct (suite, stratum) pair of the walk runs one exact round
    # trip case, and the fiber that case builds is the stratum its steps
    # hand on: gamma F_h^i(k,i), eta F_2^(2(i-k))(i-k, n-2k+i) and pr the
    # front in F_(h-1)^((h-1)k)(k,n)
    built = []
    for name in ("gamma_trivialize", "pr_trivialize", "eta_fiber_point"):
        def recorded(c, triv, _real=getattr(fibrations, name)):
            point = _real(c, triv)
            built.append((point, triv))
            return point
        monkeypatch.setattr(fibrations, name, recorded)
    fibers: dict[tuple, tuple] = {}
    for steps, (rule, kind, query, rest) in enumerate(_fibration_steps(), 1):
        pair = (kind, query.h, query.i, query.k, query.n)
        if pair not in fibers:
            grid = {"h": query.h, "i": query.i, "k": query.k, "n": query.n}
            if kind == "pr":
                del grid["i"]
            built.clear()
            report = run_roundtrip_suite(kind, grid=grid, cases=1)
            assert report.ok, (rule, query.render(), report.failures)
            [(point, triv)] = built
            fibers[pair] = _fiber_stratum(kind, point, triv)
        assert fibers[pair] == (rest.h, rest.i, rest.k, rest.n), (rule, query.render(), rest.render())
    assert steps == 805
    assert Counter(kind for kind, *_ in fibers) == {"gamma": 307, "pr": 12, "eta": 20}


def test_pi2_rank_is_the_next_to_leading_count_coefficient():
    # a smooth variety with a polynomial point count has it as its
    # E-polynomial (Katz, appendix to Hausel & Rodriguez-Villegas, Invent.
    # Math. 174, 2008); with pi_1 = 0, pi_2 = H_2 and the q^(d-1)
    # coefficient reads the weight-2 part of H^2.  Evidence, not a proof,
    # so it stays a test oracle: every answer 0 or Z^r of derive must match
    checked = 0
    for s in _grid(5, 10):
        if s.k < 2 or not is_stratum_nonempty(s):
            continue
        group, _ = homotopy.derive(s, 2)
        if isinstance(group, Unknown):
            continue
        assert isinstance(group, (Zero, FreeAbelian)), (s, group.render())
        rank = group.rank if isinstance(group, FreeAbelian) else 0
        assert rank == _count(s)[stratum_dimension(s) - 1], (s, group.render())
        checked += 1
    assert checked >= 133
