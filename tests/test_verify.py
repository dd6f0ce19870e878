import json
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassconf.errors import EmptyStratumError, OutsideChartError, UnreachableError
from grassconf.grassmann import (
    Configuration,
    StratumId,
    canonicalize,
    sample_configuration,
    sample_subspace,
    strata_list,
    stratum_of,
    subspace_sum,
)
from grassconf import fibrations, grassmann, linalg, verify
from grassconf.fibrations import ChartPoint
from grassconf.linalg import GaussianRational, Matrix
from grassconf.verify import (
    DEFAULT_GRIDS,
    _chart_tangent,
    _integer_projector,
    _moves_less_than,
    _perturbed_rows,
    _raise_stratum,
    _unit_draws,
    check_adjacency,
    check_dimension,
    configuration_distance,
    run_roundtrip_suite,
    subspace_distance,
)
from oracles import (
    adjacency_bound_reference,
    chart_jacobian_reference,
    chart_tangent_reference,
    conjugate_transpose,
    float_rank_reference,
    leading_rows,
    max_abs,
    orthogonal_projector,
    raise_stratum_reference,
    scaled,
    stack_all,
    to_numpy,
    transform_configuration_reference,
)


def unit_rows(n, *idx):
    return Matrix.from_rows([[1 if j == i else 0 for j in range(n)] for i in idx])


# --- chart metric -------------------------------------------------------------


def test_projector_is_hermitian_idempotent():
    for seed in range(10):
        v = sample_subspace(2, 5, f"metric:{seed}")
        p = orthogonal_projector(v)
        assert p @ p == p
        assert conjugate_transpose(p) == p
        assert v.basis @ p == v.basis


def test_distance_axioms():
    a = sample_subspace(2, 4, 1)
    b = sample_subspace(2, 4, 2)
    assert subspace_distance(a, a) == 0
    d = subspace_distance(a, b)
    assert d > 0
    assert d == subspace_distance(b, a)
    assert isinstance(d, Fraction)


def test_integer_metric_matches_projector_difference():
    # dual route: the scaled-integer distance equals the max-entry norm of
    # the exact projector difference
    for seed in range(15):
        a = sample_subspace(2, 5, f"cross:{seed}:a")
        b = sample_subspace(2, 5, f"cross:{seed}:b")
        direct = max_abs(orthogonal_projector(a) - orthogonal_projector(b))
        assert subspace_distance(a, b) == direct
        # N / d matches the exact projector in the computed upper triangle
        # and in the mirrored lower one
        for v in (a, b):
            exact = orthogonal_projector(v)
            integer = _fraction_projector(linalg._integer_rows(v.basis))
            assert [list(row) for row in exact.entries] == [
                [GaussianRational(re, im) for re, im in row] for row in integer
            ]


def test_distance_invariant_under_signed_permutations():
    c = sample_configuration(StratumId(2, 3, 2, 4), 5)
    d = sample_configuration(StratumId(2, 3, 2, 4), 6)
    base = configuration_distance(c, d)
    perm = canonicalize(
        Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), 4
    ).basis
    moved_c = transform_configuration_reference(c, perm)
    moved_d = transform_configuration_reference(d, perm)
    assert configuration_distance(moved_c, moved_d) == base


# --- float rank ---------------------------------------------------------------


def test_float_rank_basic():
    assert float_rank_reference(np.eye(4), 1e-6) == 4
    assert float_rank_reference(np.zeros((3, 5)), 1e-6) == 0
    a = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]])
    assert float_rank_reference(a, 1e-6) == 1
    # row-scaling is per row: tiny but independent rows still count
    assert float_rank_reference(np.array([[1e-9, 0.0], [0.0, 1e-12]]), 1e-6) == 2
    near = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0], [0.0, 0.0, 3.0]])
    assert float_rank_reference(near, 1e-6) == 2


def test_float_rank_basic_on_lists():
    assert float_rank_reference([[float(r == c) for c in range(4)] for r in range(4)], 1e-6) == 4
    assert float_rank_reference([[0.0] * 5 for _ in range(3)], 1e-6) == 0
    a = [[1.0, 2.0], [2.0, 4.0 + 1e-12]]
    assert float_rank_reference(a, 1e-6) == 1
    # row-scaling is per row: tiny but independent rows still count
    assert float_rank_reference([[1e-9, 0.0], [0.0, 1e-12]], 1e-6) == 2
    near = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0], [0.0, 0.0, 3.0]]
    assert float_rank_reference(near, 1e-6) == 2


# --- chart tangent ----------------------------------------------------------------


# (h, i, k, n): k = 1, inner parameters, i = n, h = 3 with both kinds
CHART_STRATA = [(2, 2, 1, 3), (2, 3, 2, 5), (2, 4, 2, 4), (3, 4, 2, 5), (1, 2, 2, 4)]
FD_STEPS = (1e-4, 1e-5)


@pytest.mark.parametrize("hikn", CHART_STRATA, ids=lambda s: "-".join(map(str, s)))
def test_chart_tangent_matches_numpy_reference(hikn, monkeypatch):
    # entrywise, not only by rank: a tangent built from the conjugated
    # coefficients C_j still has full rank on every stratum of criterion 3.
    # The sum is the only reduction: each C_j is already in RREF.
    h, i, k, n = hikn
    c = sample_configuration(StratumId(*hikn), "chart")
    calls = []

    def counted(rows, _reduce=linalg._rref_rows):
        calls.append(len(rows))
        return _reduce(rows)
    monkeypatch.setattr(linalg, "_rref_rows", counted)
    got = to_numpy(_chart_tangent(c))
    monkeypatch.undo()
    assert calls == [h * k]
    want = chart_tangent_reference(c, 1e-4)
    assert got.shape == want.shape == (i * (n - i) + h * k * (i - k), h * k * (n - k))
    assert np.allclose(got, want, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("hikn", CHART_STRATA, ids=lambda s: "-".join(map(str, s)))
def test_chart_jacobian_matches_numpy_reference(hikn):
    # the former float route, the real Jacobian of the projectors, has
    # twice the exact tangent rank: the chart is holomorphic
    h, i, k, n = hikn
    c = sample_configuration(StratumId(*hikn), "chart")
    tangent = _chart_tangent(c)
    n_outer, n_inner = i * (n - i), k * (i - k)
    tangent_rank = linalg.rank(tangent)
    assert tangent_rank == tangent.rows == n_outer + h * n_inner
    for step in FD_STEPS:
        assert float_rank_reference(chart_jacobian_reference(c, step), 1e-6) == 2 * tangent_rank
    # an inner coordinate of point j moves point j only: its row is exactly
    # zero outside point j's block
    block = k * (n - k)
    for q in range(n_outer, tangent.rows):
        j = (q - n_outer) // n_inner
        row = tangent.entries[q]
        assert not any(row[:j * block]) and not any(row[(j + 1) * block:])


# --- dimension ----------------------------------------------------------------


def test_dimension_single_subspace_is_grassmannian():
    report = check_dimension(StratumId(1, 2, 2, 5), samples=2, seed=3)
    assert report.ok
    assert report.parameters == {"h": 1, "i": 2, "k": 2, "n": 5, "samples": 2, "seed": "3"}


def test_dimension_seed_is_keyword_only():
    # the third positional parameter was tol, which had no effect; an old
    # positional tol must not silently become the seed
    with pytest.raises(TypeError):
        check_dimension(StratumId(2, 3, 2, 4), 3, 1e-6)


def test_dimension_pair_example():
    report = check_dimension(StratumId(2, 3, 2, 4), samples=3, seed=1)
    assert report.ok, report.failures
    # tangent rank checked against dimension 7 inside the suite


def test_dimension_open_stratum_with_small_sum():
    report = check_dimension(StratumId(3, 4, 2, 5), samples=2, seed=2)
    assert report.ok, report.failures


def test_dimension_empty_stratum_raises():
    with pytest.raises(EmptyStratumError):
        check_dimension(StratumId(2, 2, 2, 4))


def test_dimension_records_a_tangent_of_low_rank(monkeypatch):
    # a tangent whose last row repeats its first has the predicted row
    # count but rank one less; the mod-p certificate falls short, and the
    # exact rank names the failure
    def repeated(c, _real=verify._chart_tangent):
        t = _real(c)
        return Matrix._of(t.rows, t.cols, t.zrows[:-1] + t.zrows[:1])
    monkeypatch.setattr(verify, "_chart_tangent", repeated)
    report = check_dimension(StratumId(2, 3, 2, 4), samples=2, seed=1)
    assert (report.cases, report.passed) == (2, 0)
    assert report.failures == [(f"1:{idx}", "tangent rank 6 != dimension 7") for idx in range(2)]


# --- adjacency ------------------------------------------------------------------


def test_adjacency_witness_trivial_when_target_is_current():
    c = sample_configuration(StratumId(2, 4, 2, 4), 0)
    report = check_adjacency(c, 4, Fraction(1, 1000), trials=5, seed=0)
    assert report.ok, report.failures


def test_adjacency_witness_at_the_base_stratum_runs_no_rank_test(monkeypatch):
    # target_i = j0 tilts no row, so the witness passes without the
    # rank-only elimination or the _rank_at_least that a tilt needs
    c = sample_configuration(StratumId(3, 4, 2, 6), "golden")
    calls = []

    def eliminated(grid, reduce=True, _rref=linalg._integer_rref):
        if not reduce:
            calls.append("_integer_rref")
        return _rref(grid, reduce)

    def ranked(rows, r, _rank=linalg._rank_at_least):
        calls.append("_rank_at_least")
        return _rank(rows, r)
    monkeypatch.setattr(linalg, "_integer_rref", eliminated)
    monkeypatch.setattr(linalg, "_rank_at_least", ranked)
    report = check_adjacency(c, 4, Fraction(1, 1000), trials=0)
    assert calls == []
    assert report.to_json() == {
        "suite": "adjacency", "cases": 1, "passed": 1, "failures": [],
        "params": {"h": 3, "k": 2, "n": 6, "from": 4, "target_i": 4, "eps": "1/1000",
                   "trials": 0, "seed": "0"},
    }


def test_adjacency_witness_moves_up_one():
    c = sample_configuration(StratumId(2, 3, 2, 6), 1)
    report = check_adjacency(c, 4, Fraction(1, 1000), trials=10, seed=1)
    assert report.ok, report.failures


def test_adjacency_witness_converges_at_half_eps():
    c = sample_configuration(StratumId(3, 3, 2, 6), 2)
    for eps in (Fraction(1, 1000), Fraction(1, 2000)):
        report = check_adjacency(c, 6, eps, trials=0, seed=2)
        assert report.ok, report.failures


def test_adjacency_semicontinuity_trials():
    c = sample_configuration(StratumId(2, 3, 2, 4), 3)
    report = check_adjacency(c, 4, Fraction(1, 1000), trials=40, seed=3)
    assert report.cases == 41
    assert report.ok, report.failures


def test_adjacency_eps_int_is_exact():
    c = sample_configuration(StratumId(2, 3, 2, 4), 3)
    report = check_adjacency(c, 4, 1, trials=5, seed=3)
    assert report.ok, report.failures
    assert report.parameters["eps"] == "1"
    assert report.to_json() == check_adjacency(c, 4, Fraction(1), trials=5, seed=3).to_json()


@pytest.mark.parametrize("eps", [10 ** 48, 10 ** 60], ids=["1e48", "1e60"])
def test_trials_shrink_without_a_cap_at_huge_eps(eps):
    # the bound is half the smallest projector gap, so from
    # t = eps * randint(1, 4096) / 32768 a trial's b grows by 4^j with j
    # well over 80 before _moves_less_than certifies the move, as the
    # witness's does; _shrunk has no cap
    c = sample_configuration(StratumId(2, 3, 2, 4), 3)
    report = check_adjacency(c, 4, eps, trials=20, seed=0)
    assert report.cases == 21
    assert report.ok, report.failures


@pytest.mark.parametrize("eps", [0.001, "1/1000", Decimal("0.001"), True], ids=repr)
def test_adjacency_eps_rejects_inexact_types(eps):
    # a float eps would make every distance bound inexact
    c = sample_configuration(StratumId(2, 3, 2, 4), 3)
    with pytest.raises(TypeError, match="eps"):
        check_adjacency(c, 4, eps, trials=1)


def test_integer_projector_rejects_dependent_rows():
    with pytest.raises(ArithmeticError):
        _integer_projector([((1, 0), (2, 1)), ((2, 0), (4, 2))])


SMALL_STRATA = [s for h in (2, 3) for n in range(2, 6) for k in range(1, n)
                for s in strata_list(h, k, n)]


@given(
    st.sampled_from(SMALL_STRATA),
    st.integers(0, 2 ** 32),
    st.fractions(Fraction(1, 10 ** 6), Fraction(1), max_denominator=10 ** 6),
    st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(1, 2), Fraction(1), None]),
)
@settings(max_examples=80, deadline=None)
def test_moves_less_than_is_sound(s, seed, t, eps):
    # whenever the certificate accepts, the exact route agrees: every moved
    # point keeps rank k and lies within the bound, and the points stay
    # distinct when the bound is at most half the smallest gap
    c = sample_configuration(s, seed)
    rng = random.Random(seed)
    directions = [[[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(c.n)]
                   for _ in range(c.k)] for _ in range(c.h)]
    size = max(sum(re * re + im * im for row in d for re, im in row) for d in directions)
    gap = min(subspace_distance(p, q) for p, q in combinations(c.points, 2))
    bound = gap / 2 if eps is None else eps
    t = Fraction(t.numerator, verify._shrunk(size, t.numerator, t.denominator, bound))
    moved = [
        canonicalize(p.basis + scaled(Matrix(c.k, c.n, tuple(
            tuple(GaussianRational(re, im) for re, im in row) for row in d
        )), t), c.n)
        for p, d in zip(c.points, directions)
    ]
    assert all(q.k == c.k for q in moved)
    assert all(subspace_distance(p, q) < bound for p, q in zip(c.points, moved))
    if bound <= gap / 2:
        assert all(p != q for p, q in combinations(moved, 2))


def test_moves_less_than_is_strict_at_the_threshold():
    # e = t sqrt(size) = 1/3 gives e / (1 - e) = 1/2 exactly; t = a/b need
    # not be reduced, as the test is homogeneous in (a, b)
    for g in (1, 7, 4 ** 5):
        assert not _moves_less_than(1, g, 3 * g, Fraction(1, 2))
        assert _moves_less_than(1, g, 3 * g, Fraction(1, 2) + Fraction(1, 10 ** 9))
        assert not _moves_less_than(4, g, 6 * g, Fraction(1, 2))
        assert _moves_less_than(0, 10 ** 9 * g, g, Fraction(1, 10 ** 9))


def _shrunk_reference(size, a, b, bound):
    """The loop that _shrunk replaces: b *= 4 until a^2 size (p + q)^2 <
    p^2 b^2, the test of _moves_less_than, with each side computed once."""
    p, q = bound.numerator, bound.denominator
    left, right = a * a * size * (p + q) ** 2, p * p * b * b
    while left >= right:
        b *= 4
        right *= 16
    return b


# up to 4,300 digits, the most an --eps can have under the default
# int-to-str limit (and the most a failing example can print)
_PARTS = st.one_of(st.integers(1, 2 ** 64), st.integers(1, 10 ** 300),
                   st.integers(1, 10 ** 4300 - 1))


@given(st.integers(0, 300), _PARTS, _PARTS, _PARTS, _PARTS)
@settings(max_examples=150, deadline=None)
def test_shrunk_is_the_least_scale_the_certificate_accepts(size, a, b, p, q):
    # the closed form gives the loop's b, and asks _moves_less_than once
    bound = Fraction(p, q)
    calls = []

    def counted(*args):
        calls.append(args)
        return _moves_less_than(*args)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(verify, "_moves_less_than", counted)
        got = verify._shrunk(size, a, b, bound)
    assert got == _shrunk_reference(size, a, b, bound)
    assert len(calls) == 1
    assert _moves_less_than(size, a, got, bound)
    assert got == b or not _moves_less_than(size, a, got // 4, bound)


def _per_trial(monkeypatch):
    """Switch off the check-wide certificate, so that every check with
    trials runs them one at a time, as a check that it does not cover
    does."""
    monkeypatch.setattr(verify, "_certifies_every_trial", lambda h, eps, floor: False)


def test_trials_shrink_when_two_points_are_close(monkeypatch):
    # points 0 and 1 are 1/10000 apart, less than 2 * eps, so the bound
    # is half their gap and most trials must shrink below their first t;
    # the check-wide certificate covers this check, so it is switched off
    eps = Fraction(1, 1000)
    _per_trial(monkeypatch)
    points = [canonicalize(Matrix.from_rows(rows), 4) for rows in (
        [[1, 0, 0, 0]], [[1, Fraction(1, 10000), 0, 0]], [[0, 1, 0, 0]],
    )]
    c = Configuration.of(points)
    assert stratum_of(c) == 2 and subspace_distance(points[0], points[1]) < 2 * eps
    calls = []

    def recorded(size, a, b, bound, _shrunk=verify._shrunk):
        calls.append((size, a, b, bound, _shrunk(size, a, b, bound)))
        return calls[-1][-1]
    monkeypatch.setattr(verify, "_shrunk", recorded)
    report = check_adjacency(c, 3, eps, trials=40, seed=5)
    assert report.cases == 41
    assert report.ok, report.failures
    # the witness makes one tilt at size 1 against eps; a trial certifies
    # the largest sum of |d|^2 over its points' directions, each draw d
    # stored as d + 1, against half the gap
    (size, _, _, bound, _), *trials = calls
    assert (size, bound) == (1, eps) and len(trials) == 40
    assert sum(got > b for _, _, b, _, got in trials) >= 20
    half_gap = subspace_distance(points[0], points[1]) / 2
    for idx, (size, a, b, bound, got) in enumerate(trials):
        draws = _unit_draws(random.Random(f"adjacency:5:{idx}"), 2 * 3 * 4)
        assert size == max(sum((v - 1) ** 2 for v in draws[8 * p:8 * p + 8]) for p in range(3))
        assert bound == half_gap and got == _shrunk_reference(size, a, b, bound)


@pytest.mark.parametrize("s, target, eps", [
    (StratumId(10, 2, 1, 11), 10, Fraction(1, 1000)),  # 8 * (1 + eps) > 8
    (StratumId(8, 2, 1, 9), 8, Fraction(1, 3)),  # 6 * (1 + eps) = 8 exactly
], ids=str)
def test_witness_shrinks_for_many_tilts(monkeypatch, s, target, eps):
    c = sample_configuration(s, "golden")
    j0 = stratum_of(c)
    assert (target - j0) * (1 + eps) >= 8
    raised = []

    def recorded(points, total, target_i, t, kept, _raise=verify._raise_stratum):
        got = _raise(points, total, target_i, t, kept)
        raised.append((t, _canonical_points(got, total.n)))
        return got
    monkeypatch.setattr(verify, "_raise_stratum", recorded)
    report = check_adjacency(c, target, eps, trials=0, seed=0)
    assert report.ok, report.failures
    [(t, pts)] = raised
    assert t == eps / 32
    assert stratum_of(Configuration.of(pts)) == target
    assert max(subspace_distance(p, q) for p, q in zip(c.points, pts)) < eps


def test_witness_at_the_base_stratum_computes_no_scale(monkeypatch):
    # with target j0 no tilt is made, so no t is shrunk; one stratum up,
    # the witness shrinks its one t
    c = sample_configuration(StratumId(3, 4, 2, 6), "golden")
    j0 = stratum_of(c)
    calls = []

    def recorded(*args, _shrunk=verify._shrunk):
        calls.append(args)
        return _shrunk(*args)
    monkeypatch.setattr(verify, "_shrunk", recorded)
    report = check_adjacency(c, j0, Fraction(1, 1000), trials=0, seed=3)
    assert calls == [] and report.ok
    check_adjacency(c, j0 + 1, Fraction(1, 1000), trials=0, seed=3)
    assert len(calls) == 1


def test_witness_lands_in_the_target_stratum_within_eps(monkeypatch):
    # every pair of strata low <= high with h <= 4 and n <= 7, from two
    # samples of low, at a small and a large eps: the witness's points
    # span the target stratum, each within eps of its base point
    raised = []

    def recorded(points, total, target_i, t, kept, _raise=verify._raise_stratum):
        got = _raise(points, total, target_i, t, kept)
        raised.append(_canonical_points(got, total.n))
        return got
    monkeypatch.setattr(verify, "_raise_stratum", recorded)
    checked = 0
    for h in (2, 3, 4):
        for n in range(2, 8):
            for k in range(1, n):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    for seed in (0, 1):
                        c = sample_configuration(low, f"witness:{seed}")
                        for high in ids[a:]:
                            for eps in (Fraction(1, 1000), Fraction(5)):
                                raised.clear()
                                assert check_adjacency(c, high.i, eps, seed=seed).ok
                                if high == low:  # c is its own witness; nothing is tilted
                                    assert raised == []
                                    pts = c.points
                                else:
                                    [pts] = raised
                                assert stratum_of(Configuration.of(pts)) == high.i
                                assert all(subspace_distance(p, q) < eps
                                           for p, q in zip(c.points, pts))
                                checked += 1
    assert checked == 916


def _projector_log(monkeypatch):
    calls = []

    def counted(rows, _build=verify._integer_projector):
        calls.append(len(rows))
        return _build(rows)
    monkeypatch.setattr(verify, "_integer_projector", counted)
    return calls


def test_adjacency_builds_one_projector_per_point(monkeypatch):
    # the trials and the witness certify their moves without a projector,
    # and at eps 1/1000 the check-wide certificate covers every trial, so
    # no trial bound is needed; at eps 5 it does not, so each point's
    # projector is built, once, and only when the check runs trials
    calls = _projector_log(monkeypatch)
    c = sample_configuration(StratumId(3, 3, 2, 6), "golden")
    for eps, built in ((Fraction(1, 1000), []), (Fraction(5), [2, 2, 2])):
        for trials in (0, 7, 30):
            calls.clear()
            assert check_adjacency(c, 6, eps, trials=trials, seed="golden").ok
            assert calls == (built if trials else [])


def test_criterion_7_builds_no_projector(monkeypatch):
    # the check-wide certificate covers every check of criterion 7's grid,
    # so no check runs a trial or needs the trials' bound, and none builds
    # a projector
    calls = _projector_log(monkeypatch)
    checks = 0
    for h in (2, 3):
        for k in (1, 2, 3):
            for n in range(k + 1, 7):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    c = sample_configuration(low, f"adj:{h}:{k}:{n}:{low.i}")
                    for high in ids[a + 1:]:
                        assert check_adjacency(c, high.i, Fraction(1, 1000), trials=20, seed=7).ok
                        checks += 1
    assert checks == 25
    assert calls == []


BOUND_EPS = (
    Fraction(1, 10 ** 9), Fraction(1, 1000), Fraction(1, 7), Fraction(1, 2), Fraction(1),
    Fraction(5),
)


def test_trial_bound_matches_the_all_pairs_reference(monkeypatch):
    # the trials' bound equals the all-pairs projector route on every
    # nonempty stratum with h <= 4 and n <= 7, plus two points 1/10000
    # apart beside a third, at every eps; each point's projector is built
    # once
    calls = _projector_log(monkeypatch)
    close = Configuration.of([canonicalize(Matrix.from_rows(rows), 4) for rows in (
        [[1, 0, 0, 0]], [[1, Fraction(1, 10000), 0, 0]], [[0, 1, 0, 0]],
    )])
    corpus = [close] + [
        sample_configuration(s, f"bound:{s.h}")
        for h in (2, 3, 4) for n in range(2, 8) for k in range(1, n)
        for s in strata_list(h, k, n)
    ]
    for c in corpus:
        for eps in BOUND_EPS:
            calls.clear()
            want = adjacency_bound_reference(c, eps)
            assert verify._trial_bound(c.points, eps) == want, (c, eps)
            assert calls == [c.k] * c.h
    calls.clear()
    verify._trial_bound(close.points, Fraction(1, 1000))
    assert calls == [1, 1, 1]
    assert len(corpus) == 1 + 129


def _fraction_projector(rows):
    numerator, d = _integer_projector(rows)
    return [[(Fraction(re, d), Fraction(im, d)) for re, im in row] for row in numerator]


def test_perturbed_rows_match_rational_perturbation():
    # the semicontinuity trials build basis + t * D as Z[i] rows; the
    # Q(i) route must give the same projector and the same rank
    checked = 0
    for s_id, seed in ((StratumId(2, 3, 2, 4), 0), (StratumId(3, 4, 2, 6), 1),
                       (StratumId(3, 5, 3, 6), 2), (StratumId(3, 2, 1, 4), 3)):
        c = sample_configuration(s_id, seed)
        rng = random.Random(f"perturb:{seed}")
        for t in (Fraction(1), Fraction(-3, 7), Fraction(1, 8000), Fraction(4095, 2 ** 45)):
            raw, reference = [], []
            for p in c.points:
                base = [linalg._integer_row(row) for row in p.basis.entries]
                direction = [[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(c.n)]
                             for _ in range(c.k)]
                rows = _perturbed_rows(base, direction, t)
                perturbed = p.basis + scaled(Matrix(c.k, c.n, tuple(
                    tuple(GaussianRational(re, im) for re, im in d_row) for d_row in direction
                )), t)
                assert _fraction_projector(rows) == _fraction_projector(
                    linalg._integer_rows(perturbed)
                )
                raw.append(rows)
                reference.append(perturbed)
                checked += 1
            stacked = [row for rows in raw for row in rows]
            count = len(linalg._integer_rref(stacked, reduce=False)[1])
            assert count == linalg.rank(stack_all(reference))
    assert checked == 4 * (2 + 3 + 3 + 3)


def test_unit_draws_match_randint():
    # the trials draw their directions without randint, as bytes holding
    # draw + 1; values and the generator state afterwards must be randint's,
    # so that the scale t drawn next and every report stay the same
    for seed in (0, 1, "adjacency:3:0", 12345):
        for count in (0, 1, 2, 12_000):
            ours, reference = random.Random(seed), random.Random(seed)
            draws = _unit_draws(ours, count)
            assert isinstance(draws, bytes)
            assert [v - 1 for v in draws] == [reference.randint(-1, 1) for _ in range(count)]
            assert ours.getstate() == reference.getstate()
            assert ours.randint(1, 4096) == reference.randint(1, 4096)
        assert set(draws) == {0, 1, 2}


def test_unit_draws_match_randint_across_seeds_and_counts():
    # every count from 0 to 200 on 3,000 seeds: a round that drops words
    # whose top bits are 3 fetches exactly as many words as it dropped
    for seed in range(3000):
        count = seed % 201
        ours, reference = random.Random(seed), random.Random(seed)
        assert [v - 1 for v in _unit_draws(ours, count)] == [
            reference.randint(-1, 1) for _ in range(count)
        ]
        assert ours.getstate() == reference.getstate()


def _trial_reference(c, eps, bound, rng):
    """A trial's (draws, size, nonzero, a, b) from randint: 2hkn draws in
    {-1, 0, 1}, size the largest sum of |d|^2 over a point, nonzero the
    sum over all points, a = eps.numerator * randint(1, 4096) and b shrunk
    from 32768 * eps.denominator by the loop that _shrunk replaces."""
    draws = [rng.randint(-1, 1) for _ in range(2 * c.h * c.k * c.n)]
    per_point = 2 * c.k * c.n
    size = max(sum(v * v for v in draws[p * per_point:(p + 1) * per_point]) for p in range(c.h))
    a = eps.numerator * rng.randint(1, 4096)
    b = _shrunk_reference(size, a, 32768 * eps.denominator, bound)
    return draws, size, sum(v * v for v in draws), a, b


def test_trials_match_randint_on_the_adjacency_grid(monkeypatch):
    # on every (h, k, n) of the bench's adjacency grid, a trial's draws,
    # size, nonzero count and scale t = a/b, and the generator state
    # afterwards, are those of the randint restatement.  size, a and b are
    # _shrunk's; nonzero is pinned by two floors that straddle it (the
    # trial is certified at the upper one and reaches the exact rank at the
    # lower); the draws are read back from the exact rank's perturbed rows.
    # The check-wide certificate covers these checks, so it is switched off
    # to capture the values that the check hands its trials
    eps = Fraction(1, 1000)
    handed, shrunk, ranked = [], [], []
    _per_trial(monkeypatch)

    def captured(*args, _trial=verify._semicontinuity_trial):
        handed.append(args[:-2])
        return _trial(*args)

    def recorded(size, a, b, bound, _shrunk=verify._shrunk):
        shrunk.append((size, a, b, bound, _shrunk(size, a, b, bound)))
        return shrunk[-1][-1]

    def fallback(rows, r):
        ranked.append(([list(row) for row in rows], r))
        return True
    monkeypatch.setattr(verify, "_shrunk", recorded)
    monkeypatch.setattr(linalg, "_rank_at_least", fallback)
    checked = 0
    for h in (2, 3):
        for k in (1, 2, 3):
            for n in range(k + 1, 7):
                s = strata_list(h, k, n)[0]
                c = sample_configuration(s, f"stream:{s}")
                with pytest.MonkeyPatch.context() as patched:
                    patched.setattr(verify, "_semicontinuity_trial", captured)
                    check_adjacency(c, s.i, eps, trials=1)
                got, base, got_eps, bound = handed.pop()
                assert got is c and got_eps == eps
                for seed in range(5):
                    ours, reference = random.Random(seed), random.Random(seed)
                    draws, size, nonzero, a, b = _trial_reference(c, eps, bound, reference)
                    above = (a * a * (2 * nonzero + 1), 2 * b * b)
                    below = (a * a * (2 * nonzero - 1), 2 * b * b)
                    # certified by the floor above the move; past the
                    # floor below it, decided by the exact rank
                    shrunk.clear()
                    ranked.clear()
                    assert verify._semicontinuity_trial(c, base, eps, bound, above, ours) is None
                    assert ours.getstate() == reference.getstate()
                    assert shrunk == [(size, a, 32768 * 1000, bound, b)] and ranked == []
                    assert verify._semicontinuity_trial(
                        c, base, eps, bound, below, random.Random(seed)) is None
                    ((rows, r),) = ranked
                    assert r == s.i
                    # the rows are b * row + a * scale * d at t = a/b in lowest terms
                    t = Fraction(a, b)
                    a, b = t.numerator, t.denominator
                    moved = [[((re - b * base_re) // (a * scale), (im - b * base_im) // (a * scale))
                              for (re, im), (base_re, base_im) in zip(row, base_row)]
                             for row, (scale, base_row) in zip(rows, base)]
                    assert [v for row in moved for part in row for v in part] == draws
                    checked += 1
    assert checked == 5 * 24 and not handed


def _trial_log(monkeypatch):
    """The linalg._rank_at_least calls ("rank", rows, r) made inside
    semicontinuity trials, in order; the witness's calls are left out."""
    log, inside = [], []

    def trial(*args, _trial=verify._semicontinuity_trial):
        inside.append(True)
        try:
            return _trial(*args)
        finally:
            inside.pop()

    def ranked(rows, r, _rank=linalg._rank_at_least):
        if inside:
            log.append(("rank", [list(row) for row in rows], r))
        return _rank(rows, r)
    monkeypatch.setattr(verify, "_semicontinuity_trial", trial)
    monkeypatch.setattr(linalg, "_rank_at_least", ranked)
    return log


def _no_floor(monkeypatch):
    """Zero both of the trials' floors."""
    monkeypatch.setattr(verify, "_det_floor", lambda base, pivots, kept, d: (0, 1))
    monkeypatch.setattr(verify, "_sigma_floor", lambda rows: (0, 1))


def test_trials_without_the_floor_give_the_same_reports(monkeypatch):
    # with the floor at 0 every trial builds its exact rows and one
    # _rank_at_least call at j0 decides it, with the same verdicts
    checks = [(sample_configuration(s, "golden"), target) for s, target in WITNESS_CASES[:3]]
    certified = [check_adjacency(c, target, Fraction(1, 1000), trials=10, seed="golden").to_json()
                 for c, target in checks]
    log = _trial_log(monkeypatch)
    _no_floor(monkeypatch)
    for (c, target), want in zip(checks, certified):
        log.clear()
        got = check_adjacency(c, target, Fraction(1, 1000), trials=10, seed="golden")
        assert json.dumps(got.to_json()) == json.dumps(want)
        assert [r for _, _, r in log] == [stratum_of(c)] * 10


def test_trials_past_the_floor_decide_by_the_exact_rank(monkeypatch):
    # at eps = 5 the points of these samples are far enough apart that some
    # trials move the stack by more than the floor proves safe; those reach
    # _rank_at_least, and the report is the one that a floor of 0 gives.
    # The second check is the CI step "Adjacency per-trial smoke",
    # grassconf verify --suite adjacency --h 3 --i 5 --k 2 --n 6 --target 6
    # --eps 5 --trials 200 --seed 1: 52 of its 200 trials reach the exact rank
    s = StratumId(3, 5, 2, 6)
    checks = [(sample_configuration(s, seed), trials, seed, exact)
              for seed, trials, exact in (("golden", 10, 3), (1, 200, 52))]
    log = _trial_log(monkeypatch)
    reports = []
    for c, trials, seed, exact in checks:
        log.clear()
        reports.append(check_adjacency(c, 6, Fraction(5), trials=trials, seed=seed))
        assert reports[-1].ok, reports[-1].failures
        assert len(log) == exact
        assert {r for _, _, r in log} == {5}
    _no_floor(monkeypatch)
    for (c, trials, seed, _), report in zip(checks, reports):
        log.clear()
        forced = check_adjacency(c, 6, Fraction(5), trials=trials, seed=seed)
        assert json.dumps(forced.to_json()) == json.dumps(report.to_json())
        assert len(log) == trials


def test_a_trial_that_drops_is_recorded(monkeypatch):
    # force the trials' exact fallback to report a drop: exactly the trials
    # past the floor fail, with the drop's text, and the witness, whose
    # _rank_at_least runs outside any trial, still passes
    c = sample_configuration(StratumId(3, 5, 2, 6), "golden")
    started, inside, dropped = [], [], []

    def trial(*args, _trial=verify._semicontinuity_trial):
        started.append(True)
        inside.append(True)
        try:
            return _trial(*args)
        finally:
            inside.pop()

    def ranked(rows, r, _rank=linalg._rank_at_least):
        if inside:
            dropped.append(len(started) - 1)
            return False
        return _rank(rows, r)
    monkeypatch.setattr(verify, "_semicontinuity_trial", trial)
    monkeypatch.setattr(linalg, "_rank_at_least", ranked)
    report = check_adjacency(c, 6, Fraction(5), trials=10, seed="golden")
    assert len(started) == 10
    assert len(dropped) == 3
    assert (report.cases, report.passed) == (11, 8)
    assert report.failures == [
        (f"golden:{idx}", "stratum dropped under a perturbation of size < eps") for idx in dropped
    ]


def _trial_move_reference(c, eps, bound, case_seed):
    """A trial's t^2 ||D||_F^2, which a floor num / den certifies when it
    is below num / den, from randint draws and a Fraction scale: t shrinks
    by 4 until t^2 size < (bound / (1 + bound))^2, size the largest sum of
    |d|^2 over a point."""
    rng = random.Random(f"adjacency:{case_seed}")
    draws = [rng.randint(-1, 1) for _ in range(2 * c.h * c.k * c.n)]
    per_point = 2 * c.k * c.n
    size = max(sum(v * v for v in draws[p * per_point:(p + 1) * per_point]) for p in range(c.h))
    t = eps * Fraction(rng.randint(1, 4096), 4096) / 8
    while t * t * size >= (bound / (1 + bound)) ** 2:
        t /= 4
    return t * t * sum(v * v for v in draws)


def test_trials_reach_the_exact_rank_exactly_when_the_floor_fails(monkeypatch):
    # the trials count nonzero draws in their bytes; the route of every
    # trial must be the one that the randint draws give: a trial reaches
    # the exact rank exactly when its move is at least the larger of the
    # two floors.  The check-wide certificate is switched off, so each
    # check fails it with the determinant floor and builds its Gram floor
    # once
    routes, firsts, grams = [], [], []
    _per_trial(monkeypatch)

    def trial(*args, _trial=verify._semicontinuity_trial):
        routes.append(False)
        return _trial(*args)

    def ranked(rows, r, _rank=linalg._rank_at_least):
        if routes:
            routes[-1] = True
        return _rank(rows, r)

    def first(*args, _floor=verify._det_floor):
        firsts.append(_floor(*args))
        return firsts[-1]

    def gram(rows, _floor=verify._sigma_floor):
        grams.append(_floor(rows))
        return grams[-1]
    monkeypatch.setattr(verify, "_semicontinuity_trial", trial)
    monkeypatch.setattr(linalg, "_rank_at_least", ranked)
    monkeypatch.setattr(verify, "_det_floor", first)
    monkeypatch.setattr(verify, "_sigma_floor", gram)
    checked = set()
    for s, target in [(StratumId(3, 5, 2, 6), 6)] + WITNESS_CASES:
        c = sample_configuration(s, "golden")
        for eps in (Fraction(1, 3), Fraction(5)):
            routes.clear()
            firsts.clear()
            grams.clear()
            assert check_adjacency(c, target, eps, trials=20, seed="golden").ok
            bound = min([eps] + [subspace_distance(p, q) / 2
                                 for p, q in combinations(c.points, 2)])
            moves = [_trial_move_reference(c, eps, bound, f"golden:{idx}") for idx in range(20)]
            assert len(firsts) == len(grams) == 1
            floor = max(Fraction(*firsts[0]), Fraction(*grams[0]))
            assert routes == [move >= floor for move in moves]
            checked.update(routes)
    assert checked == {False, True}


def test_floor_runs_no_mod_p_elimination(monkeypatch):
    # the floor reads the base stack at its sum's pivot columns, so a check
    # with trials runs only the witness's one mod-p rank, of its tilted
    # rows' residues modulo the sum (3 x 3, cap target - j0); neither the
    # floor nor a trial runs one
    c = sample_configuration(StratumId(3, 3, 2, 6), "golden")
    calls = []

    def recorded(rows, cap, _rank=linalg._modular_rank):
        rows = [list(row) for row in rows]
        calls.append((len(rows), len(rows[0]), cap))
        return _rank(rows, cap)
    monkeypatch.setattr(linalg, "_modular_rank", recorded)
    for trials in (0, 7, 30):
        calls.clear()
        assert check_adjacency(c, 6, Fraction(1, 1000), trials=trials, seed="golden").ok
        assert calls == [(3, 3, 3)]


def _singular_values(rows):
    """numpy's singular values of the Q(i) matrix of the stored rows."""
    return np.linalg.svd(np.array(
        [[complex(re, im) / scale for re, im in row] for scale, row in rows]
    ), compute_uv=False)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_sigma_floor_is_below_the_smallest_singular_value(h):
    # numpy's SVD is the oracle: the floor of the base stack M at its sum's
    # pivot columns P must lie below sigma_min(M[:, P])^2 <= sigma_j0(M)^2
    # by more than rounding, so a floor within rounding of the bound fails
    # rather than passes
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            for s in strata_list(h, k, n):
                c = sample_configuration(s, f"floor:{s}")
                stack = stack_all(p.basis for p in c.points)
                cols = stack.columns(c.span.pivots()).transpose().zrows
                assert len(cols) == s.i
                num, den = verify._sigma_floor(cols)
                lowest = _singular_values(cols)[-1]
                assert lowest <= _singular_values(stack.zrows)[s.i - 1] * (1 + 1e-12)
                assert 0 < num and float(Fraction(num, den)) * (1 + 1e-9) < lowest ** 2, s
                checked += 1
    assert checked == {2: 34, 3: 45, 4: 50}[h]


def test_sigma_floor_of_dependent_rows_is_zero():
    assert verify._sigma_floor([(1, ((1, 0), (2, 1))), (2, ((2, 0), (4, 2)))]) == (0, 1)
    assert verify._sigma_floor([(3, ((0, 0), (0, 0)))]) == (0, 1)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_det_floor_is_below_the_smallest_singular_value(h):
    # numpy's SVD is the oracle: the determinant floor of the kept rows B
    # of the base stack M at its sum's pivot columns P must lie below
    # sigma_min(B)^2 <= sigma_min(M[:, P])^2 by more than rounding
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            for s in strata_list(h, k, n):
                c = sample_configuration(s, f"floor:{s}")
                base = [row for p in c.points for row in p.basis.zrows]
                pivots = c.span.pivots()
                d, kept = verify._eliminate_base(base, pivots)
                num, den = verify._det_floor(base, pivots, kept, d)
                at_pivots = [(scale, tuple(v[j] for j in pivots)) for scale, v in base]
                lowest = _singular_values([at_pivots[r] for r in kept])[-1]
                assert len(kept) == s.i
                assert lowest <= _singular_values(at_pivots)[-1] * (1 + 1e-12)
                assert 0 < num and float(Fraction(num, den)) * (1 + 1e-9) < lowest ** 2, s
                checked += 1
    assert checked == {2: 34, 3: 45, 4: 50}[h]


def test_det_floor_of_a_dependent_stack_is_zero():
    # the second row repeats the first at another scale, so the stack has
    # rank 1 at two columns and its elimination keeps one row
    base = [(1, ((1, 0), (2, 1))), (2, ((2, 0), (4, 2)))]
    d, kept = verify._eliminate_base(base, (0, 1))
    assert kept == (0,)
    assert verify._det_floor(base, (0, 1), kept, d) == (0, 1)
    base = [(3, ((0, 0), (0, 0))), (1, ((0, 0), (0, 0)))]
    d, kept = verify._eliminate_base(base, (0, 1))
    assert verify._det_floor(base, (0, 1), kept, d) == (0, 1)


def test_the_gram_floor_is_built_only_past_the_first_floor(monkeypatch):
    # the determinant floor certifies every trial of criterion 7's grid, so
    # no check there builds its Gram floor; at eps = 5 on the golden
    # sample the first floor fails the check-wide certificate and some
    # trials are past it, and the check builds the Gram floor once and
    # keeps the larger floor for the certificate and all of them
    calls = [0]

    def counted(rows, _floor=verify._sigma_floor):
        calls[0] += 1
        return _floor(rows)
    monkeypatch.setattr(verify, "_sigma_floor", counted)
    for h in (2, 3):
        for k in (1, 2, 3):
            for n in range(k + 1, 7):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    c = sample_configuration(low, f"adj:{h}:{k}:{n}:{low.i}")
                    for high in ids[a + 1:]:
                        assert check_adjacency(c, high.i, Fraction(1, 1000), trials=20, seed=7).ok
    assert calls == [0]
    c = sample_configuration(StratumId(3, 5, 2, 6), "golden")
    assert check_adjacency(c, 6, Fraction(5), trials=10, seed="golden").ok
    assert calls == [1]


def test_criterion_7_trials_stay_on_the_certificate(monkeypatch):
    # on criterion 7's grid every trial is certified by the check's
    # singular-value floor: a change that loses the certificate shows here,
    # not only as a slowdown
    log = _trial_log(monkeypatch)
    checks = 0
    for h in (2, 3):
        for k in (1, 2, 3):
            for n in range(k + 1, 7):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    c = sample_configuration(low, f"adj:{h}:{k}:{n}:{low.i}")
                    for high in ids[a + 1:]:
                        assert check_adjacency(c, high.i, Fraction(1, 1000), trials=20, seed=7).ok
                        checks += 1
    assert checks == 25
    assert [call for call in log if call[0] == "rank"] == []


GRID_EPS = (Fraction(1, 1000), Fraction(1, 3), Fraction(5))


def _adjacency_grid():
    """(c, target) for the 184 stratum pairs low <= high of h in (2, 3, 4),
    k in (1, 2, 3) and k < n <= 7, from one sample of each low stratum."""
    for h in (2, 3, 4):
        for k in (1, 2, 3):
            for n in range(k + 1, 8):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    c = sample_configuration(low, f"grid:{low}")
                    for high in ids[a:]:
                        yield c, high.i


def _bench_grid(seed, rnd):
    """(c, target, check seed) for the 25 stratum pairs of one round of the
    benchmark's adjacency workload, sampled as it samples them."""
    for h in (2, 3):
        for k in (1, 2, 3):
            for n in range(k + 1, 7):
                ids = strata_list(h, k, n)
                for a, low in enumerate(ids):
                    c = sample_configuration(low, f"{seed}:adj:{rnd}:{h}:{k}:{n}:{low.i}")
                    for high in ids[a + 1:]:
                        yield c, high.i, f"{seed}:{rnd}"


def test_a_covered_check_certifies_every_draw(monkeypatch):
    # the check-wide certificate is a proof for every draw: in each check
    # it covers, each of 50 trials drawn by the randint restatement moves
    # the stack by less than the covering floor, move * den < num * reach.
    # On the benchmark's grid (eps 1/1000, three rounds of seeds 1 and 21)
    # it covers every check; on the 552-check grid both floors cover some.
    # A check gives the certificate its determinant floor first and its
    # Gram floor, when larger, second, so a covering floor is named by its
    # call
    tested = []

    def recorded(h, eps, floor, _certifies=verify._certifies_every_trial):
        tested.append((floor, _certifies(h, eps, floor)))
        return tested[-1][1]
    monkeypatch.setattr(verify, "_certifies_every_trial", recorded)
    bench = [(c, target, Fraction(1, 1000), check_seed)
             for seed in (1, 21) for rnd in range(3) for c, target, check_seed in _bench_grid(seed, rnd)]
    grid = [(c, target, eps, 7) for eps in GRID_EPS for c, target in _adjacency_grid()]
    floors = set()
    for pos, (c, target, eps, check_seed) in enumerate(bench + grid):
        tested.clear()
        assert check_adjacency(c, target, eps, trials=50, seed=check_seed).ok
        covered = [(("det", "gram")[call], floor) for call, (floor, ok) in enumerate(tested) if ok]
        assert covered or pos >= len(bench)
        if not covered:
            continue
        [(which, (num, den))] = covered
        floors.add(which)
        bound = verify._trial_bound(c.points, eps)
        for idx in range(50):
            rng = random.Random(f"adjacency:{check_seed}:{idx}")
            _, _, nonzero, a, b = _trial_reference(c, eps, bound, rng)
            assert a * a * nonzero * den < num * b * b, (c, target, eps, idx)
    assert floors == {"det", "gram"}


def test_the_certificate_leaves_every_report_as_the_trials_give_it(monkeypatch):
    # on the 552-check grid every report is byte-identical with the
    # check-wide certificate and without it, and the per-trial route keeps
    # running: with the certificate, trials run in 0, 76 and 174 of the
    # 184 checks at eps 1/1000, 1/3 and 5; without it, in every check.  The
    # trials' bound is computed in exactly the checks that run trials.
    # Either way 0, 123 and 184 trials reach the exact rank at the three
    # eps, the same trials in each check.  With the certificate the Gram
    # floor is built in the 329 checks whose determinant floor fails it;
    # without it, in every check, once
    log = _trial_log(monkeypatch)
    started, grams, bounds = [], [0], []

    def trial(*args, _trial=verify._semicontinuity_trial):
        started.append(True)
        return _trial(*args)

    def gram(rows, _floor=verify._sigma_floor):
        grams[0] += 1
        return _floor(rows)

    def bound(*args, _bound=verify._trial_bound):
        bounds.append(True)
        return _bound(*args)
    monkeypatch.setattr(verify, "_semicontinuity_trial", trial)
    monkeypatch.setattr(verify, "_sigma_floor", gram)
    monkeypatch.setattr(verify, "_trial_bound", bound)
    checks = list(_adjacency_grid())
    assert len(checks) == 184

    def reports():
        out, running, ranked = [], [], []
        grams[0] = 0
        for eps in GRID_EPS:
            running.append(0)
            for c, target in checks:
                before = len(started)
                bounds.clear()
                log.clear()
                out.append(json.dumps(check_adjacency(c, target, eps, trials=15, seed=7).to_json()))
                running[-1] += len(started) > before
                assert len(bounds) == (len(started) > before)
                ranked.append(len(log))
        return out, running, ranked, grams[0]
    certified, running, ranked, built = reports()
    assert running == [0, 76, 174]
    assert [sum(ranked[e * 184:(e + 1) * 184]) for e in range(3)] == [0, 123, 184]
    assert built == 329
    _per_trial(monkeypatch)
    per_trial, running, per_trial_ranked, built = reports()
    assert running == [184] * 3
    assert per_trial_ranked == ranked and built == 552
    assert certified == per_trial


# (sampled stratum, target): the golden adjacency checks, then h = 3 with
# k = 1 and with k = 3, and targets two or more steps up
WITNESS_CASES = [
    (StratumId(2, 3, 2, 4), 4), (StratumId(3, 2, 1, 3), 3), (StratumId(2, 3, 2, 5), 4),
    (StratumId(3, 2, 1, 4), 3), (StratumId(3, 2, 1, 5), 3), (StratumId(2, 3, 2, 6), 4),
    (StratumId(3, 3, 2, 6), 6), (StratumId(3, 4, 3, 6), 6), (StratumId(2, 4, 3, 7), 6),
]


def _kept(points, total):
    """The kept rows of the stack's one rank-only elimination, as a check
    hands them to the witness."""
    base = [row for p in points for row in p.basis.zrows]
    return verify._eliminate_base(base, total.pivots())[1]


def _canonical_points(rows, n):
    """The witness's points: each point's returned Z[i] rows in canonical
    form, or None when the witness returned None."""
    return None if rows is None else [grassmann._canonical_span(r, n) for r in rows]


def _raised(points, total, target, t):
    """_raise_stratum's points, canonicalized, after the stack's one
    rank-only elimination."""
    return _canonical_points(_raise_stratum(points, total, target, t, _kept(points, total)), total.n)


@pytest.mark.parametrize("s, target", [(StratumId(3, 5, 2, 6), 6)] + WITNESS_CASES[6:], ids=str)
def test_a_check_eliminates_its_base_stack_once(monkeypatch, s, target):
    # the witness's kept rows and the first floor come from one rank-only
    # elimination of the base stack's columns at the sum's pivots; a check
    # at the base stratum without trials needs neither and runs none
    c = sample_configuration(s, "golden")
    j0 = stratum_of(c)
    pivots = c.span.pivots()
    stack = [[v[j] for p in c.points for _, v in p.basis.zrows] for j in pivots]
    calls = []

    def eliminated(grid, reduce=True, _rref=linalg._integer_rref):
        calls.append(not reduce and [list(row) for row in grid] == stack)
        return _rref(grid, reduce)
    monkeypatch.setattr(linalg, "_integer_rref", eliminated)
    for up, trials in ((target, 0), (target, 12), (j0, 12), (j0, 0)):
        calls.clear()
        assert check_adjacency(c, up, Fraction(1, 1000), trials=trials, seed="golden").ok
        assert calls.count(True) == (up > j0 or trials > 0)


@pytest.mark.parametrize("s, target", WITNESS_CASES, ids=str)
def test_raise_stratum_matches_reference(s, target):
    # the witness tilts Z[i] rows after one rank-only elimination of the
    # stack's columns; the Q(i) route that ranks each prefix of the stack
    # by Gauss-Jordan must give the same points at every shrink step the
    # witness can reach, and at a negative and a large t
    for seed in ("golden", 0, 1):
        c = sample_configuration(s, seed)
        total = subspace_sum(c.points)
        for t in (Fraction(1, 8000), Fraction(1, 32000), Fraction(1, 512000),
                  Fraction(-3, 7), Fraction(1)):
            got = _raised(c.points, total, target, t)
            assert got == raise_stratum_reference(list(c.points), target, t)
            assert got is not None and stratum_of(Configuration.of(got)) == target


@pytest.mark.parametrize("s, target", WITNESS_CASES[:3], ids=str)
def test_raise_stratum_fails_without_a_tilt(s, target):
    # t = 0 leaves the tilted point where it was, so its tilted rows lie in
    # the sum, their residues are zero, the residue block's rank check
    # fails and the witness reports no configuration
    c = sample_configuration(s, "golden")
    assert _raised(c.points, subspace_sum(c.points), target, Fraction(0)) is None
    assert raise_stratum_reference(list(c.points), target, Fraction(0)) is None


def test_raise_stratum_reduces_the_starting_sum_once(monkeypatch):
    # a check reduces the starting stack (6 rows) once and hands the sum to
    # the witness, which reduces nothing: it certifies the tilted rows by
    # their residues modulo the sum and returns rows, not Subspaces.  Every
    # reduced row echelon form is built by linalg._rref_rows, counted here
    # by its rows; the witness's points are canonicalized after the count
    calls = []

    def counted(rows, _reduce=linalg._rref_rows):
        calls.append(len(rows))
        return _reduce(rows)
    c = sample_configuration(StratumId(3, 3, 2, 6), "golden")
    total = subspace_sum(c.points)
    kept = _kept(c.points, total)
    monkeypatch.setattr(linalg, "_rref_rows", counted)
    rows = _raise_stratum(c.points, total, 6, Fraction(1, 8000), kept)
    assert calls == []
    assert check_adjacency(c, 6, Fraction(1, 1000), trials=3, seed="golden").ok
    monkeypatch.undo()
    assert calls == [6]
    got = _canonical_points(rows, total.n)
    assert got[0] == c.points[0] and stratum_of(Configuration.of(got)) == 6


@pytest.mark.parametrize("s, target", WITNESS_CASES, ids=str)
def test_witness_ranks_only_its_residue_block(monkeypatch, s, target):
    # the witness builds no canonical form: it returns rows, and its one
    # rank is of the m = target - j0 tilted rows' residues modulo the sum,
    # n - j0 parts each, not of the tilted stack
    c = sample_configuration(s, "golden")
    total = c.span
    m, free = target - total.k, total.n - total.k
    kept = _kept(c.points, total)
    reduced, ranks = [], []

    def counted(rows, _reduce=linalg._rref_rows):
        reduced.append(len(rows))
        return _reduce(rows)

    def ranked(rows, r, _rank=linalg._rank_at_least):
        ranks.append((len(rows), {len(row) for row in rows}, r))
        return _rank(rows, r)
    monkeypatch.setattr(linalg, "_rref_rows", counted)
    monkeypatch.setattr(linalg, "_rank_at_least", ranked)
    got = _raise_stratum(c.points, total, target, Fraction(1, 8000), kept)
    monkeypatch.undo()
    assert reduced == [] and ranks == [(m, {free}, m)]
    assert [len(rows) for rows in got] == [c.k] * c.h
    assert stratum_of(Configuration.of(_canonical_points(got, c.n))) == target


def _spanned_rows(points):
    """The rows of the points' stack that the rows before them span, in
    order: the last nonzero entry of each row of the left null space that
    linalg.kernel returns (its row for free column f is zero after f),
    checked against the exact rank of each prefix of the stack."""
    stack = stack_all(p.basis for p in points)
    null = linalg.kernel(stack.transpose())
    ends = [max(r for r, part in enumerate(y) if part != (0, 0)) for _, y in null.zrows]
    assert ends == [r for r in range(stack.rows)
                    if linalg.rank(leading_rows(stack, r + 1)) == linalg.rank(leading_rows(stack, r))]
    return ends


def _one_move(monkeypatch, points, target, t):
    """Check that _raise_stratum makes one move: it tilts the first
    m = target - j0 rows that the rows before them span, the j-th toward e_f
    with f the j-th free column of the sum, with one _perturbed_rows per
    tilted point, one rank-only elimination (of the stack's j0 columns at
    the sum's pivots) and one _rank_at_least, at m, of the m tilted rows'
    residues modulo the sum (n - j0 parts each).  Returns the witness's
    points."""
    total = subspace_sum(points)
    k, j0 = points[0].k, total.k
    free = [f for f in range(total.n) if f not in total.pivots()]
    want: dict[int, set] = {}
    for r, f in zip(_spanned_rows(points)[:target - j0], free):
        want.setdefault(r // k, set()).add((r % k, f))
    tilts, eliminations, ranks = [], [], []

    def perturbed(base, direction, t, _rows=verify._perturbed_rows):
        tilts.append((base, {(r, f) for r, row in enumerate(direction)
                             for f, d in enumerate(row) if d != (0, 0)}))
        return _rows(base, direction, t)

    def eliminated(grid, reduce=True, _rref=linalg._integer_rref):
        if not reduce:
            eliminations.append(len(grid))
        return _rref(grid, reduce)

    def ranked(rows, r, _rank=linalg._rank_at_least):
        ranks.append((len(rows), {len(row) for row in rows}, r))
        return _rank(rows, r)
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_perturbed_rows", perturbed)
        patched.setattr(linalg, "_integer_rref", eliminated)
        patched.setattr(linalg, "_rank_at_least", ranked)
        got = _raised(points, total, target, t)
    assert got is not None and stratum_of(Configuration.of(got)) == target
    assert len(tilts) == len(want)
    assert {next(a for a, p in enumerate(points) if p.basis.zrows == base): slots
            for base, slots in tilts} == want
    m = target - j0
    assert eliminations == [j0] and ranks == [(m, {total.n - j0}, m)]
    return got


@pytest.mark.parametrize("s, target", WITNESS_CASES, ids=str)
def test_raise_stratum_tilts_the_first_row_of_the_left_null_space(monkeypatch, s, target):
    # the j-th row of the left null space ends at the j-th row that the rows
    # before it span, and the witness tilts the rows that the first
    # target - j0 of them end at, in one move, at every shrink step of t
    # the witness can reach
    for seed in ("golden", 0, 1):
        c = sample_configuration(s, seed)
        for t in (Fraction(1, 8000), Fraction(1, 32000), Fraction(1, 128000), Fraction(1, 512000)):
            _one_move(monkeypatch, c.points, target, t)


def test_raise_stratum_reads_every_left_null_vector(monkeypatch):
    # the second point's first row repeats a row of the first point, so the
    # first left null vector ends at row 2, and the witness tilts row 2,
    # not row 0 that this null vector also reaches
    points = [canonicalize(Matrix.from_rows(rows), 4) for rows in (
        [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 1, 0], [0, 1, 1, 0]],
    )]
    t = Fraction(1, 8000)
    assert _spanned_rows(points) == [2, 4, 5]
    got = _one_move(monkeypatch, points, 4, t)
    assert got == raise_stratum_reference(points, 4, t)
    assert got[1] != points[1] and [got[0], got[2]] == [points[0], points[2]]


def test_raise_stratum_decides_coloops_by_the_exact_rank(monkeypatch):
    # the first point is a direct summand of the sum, and the second
    # point's rows are outside the span of the rows before them: rows 0 to
    # 3 are pivots of the one exact rank-only elimination, which needs no
    # further elimination to decide them, and row 4 is tilted
    points = [canonicalize(unit_rows(6, *idx), 6) for idx in ((0, 1), (2, 3), (3, 4))]
    t = Fraction(1, 8000)
    assert _spanned_rows(points) == [4]
    got = _one_move(monkeypatch, points, 6, t)
    assert got == raise_stratum_reference(points, 6, t)
    assert got[:2] == points[:2] and got[2] != points[2]


def test_adjacency_checks_run_no_kernel(monkeypatch):
    # the witness decides redundant rows by ranks, so a check, trials
    # included, computes no null space
    calls = []

    def counted(m, _kernel=linalg.kernel):
        calls.append(m.rows)
        return _kernel(m)
    monkeypatch.setattr(linalg, "kernel", counted)
    for s, target in WITNESS_CASES:
        c = sample_configuration(s, "golden")
        assert check_adjacency(c, target, Fraction(1, 1000), trials=5, seed="golden").ok
    assert calls == []


def test_suites_run_no_gaussian_rational_arithmetic(monkeypatch):
    # every suite, the sampler included, computes on Z[i] rows: no
    # GaussianRational value is built, added, multiplied or divided
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__truediv__", "__post_init__"):
        def counted(*args, _op=getattr(GaussianRational, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(GaussianRational, name, counted)
    for s, target in WITNESS_CASES[:3] + [(StratumId(3, 3, 2, 6), 6)]:
        c = sample_configuration(s, "golden")
        assert check_adjacency(c, target, Fraction(1, 1000), trials=5, seed="golden").ok
    for which in ("gamma", "pr", "eta"):
        assert run_roundtrip_suite(which, cases=4, seed=0).ok
    assert check_dimension(StratumId(2, 3, 2, 4), samples=1, seed=1).ok
    assert calls == []
    assert GaussianRational(1, 2) * GaussianRational(3) == GaussianRational(3, 6)
    assert calls == ["__post_init__"] * 2 + ["__mul__"] + ["__post_init__"] * 2


def test_adjacency_unreachable_target():
    c = sample_configuration(StratumId(2, 4, 2, 6), 4)
    with pytest.raises(UnreachableError):
        check_adjacency(c, 5, Fraction(1, 1000))
    with pytest.raises(UnreachableError):
        check_adjacency(c, 3, Fraction(1, 1000))


# --- round-trip suites ----------------------------------------------------------


@pytest.mark.parametrize("which", ["gamma", "pr", "eta"])
def test_roundtrip_suites_pass(which):
    report = run_roundtrip_suite(which, cases=10, seed=0)
    assert report.cases == 10
    assert report.ok, report.failures


@pytest.mark.parametrize("value", [[3, 4], (3,), range(3, 5), []], ids=repr)
def test_roundtrip_suite_runs_one_stratum(monkeypatch, value):
    # a grid names one stratum: a list, tuple or range value is refused
    # before any exact work, and the keys are checked in sorted order
    def no_work(*args, **kwargs):
        raise AssertionError("exact work before the grid was checked")
    monkeypatch.setattr(linalg, "_integer_rref", no_work)
    kind = type(value).__name__
    with pytest.raises(TypeError, match=rf"^grid\['i'\] must be an int, not {kind}$"):
        run_roundtrip_suite("gamma", grid={"n": 5, "k": 2, "i": value, "h": 2}, cases=1)
    with pytest.raises(TypeError, match=r"^grid\['h'\] must be an int, not float$"):
        run_roundtrip_suite("gamma", grid={"n": 5, "k": 2, "i": value, "h": 2.0}, cases=1)


def test_pr_suite_nonsquare_ambient():
    report = run_roundtrip_suite("pr", grid={"h": 2, "k": 2, "n": 6}, cases=6, seed=2)
    assert report.ok, report.failures


@pytest.mark.parametrize("which, grid", [
    ("gamma", None), ("pr", None), ("pr", {"h": 2, "k": 2, "n": 6}), ("eta", None),
])
def test_chart_base_point_is_the_first_transverse_draw(monkeypatch, which, grid):
    # every suite centres its chart at a point of Gr(k, n), k the dimension
    # of the base its map projects (pr: the front's sum), drawn with the
    # :base: tag, from the first attempt whose complement is transverse to
    # that base and to that base point
    charts = []

    def recorded(c, k, trivialize, tag, _search=verify._random_chart):
        found = _search(c, k, trivialize, tag)
        charts.append((k, tag, found))
        return found
    monkeypatch.setattr(verify, "_random_chart", recorded)
    assert run_roundtrip_suite(which, grid=grid, cases=6, seed=4).ok
    assert len(charts) == 6
    for k, tag, (triv, point) in charts:
        over = point.base.span if which == "pr" else point.base
        n = over.n
        assert over.k == k
        for attempt in range(64):
            v0 = sample_subspace(k, n, f"{tag}:base:{attempt}")
            l0 = sample_subspace(n - k, n, f"{tag}:comp:{attempt}")
            if all(linalg.rank(x.basis.stack(l0.basis)) == n for x in (over, v0)):
                break
        assert triv.base_point == v0
        assert triv.complement == l0


@pytest.mark.parametrize("which, modular_ranks, rrefs, projections", [
    ("gamma", 40, 220, 40), ("pr", 40, 200, 40), ("eta", 40, 240, 40),
], ids=["gamma", "pr", "eta"])
def test_chart_projections_are_decided_by_their_solves(
    monkeypatch, which, modular_ranks, rrefs, projections
):
    # a chart projection's solve alone decides v ⊕ L0 = C^n: the chart
    # search keeps the first chart on which the case's trivializing map,
    # whose guard solves Q_V for its base V, succeeds, and the inverse
    # reuses that Q_V, so per case the chart's P and Q_V are the only
    # projections.  No mod-p rank decides transversality; per case one
    # runs for the sampler's g and one for the map's own input check (γ:
    # the fiber, inside V0, reaches rank dim V0; pr: the points are in
    # direct sum; η: the quotient images are).  Membership is one integer
    # test per row on the RREF basis, a configuration's sum is reduced
    # once, and pr reduces only the subspaces it returns, so none of these
    # runs an elimination of its own
    calls = {"_modular_rank": 0, "_integer_rref": 0, "_projection_solve": 0}
    for name in calls:
        module = grassmann if name == "_projection_solve" else linalg
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run_roundtrip_suite(which, cases=20, seed=0).ok
    assert calls == {
        "_modular_rank": modular_ranks, "_integer_rref": rrefs, "_projection_solve": projections,
    }


# each map pair of a suite: (trivialize, inverse)
SUITE_MAPS = {
    "gamma": ("gamma_trivialize", "gamma_untrivialize"),
    "pr": ("pr_trivialize", "pr_untrivialize"),
    "eta": ("eta_fiber_point", "eta_fiber_lift"),
}


def _patch_fiber(monkeypatch, name, fiber_of):
    """Make fibrations.<name> return its true base with fiber_of(point, triv)."""
    def faulty(c, triv, _real=getattr(fibrations, name)):
        point = _real(c, triv)
        return ChartPoint(point.base, fiber_of(point, triv))
    monkeypatch.setattr(fibrations, name, faulty)


def _fails_every_case(which, grid=None):
    report = run_roundtrip_suite(which, grid=grid, cases=4, seed=3)
    assert not report.ok
    assert len(report.failures) == report.cases == 4
    descs = {desc for _, desc in report.failures}
    assert len(descs) == 1, descs
    return descs.pop()


def test_chart_search_moves_on_after_a_refusal(monkeypatch):
    # the map refuses the first chart of each case, so the search keeps
    # the :base:1 / :comp:1 draws
    charts = []

    def refuse_first(c, triv, _real=fibrations.gamma_trivialize):
        charts.append(triv)
        if len(charts) % 2:
            raise OutsideChartError("refused")
        return _real(c, triv)
    monkeypatch.setattr(fibrations, "gamma_trivialize", refuse_first)
    assert run_roundtrip_suite("gamma", cases=3, seed=5).ok
    assert len(charts) == 6
    k, n = charts[0].base_point.k, charts[0].n
    for idx in range(3):
        for attempt in range(2):
            triv = charts[2 * idx + attempt]
            assert triv.base_point == sample_subspace(k, n, f"5:{idx}:base:{attempt}")
            assert triv.complement == sample_subspace(n - k, n, f"5:{idx}:comp:{attempt}")


def test_chart_search_gives_up_after_64_refusals(monkeypatch):
    calls = []

    def refuse(c, triv):
        calls.append(triv)
        raise OutsideChartError("refused")
    monkeypatch.setattr(fibrations, "eta_fiber_point", refuse)
    report = run_roundtrip_suite("eta", cases=2, seed=0)
    assert len(calls) == 128
    assert (report.cases, report.passed) == (2, 0)
    assert report.failures == [
        (f"0:{idx}", "no chart found containing the sample") for idx in range(2)
    ]


def test_pr_suite_catches_a_wrong_base(monkeypatch):
    def reordered(c, triv, _real=fibrations.pr_trivialize):
        point = _real(c, triv)
        return ChartPoint(Configuration.of(point.base.points[::-1]), point.fiber)
    monkeypatch.setattr(fibrations, "pr_trivialize", reordered)
    assert _fails_every_case("pr") == "base component differs from the forgotten-last projection"


def test_eta_suite_catches_quotient_images_of_the_wrong_dimension(monkeypatch):
    # on the default grid the quotient images are lines; the chart
    # complement, a hyperplane of C^4, stands in for both
    _patch_fiber(monkeypatch, "eta_fiber_point", lambda point, triv: (triv.complement,) * 2)
    assert _fails_every_case("eta") == "quotient images have the wrong dimension"


def test_pr_suite_checks_the_fiber_kind_both_ways(monkeypatch):
    # on the default grid n = hk, so the fiber must be chart coordinates;
    # the image subspace itself is the wrong kind even though it round-trips
    assert DEFAULT_GRIDS["pr"]["n"] == DEFAULT_GRIDS["pr"]["h"] * DEFAULT_GRIDS["pr"]["k"]
    _patch_fiber(
        monkeypatch, "pr_trivialize",
        lambda point, triv: fibrations.chart_point(point.fiber, triv.base_point),
    )
    assert _fails_every_case("pr") == "fiber is not chart coordinates exactly when n = hk"


@pytest.mark.parametrize("which", ["gamma", "pr", "eta"])
def test_roundtrip_suites_catch_a_wrong_inverse(monkeypatch, which):
    def reversed_pair(point, triv, _real=getattr(fibrations, SUITE_MAPS[which][1])):
        back = _real(point, triv)
        return Configuration(back.h, back.k, back.n, back.points[::-1])
    monkeypatch.setattr(fibrations, SUITE_MAPS[which][1], reversed_pair)
    assert _fails_every_case(which).startswith("round trip failed")


def test_eta_suite_catches_coinciding_quotient_images(monkeypatch):
    _patch_fiber(monkeypatch, "eta_fiber_point", lambda point, triv: (point.fiber[0],) * 2)
    assert "direct sum" in _fails_every_case("eta")


def test_eta_suite_catches_an_image_outside_the_complement(monkeypatch):
    def outside(point, triv):
        first, second = point.fiber
        moved = sample_subspace(first.k, first.n, "outside")
        assert not triv.complement.contains(moved)
        return moved, second
    _patch_fiber(monkeypatch, "eta_fiber_point", outside)
    assert "lie in the chart complement" in _fails_every_case("eta")


def test_pr_suite_catches_a_fiber_meeting_the_base_point(monkeypatch):
    # n > hk: the fiber is a subspace; with h = 2 the chart base point has
    # dimension k, so it can stand in for the fiber and meets itself
    _patch_fiber(monkeypatch, "pr_trivialize", lambda point, triv: triv.base_point)
    desc = _fails_every_case("pr", grid={"h": 2, "k": 2, "n": 6})
    assert "meets the chart base point" in desc


def test_gamma_suite_catches_a_fiber_point_outside_the_base_point(monkeypatch):
    def outside(point, triv):
        first, *rest = point.fiber.points
        moved = sample_subspace(first.k, first.n, "outside")
        assert not triv.base_point.contains(moved)
        return Configuration.of([moved, *rest])
    _patch_fiber(monkeypatch, "gamma_trivialize", outside)
    assert _fails_every_case("gamma") == "fiber does not span the chart base point"


def test_gamma_suite_catches_a_fiber_short_of_the_base_point(monkeypatch):
    # two planes of the 4-dimensional V0 that share a line lie in V0 but
    # span only 3 dimensions; the mod-p rank stops at 3, so the exact
    # fallback of _rank_at_least decides
    def sharing_a_line(point, triv):
        v0 = triv.base_point
        return Configuration.of([
            canonicalize(Matrix.unit_rows(rows, v0.k) @ v0.basis, v0.n) for rows in ([0, 1], [0, 2])
        ])
    _patch_fiber(monkeypatch, "gamma_trivialize", sharing_a_line)
    desc = _fails_every_case("gamma", grid={"h": 2, "i": 4, "k": 2, "n": 6})
    assert desc == "fiber does not span the chart base point"


def test_gamma_suite_catches_a_wrong_base(monkeypatch):
    def chart_base(c, triv, _real=fibrations.gamma_trivialize):
        return ChartPoint(triv.base_point, _real(c, triv).fiber)
    monkeypatch.setattr(fibrations, "gamma_trivialize", chart_base)
    assert _fails_every_case("gamma") == "base component differs from the subspace sum"


def test_eta_suite_catches_a_wrong_base(monkeypatch):
    def chart_base(c, triv, _real=fibrations.eta_fiber_point):
        return ChartPoint(triv.base_point, _real(c, triv).fiber)
    monkeypatch.setattr(fibrations, "eta_fiber_point", chart_base)
    assert _fails_every_case("eta") == "base component differs from the intersection"


def test_pr_case_builds_each_projection_twice_and_the_front_sum_once(monkeypatch):
    # per case: the chart's P and Q_V of the base sum, which pr's inverse
    # reuses; the sum of pr's own front, which the chart search gets from
    # pr_trivialize and the inverse reads again from the front
    calls = {"_projection_solve": 0, "subspace_sum": 0}
    for name in calls:
        def counted(*args, _real=getattr(grassmann, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(grassmann, name, counted)
    assert run_roundtrip_suite("pr", cases=4, seed=0).ok
    assert calls == {"_projection_solve": 8, "subspace_sum": 4}


@pytest.mark.parametrize("which", ["gamma", "pr", "eta"])
def test_roundtrip_case_runs_each_map_once(monkeypatch, which):
    calls = []
    for name in SUITE_MAPS[which]:
        def counted(*args, _real=getattr(fibrations, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(fibrations, name, counted)
    assert run_roundtrip_suite(which, cases=4, seed=0).ok
    assert calls == list(SUITE_MAPS[which]) * 4


def test_report_json_shape():
    report = run_roundtrip_suite("eta", cases=3, seed=5)
    data = report.to_json()
    assert set(data) == {"suite", "cases", "passed", "failures", "params"}
    assert data["cases"] == 3
    assert isinstance(data["failures"], list)
    import json

    json.dumps(data)
