import random

import pytest

from grassconf import fibrations, grassmann, linalg, verify
from grassconf.errors import (
    DirectSumError,
    MixedAmbientError,
    NotComplementaryError,
    NotDirectSumError,
    OutsideChartError,
    WrongArityError,
)
from grassconf.fibrations import (
    ChartPoint,
    Trivialization,
    chart_coordinates,
    chart_point,
    eta,
    eta_fiber_lift,
    eta_fiber_point,
    extend_isomorphism,
    gamma_trivialize,
    gamma_untrivialize,
    pr_forget_last,
    pr_trivialize,
    pr_untrivialize,
)
from grassconf.grassmann import (
    Configuration,
    StratumId,
    canonicalize,
    complement,
    intersection_dim,
    projection_along,
    random_invertible,
    sample_configuration,
    sample_subspace,
    stratum_of,
    subspace_sum,
)
from grassconf.linalg import _P, Matrix, _integer_rows, _modular_rank, rank
from grassconf.verify import run_roundtrip_suite
from oracles import (
    chart_coordinates_reference,
    chart_point_reference,
    eta_fiber_lift_reference,
    eta_fiber_point_reference,
    extend_isomorphism_reference,
    gamma_untrivialize_reference,
    pr_trivialize_reference,
    pr_untrivialize_reference,
    projection_along_reference,
    rand_matrix,
    transform_configuration_reference,
    transform_reference,
)


def unit_rows(n, *idx):
    return Matrix.from_rows([[1 if j == i else 0 for j in range(n)] for i in idx])


def chart_containing(v, seed_tag, dim=None):
    """A trivialization with random base point and complement whose chart
    contains v."""
    dim = v.k if dim is None else dim
    for attempt in range(64):
        v0 = sample_subspace(dim, v.n, f"{seed_tag}:{attempt}")
        l0 = sample_subspace(v.n - dim, v.n, f"{seed_tag}:comp:{attempt}")
        if rank(v0.basis.stack(l0.basis)) < v.n:
            continue
        if rank(v.basis.stack(l0.basis)) == v.n:
            return Trivialization.over(v0, l0)
    raise AssertionError("no chart found")


# --- extend_isomorphism ----------------------------------------------------


def test_extension_at_base_point_is_identity():
    v0 = sample_subspace(3, 5, 1)
    triv = Trivialization.over(v0)
    assert extend_isomorphism(v0, triv) == Matrix.identity(5)


def test_extension_is_invertible_and_fixes_complement():
    for seed in range(20):
        v0 = sample_subspace(2, 5, f"ext:{seed}")
        triv = Trivialization.over(v0)
        v = sample_subspace(2, 5, f"ext:other:{seed}")
        if rank(v.basis.stack(triv.complement.basis)) < 5:
            continue
        iso = extend_isomorphism(v, triv)
        assert rank(iso) == 5
        assert triv.complement.basis @ iso == triv.complement.basis
        assert canonicalize(v.basis @ iso, 5) == v0


def test_extension_matches_solved_extension():
    for n, dim in ((4, 2), (5, 2), (5, 3), (6, 4)):
        for seed in range(6):
            v = sample_subspace(dim, n, f"extref:{n}:{dim}:{seed}")
            triv = chart_containing(v, f"extrefbase:{n}:{dim}:{seed}")
            assert extend_isomorphism(v, triv) == extend_isomorphism_reference(v, triv)


def test_extension_outside_chart_raises():
    v0 = canonicalize(unit_rows(4, 0, 1), 4)
    triv = Trivialization.over(v0)
    meets = canonicalize(unit_rows(4, 2, 3), 4)
    with pytest.raises(OutsideChartError):
        extend_isomorphism(meets, triv)


# --- the chart record -------------------------------------------------------


def _contradicting_charts():
    """Fields that contradict each other, with the error each one raises."""
    v0 = canonicalize(unit_rows(4, 0, 1), 4)
    return {
        "own-complement": (
            (v0, v0), (NotComplementaryError, "subspaces intersect nontrivially"),
        ),
        "short-complement": (
            (v0, canonicalize(unit_rows(4, 2), 4)),
            (NotComplementaryError, "dimensions do not add up to the ambient dimension"),
        ),
        "mixed-ambient": (
            (v0, canonicalize(unit_rows(5, 2, 3, 4), 5)),
            (MixedAmbientError, "ambient dimensions differ"),
        ),
    }


@pytest.mark.parametrize("case", sorted(_contradicting_charts()))
def test_chart_record_rejects_contradicting_fields(case):
    fields, (error, message) = _contradicting_charts()[case]
    with pytest.raises(error) as exc:
        Trivialization(*fields)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_chart_record_takes_no_projector(monkeypatch):
    # the projector is computed by one projection_along, one elimination,
    # and the record runs no elimination or product of its own to check it
    v0 = sample_subspace(2, 5, "noproj")
    l0 = sample_subspace(3, 5, "noproj:comp")
    assert Trivialization.__match_args__ == ("base_point", "complement")
    with pytest.raises(TypeError):
        Trivialization(v0, l0, projection_along(v0, l0))
    calls = []
    def eliminated(grid, reduce=True, _real=linalg._integer_rref):
        calls.append("elimination")
        return _real(grid, reduce)

    def counted(a, b, _real=Matrix.__matmul__):
        calls.append("product")
        return _real(a, b)
    monkeypatch.setattr(linalg, "_integer_rref", eliminated)
    monkeypatch.setattr(Matrix, "__matmul__", counted)
    p = projection_along(v0, l0)
    assert calls == ["elimination"]
    assert Trivialization(v0, l0).projector == p
    assert calls == ["elimination"] * 2


def test_chart_projector_is_the_projection_onto_the_base_point_along_the_complement():
    # [V0; L0]·P = [V0; 0] on seeded charts, with a seeded complement and
    # with the deterministic one: P fixes V0 and vanishes on L0
    for n in range(2, 7):
        for k in range(1, n):
            for seed in range(3):
                tag = f"chartp:{k}:{n}:{seed}"
                v0 = sample_subspace(k, n, tag)
                seeded = next(
                    l0 for l0 in (sample_subspace(n - k, n, f"{tag}:comp:{j}") for j in range(64))
                    if rank(v0.basis.stack(l0.basis)) == n
                )
                for triv in (Trivialization.over(v0, seeded), Trivialization.over(v0)):
                    stack = v0.basis.stack(triv.complement.basis)
                    assert stack @ triv.projector == v0.basis.stack(Matrix.zeros(n - k, n))


# --- gamma ------------------------------------------------------------------


def test_gamma_inside_base_point_is_identity_chart():
    v0 = canonicalize(unit_rows(5, 0, 1, 2), 5)
    triv = Trivialization.over(v0)
    pts = (
        canonicalize(unit_rows(5, 0, 1), 5),
        canonicalize(unit_rows(5, 1, 2), 5),
    )
    c = Configuration(2, 2, 5, pts)
    point = gamma_trivialize(c, triv)
    assert point.base == v0
    assert point.fiber == c
    assert gamma_untrivialize(point, triv) == c


def test_gamma_round_trip_seeded():
    for h, i, k, n in ((2, 3, 2, 5), (3, 4, 2, 6), (2, 4, 2, 6)):
        for seed in range(15):
            c = sample_configuration(StratumId(h, i, k, n), f"g:{seed}")
            total = subspace_sum(c.points)
            triv = chart_containing(total, f"gbase:{h}:{i}:{k}:{n}:{seed}")
            point = gamma_trivialize(c, triv)
            assert point.base == total
            assert stratum_of(point.fiber) == i
            assert subspace_sum(point.fiber.points) == triv.base_point
            assert gamma_untrivialize(point, triv) == c
            assert gamma_trivialize(gamma_untrivialize(point, triv), triv) == point


@pytest.mark.parametrize("h,i,k,n", [(2, 3, 2, 5), (3, 5, 2, 7)])
def test_gamma_untrivialize_matches_inverse_isomorphism(h, i, k, n):
    for seed in range(8):
        c = sample_configuration(StratumId(h, i, k, n), f"gref:{seed}")
        triv = chart_containing(subspace_sum(c.points), f"grefbase:{h}:{i}:{k}:{n}:{seed}")
        point = gamma_trivialize(c, triv)
        assert gamma_untrivialize(point, triv) == gamma_untrivialize_reference(point, triv)
        # the same fiber over another base in the chart (transverse for these seeds)
        other = sample_configuration(StratumId(h, i, k, n), f"gref:other:{seed}")
        moved = ChartPoint(base=subspace_sum(other.points), fiber=point.fiber)
        assert gamma_untrivialize(moved, triv) == gamma_untrivialize_reference(moved, triv)


def test_untrivialize_off_chart_base_raises():
    v0 = canonicalize(unit_rows(4, 0, 1), 4)
    triv = Trivialization.over(v0)  # complement spanned by e2, e3
    meets = canonicalize(unit_rows(4, 0, 2), 4)
    lines = (canonicalize(unit_rows(4, 0), 4), canonicalize(unit_rows(4, 1), 4))
    fiber = Configuration(2, 1, 4, lines)
    with pytest.raises(OutsideChartError, match="gamma_untrivialize"):
        gamma_untrivialize(ChartPoint(base=meets, fiber=fiber), triv)
    line = canonicalize(unit_rows(4, 0), 4)
    eta_triv = Trivialization.over(line)  # complement spanned by e1, e2, e3
    first, second = canonicalize(unit_rows(4, 1), 4), canonicalize(unit_rows(4, 2), 4)
    off_chart = canonicalize(unit_rows(4, 3), 4)
    with pytest.raises(OutsideChartError, match="eta_fiber_lift"):
        eta_fiber_lift(ChartPoint(base=off_chart, fiber=(first, second)), eta_triv)


def test_gamma_outside_chart_raises():
    c = Configuration(
        2, 2, 4,
        (canonicalize(unit_rows(4, 0, 1), 4), canonicalize(unit_rows(4, 1, 2), 4)),
    )
    v0 = canonicalize(unit_rows(4, 0, 1, 3), 4)  # complement meets the sum
    with pytest.raises(OutsideChartError):
        gamma_trivialize(c, Trivialization.over(v0))


# --- pr ---------------------------------------------------------------------


def test_pr_forget_last_coordinate_planes():
    pts = tuple(canonicalize(unit_rows(6, 2 * j, 2 * j + 1), 6) for j in range(3))
    c = Configuration(3, 2, 6, pts)
    front = pr_forget_last(c)
    assert front.points == pts[:2]
    assert stratum_of(front) == 4


def test_pr_forget_last_requires_direct_sum():
    c = sample_configuration(StratumId(2, 3, 2, 5), 0)
    with pytest.raises(NotDirectSumError):
        pr_forget_last(c)
    # the mod-p rank of the stack drops in both, so the exact rank decides:
    # <e0>, <e0 + p e1> is a direct sum, <e0>, <e1>, <e0 + e1> is not
    e0 = canonicalize(unit_rows(3, 0), 3)
    skew = canonicalize(Matrix.from_rows([[1, _P, 0]]), 3)
    assert _modular_rank(_integer_rows(e0.basis.stack(skew.basis)), 2) == 1
    assert pr_forget_last(Configuration.of([e0, skew])).points == (e0,)
    e1 = canonicalize(unit_rows(3, 1), 3)
    diagonal = canonicalize(Matrix.from_rows([[1, 1, 0]]), 3)
    with pytest.raises(NotDirectSumError):
        pr_forget_last(Configuration.of([e0, e1, diagonal]))
    single = Configuration.of([sample_subspace(2, 5, 0)])
    with pytest.raises(WrongArityError):
        pr_forget_last(single)


def test_chart_coordinates_of_standard_complement_is_zero():
    w = sample_subspace(3, 5, 31)
    hh = complement(w)
    coords = chart_coordinates(hh, w)
    assert coords == Matrix.zeros(2, 3)
    assert chart_point(coords, w) == hh


def test_chart_coordinates_round_trip():
    for seed in range(100):
        n = 5
        w = sample_subspace(3, n, f"w:{seed}")
        hh = sample_subspace(2, n, f"hh:{seed}")
        if rank(hh.basis.stack(w.basis)) < n:
            continue
        coords = chart_coordinates(hh, w)
        assert coords.rows == 2 and coords.cols == 3
        assert chart_point(coords, w) == hh


def test_chart_points_miss_their_w():
    # pr_untrivialize needs no guard on chart coordinates: chart_point
    # builds a graph over complement(w), which always misses w; it is the
    # canonical form of complement(w)'s basis plus coords·W
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            for seed in range(10):
                rng = random.Random(f"graph:{k}:{n}:{seed}")
                w = sample_subspace(n - k, n, f"graph:w:{k}:{n}:{seed}")
                coords = rand_matrix(k, n - k, rng, sparse=0.3)
                got = chart_point(coords, w)
                assert got == chart_point_reference(coords, w)
                assert intersection_dim(got, w) == 0
                checked += 1
            with pytest.raises(ValueError, match="^coordinate matrix shape does not match the chart$"):
                chart_point(Matrix.zeros(k, n - k + 1), w)
    assert checked == 210


def test_chart_coordinates_match_frame_solve():
    """Sparse generators put the pivots of w anywhere, not only first."""
    rng = random.Random(77)
    checked = 0
    for seed in range(80):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        w_rows, hh_rows = rand_matrix(n - k, n, rng, sparse=0.6), rand_matrix(k, n, rng, sparse=0.3)
        if rank(w_rows) != n - k or rank(hh_rows) != k:
            continue
        w, hh = canonicalize(w_rows, n), canonicalize(hh_rows, n)
        if rank(hh.basis.stack(w.basis)) < n:
            continue
        assert chart_coordinates(hh, w) == chart_coordinates_reference(hh, w)
        checked += 1
    assert checked >= 20


def test_chart_coordinates_decide_the_chart_by_their_solve():
    # hh = <e0 + p e1, e2> and w = <e0>: the C-block of hh is diag(p, 1),
    # invertible but zero mod p; w' = <e0 + p e1 + e2> lies in hh
    hh = canonicalize(Matrix.from_rows([[1, _P, 0], [0, 0, 1]]), 3)
    w = canonicalize(unit_rows(3, 0), 3)
    assert _modular_rank(_integer_rows(hh.basis.stack(w.basis)), 3) == 2
    coords = chart_coordinates(hh, w)
    assert coords == chart_coordinates_reference(hh, w)
    assert chart_point(coords, w) == hh
    inside = canonicalize(Matrix.from_rows([[1, _P, 1]]), 3)
    with pytest.raises(OutsideChartError) as exc:
        chart_coordinates(hh, inside)
    assert str(exc.value) == "subspace meets w nontrivially"


def test_chart_projection_failures_name_the_first_failed_condition():
    # L0 = <e0, e2> and v = <e0 + p e1>: [v; L0] has determinant -p, so v
    # is transverse although the mod-p rank of the stack falls short
    l0 = canonicalize(unit_rows(3, 0, 2), 3)
    triv = Trivialization.over(canonicalize(unit_rows(3, 1), 3), l0)
    v = canonicalize(Matrix.from_rows([[1, _P, 0]]), 3)
    assert _modular_rank(_integer_rows(v.basis.stack(l0.basis)), 3) == 2
    assert extend_isomorphism(v, triv) == extend_isomorphism_reference(v, triv)
    # the chart keeps its last projection but never a failure: each off-
    # chart v raises again, also right after the same v or a kept one
    for off_chart, message in (
        (canonicalize(unit_rows(4, 0, 1), 4), "ambient dimension mismatch"),
        (canonicalize(unit_rows(3, 0, 1), 3),
         "dimension 2 does not match the chart base dimension 1"),
        (canonicalize(Matrix.from_rows([[1, 0, 1]]), 3),
         "not transverse to the chart complement"),
    ) * 2:
        for _ in range(2):
            with pytest.raises(OutsideChartError) as exc:
                extend_isomorphism(off_chart, triv)
            assert str(exc.value) == f"extend_isomorphism: {message}"
        assert extend_isomorphism(v, triv) == extend_isomorphism_reference(v, triv)


def test_chart_projection_keeps_the_last_base_only(monkeypatch):
    triv = Trivialization.over(sample_subspace(2, 5, "memo"), sample_subspace(3, 5, "memo:comp"))
    first, second = (sample_subspace(2, 5, f"memo:{j}") for j in range(2))
    solved = []

    def counted(target, along, _real=grassmann._projection_solve):
        solved.append(target)
        return _real(target, along)
    monkeypatch.setattr(grassmann, "_projection_solve", counted)
    for v in (first, first, second, first, second, second, first):
        q = fibrations._chart_projection(v, triv, "memo")
        assert grassmann._projection_matrix(q) == projection_along_reference(v, triv.complement)
    assert solved == [first, second, first, second, first]


def test_chart_coordinates_outside_chart_raises():
    w = canonicalize(unit_rows(4, 0, 1), 4)
    hh = canonicalize(unit_rows(4, 1, 2), 4)
    with pytest.raises(OutsideChartError):
        chart_coordinates(hh, w)


_NOT_COMPLEMENTARY = "chart of Gr(2,5) needs a complementary w of dimension 3"


@pytest.mark.parametrize("hh, w, message", [
    (unit_rows(4, 0, 1), unit_rows(5, 2, 3, 4), "ambient dimension mismatch"),
    (unit_rows(5, 0, 1), unit_rows(5, 2, 3), _NOT_COMPLEMENTARY),
    (unit_rows(5, 0, 1), unit_rows(5, 1, 2, 3, 4), _NOT_COMPLEMENTARY),
], ids=["ambient", "short-w", "long-w"])
def test_chart_coordinates_refuse_a_w_of_the_wrong_shape(monkeypatch, hh, w, message):
    # both refusals come before any elimination
    def no_work(*args, **kwargs):
        raise AssertionError("chart_coordinates eliminated before its shape checks")
    hh, w = (canonicalize(m, m.cols) for m in (hh, w))
    monkeypatch.setattr(linalg, "_integer_rref", no_work)
    with pytest.raises(OutsideChartError) as exc:
        chart_coordinates(hh, w)
    assert str(exc.value) == message


@pytest.mark.parametrize("which", ["gamma", "pr", "eta"])
def test_chart_maps_build_no_identity(monkeypatch, which):
    # I - Q_V and I - P are the kept solves with the side flag flipped,
    # applied to the rows a map moves; a pr map adds one Matrix sum of two
    # such row sets, the others none
    sums = []

    def no_identity(n):
        raise AssertionError("a chart map built the identity")

    def combined(a, b, sign, _real=Matrix._combine):
        sums.append(sign)
        return _real(a, b, sign)
    monkeypatch.setattr(Matrix, "identity", staticmethod(no_identity))
    monkeypatch.setattr(Matrix, "_combine", combined)
    assert run_roundtrip_suite(which, cases=5, seed=0).ok
    assert sums == ([1] * 10 if which == "pr" else [])


@pytest.mark.parametrize("which", ["gamma", "pr", "eta"])
def test_roundtrip_builds_no_projection_matrix(monkeypatch, which):
    # the maps apply each kept solve to the rows they move; the n x n
    # projector is built only when projection_along or .projector is read
    built = []

    def along(target, complement, _real=grassmann.projection_along):
        built.append("projection_along")
        return _real(target, complement)

    def projector(triv, _real=Trivialization.projector.fget):
        built.append("projector")
        return _real(triv)
    monkeypatch.setattr(grassmann, "projection_along", along)
    monkeypatch.setattr(Trivialization, "projector", property(projector))
    assert run_roundtrip_suite(which, cases=5, seed=0).ok
    assert built == []


@pytest.mark.parametrize("which, grid", [
    ("gamma", {"h": 3, "i": 12, "k": 4, "n": 20}),
    ("pr", {"h": 3, "k": 5, "n": 20}),
    ("eta", {"h": 2, "i": 16, "k": 10, "n": 20}),
], ids=["gamma", "pr", "eta"])
def test_chart_maps_at_n_20_are_the_products_with_the_projections(which, grid):
    # one seeded case past the roundtrip grids of the other tests: each
    # map's output is what the product with the n x n matrices gives
    fib = verify._check_grid_point(which, grid)
    name = {"gamma": "gamma_trivialize", "pr": "pr_trivialize", "eta": "eta_fiber_point"}[which]
    c = sample_configuration(fib.stratum, "n20")
    triv, point = verify._random_chart(c, fib.chart_dim, getattr(fibrations, name), "n20")
    n, p = c.n, triv.projector
    if which == "gamma":
        q = projection_along(point.base, triv.complement)
        assert point.fiber == transform_configuration_reference(c, p)
        assert gamma_untrivialize(point, triv) == transform_configuration_reference(
            point.fiber, q
        ) == c
    elif which == "pr":
        front_sum = subspace_sum(c.points[:-1])
        q = projection_along(front_sum, triv.complement)
        iso = Matrix.identity(n) - q + p
        assert extend_isomorphism(front_sum, triv) == iso
        assert point.fiber == canonicalize(c.points[-1].basis @ iso, n)
        back = canonicalize(point.fiber.basis @ (Matrix.identity(n) - p + q), n)
        assert back == c.points[-1]
        assert pr_untrivialize(point, triv) == c
    else:
        to_quotient = Matrix.identity(n) - projection_along(point.base, triv.complement)
        assert point.fiber == tuple(transform_reference(h, to_quotient) for h in c.points)
        assert eta_fiber_lift(point, triv) == c


def test_pr_trivialize_over_own_base():
    pts = tuple(canonicalize(unit_rows(6, 2 * j, 2 * j + 1), 6) for j in range(3))
    c = Configuration(3, 2, 6, pts)
    v0 = subspace_sum(pts[:2])
    triv = Trivialization.over(v0)
    point = pr_trivialize(c, triv)
    assert point.base == pr_forget_last(c)
    assert point.fiber == chart_coordinates(pts[2], v0)
    assert pr_untrivialize(point, triv) == c


@pytest.mark.parametrize("h,k,n", [(2, 2, 4), (3, 2, 6), (2, 2, 5), (3, 1, 5)])
def test_pr_round_trip_seeded(h, k, n):
    for seed in range(10):
        c = sample_configuration(StratumId(h, h * k, k, n), f"pr:{seed}")
        front_sum = subspace_sum(c.points[:-1])
        triv = None
        for attempt in range(64):
            base_cfg = sample_configuration(
                StratumId(h - 1, (h - 1) * k, k, n), f"prb:{h}:{k}:{n}:{seed}:{attempt}"
            )
            cand = Trivialization.over(subspace_sum(base_cfg.points))
            if rank(front_sum.basis.stack(cand.complement.basis)) == n:
                triv = cand
                break
        assert triv is not None
        point = pr_trivialize(c, triv)
        assert point.base == pr_forget_last(c)
        if n == h * k:
            assert isinstance(point.fiber, Matrix)
            assert point.fiber.rows == k and point.fiber.cols == n - k
        else:
            assert point.fiber.k == k
        assert pr_untrivialize(point, triv) == c
        assert pr_trivialize(pr_untrivialize(point, triv), triv) == point


@pytest.mark.parametrize("h,k,n", [(2, 2, 4), (3, 2, 6), (2, 2, 5), (3, 1, 5)])
def test_pr_untrivialize_matches_transposed_solve(h, k, n):
    for seed in range(6):
        c = sample_configuration(StratumId(h, h * k, k, n), f"prref:{seed}")
        other = sample_configuration(StratumId(h, h * k, k, n), f"prref:other:{seed}")
        triv = chart_containing(subspace_sum(c.points[:-1]), f"prrefbase:{h}:{k}:{n}:{seed}")
        point = pr_trivialize(c, triv)
        assert point == pr_trivialize_reference(c, triv)
        assert pr_untrivialize(point, triv) == pr_untrivialize_reference(point, triv)
        # the same fiber over another base in the chart (transverse for these seeds)
        moved = ChartPoint(base=pr_forget_last(other), fiber=point.fiber)
        assert pr_untrivialize(moved, triv) == pr_untrivialize_reference(moved, triv)


def test_pr_untrivialize_reduces_primitive_product_rows(monkeypatch):
    # pr's inverse applies Q_V + I - P as one product whose rows are
    # primitive, so the rows it hands to its one reduction carry no common
    # content; the widest part over 20 pr cases is pinned in bits
    widest = []
    inside = []

    def rows(grid, _real=linalg._rref_rows):
        if inside:
            widest.append(max(abs(x).bit_length() for row in grid for part in row for x in part))
        return _real(grid)

    def untrivialize(point, triv, _real=fibrations.pr_untrivialize):
        inside.append(True)
        try:
            return _real(point, triv)
        finally:
            inside.pop()
    monkeypatch.setattr(linalg, "_rref_rows", rows)
    monkeypatch.setattr(fibrations, "pr_untrivialize", untrivialize)
    assert run_roundtrip_suite("pr", cases=20, seed=0).ok
    assert len(widest) == 20
    assert max(widest) == 72


# --- eta ----------------------------------------------------------------------


def test_eta_two_planes_sharing_a_line():
    h1 = canonicalize(unit_rows(3, 0, 1), 3)
    h2 = canonicalize(unit_rows(3, 0, 2), 3)
    c = Configuration(2, 2, 3, (h1, h2))
    assert eta(c) == canonicalize(unit_rows(3, 0), 3)


def test_eta_requires_pairs_and_nonzero_intersection():
    triple = sample_configuration(StratumId(3, 4, 2, 6), 0)
    with pytest.raises(WrongArityError):
        eta(triple)
    split = sample_configuration(StratumId(2, 4, 2, 5), 0)
    with pytest.raises(DirectSumError):
        eta(split)


def test_eta_dimension_and_equivariance():
    for seed in range(10):
        c = sample_configuration(StratumId(2, 3, 2, 5), f"eta:{seed}")
        inter = eta(c)
        assert inter.k == 2 * 2 - 3
        g = random_invertible(5, random.Random(seed))
        moved = transform_configuration_reference(c, g)
        assert eta(moved) == canonicalize(inter.basis @ g, 5)


def test_eta_fiber_point_standard_model():
    h1 = canonicalize(unit_rows(4, 0, 1), 4)
    h2 = canonicalize(unit_rows(4, 0, 2), 4)
    c = Configuration(2, 2, 4, (h1, h2))
    v0 = canonicalize(unit_rows(4, 0), 4)
    triv = Trivialization.over(v0)
    point = eta_fiber_point(c, triv)
    assert point.base == v0
    first, second = point.fiber
    assert first == canonicalize(unit_rows(4, 1), 4)
    assert second == canonicalize(unit_rows(4, 2), 4)
    assert eta_fiber_lift(point, triv) == c


@pytest.mark.parametrize("k,i,n", [(2, 3, 4), (2, 3, 5), (3, 4, 5), (3, 5, 6)])
def test_eta_round_trip_seeded(k, i, n):
    for seed in range(10):
        c = sample_configuration(StratumId(2, i, k, n), f"etart:{seed}")
        inter = eta(c)
        triv = chart_containing(inter, f"etabase:{k}:{i}:{n}:{seed}")
        point = eta_fiber_point(c, triv)
        assert point.base == inter
        first, second = point.fiber
        assert first.k == i - k and second.k == i - k
        assert triv.complement.contains(first) and triv.complement.contains(second)
        assert subspace_sum([first, second]).k == 2 * (i - k)
        assert eta_fiber_lift(point, triv) == c
        assert eta_fiber_point(eta_fiber_lift(point, triv), triv) == point


@pytest.mark.parametrize(
    "k,i,n", [(2, 3, 4), (2, 3, 5), (2, 3, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6)]
)
def test_eta_maps_match_inverse_isomorphism(k, i, n):
    for seed in range(6):
        c = sample_configuration(StratumId(2, i, k, n), f"etaref:{seed}")
        triv = chart_containing(eta(c), f"etarefbase:{k}:{i}:{n}:{seed}")
        point = eta_fiber_point(c, triv)
        assert point == eta_fiber_point_reference(c, triv)
        assert eta_fiber_lift(point, triv) == eta_fiber_lift_reference(point, triv)


def test_eta_fiber_outside_chart_raises():
    h1 = canonicalize(unit_rows(4, 0, 1), 4)
    h2 = canonicalize(unit_rows(4, 0, 2), 4)
    c = Configuration(2, 2, 4, (h1, h2))
    v0 = canonicalize(unit_rows(4, 3), 4)  # complement contains the intersection
    with pytest.raises(OutsideChartError):
        eta_fiber_point(c, Trivialization.over(v0))
