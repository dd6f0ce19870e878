import copy
import io
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from grassconf import grassmann, linalg
from grassconf.errors import (
    DuplicatePointsError,
    EmptyStratumError,
    FullSpaceError,
    GrassconfError,
    MixedAmbientError,
    NotComplementaryError,
    WireFormatError,
    ZeroSubspaceError,
)
from grassconf.grassmann import (
    Configuration,
    StratumId,
    Subspace,
    canonicalize,
    complement,
    configuration_from_json,
    configuration_to_json,
    intersection_dim,
    is_stratum_nonempty,
    projection_along,
    random_invertible,
    random_matrix,
    sample_configuration,
    sample_subspace,
    strata_list,
    stratum_closure,
    stratum_dimension,
    stratum_of,
    subspace_from_json,
    subspace_intersection,
    subspace_sum,
    subspace_to_json,
)
from grassconf.linalg import _P, Matrix, _integer_rows, _modular_rank, kernel, rank
from grassconf.verify import run_roundtrip_suite
from oracles import (
    canonicalize_rref_reference,
    contains_product_reference,
    contains_reference,
    is_zero_matrix,
    leading_rows,
    projection_along_block_reference,
    projection_along_reference,
    rand_matrix,
    random_matrix_reference,
    subspace_intersection_reference,
    transform_reference,
)


def unit_rows(n, *idx):
    return Matrix.from_rows([[1 if j == i else 0 for j in range(n)] for i in idx])


def test_canonicalize_standard_plane():
    s = canonicalize(unit_rows(4, 0, 1), 4)
    assert s.k == 2
    assert s.basis == unit_rows(4, 0, 1)


def test_canonicalize_collapses_dependent_rows():
    raw = Matrix.from_rows([[1, 1, 0], [2, 2, 0]])
    s = canonicalize(raw, 3)
    assert s.k == 1
    assert s.basis == Matrix.from_rows([[1, 1, 0]])


def test_canonicalize_zero_raises():
    with pytest.raises(ZeroSubspaceError):
        canonicalize(Matrix.zeros(2, 3), 3)


def test_canonical_form_invariant_under_change_of_basis():
    for seed in range(100):
        rng = random.Random(seed)
        raw = rand_matrix(2, 5, rng)
        if rank(raw) < 2:
            continue
        s = canonicalize(raw, 5)
        g = random_invertible(2, rng)
        assert canonicalize(g @ raw, 5) == s


def test_subspace_sum_single_is_identity():
    h = sample_subspace(2, 5, 1)
    assert subspace_sum([h]) == h


def test_subspace_sum_direct():
    a = canonicalize(unit_rows(4, 0, 1), 4)
    b = canonicalize(unit_rows(4, 2, 3), 4)
    assert subspace_sum([a, b]).k == 4


def test_sum_mixed_ambient_raises():
    a = sample_subspace(1, 3, 0)
    b = sample_subspace(1, 4, 0)
    with pytest.raises(MixedAmbientError):
        subspace_sum([a, b])


def test_modular_dimension_identity():
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        ka, kb, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 6)
        ka, kb = min(ka, n - 1), min(kb, n - 1)
        a = sample_subspace(ka, n, f"mod:{seed}:a")
        b = sample_subspace(kb, n, f"mod:{seed}:b")
        assert subspace_sum([a, b]).k + intersection_dim(a, b) == a.k + b.k


def test_intersection_of_equal_subspaces():
    a = sample_subspace(2, 4, 42)
    assert subspace_intersection(a, a) == a


def test_intersection_of_complementary_is_zero():
    a = canonicalize(unit_rows(4, 0, 1), 4)
    b = canonicalize(unit_rows(4, 2, 3), 4)
    assert subspace_intersection(a, b) is None


def test_intersection_dim_matches_intersection():
    pairs = []
    for seed in range(30):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 6)
        ka, kb = rng.randint(1, n - 1), rng.randint(1, n - 1)
        pairs.append((sample_subspace(ka, n, f"idim:{seed}:a"), sample_subspace(kb, n, f"idim:{seed}:b")))
    for i, k, n in ((3, 2, 4), (3, 2, 5), (4, 3, 5), (5, 3, 6), (3, 2, 6)):
        for seed in range(4):
            c = sample_configuration(StratumId(2, i, k, n), f"idim:{i}:{k}:{n}:{seed}")
            pairs.append(tuple(c.points))
    pairs.append((canonicalize(unit_rows(4, 0, 1), 4), canonicalize(unit_rows(4, 2, 3), 4)))
    for a, b in pairs:
        inter = subspace_intersection(a, b)
        assert intersection_dim(a, b) == (0 if inter is None else inter.k)
    for mixed in (intersection_dim, subspace_intersection):
        with pytest.raises(MixedAmbientError):
            mixed(sample_subspace(1, 3, 0), sample_subspace(1, 4, 0))


def test_intersection_dim_falls_back_to_the_exact_rank():
    # the mod-p certificate cannot reach a.k + b.k when the subspaces meet,
    # nor when the stack's determinant is a multiple of p; the exact rank
    # decides both
    a = canonicalize(unit_rows(4, 0, 1), 4)
    b = canonicalize(unit_rows(4, 1, 2), 4)
    assert intersection_dim(a, b) == 1
    assert intersection_dim(a, a) == 2
    line = canonicalize(Matrix.from_rows([[1, 0]]), 2)
    tilted = canonicalize(Matrix.from_rows([[1, _P]]), 2)
    assert _modular_rank(_integer_rows(line.basis.stack(tilted.basis)), 2) == 1
    assert intersection_dim(line, tilted) == 0


def test_intersection_dim_eliminates_a_non_direct_pair_once(monkeypatch):
    # the two planes of F_2^3(2,4) meet in a line, so the mod-p rank falls
    # short and one forward elimination counts the pivots; a direct pair
    # is proved by the mod-p rank alone
    calls = []

    def eliminated(grid, reduce=True, _rref=linalg._integer_rref):
        calls.append(reduce)
        return _rref(grid, reduce)
    meeting = sample_configuration(StratumId(2, 3, 2, 4), 0).points
    direct = sample_configuration(StratumId(2, 4, 2, 4), 0).points
    monkeypatch.setattr(linalg, "_integer_rref", eliminated)
    assert intersection_dim(*meeting) == 1
    assert calls == [False]
    calls.clear()
    assert intersection_dim(*direct) == 0
    assert calls == []


def test_intersection_dimension_in_pair_stratum():
    for i, k, n in ((3, 2, 4), (3, 2, 5), (4, 3, 5), (5, 3, 6)):
        c = sample_configuration(StratumId(2, i, k, n), f"int:{i}:{k}:{n}")
        assert intersection_dim(c.points[0], c.points[1]) == 2 * k - i


def _containment_pairs():
    """Seeded (sup, sub) pairs over n <= 9: sub spanned by independent
    combinations of sup's rows, sup itself and in another basis, a random
    subspace of each dimension up to dim sup, a larger one both ways round
    (one containing sup), and one of another ambient."""
    rng = random.Random("containment pairs")
    for n in range(1, 10):
        for k in range(1, n + 1):
            tag = f"contains:{n}:{k}"
            sup = sample_subspace(k, n, tag)
            mix = random_invertible(k, rng)
            yield sup, sup
            yield sup, canonicalize(mix @ sup.basis, n)
            for j in range(1, k + 1):
                yield sup, canonicalize(leading_rows(mix, j) @ sup.basis, n)
                yield sup, sample_subspace(j, n, f"{tag}:other:{j}")
            if k < n:
                larger = canonicalize(sup.basis.stack(random_matrix(1, n, rng)), n)
                yield sup, larger
                yield larger, sup
                yield sup, sample_subspace(k + 1, n, f"{tag}:larger")
            yield sup, sample_subspace(k, n + 1, f"{tag}:ambient")


def test_contains_agrees_with_the_stacked_rank():
    # and with the product on the RREF basis
    outcomes = [
        (_outcome(Subspace.contains, sup, sub), _outcome(contains_reference, sup, sub),
         _outcome(contains_product_reference, sup, sub))
        for sup, sub in _containment_pairs()
    ]
    assert all(new == old == product for new, old, product in outcomes)
    assert {new for new, _, _ in outcomes} == {
        True, False, (MixedAmbientError, "ambient dimensions differ"),
    }


def test_contains_runs_no_elimination(monkeypatch):
    pairs = [(sup, sub) for sup, sub in _containment_pairs() if sup.n == sub.n]

    def refuse(*args, **kwargs):
        raise AssertionError("contains ran an elimination")
    monkeypatch.setattr(linalg, "_integer_rref", refuse)
    monkeypatch.setattr(linalg, "_modular_rank", refuse)
    assert {sup.contains(sub) for sup, sub in pairs} == {True, False}


def test_complement_of_coordinate_plane():
    v = canonicalize(unit_rows(5, 0, 1), 5)
    assert complement(v) == canonicalize(unit_rows(5, 2, 3, 4), 5)


def test_complement_pivot_rule():
    v = canonicalize(Matrix.from_rows([[1, 1]]), 2)
    assert complement(v) == canonicalize(Matrix.from_rows([[0, 1]]), 2)


def test_complement_is_complementary():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        v = sample_subspace(k, n, f"comp:{seed}")
        w = complement(v)
        assert w.k == n - k
        assert subspace_sum([v, w]).k == n
        assert subspace_intersection(v, w) is None


def test_complement_of_full_space_raises():
    v = canonicalize(Matrix.identity(3), 3)
    with pytest.raises(FullSpaceError):
        complement(v)


def test_projection_along_diagonal_example():
    target = canonicalize(unit_rows(2, 0), 2)
    along = canonicalize(unit_rows(2, 1), 2)
    assert projection_along(target, along) == Matrix.from_rows([[1, 0], [0, 0]])


def test_projection_is_idempotent_with_correct_image_and_kernel():
    for seed in range(30):
        v = sample_subspace(2, 5, f"proj:{seed}")
        w = complement(v)
        phi = projection_along(v, w)
        assert phi @ phi == phi
        assert canonicalize(phi.transpose(), 5).k == 2
        assert canonicalize(v.basis @ phi, 5) == v
        left_null = kernel(phi.transpose())
        assert canonicalize(left_null, 5) == w


def test_projection_not_complementary_raises():
    v = canonicalize(unit_rows(4, 0, 1), 4)
    w = canonicalize(unit_rows(4, 1, 2), 4)
    with pytest.raises(NotComplementaryError):
        projection_along(v, w)


def test_projection_along_falls_back_to_the_exact_rank():
    # [1 0; 1 p] has determinant p, so its mod-p rank is 1: the exact rank
    # must still find target ⊕ along = C^2
    target = canonicalize(Matrix.from_rows([[1, 0]]), 2)
    along = canonicalize(Matrix.from_rows([[1, _P]]), 2)
    assert _modular_rank(_integer_rows(target.basis.stack(along.basis)), 2) == 1
    phi = projection_along(target, along)
    assert phi == Matrix.from_rows([[1, 0], [Fraction(-1, _P), 0]])
    assert phi @ phi == phi


def test_projection_along_decides_complements_by_its_solve():
    # [target; along] has determinant -p for the first pair, so its mod-p
    # rank falls short although the sum is direct; the second target lies
    # in along.  The solve alone tells them apart.
    along = canonicalize(Matrix.from_rows([[1, _P, 0], [0, 0, 1]]), 3)
    target = canonicalize(unit_rows(3, 0), 3)
    assert _modular_rank(_integer_rows(target.basis.stack(along.basis)), 3) == 2
    phi = projection_along(target, along)
    assert phi @ phi == phi
    assert target.basis @ phi == target.basis
    assert is_zero_matrix(along.basis @ phi)
    inside = canonicalize(Matrix.from_rows([[1, _P, 1]]), 3)
    with pytest.raises(NotComplementaryError) as exc:
        projection_along(inside, along)
    assert str(exc.value) == "subspaces intersect nontrivially"


def _outcome(fn, target, along):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(target, along)
    except (GrassconfError, ValueError) as exc:
        return type(exc), str(exc)


def _scaled_rows(rows, rng):
    """Each Z[i] row times a seeded nonzero Gaussian integer."""
    out = []
    for row in rows:
        f_re, f_im = rng.choice([(1, 0), (-1, 0), (2, 0), (3, 1), (0, -2), (6, 0)])
        out.append([(re * f_re - im * f_im, re * f_im + im * f_re) for re, im in row])
    return out


def _generating_sets():
    """Seeded (matrix, n) over n <= 7: independent rows, the same rows
    with two combinations of them, with a zero row, all rows zero, and
    a column count other than n."""
    rng = random.Random("generating sets")
    for n in range(1, 8):
        for rows in range(1, n + 2):
            m = random_matrix(rows, n, rng)
            yield m, n
            yield m.stack(random_matrix(2, rows, rng) @ m), n
            yield Matrix.zeros(1, n).stack(m), n
            yield Matrix.zeros(rows, n), n
            yield m, n + 1


def test_canonicalize_agrees_with_rref_then_subspace():
    # canonicalize reduces the stored Z[i] rows, and its row entry point
    # takes them at any row scale
    rng = random.Random("row scales")
    outcomes = []
    collapsed = False
    for m, n in _generating_sets():
        want = _outcome(canonicalize_rref_reference, m, n)
        outcomes.append(want)
        assert _outcome(canonicalize, m, n) == want
        if m.cols == n:
            rows = _scaled_rows(_integer_rows(m), rng)
            assert _outcome(grassmann._canonical_span, rows, n) == want
        collapsed = collapsed or (isinstance(want, Subspace) and want.k < m.rows)
    assert collapsed
    assert {type(x) if isinstance(x, Subspace) else x[0] for x in outcomes} == {
        Subspace, ZeroSubspaceError, MixedAmbientError,
    }


def test_image_refuses_a_factor_of_the_wrong_row_count():
    # a product pairs each row with the factor's columns entry by entry, so
    # a row of another length must raise, as Matrix @ does, rather than be
    # truncated to a product of the wrong point
    row = [(1, 0), (2, 0), (3, 0)]
    with pytest.raises(ValueError, match="cannot multiply 1x3 by 4x4"):
        linalg._products([row], Matrix.identity(4))
    for g in (Matrix.identity(4), Matrix.identity(2), Matrix.zeros(4, 2)):
        with pytest.raises(ValueError, match=f"cannot multiply 2x3 by {g.rows}x{g.cols}"):
            grassmann._image([row, [(0, 0), (1, 1), (0, 0)]], g)
    with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x3"):
        grassmann._image([row, [(0, 0), (1, 1)]], Matrix.identity(3))
    assert grassmann._image([row], Matrix.identity(3)) == canonicalize(Matrix.from_rows([[1, 2, 3]]), 3)


def test_transform_agrees_with_the_product_then_canonicalize():
    # the package's image route, grassmann._image, reduces the product's
    # Z[i] rows as they are, at any row scale: invertible, singular
    # (rank 1), zero, wide and narrow g.  A g of the wrong row count is
    # refused (test_image_refuses_a_factor_of_the_wrong_row_count)
    rng, scales = random.Random("transforms"), random.Random("transform scales")
    outcomes = []

    def image(v, g):
        return grassmann._image(_scaled_rows(_integer_rows(v.basis), scales), g)
    for n in range(1, 8):
        for k in range(1, n + 1):
            v = sample_subspace(k, n, f"transform:{n}:{k}")
            for g in (
                random_invertible(n, rng), random_matrix(n, n, rng),
                random_matrix(n, 1, rng) @ random_matrix(1, n, rng), Matrix.zeros(n, n),
                random_matrix(n, n + 2, rng), random_matrix(n, max(1, n - 2), rng),
            ):
                want = _outcome(transform_reference, v, g)
                assert _outcome(image, v, g) == want
                outcomes.append(want)
    assert {type(x) if isinstance(x, Subspace) else x[0] for x in outcomes} == {
        Subspace, ZeroSubspaceError,
    }


def test_subspace_intersection_agrees_with_the_kernel_route():
    # seeded pairs over n <= 7: generic ones of every pair of dimensions
    # (a direct sum gives None), a subspace and itself, and pairs sharing
    # a seeded line
    rng = random.Random("intersections")
    met = set()
    for n in range(1, 8):
        for k in range(1, n + 1):
            a = sample_subspace(k, n, f"inter:{n}:{k}")
            pairs = [(a, a)]
            for j in range(1, n + 1):
                pairs.append((a, sample_subspace(j, n, f"inter:{n}:{k}:{j}")))
                line = random_matrix(1, n, rng)
                x, y = (canonicalize(line.stack(random_matrix(d - 1, n, rng)), n) for d in (k, j))
                pairs.append((x, y))
            for x, y in pairs:
                got = subspace_intersection(x, y)
                assert got == subspace_intersection_reference(x, y)
                met.add(None if got is None else got.k)
    assert None in met and {1, 2, 3} <= met


def _projection_pairs():
    """Seeded (target, along) pairs over n <= 9 with k < n-k, k = n-k and
    k > n-k: complementary, meeting in a vector of target, of the wrong
    dimension and of another ambient; every pair of coordinate subspaces
    with complementary dimensions for n <= 5; and the pairs whose
    [target; along] has a determinant divisible by _P, both ways round."""
    rng = random.Random("projection pairs")
    for n in range(2, 10):
        for k in range(1, n):
            for seed in range(3):
                tag = f"projref:{n}:{k}:{seed}"
                target = sample_subspace(k, n, tag)
                yield target, sample_subspace(n - k, n, f"{tag}:along")
                meeting = leading_rows(target.basis, 1).stack(random_matrix(n - k - 1, n, rng))
                yield target, canonicalize(meeting, n)
                wrong = n - k - 1 if seed and n - k > 1 else n - k + 1
                yield target, sample_subspace(wrong, n, f"{tag}:dim")
                yield target, sample_subspace(n - k, n + 1, f"{tag}:ambient")
    for n in range(2, 6):
        for k in range(1, n):
            for rows in combinations(range(n), k):
                for other in combinations(range(n), n - k):
                    yield canonicalize(unit_rows(n, *rows), n), canonicalize(unit_rows(n, *other), n)
    plane = canonicalize(Matrix.from_rows([[1, _P, 0], [0, 0, 1]]), 3)
    for target, along in (
        (canonicalize(Matrix.from_rows([[1, 0]]), 2), canonicalize(Matrix.from_rows([[1, _P]]), 2)),
        (canonicalize(unit_rows(3, 0), 3), plane),
        (canonicalize(Matrix.from_rows([[1, _P, 1]]), 3), plane),
    ):
        yield target, along
        yield along, target


def test_projection_along_agrees_with_the_stacked_solve():
    # and with the block solve as Matrix algebra
    outcomes = [
        (_outcome(projection_along, t, a), _outcome(projection_along_reference, t, a),
         _outcome(projection_along_block_reference, t, a))
        for t, a in _projection_pairs()
    ]
    assert all(new == old == block for new, old, block in outcomes)
    raised = sum(isinstance(new, tuple) for new, _, _ in outcomes)
    assert 0 < raised < len(outcomes)
    assert {new for new, _, _ in outcomes if isinstance(new, tuple)} == {
        (MixedAmbientError, "ambient dimensions differ"),
        (NotComplementaryError, "dimensions do not add up to the ambient dimension"),
        (NotComplementaryError, "subspaces intersect nontrivially"),
    }


def test_projected_rows_are_the_products_with_the_projection_matrix():
    # the kept solve applied to rows, and flipped for I - P, gives the
    # rows of the product with the n x n matrix, built here by
    # projection_along and by the stacked solve; rows of target (fixed),
    # of along (sent to 0) and a zero row are among them
    rng = random.Random(17)
    for n in range(2, 8):
        for k in range(1, n):
            tag = f"projrows:{k}:{n}"
            target = sample_subspace(k, n, tag)
            along = next(
                a for a in (sample_subspace(n - k, n, f"{tag}:{j}") for j in range(64))
                if rank(target.basis.stack(a.basis)) == n
            )
            p = projection_along(target, along)
            reference = projection_along_reference(target, along)
            assert p == reference
            rows = rand_matrix(3, n, rng, sparse=0.3).stack(target.basis).stack(along.basis)
            rows = rows.stack(Matrix.zeros(1, n))
            kept = grassmann._projection_solve(target, along)
            assert kept.minus == (k > n - k)
            for proj, matrix in ((kept, p), (kept.flipped(), Matrix.identity(n) - reference)):
                moved = Matrix._of(rows.rows, n, tuple(grassmann._project(rows.zrows, proj)))
                assert moved == rows @ matrix
            assert moved == rows - rows @ reference


def _record_projection_solves(monkeypatch):
    """The (rows, cols) of every linalg._integer_rref grid eliminated
    inside grassmann._projection_solve, the one solve of projection_along
    and of the chart maps, appended as the calls happen."""
    shapes = []
    inside = []
    real_rref, real_projection = linalg._integer_rref, grassmann._projection_solve

    def eliminated(grid, reduce=True):
        if inside:
            shapes.append((len(grid), len(grid[0])))
        return real_rref(grid, reduce)

    def projection(target, along):
        inside.append(True)
        try:
            return real_projection(target, along)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "_integer_rref", eliminated)
    monkeypatch.setattr(grassmann, "_projection_solve", projection)
    return shapes


def test_projection_along_solves_the_smaller_side(monkeypatch):
    shapes = _record_projection_solves(monkeypatch)
    for n in range(2, 10):
        for k in range(1, n):
            target = sample_subspace(k, n, f"projshape:{n}:{k}")
            along = complement(target)
            shapes.clear()
            grassmann.projection_along(target, along)
            side = min(k, n - k)
            assert shapes == [(side, side + n)]


@pytest.mark.parametrize("which, rows, cols", [("gamma", 2, 7), ("pr", 2, 8), ("eta", 1, 5)])
def test_default_grid_projections_solve_the_smaller_side(monkeypatch, which, rows, cols):
    # the default grids' charts are (3, 5), (4, 6) and (1, 4) in (k, n)
    shapes = _record_projection_solves(monkeypatch)
    assert run_roundtrip_suite(which, cases=20, seed=0).ok
    assert shapes and set(shapes) == {(rows, cols)}


def test_stratum_of_single_point():
    c = Configuration.of([sample_subspace(2, 5, 3)])
    assert stratum_of(c) == 2


def test_stratum_of_direct_sum_planes():
    pts = [
        canonicalize(unit_rows(6, 0, 1), 6),
        canonicalize(unit_rows(6, 2, 3), 6),
        canonicalize(unit_rows(6, 4, 5), 6),
    ]
    assert stratum_of(Configuration.of(pts)) == 6


def test_nonempty_predicate_special_cases():
    assert is_stratum_nonempty(StratumId(1, 2, 2, 5))
    assert not is_stratum_nonempty(StratumId(1, 3, 2, 5))
    assert is_stratum_nonempty(StratumId(2, 3, 2, 4))
    # hyperplanes: only the full sum survives
    for h in (2, 3, 4):
        for i in range(2, 5):
            assert is_stratum_nonempty(StratumId(h, i, 4, 5)) == (i == 5)
    # i = 1 needs h = k = 1
    assert is_stratum_nonempty(StratumId(1, 1, 1, 4))
    assert not is_stratum_nonempty(StratumId(2, 1, 1, 4))


def test_stratum_dimension_values():
    assert stratum_dimension(StratumId(2, 3, 2, 4)) == 7
    assert stratum_dimension(StratumId(1, 2, 2, 5)) == 6
    with pytest.raises(EmptyStratumError):
        stratum_dimension(StratumId(2, 2, 2, 4))


def test_open_stratum_dimension_is_product_dimension():
    for h in range(1, 5):
        for k in range(1, 5):
            for n in range(k + 1, 9):
                i = k if h == 1 else min(h * k, n)
                assert stratum_dimension(StratumId(h, i, k, n)) == h * k * (n - k)


def test_strata_list_examples():
    assert [s.i for s in strata_list(2, 2, 4)] == [3, 4]
    assert [s.i for s in strata_list(2, 1, 5)] == [2]
    assert [s.i for s in strata_list(3, 2, 10)] == [3, 4, 5, 6]
    assert strata_list(1, 2, 4) == [StratumId(1, 2, 2, 4)]
    with pytest.raises(ValueError, match="need h >= 1"):
        strata_list(0, 2, 4)


def test_stratum_closure():
    assert [s.i for s in stratum_closure(StratumId(2, 3, 2, 6))] == [3]
    assert [s.i for s in stratum_closure(StratumId(2, 4, 2, 6))] == [3, 4]
    top = StratumId(3, 6, 2, 10)
    assert stratum_closure(top) == strata_list(3, 2, 10)
    assert stratum_closure(StratumId(1, 2, 2, 4)) == [StratumId(1, 2, 2, 4)]


def test_sampler_hits_requested_stratum():
    for h in (1, 2, 3):
        for k in (1, 2):
            for n in range(k + 1, 7):
                candidates = [k] if h == 1 else range(k + 1, min(h * k, n) + 1)
                for i in candidates:
                    s = StratumId(h, i, k, n)
                    c = sample_configuration(s, 7)
                    assert stratum_of(c) == i
                    assert c.h == h and c.k == k and c.n == n


def test_random_matrix_reproduces_the_randint_draws():
    # the sampler builds Z[i] rows from getrandbits; the matrices and the
    # generator state afterwards must be those of the randint Fractions, so
    # every sampled configuration stays the same
    for seed in range(252):
        rows, cols = 1 + seed % 6, 1 + seed // 6 % 7
        ours, reference = random.Random(seed), random.Random(seed)
        got = random_matrix(rows, cols, ours)
        assert got.zrows == random_matrix_reference(rows, cols, reference).zrows, seed
        assert (got.rows, got.cols) == (rows, cols)
        assert ours.getstate() == reference.getstate(), seed
    scales = {s for seed in range(40) for s, _ in random_matrix(3, 4, random.Random(seed)).zrows}
    assert scales == {1, 2}


def test_sampler_deterministic():
    s = StratumId(3, 4, 2, 6)
    assert sample_configuration(s, 123) == sample_configuration(s, 123)
    assert sample_configuration(s, 123) != sample_configuration(s, 124)


def test_sampler_empty_stratum_raises():
    with pytest.raises(EmptyStratumError):
        sample_configuration(StratumId(2, 5, 2, 7), 0)


def test_configuration_rejects_duplicates():
    p = sample_subspace(2, 4, 5)
    with pytest.raises(DuplicatePointsError):
        Configuration(2, 2, 4, (p, p))


def test_span_is_the_sum_of_the_points():
    for s in (StratumId(2, 3, 2, 5), StratumId(3, 6, 2, 6), StratumId(3, 3, 2, 4), StratumId(1, 2, 2, 4)):
        c = sample_configuration(s, "span")
        assert c.span == subspace_sum(c.points)
        assert c.span.k == stratum_of(c) == s.i
        assert c.span is c.span


def test_reading_the_span_changes_no_value_of_the_record():
    s = StratumId(2, 3, 2, 5)
    read, fresh = (sample_configuration(s, "span record") for _ in range(2))
    assert read.span.k == 3
    copies = [copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))]
    for c in [read] + copies:
        assert c == fresh
        assert hash(c) == hash(fresh)
        assert repr(c) == repr(fresh)
        assert configuration_to_json(c) == configuration_to_json(fresh)


def test_pivots_are_the_rref_pivots_found_once(monkeypatch):
    scans = []

    def counted(m, _scan=grassmann._canonical_pivots):
        scans.append(m)
        return _scan(m)
    monkeypatch.setattr(grassmann, "_canonical_pivots", counted)
    for n in range(2, 8):
        for k in range(1, n):
            sampled = sample_subspace(k, n, f"pivots:{n}")
            for basis in (sampled.basis, complement(sampled).basis):
                scans.clear()
                v = Subspace(n, basis.rows, basis)
                assert [v.pivots() for _ in range(3)] == [linalg.rref(basis).pivots] * 3
                assert len(scans) == 1
                for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                    assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)
                    assert twin.pivots() == v.pivots()
                assert len(scans) == 1


def test_pivot_split_is_computed_once_and_kept():
    for n in range(1, 8):
        for k in range(1, n + 1):
            v = sample_subspace(k, n, f"split:{n}")
            split = v._pivot_split
            assert v._pivot_split is split
            scale, ints = linalg._common_scale(v.basis.zrows)
            free = tuple(c for c in range(n) if c not in v.pivots())
            assert split == (v.pivots(), free, scale, tuple(tuple(row[f] for row in ints) for f in free))
            assert all(isinstance(part, tuple) for part in (split.free, split.cols, *split.cols))
            fresh = Subspace(n, k, v.basis)
            assert fresh == v and hash(fresh) == hash(v) and repr(fresh) == repr(v)
            assert fresh._pivot_split == split
            twin = pickle.loads(pickle.dumps(v))
            assert twin == v and twin._pivot_split == split


def test_transform_preserves_stratum():
    c = sample_configuration(StratumId(2, 3, 2, 5), 11)
    g = random_invertible(5, random.Random(4))
    moved = Configuration(c.h, c.k, c.n, tuple(
        grassmann._image(_integer_rows(p.basis), g) for p in c.points
    ))
    assert stratum_of(moved) == 3


def test_semicontinuity_under_generic_perturbation():
    from fractions import Fraction

    from grassconf.linalg import GaussianRational

    c = sample_configuration(StratumId(3, 4, 2, 6), 21)
    base = stratum_of(c)
    for seed in range(25):
        rng = random.Random(f"semi:{seed}")
        pts = []
        for p in c.points:
            delta = Matrix(p.k, p.n, tuple(
                tuple(
                    GaussianRational(
                        Fraction(rng.randint(-1, 1), 997), Fraction(rng.randint(-1, 1), 997)
                    )
                    for _ in range(p.n)
                )
                for _ in range(p.k)
            ))
            pts.append(canonicalize(p.basis + delta, p.n))
        assert stratum_of(Configuration.of(pts)) >= base


def test_subspace_json_round_trip():
    s = sample_subspace(2, 5, 9)
    assert subspace_from_json(subspace_to_json(s)) == s


def test_subspace_json_rejects_rank_deficient():
    data = subspace_to_json(sample_subspace(2, 4, 1))
    data["basis"]["entries"][4:8] = data["basis"]["entries"][0:4]
    with pytest.raises((ValueError, ZeroSubspaceError)):
        subspace_from_json(data)


def test_configuration_json_round_trip():
    c = sample_configuration(StratumId(3, 5, 2, 6), 17)
    assert configuration_from_json(configuration_to_json(c)) == c


def test_configuration_json_non_canonical_input_is_canonicalized():
    c = sample_configuration(StratumId(2, 4, 2, 5), 3)
    data = configuration_to_json(c)
    g = random_invertible(2, random.Random(8))
    scrambled = subspace_to_json(c.points[0])
    from grassconf.linalg import matrix_from_json, matrix_to_json

    scrambled["basis"] = matrix_to_json(g @ matrix_from_json(scrambled["basis"]))
    data["points"][0] = scrambled
    assert configuration_from_json(data) == c


def _subspace_from_json_reference(data):
    """The former reader: canonicalize every basis, then check k."""
    n, k = (linalg._wire_count(data, key, "a subspace") for key in ("n", "k"))
    sub = canonicalize(linalg.matrix_from_json(data["basis"]), n)
    if sub.k != k:
        raise WireFormatError(f"declared dimension {k} but basis has rank {sub.k}")
    return sub


def _read(reader, data):
    try:
        return reader(data)
    except (GrassconfError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _no_elimination(*args, **kwargs):
    raise AssertionError("a canonical basis was eliminated")


def test_readers_take_a_canonical_basis_as_it_is(tmp_path, monkeypatch):
    # every basis that sample -o writes is canonical, so reading the file
    # runs no elimination; any other basis is canonicalized as before, to
    # the same subspace or the same error
    from grassconf.cli import main

    target = tmp_path / "c.json"
    assert main(["sample", "--h", "3", "--i", "5", "--k", "2", "--n", "7", "--seed", "42",
                 "-o", str(target)], out=io.StringIO()) == 0
    data = json.loads(target.read_text())
    expected = [_subspace_from_json_reference(p) for p in data["points"]]
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_integer_rref", _no_elimination)
        c = configuration_from_json(data)
    assert list(c.points) == expected

    point = data["points"][0]
    basis = linalg.matrix_from_json(point["basis"])
    rows = [list(row) for row in basis.entries]
    g = random_invertible(2, random.Random(8))
    variants = {
        "scrambled": dict(point, basis=linalg.matrix_to_json(g @ basis)),
        "scaled row": dict(point, basis=linalg.matrix_to_json(
            Matrix.from_rows([[2 * e for e in rows[0]], rows[1]]))),
        "swapped rows": dict(point, basis=linalg.matrix_to_json(Matrix.from_rows(rows[::-1]))),
        "repeated row": dict(point, k=3, basis=linalg.matrix_to_json(
            Matrix.from_rows(rows + rows[:1]))),
        "k too large": dict(point, k=3),
        "k too small": dict(point, k=1),
        "k zero": dict(point, k=0),
        "n too large": dict(point, n=8),
        "no rows": dict(point, k=0, basis={"rows": 0, "cols": 7, "entries": []}),
        "dependent": dict(point, basis=linalg.matrix_to_json(Matrix.from_rows(rows[:1] * 2))),
    }
    outcomes = {}
    for name, variant in variants.items():
        got = _read(subspace_from_json, variant)
        assert got == _read(_subspace_from_json_reference, variant), name
        outcomes[name] = got if isinstance(got, tuple) else got == expected[0]
    assert outcomes == {
        "scrambled": True, "scaled row": True, "swapped rows": True,
        "repeated row": ("WireFormatError", "declared dimension 3 but basis has rank 2"),
        "k too large": ("WireFormatError", "declared dimension 3 but basis has rank 2"),
        "k too small": ("WireFormatError", "declared dimension 1 but basis has rank 2"),
        "k zero": ("WireFormatError", "declared dimension 0 but basis has rank 2"),
        "n too large": ("MixedAmbientError", "expected 8 columns, got 7"),
        "no rows": ("ZeroSubspaceError", "generating set spans only the zero subspace"),
        "dependent": ("WireFormatError", "declared dimension 2 but basis has rank 1"),
    }
