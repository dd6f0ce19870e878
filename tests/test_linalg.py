import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassconf import linalg, verify
from grassconf.errors import InconsistentSystemError
from grassconf.grassmann import StratumId, sample_configuration
from grassconf.linalg import (
    _P,
    _SQRT_MINUS_ONE,
    ZERO,
    GaussianRational,
    Matrix,
    _integer_rows,
    _modular_rank,
    _rank_at_least,
    gq,
    kernel,
    matrix_from_json,
    matrix_to_json,
    rank,
    rref,
    solve,
)
from oracles import (
    conjugate_transpose,
    integer_rref_reference,
    invert,
    is_zero_matrix,
    leading_rows,
    matmul_reference,
    minor_rank,
    rand_matrix,
    rand_rank_deficient,
    rref_reference,
    scaled,
)

fractions_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)
scalars_st = st.builds(GaussianRational, fractions_st, fractions_st)


@given(scalars_st, scalars_st, scalars_st)
@settings(max_examples=200, deadline=None)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(scalars_st, scalars_st)
@settings(max_examples=200, deadline=None)
def test_conjugation_is_a_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_rref_identity():
    eye = Matrix.identity(3)
    reduced, rk, pivots = rref(eye)
    assert reduced == eye
    assert rk == 3
    assert pivots == (0, 1, 2)


def test_rref_zero():
    z = Matrix.zeros(2, 4)
    reduced, rk, pivots = rref(z)
    assert reduced == z
    assert rk == 0
    assert pivots == ()


UNITS = (gq(0), gq(1), gq(-1), gq(0, 1), gq(0, -1))

# (rows, rank) of the tall stacks shaped like the adjacency trials': h*k
# perturbed basis rows in C^6, most of full rank, some dropping
TRIAL_STACKS = ((9, 6), (9, 6), (9, 6), (9, 5), (6, 6), (6, 5), (6, 4))


def _trial_stack(rows: int, target_rank: int, rng: random.Random) -> Matrix:
    """rows x 6 matrix of rank target_rank (generically) whose rows are
    small combinations of a basis perturbed by t * D, D in the {-1, 0, 1}
    lattice of Z[i] and t tiny, so its Z[i] rows have entries of 30 to 43 bits."""
    t = Fraction(rng.randint(1, 4096), 4096 * 8000 * 4 ** rng.randint(1, 6))
    lattice = Matrix.from_rows(
        [[gq(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(6)] for _ in range(target_rank)]
    )
    basis = rand_matrix(target_rank, 6, rng) + scaled(lattice, t)
    left = Matrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(target_rank)] for _ in range(rows)]
    )
    return left @ basis


def _oracle_inputs():
    """Random dense/sparse 4x6 matrices, {0, +-1, +-i} matrices whose
    pivots are units other than 1, inputs with zero rows, rank-deficient
    stacks, and tall stacks with wide entries like the adjacency trials'."""
    for seed in range(200):
        rng = random.Random(seed)
        kind = seed % 5
        if kind == 0:
            yield seed, rand_rank_deficient(4, 6, rng.randint(1, 3), rng)
        elif kind == 1:
            yield seed, Matrix.from_rows(
                [[rng.choice(UNITS) for _ in range(6)] for _ in range(rng.randint(1, 5))]
            )
        elif kind == 2:
            rows = list(rand_matrix(3, 5, rng, sparse=0.3).entries)
            rows.insert(rng.randint(0, 3), (gq(0),) * 5)
            yield seed, Matrix(4, 5, tuple(rows))
        elif kind == 3:
            top = rand_matrix(3, 6, rng, sparse=0.3)
            yield seed, top.stack(rand_matrix(2, 3, rng) @ top)
        else:
            yield seed, rand_matrix(4, 6, rng, sparse=0.3)
    for seed, (rows, target_rank) in enumerate(TRIAL_STACKS, start=200):
        yield seed, _trial_stack(rows, target_rank, random.Random(seed))


def test_rref_rank_matches_minor_oracle():
    # the mod-p rank is only a lower bound, and _rank_at_least is exact
    agree = 0
    for seed, m in _oracle_inputs():
        exact = minor_rank(m)
        assert rank(m) == exact, f"seed {seed}"
        assert tuple(rref(m)) == rref_reference(m), f"seed {seed}"
        rows = _integer_rows(m)
        assert _modular_rank(rows, m.rows) <= exact, f"seed {seed}"
        assert _rank_at_least(rows, exact), f"seed {seed}"
        assert not _rank_at_least(rows, exact + 1), f"seed {seed}"
        agree += 1
    assert agree == 200 + len(TRIAL_STACKS)


def _kernel_grids():
    """(label, Z[i] rows) for the kernel identity test: random Z[i] grids
    with zero columns and dependent rows, real grids whose pivots take
    both signs, the [G | I] grids that verify._gram_solve eliminates
    for the trials' Gram floor and the projectors, and the base stack's
    columns that one rank-only elimination per adjacency check reduces
    (verify._eliminate_base), whose last step updates no row."""
    for seed in range(120):
        rng = random.Random(f"kernel:{seed}")
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n_cols)]
                for _ in range(n_rows)]
        for col in rng.sample(range(n_cols), rng.randint(0, n_cols // 2)):
            for row in rows:
                row[col] = (0, 0)
        if n_rows > 1 and seed % 2:
            a, b = rng.sample(range(n_rows), 2)
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            rows[b] = [(re * c[0] - im * c[1], re * c[1] + im * c[0]) for re, im in rows[a]]
        yield f"complex:{seed}", [tuple(row) for row in rows]
        yield f"real:{seed}", [tuple((re, 0) for re, _ in row) for row in rows]
    grids, bases = [], []

    def recorded(grid, reduce=True, _rref=linalg._integer_rref):
        (grids if reduce else bases).append([tuple(row) for row in grid])
        return _rref(grid, reduce)
    for s in (StratumId(2, 3, 2, 4), StratumId(3, 5, 2, 6), StratumId(3, 6, 3, 6)):
        c = sample_configuration(s, "kernel")
        rows = [row for p in c.points for row in p.basis.zrows]
        scale, ints = linalg._common_scale(rows)
        cols = list(zip(*ints))
        pivots = c.span.pivots()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(linalg, "_integer_rref", recorded)
            verify._sigma_floor([(scale, cols[j]) for j in pivots])
            verify._sigma_floor(rows)
            for p in c.points:
                verify._integer_projector(_integer_rows(p.basis))
            verify._eliminate_base(rows, pivots)
    for idx, grid in enumerate(grids):
        yield f"gram:{idx}", grid
    for idx, grid in enumerate(bases):
        yield f"base:{idx}", grid


def test_integer_rref_matches_the_all_columns_reference():
    # the step that computes only the columns it can change, and divides
    # by a real previous pivot directly, leaves the very (d, pivots, rows)
    # of the former step, for both reduce values
    seen = {"complex": 0, "real": 0, "gram": 0, "base": 0, "one-row": 0, "negative": 0}
    for label, rows in _kernel_grids():
        for reduce in (True, False):
            ours, theirs = list(rows), list(rows)
            got = linalg._integer_rref(ours, reduce)
            assert (got, ours) == (integer_rref_reference(theirs, reduce), theirs), (label, reduce)
        m = Matrix._of(len(rows), len(rows[0]), tuple((1, row) for row in rows))
        assert tuple(rref(m)) == rref_reference(m), label
        seen[label.split(":")[0]] += 1
        seen["one-row"] += len(rows) == 1
        seen["negative"] += got[0][0] < 0 and label.startswith("real")
    assert seen["complex"] == seen["real"] == 120
    # two Gram floors per configuration and one projector per point, and
    # one base stack per configuration
    assert seen["gram"] == 3 * 2 + 2 + 3 + 3
    assert seen["base"] == 3
    assert seen["one-row"] > 20
    assert seen["negative"] > 20


@pytest.mark.parametrize("factor", [(_P, 0), (_SQRT_MINUS_ONE, -1)], ids=str)
def test_fp_pivots_fall_short_on_a_determinant_that_vanishes_mod_p(factor):
    # L diag(1, 1, factor) U with unimodular triangular L and U has
    # determinant p (or a Gaussian prime over p): invertible over Z[i], but
    # the mod-p elimination finds two pivots and _rank_at_least decides exactly
    rng = random.Random(23)
    lower = Matrix.from_rows([[1, 0, 0], [rng.randint(-3, 3), 1, 0],
                              [rng.randint(-3, 3), rng.randint(-3, 3), 1]])
    upper = lower.transpose()
    middle = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, gq(*factor)]])
    m = lower @ middle @ upper
    rows = _integer_rows(m)
    assert _modular_rank(rows, 3) == 2
    assert minor_rank(m) == 3
    assert _rank_at_least(rows, 3)
    dropped = rows[:2] + [[
        (a_re + b_re, a_im + b_im) for (a_re, a_im), (b_re, b_im) in zip(rows[0], rows[1])
    ]]
    assert _modular_rank(dropped, 3) == 2
    assert not _rank_at_least(dropped, 3)


def test_modular_map_sends_i_to_a_square_root_of_minus_one():
    assert _P % 4 == 1
    assert all(_P % q for q in range(2, int(_P ** 0.5) + 1))
    assert _SQRT_MINUS_ONE ** 2 % _P == _P - 1


def test_has_rank_falls_back_to_the_exact_rank():
    # det [1 0; 1 p] = p vanishes mod p, and the exact rank still finds 2
    m = Matrix.from_rows([[1, 0], [1, _P]])
    assert _modular_rank(_integer_rows(m), 2) == 1
    assert _rank_at_least(_integer_rows(m), 2)
    assert not _rank_at_least(_integer_rows(Matrix.from_rows([[1, 2], [_P, 2 * _P]])), 2)
    assert not _rank_at_least(_integer_rows(Matrix.from_rows([[1, 0, 0], [0, 1, 0]])), 3)


def test_rank_at_least_certificate_and_fallback():
    rng = random.Random(17)
    rows = _integer_rows(_trial_stack(3, 3, rng))
    assert _modular_rank(rows, 3) == 3
    assert _rank_at_least(rows, 3)
    # full rank over Z[i], but the last row vanishes mod p: all its entries
    # are multiples of p, or of the Gaussian prime sqrt(-1) - i over p
    for factor in ((_P, 0), (_SQRT_MINUS_ONE, -1)):
        f_re, f_im = factor
        vanishing = [rows[0], rows[1], [
            (re * f_re - im * f_im, re * f_im + im * f_re) for re, im in rows[2]
        ]]
        before = [list(row) for row in vanishing]
        assert _modular_rank(vanishing, 3) == 2
        assert rank(Matrix(3, 6, tuple(
            tuple(GaussianRational(re, im) for re, im in row) for row in vanishing
        ))) == 3
        assert _rank_at_least(vanishing, 3)
        assert [list(row) for row in vanishing] == before
    # a genuine drop: the last row is the sum of the others
    dropped = [rows[0], rows[1], [
        (a_re + b_re, a_im + b_im) for (a_re, a_im), (b_re, b_im) in zip(rows[0], rows[1])
    ]]
    assert _modular_rank(dropped, 3) == 2
    assert not _rank_at_least(dropped, 3)
    assert _rank_at_least(dropped, 2)


def test_rref_idempotent_and_pivots_increasing():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        m = rand_matrix(rng.randint(1, 5), rng.randint(1, 6), rng, sparse=0.4)
        reduced, rk, pivots = rref(m)
        assert list(pivots) == sorted(pivots)
        assert rref(reduced) == (reduced, rk, pivots)


def test_rank_of_conjugate_transpose():
    for seed in range(50):
        rng = random.Random(2000 + seed)
        m = rand_matrix(3, 5, rng, sparse=0.3)
        assert rank(m) == rank(conjugate_transpose(m))


def test_kernel_identity_is_empty():
    assert kernel(Matrix.identity(4)).rows == 0


def test_kernel_of_zero_is_everything():
    k = kernel(Matrix.zeros(2, 3))
    assert k.rows == 3
    assert rank(k) == 3


def test_kernel_rank_two_case():
    rng = random.Random(5)
    m = rand_rank_deficient(3, 5, 2, rng)
    assert rank(m) == 2
    k = kernel(m)
    assert k.rows == 3
    product = m @ k.transpose()
    assert is_zero_matrix(product)


def test_rank_nullity_randomized():
    for seed in range(100):
        rng = random.Random(3000 + seed)
        m = rand_matrix(rng.randint(1, 5), rng.randint(1, 6), rng, sparse=0.4)
        k = kernel(m)
        assert rank(m) + k.rows == m.cols
        if k.rows:
            assert is_zero_matrix(m @ k.transpose())
            assert rank(k) == k.rows


def test_solve_identity_returns_rhs():
    b = Matrix.from_rows([[gq(1, 2)], [gq(-3)], [gq(0, Fraction(1, 5))]])
    assert solve(Matrix.identity(3), b) == b


def test_solve_invertible_exact_residual():
    for seed in range(30):
        rng = random.Random(4000 + seed)
        a = rand_matrix(3, 3, rng)
        if rank(a) < 3:
            continue
        b = rand_matrix(3, 2, rng)
        x = solve(a, b)
        assert a @ x == b


def test_solve_inconsistent():
    a = Matrix.zeros(2, 2)
    b = Matrix.from_rows([[gq(1)], [gq(0)]])
    with pytest.raises(InconsistentSystemError):
        solve(a, b)


def test_solve_underdetermined_consistent():
    a = Matrix.from_rows([[1, 1, 0], [0, 0, 1]])
    b = Matrix.from_rows([[gq(2)], [gq(5)]])
    x = solve(a, b)
    assert a @ x == b


def test_invert_round_trip():
    rng = random.Random(77)
    while True:
        a = rand_matrix(4, 4, rng)
        if rank(a) == 4:
            break
    assert a @ invert(a) == Matrix.identity(4)
    assert invert(a) @ a == Matrix.identity(4)


def test_invert_singular_raises():
    with pytest.raises(InconsistentSystemError):
        invert(Matrix.zeros(2, 2))


def test_matrix_json_round_trip():
    rng = random.Random(99)
    m = rand_matrix(3, 4, rng, sparse=0.2)
    data = matrix_to_json(m)
    assert data["rows"] == 3 and data["cols"] == 4
    assert all(isinstance(part, str) for quad in data["entries"] for part in quad)
    assert matrix_from_json(data) == m


def test_matrix_json_big_integers_survive():
    huge = Fraction(10 ** 40 + 1, 10 ** 39 + 7)
    m = Matrix.from_rows([[GaussianRational(huge, -huge)]])
    assert matrix_from_json(matrix_to_json(m)) == m


def _wide_entry(rng: random.Random, den: int) -> GaussianRational:
    """A zero one time in five, else an entry with denominators drawn up to
    den (mostly coprime) or both equal to den (shared by the whole row)."""
    if rng.random() < 0.2:
        return ZERO
    if rng.random() < 0.3:
        return GaussianRational(
            Fraction(rng.randint(-den, den), den), Fraction(rng.randint(-den, den), den)
        )
    return GaussianRational(
        Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, den)),
        Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, den)),
    )


def _product_inputs():
    """(name, a, b, known product or None): random Q(i) shapes 1x1 to 7x7
    with denominators up to 10^6 and zero rows or columns on either side,
    the inner-dimension-0 case, and products that cancel to exactly 0 and
    to +-i."""
    for seed in range(300):
        rng = random.Random(seed)
        r, k, c = (rng.randint(1, 7) for _ in range(3))
        den = rng.choice((1, 7, 10 ** 6))
        a = [[_wide_entry(rng, den) for _ in range(k)] for _ in range(r)]
        b = [[_wide_entry(rng, den) for _ in range(c)] for _ in range(k)]
        if seed % 4 == 1:
            a[rng.randrange(r)] = [ZERO] * k
        elif seed % 4 == 2:
            col = rng.randrange(c)
            for row in b:
                row[col] = ZERO
        yield f"random {seed}", Matrix.from_rows(a), Matrix.from_rows(b), None
    for k, m in ((1, 3), (4, 1), (3, 0)):
        yield f"inner 0, {k}x{m}", Matrix(k, 0, ((),) * k), Matrix(0, m, ()), Matrix.zeros(k, m)
    rng = random.Random(7)
    for seed in range(20):
        a = rand_matrix(3, 5, rng)
        null = kernel(a).transpose()
        yield f"cancel to 0, {seed}", a, null, Matrix.zeros(3, null.cols)
        unit = Matrix.from_rows([[gq(0, 1 if seed % 2 else -1)]])
        first = leading_rows(a, 1)
        yield f"cancel to +-i, {seed}", first, solve(first, unit), unit


def test_matmul_matches_reference():
    for name, a, b, known in _product_inputs():
        product, expected = a @ b, matmul_reference(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols), name
        assert product.entries == expected.entries, name
        assert matrix_to_json(product) == matrix_to_json(expected), name
        if known is not None:
            assert product == known, name


def test_matmul_shapes_and_empty():
    a = Matrix.zeros(2, 0)
    b = Matrix.zeros(0, 3)
    assert (a @ b) == Matrix.zeros(2, 3)
