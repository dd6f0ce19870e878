"""The stored form of Matrix: every result keeps primitive Z[i] rows.

A row (s, v) stands for the Q(i) row v / s; it is primitive when s > 0 and
gcd(s, every part of v) = 1, which makes it the unique form of that row.
Each operation below must return primitive rows, compare and hash equal to
the same matrix rebuilt from its entries, and agree entrywise with the
Q(i) oracles of tests/oracles.py where one exists.
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from grassconf.fibrations import chart_coordinates
from grassconf.grassmann import _canonical_pivots, sample_subspace, subspace_intersection
from grassconf.linalg import ZERO, GaussianRational, Matrix, gq, kernel, rank, rref, solve
from oracles import invert_reference, is_zero_matrix, matmul_reference, rref_reference

# denominators drawn per entry (mostly coprime) or shared by a whole row
ENTRY_DENS = (1, 2, 3, 5, 7)
ROW_DENS = (6, 35, 12)
UNITS_I = (gq(0, 1), gq(0, -1))


def _entry(rng: random.Random, row_den) -> GaussianRational:
    roll = rng.random()
    if roll < 0.2:
        return ZERO
    if roll < 0.35:
        return rng.choice(UNITS_I)
    parts = []
    for _ in range(2):
        den = row_den if row_den and rng.random() < 0.8 else rng.choice(ENTRY_DENS)
        parts.append(Fraction(rng.randint(-6, 6), den))
    return GaussianRational(*parts)


def rand_stored(rows: int, cols: int, rng: random.Random) -> Matrix:
    """Random Q(i) matrix with zero rows, shared and coprime denominators,
    and entries +-i."""
    grid = []
    for _ in range(rows):
        if rng.random() < 0.15:
            grid.append((ZERO,) * cols)
        else:
            row_den = rng.choice((None, *ROW_DENS))
            grid.append(tuple(_entry(rng, row_den) for _ in range(cols)))
    return Matrix(rows, cols, tuple(grid))


def is_primitive(m: Matrix) -> bool:
    return len(m.zrows) == m.rows and all(
        len(row) == m.cols and s > 0 and gcd(s, *chain.from_iterable(row)) == 1
        for s, row in m.zrows
    )


def check_stored(m: Matrix, expected=None) -> None:
    """Primitive rows, equal and hash-equal to the matrix rebuilt from its
    entries, and entries equal to expected when given."""
    assert is_primitive(m), m.zrows
    rebuilt = Matrix(m.rows, m.cols, m.entries)
    assert rebuilt.zrows == m.zrows
    assert m == rebuilt and hash(m) == hash(rebuilt)
    if expected is not None:
        assert m.entries == tuple(tuple(row) for row in expected)


def solve_reference(a: Matrix, b: Matrix):
    """solve's answer, free variables zero, read off rref_reference([a | b])."""
    augmented = Matrix(a.rows, a.cols + b.cols, tuple(
        ra + rb for ra, rb in zip(a.entries, b.entries)
    ))
    reduced, _, pivots = rref_reference(augmented)
    x = [(ZERO,) * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][a.cols:]
    return x


def _cases():
    for seed in range(120):
        rng = random.Random(f"stored:{seed}")
        r, c, k = (rng.randint(1, 5) for _ in range(3))
        yield seed, rng, rand_stored(r, c, rng), rand_stored(r, c, rng), rand_stored(c, k, rng)


def test_inputs_cover_the_row_kinds():
    rows = [row for _, _, m, _, _ in _cases() for row in m.entries]
    assert any(all(e.is_zero() for e in row) for row in rows)
    assert any(gq(0, 1) in row for row in rows) and any(gq(0, -1) in row for row in rows)
    dens = {q.denominator for row in rows for e in row for q in (e.re, e.im)}
    assert {1, 2, 3, 5, 6, 7, 12, 35} <= dens


def test_constructors_store_primitive_rows():
    check_stored(Matrix.zeros(3, 4), [[ZERO] * 4] * 3)
    check_stored(Matrix.zeros(0, 4), [])
    check_stored(Matrix.zeros(2, 0), [(), ()])
    check_stored(Matrix.identity(3), [[gq(int(i == j)) for j in range(3)] for i in range(3)])
    check_stored(Matrix.unit_rows([2, 0], 3), [[ZERO, ZERO, gq(1)], [gq(1), ZERO, ZERO]])
    for _, _, m, _, _ in _cases():
        check_stored(m)
        check_stored(Matrix.from_rows(m.entries), m.entries)


def test_reductions_store_primitive_rows():
    for seed, rng, m, _, _ in _cases():
        reduced, rk, pivots = rref(m)
        expected, ref_rank, ref_pivots = rref_reference(m)
        check_stored(reduced, expected.entries)
        assert (rk, pivots) == (ref_rank, ref_pivots) == (rank(m), ref_pivots), seed
        null = kernel(m)
        check_stored(null)
        assert null.rows == m.cols - rk
        assert is_zero_matrix(m @ null.transpose()), seed
        rhs = m @ rand_stored(m.cols, rng.randint(1, 3), rng)
        x = solve(m, rhs)
        check_stored(x, solve_reference(m, rhs))
        assert m @ x == rhs, seed


def test_products_and_reshapes_store_primitive_rows():
    for seed, rng, m, other, right in _cases():
        entries, others = m.entries, other.entries
        check_stored(m @ right, matmul_reference(m, right).entries)
        check_stored(m.stack(other), entries + others)
        check_stored(m.transpose(), list(zip(*entries)))
        check_stored(m + other, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(entries, others)])
        check_stored(m - other, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(entries, others)])
        check_stored(m - m, [[ZERO] * m.cols] * m.rows)


def test_package_column_slices_store_primitive_rows():
    for seed in range(25):
        a = sample_subspace(3, 5, f"slices:{seed}:a")
        b = sample_subspace(3, 5, f"slices:{seed}:b")
        inter = subspace_intersection(a, b)
        check_stored(inter.basis)
        hh = sample_subspace(2, 5, f"slices:{seed}:hh")
        w = sample_subspace(3, 5, f"slices:{seed}:w")
        coords = chart_coordinates(hh, w)
        frame = Matrix.unit_rows(
            [c for c in range(5) if c not in w.pivots()], 5
        ).stack(w.basis)
        coeff = matmul_reference(hh.basis, invert_reference(frame)).entries
        p_block = Matrix(2, 2, tuple(row[:2] for row in coeff))
        q_block = Matrix(2, 3, tuple(row[2:] for row in coeff))
        check_stored(coords, solve_reference(p_block, q_block))


@pytest.mark.parametrize("rows, pivots", [
    ([[1, 0, Fraction(1, 2)], [0, 1, gq(0, Fraction(1, 3))]], (0, 1)),
    ([[0, 1, 0], [0, 0, 1]], (1, 2)),
    ([[2, 0, 1]], None),
    ([[gq(0, 1), 0, 1]], None),
    ([[Fraction(1, 2), 1]], None),
    ([[1, 1, 0], [0, 1, 0]], None),
    ([[1, 0, 0], [0, 0, 0]], None),
    ([[0, 1, 0], [1, 0, 0]], None),
], ids=["canonical", "canonical-late-pivots", "pivot-2", "pivot-i", "pivot-half",
        "entry-above-pivot", "zero-row", "pivots-out-of-order"])
def test_is_canonical_rref_reads_stored_rows(rows, pivots):
    assert _canonical_pivots(Matrix.from_rows(rows)) == pivots


def test_matrix_stays_immutable_and_copyable():
    m = rand_stored(3, 4, random.Random(5))
    with pytest.raises(AttributeError):
        m.rows = 4
    with pytest.raises(AttributeError):
        del m.zrows
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin.entries == m.entries
