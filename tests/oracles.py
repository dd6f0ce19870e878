"""Independent oracles used by the tests.

These deliberately avoid the library's Z[i] code paths: rank is decided
by brute-force minor determinants (Laplace expansion), reduced forms by
textbook Gauss-Jordan elimination on field elements and products by sums
of field products, so the oracle and the implementation can only agree
by computing the same truth.

The chart-map references at the end keep the older routes of the
trivializations: extend the chart projection to an automorphism of C^n
by solving [v; L0] x = [vP; L0], invert it or solve against its
transpose, and push the subspaces through it; chart coordinates are read
off a transposed solve against the frame [complement of w; w].  The
package builds every chart map from the projections P onto V0 and Q_v
onto v along L0 by sums and products, and reads chart coordinates off
the RREF basis of w.  invert, which solves against the identity with the
package's solve, is only used there and in tests.
projection_along_reference keeps the older route of the chart
projection, one solve of the n x 2n system [T; A] x = [T; 0]; the
package solves the min(k, n-k)-row block of the smaller side.
projection_along_block_reference keeps the block route as Matrix
algebra: the block T·N and -A[:, F]·Z are products of normalized
matrices and the block is solved by linalg.solve; the package builds
the block's Z[i] rows at one scale and eliminates them once.

The row-route references keep the Matrix routes that the package's
canonical forms took before they were reduced straight from Z[i] rows:
canonicalize_rref_reference (rref, then the Subspace of its nonzero
rows), transform_reference (the product, then canonicalize; the
package's one image route, grassmann._image, reduces the product's Z[i]
rows as they are) with transform_configuration_reference beside it,
contains_product_reference (other's basis at self's pivot columns times
self's basis gives that basis back), subspace_intersection_reference
and chart_point_reference (a normalized product or sum, then
canonicalize).
contains_reference keeps the older route of Subspace.contains: other
lies in self exactly when stacking their bases leaves the rank at
dim self.  The package reads membership off self's RREF basis by one
product, with no elimination.

The float references keep the numpy route of the dimension suite's former
chart Jacobian and float rank, and a central difference of each point's
affine chart coordinates; the package decides the dimension by the exact
rank of the chart tangent.

raise_stratum_reference restates the adjacency witness's one move over
Q(i): it finds the rows that the rows before them span by the
Gauss-Jordan rank of every prefix of the stack and tilts them as
GaussianRational entries.  The package reads those rows off the pivots
of one fraction-free elimination of the stack's columns and tilts Z[i]
rows.

stratum_point_count is an independent check of the strata tables: the
number of ordered h-tuples of distinct k-subspaces of F_q^n whose sum has
dimension i, as a polynomial in q by Moebius inversion on the subspace
lattice.  stratum_point_counts_brute counts the same tuples over F_2 or
F_3 by enumeration, deciding each sum dimension by a plain mod-q RREF.

adjacency_bound_reference keeps the former route of the adjacency
trials' bound, min(eps, half the smallest gap between two base points):
it builds every point's projector and reads every pair's gap off them.
The package first decides each pair by one integer test that proves the
gap at least 2 eps, and builds projectors only for the pairs it cannot
prove.

integer_rref_reference keeps the former step of linalg._integer_rref,
which computed every column of every other row and divided by the
previous pivot's norm even when that pivot was real.  The package's
step computes only the columns the step can change and divides by a
real previous pivot directly; both leave the same (d, pivots, rows).

random_matrix_reference keeps the sampler's former route: each entry is a
GaussianRational of two Fractions drawn by randint.  The package draws
the same values with getrandbits and builds Z[i] rows directly.

The Matrix helpers (conjugate_transpose, leading_rows, leading_cols,
scaled, is_zero_matrix, stack_all) are the reshapes and tests that only
the tests need, built entry by entry from ``entries``; Matrix itself
keeps the operations the package calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, permutations, product
from typing import Iterable, Optional

from grassconf.fibrations import ChartPoint, Trivialization, chart_point, eta
from grassconf.grassmann import (
    Configuration,
    Subspace,
    canonicalize,
    complement,
    projection_along,
    subspace_sum,
)
from grassconf.errors import (
    InconsistentSystemError,
    MixedAmbientError,
    NotComplementaryError,
    ZeroSubspaceError,
)
from grassconf.linalg import (
    ZERO,
    GaussianRational,
    GInt,
    Matrix,
    kernel,
    rank,
    rref,
    solve,
)
from grassconf.verify import _integer_projector, _projector_gap


def conjugate_transpose(m: Matrix) -> Matrix:
    """The conjugate transpose, entry by entry."""
    return Matrix(m.cols, m.rows, tuple(
        tuple(row[j].conjugate() for row in m.entries) for j in range(m.cols)
    ))


def leading_rows(m: Matrix, count: int) -> Matrix:
    """The first count rows."""
    return Matrix(count, m.cols, m.entries[:count])


def leading_cols(m: Matrix, count: int) -> Matrix:
    """The first count columns."""
    return Matrix(m.rows, count, tuple(row[:count] for row in m.entries))


def scaled(m: Matrix, factor) -> Matrix:
    """factor * m, entry by entry."""
    return Matrix(m.rows, m.cols, tuple(tuple(factor * e for e in row) for row in m.entries))


def is_zero_matrix(m: Matrix) -> bool:
    return not any(chain.from_iterable(m.entries))


def stack_all(matrices: Iterable[Matrix]) -> Matrix:
    """The matrices stacked in order, one below the other."""
    return reduce(Matrix.stack, matrices)


def det_laplace(grid: list[list[GaussianRational]]) -> GaussianRational:
    size = len(grid)
    if size == 1:
        return grid[0][0]
    total = ZERO
    for col in range(size):
        entry = grid[0][col]
        if entry.is_zero():
            continue
        minor = [
            [row[c] for c in range(size) if c != col]
            for row in grid[1:]
        ]
        term = entry * det_laplace(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def minor_rank(m: Matrix) -> int:
    """Largest r with a nonvanishing r x r minor, found by enumeration."""
    for r in range(min(m.rows, m.cols), 0, -1):
        for row_idx in combinations(range(m.rows), r):
            for col_idx in combinations(range(m.cols), r):
                grid = [[m.entries[i][j] for j in col_idx] for i in row_idx]
                if not det_laplace(grid).is_zero():
                    return r
    return 0


def rand_entry(rng: random.Random, span: int = 4, max_den: int = 3) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
    )


def rand_matrix(rows: int, cols: int, rng: random.Random, sparse: float = 0.0) -> Matrix:
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if sparse and rng.random() < sparse:
                row.append(ZERO)
            else:
                row.append(rand_entry(rng))
        grid.append(tuple(row))
    return Matrix(rows, cols, tuple(grid))


def random_matrix_reference(rows: int, cols: int, rng: random.Random) -> Matrix:
    """The sampler's draws as GaussianRational entries of randint Fractions."""
    def part() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    return Matrix(rows, cols, tuple(
        tuple(GaussianRational(part(), part()) for _ in range(cols)) for _ in range(rows)
    ))


def rand_rank_deficient(rows: int, cols: int, target_rank: int, rng: random.Random) -> Matrix:
    """rows x cols matrix of rank at most target_rank (generically equal)."""
    left = rand_matrix(rows, target_rank, rng)
    right = rand_matrix(target_rank, cols, rng)
    return left @ right


def matmul_reference(a: Matrix, b: Matrix) -> Matrix:
    """Product as a sum of Q(i) scalar products per entry."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    grid = tuple(
        tuple(
            sum((row[l] * b.entries[l][j] for l in range(a.cols)), ZERO)
            for j in range(b.cols)
        )
        for row in a.entries
    )
    return Matrix(a.rows, b.cols, grid)


def rref_reference(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Gauss-Jordan elimination with a division per pivot, over Q(i)."""
    grid = [list(row) for row in m.entries]
    n_rows, n_cols = m.rows, m.cols
    pivots: list[int] = []
    piv_r = 0
    for col in range(n_cols):
        sel = None
        for r in range(piv_r, n_rows):
            if not grid[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        grid[piv_r], grid[sel] = grid[sel], grid[piv_r]
        inv = GaussianRational(1) / grid[piv_r][col]
        grid[piv_r] = [inv * e for e in grid[piv_r]]
        for r in range(n_rows):
            if r == piv_r:
                continue
            factor = grid[r][col]
            if factor.is_zero():
                continue
            grid[r] = [a - factor * b for a, b in zip(grid[r], grid[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == n_rows:
            break
    reduced = Matrix(n_rows, n_cols, tuple(tuple(row) for row in grid))
    return reduced, len(pivots), tuple(pivots)


def integer_rref_reference(grid: list, reduce: bool = True) -> tuple[GInt, tuple[int, ...]]:
    """The former step of linalg._integer_rref: every other row computes
    every column, and the previous pivot's conjugate is folded into both
    multipliers, real or not.  Same contract: (d, pivots), the grid's rows
    replaced in place."""
    n_rows = len(grid)
    n_cols = len(grid[0]) if grid else 0
    prev_re, prev_im = 1, 0
    pivots: list[int] = []
    piv_r = 0
    for col in range(n_cols):
        sel = None
        for r in range(piv_r, n_rows):
            if grid[r][col] != (0, 0):
                sel = r
                break
        if sel is None:
            continue
        grid[piv_r], grid[sel] = grid[sel], grid[piv_r]
        prow = grid[piv_r]
        p_re, p_im = prow[col]
        norm = prev_re * prev_re + prev_im * prev_im
        s_re, s_im = p_re * prev_re + p_im * prev_im, p_im * prev_re - p_re * prev_im
        for r in range(0 if reduce else piv_r + 1, n_rows):
            row = grid[r]
            f_re, f_im = row[col]
            if r == piv_r or (not (f_re or f_im) and (p_re, p_im) == (prev_re, prev_im)):
                continue
            f_re, f_im = f_re * prev_re + f_im * prev_im, f_im * prev_re - f_re * prev_im
            grid[r] = [
                ((s_re * a_re - s_im * a_im - f_re * b_re + f_im * b_im) // norm,
                 (s_re * a_im + s_im * a_re - f_re * b_im - f_im * b_re) // norm)
                for (a_re, a_im), (b_re, b_im) in zip(row, prow)
            ]
        prev_re, prev_im = p_re, p_im
        pivots.append(col)
        piv_r += 1
        if piv_r == n_rows:
            break
    return (prev_re, prev_im), tuple(pivots)


def invert_reference(m: Matrix) -> Matrix:
    """Inverse of a nonsingular square matrix, read off rref_reference([m | I])."""
    size = m.rows
    augmented = Matrix(size, 2 * size, tuple(
        row + eye for row, eye in zip(m.entries, Matrix.identity(size).entries)
    ))
    reduced, _, pivots = rref_reference(augmented)
    if pivots != tuple(range(size)):
        raise ValueError("matrix is singular")
    return Matrix(size, size, tuple(row[size:] for row in reduced.entries))


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix, as the solution of m @ x = I."""
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    try:
        return solve(m, Matrix.identity(m.rows))
    except InconsistentSystemError:
        raise InconsistentSystemError("matrix is singular") from None


def abs_max(e: GaussianRational) -> Fraction:
    """Rational-valued magnitude surrogate max(|re|, |im|)."""
    return max(abs(e.re), abs(e.im))


def max_abs(m: Matrix) -> Fraction:
    """Largest abs_max over all entries (0 for empty matrices)."""
    return max((abs_max(e) for row in m.entries for e in row), default=Fraction(0))


def orthogonal_projector(v: Subspace) -> Matrix:
    """Hermitian idempotent with image v: B^H (B B^H)^-1 B, exact over Q(i)."""
    b = v.basis
    bh = conjugate_transpose(b)
    gram_inverse = invert_reference(matmul_reference(b, bh))
    return matmul_reference(matmul_reference(bh, gram_inverse), b)


def projection_along_reference(target: Subspace, along: Subspace) -> Matrix:
    """The idempotent with image target and kernel along, as the solution
    x of [T; A] x = [T; 0], raising what projection_along raises."""
    if target.n != along.n:
        raise MixedAmbientError("ambient dimensions differ")
    if target.k + along.k != target.n:
        raise NotComplementaryError("dimensions do not add up to the ambient dimension")
    stacked = target.basis.stack(along.basis)
    try:
        return solve(stacked, target.basis.stack(Matrix.zeros(along.k, target.n)))
    except InconsistentSystemError:
        raise NotComplementaryError("subspaces intersect nontrivially") from None


def projection_along_block_reference(target: Subspace, along: Subspace) -> Matrix:
    """projection_along by Matrix algebra: solve T·N against T for Z, put
    Z at along's free columns F and -A[:, F]·Z at its pivots, on the
    smaller side, with I minus the other side's projection."""
    if target.n != along.n:
        raise MixedAmbientError("ambient dimensions differ")
    n = target.n
    if target.k + along.k != n:
        raise NotComplementaryError("dimensions do not add up to the ambient dimension")
    swapped = target.k > along.k
    if swapped:
        target, along = along, target
    pivots = along.pivots()
    free = [c for c in range(n) if c not in pivots]
    a_free = along.basis.columns(free)
    block = target.basis.columns(free) - target.basis.columns(pivots) @ a_free
    try:
        z = solve(block, target.basis)
    except InconsistentSystemError:
        raise NotComplementaryError("subspaces intersect nontrivially") from None
    rows = dict(zip(free, z.zrows))
    rows.update(zip(pivots, scaled(a_free @ z, -1).zrows))
    p = Matrix._of(n, n, tuple(rows[c] for c in range(n)))
    return Matrix.identity(n) - p if swapped else p


def canonicalize_rref_reference(raw_basis: Matrix, n: int) -> Subspace:
    """canonicalize as rref, then the Subspace of the nonzero rows."""
    if raw_basis.cols != n:
        raise MixedAmbientError(f"expected {n} columns, got {raw_basis.cols}")
    reduced, rk, _ = rref(raw_basis)
    if rk == 0:
        raise ZeroSubspaceError("generating set spans only the zero subspace")
    return Subspace(n, rk, leading_rows(reduced, rk))


def transform_reference(v: Subspace, g: Matrix) -> Subspace:
    """The image of v under g acting on row vectors: the Matrix product,
    then canonicalize."""
    return canonicalize(v.basis @ g, g.cols)


def transform_configuration_reference(c: Configuration, g: Matrix) -> Configuration:
    """Every point's image under g (transform_reference)."""
    return Configuration(c.h, c.k, g.cols, tuple(transform_reference(p, g) for p in c.points))


def contains_product_reference(sup: Subspace, sub: Subspace) -> bool:
    """Whether sub lies in sup: its basis B equals B[:, P]·V, with V the
    RREF basis of sup and P its pivot columns."""
    if sub.n != sup.n:
        raise MixedAmbientError("ambient dimensions differ")
    return sub.basis.columns(sup.pivots()) @ sup.basis == sub.basis


def subspace_intersection_reference(a: Subspace, b: Subspace) -> Optional[Subspace]:
    """The x·A of the null rows (x, y) of [A; B]^T, canonicalized; None
    for a direct sum."""
    null_rows = kernel(a.basis.stack(b.basis).transpose())
    if null_rows.rows == 0:
        return None
    return canonicalize(leading_cols(null_rows, a.k) @ a.basis, a.n)


def chart_point_reference(coords: Matrix, w: Subspace) -> Subspace:
    """The graph of coords: complement(w)'s basis plus coords·W, canonicalized."""
    return canonicalize(complement(w).basis + coords @ w.basis, w.n)


def contains_reference(sup: Subspace, sub: Subspace) -> bool:
    """Whether sub lies in sup, by the rank of their stacked bases."""
    if sub.n != sup.n:
        raise MixedAmbientError("ambient dimensions differ")
    return rank(sup.basis.stack(sub.basis)) == sup.k


def extend_isomorphism_reference(v: Subspace, triv: Trivialization) -> Matrix:
    """The automorphism equal to the chart projection on v and to the
    identity on L0, as the solution x of [v; L0] x = [vP; L0]."""
    source = v.basis.stack(triv.complement.basis)
    if rank(source) != v.n:
        raise ValueError("v is not transverse to the chart complement")
    return solve(source, (v.basis @ triv.projector).stack(triv.complement.basis))


def gamma_untrivialize_reference(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Pull the fiber back through the inverse of the extended isomorphism."""
    back = invert(extend_isomorphism_reference(p.base, triv))
    fiber = p.fiber
    points = tuple(canonicalize(q.basis @ back, fiber.n) for q in fiber.points)
    return Configuration(fiber.h, fiber.k, fiber.n, points)


def eta_fiber_point_reference(c: Configuration, triv: Trivialization) -> ChartPoint:
    """Carry the pair into V0 + L0 by the extended isomorphism, then
    project onto L0 along V0."""
    inter = eta(c)
    iso = extend_isomorphism_reference(inter, triv)
    to_quotient = projection_along(triv.complement, triv.base_point)
    first, second = (canonicalize(p.basis @ iso @ to_quotient, c.n) for p in c.points)
    return ChartPoint(base=inter, fiber=(first, second))


def eta_fiber_lift_reference(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Pull V0 + q back through the inverse of the extended isomorphism."""
    base = p.base
    back = invert(extend_isomorphism_reference(base, triv))
    points = tuple(
        canonicalize(triv.base_point.basis.stack(q.basis) @ back, base.n) for q in p.fiber
    )
    return Configuration(2, points[0].k, base.n, points)


def pr_trivialize_reference(c: Configuration, triv: Trivialization) -> ChartPoint:
    """Carry the last subspace by the extended isomorphism of the front's
    sum and reduce its image; when n = hk, write that image in chart
    coordinates over the base point by a transposed solve."""
    front = Configuration(c.h - 1, c.k, c.n, c.points[:-1])
    iso = extend_isomorphism_reference(subspace_sum(front.points), triv)
    image = canonicalize(c.points[-1].basis @ iso, c.n)
    if c.n == c.h * c.k:
        return ChartPoint(base=front, fiber=chart_coordinates_reference(image, triv.base_point))
    return ChartPoint(base=front, fiber=image)


def pr_untrivialize_reference(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Pull the fiber image back through the extended isomorphism of the
    base sum, as the solution of iso^T x = image^T."""
    front = p.base
    image = chart_point(p.fiber, triv.base_point) if isinstance(p.fiber, Matrix) else p.fiber
    iso = extend_isomorphism_reference(subspace_sum(front.points), triv)
    pulled = solve(iso.transpose(), image.basis.transpose()).transpose()
    last = canonicalize(pulled, front.n)
    return Configuration(front.h + 1, front.k, front.n, front.points + (last,))


def chart_coordinates_reference(hh: Subspace, w: Subspace) -> Matrix:
    """Write the basis of hh in the frame [complement of w; w] by a
    transposed solve, then normalize the complement block to the identity."""
    frame = complement(w).basis.stack(w.basis)
    coeff = solve(frame.transpose(), hh.basis.transpose()).transpose()
    p_block, q_block = leading_cols(coeff, hh.k), coeff.columns(range(hh.k, coeff.cols))
    if rank(p_block) < hh.k:
        raise ValueError("hh meets w nontrivially")
    return solve(p_block, q_block)


def to_numpy(m: Matrix):
    """The entries of m as a complex numpy array."""
    import numpy as np

    return np.array([[complex(e.re) + 1j * complex(e.im) for e in row] for row in m.entries],
                    dtype=complex).reshape(m.rows, m.cols)


def _numpy_chart(c: Configuration):
    """(coordinate count, chart) of the dimension suite's chart at c, with
    numpy: the chart moves the sum V by graph coordinates over its
    complement and each subspace inside V by graph coordinates over its
    complement in V; chart(z) is the list of the h bases at the complex
    coordinates z, those of V first, then those of each subspace."""
    h, k, n = c.h, c.k, c.n
    total = subspace_sum(c.points)
    i = total.k
    vb = to_numpy(total.basis)
    wb = to_numpy(complement(total).basis) if i < n else None
    coeffs, inners = [], []
    for p in c.points:
        coeff = solve(total.basis.transpose(), p.basis.transpose()).transpose()
        coeffs.append(to_numpy(coeff))
        inners.append(to_numpy(complement(canonicalize(coeff, i)).basis) if k < i else None)
    n_outer, n_inner = i * (n - i), k * (i - k)

    def chart(z):
        pos, va = 0, vb
        if n_outer:
            va = vb + z[:n_outer].reshape(i, n - i) @ wb
            pos = n_outer
        bases = []
        for cj, inner in zip(coeffs, inners):
            if n_inner:
                cj = cj + z[pos:pos + n_inner].reshape(k, i - k) @ inner
                pos += n_inner
            bases.append(cj @ va)
        return bases

    return n_outer + h * n_inner, chart


def chart_jacobian_reference(c: Configuration, step: float):
    """The former dimension suite's central-difference chart Jacobian at c:
    the chart's values are the stacked real/imaginary parts of the h
    projectors B^H (B B^H)^-1 B.  Parameters are rows: the real parts of
    the complex coordinates, then their imaginary parts."""
    import numpy as np

    n_complex, chart = _numpy_chart(c)

    def parts(theta):
        out = []
        for basis in chart(theta[:n_complex] + 1j * theta[n_complex:]):
            proj = basis.conj().T @ np.linalg.solve(basis @ basis.conj().T, basis)
            out += [proj.real.ravel(), proj.imag.ravel()]
        return np.concatenate(out)

    rows = []
    for p in range(2 * n_complex):
        theta = np.zeros(2 * n_complex)
        theta[p] = step
        plus = parts(theta)
        theta[p] = -step
        rows.append((plus - parts(theta)) / (2.0 * step))
    return np.vstack(rows)


def chart_tangent_reference(c: Configuration, step: float):
    """Central difference of each point's affine chart coordinates
    B[:, P]^-1 B[:, N] along each complex chart coordinate, with numpy; P
    and N are the pivot and free columns of the point's RREF basis.  The
    chart is holomorphic, so a real step gives the complex derivative.
    One row per coordinate, the points' k x (n - k) blocks side by side."""
    import numpy as np

    n_complex, chart = _numpy_chart(c)
    columns = []
    for p in c.points:
        pivots = list(p.pivots())
        columns.append((pivots, [col for col in range(c.n) if col not in pivots]))

    def affine(z):
        return np.concatenate([
            np.linalg.solve(basis[:, pivots], basis[:, free]).ravel()
            for basis, (pivots, free) in zip(chart(z), columns)
        ])

    rows = []
    for q in range(n_complex):
        z = np.zeros(n_complex, dtype=complex)
        z[q] = step
        rows.append((affine(z) - affine(-z)) / (2.0 * step))
    return np.vstack(rows)


def float_rank_reference(a, tol: float) -> int:
    """Rank after scaling rows to unit max-norm, by numpy elimination with
    full pivoting that stops at a pivot of magnitude <= tol."""
    import numpy as np

    m = np.array(a, dtype=float)
    if m.size == 0:
        return 0
    norms = np.max(np.abs(m), axis=1)
    m = m[norms > 0.0] / norms[norms > 0.0, None]
    rank = 0
    while m.shape[0] and m.shape[1]:
        r, c = np.unravel_index(int(np.argmax(np.abs(m))), m.shape)
        pivot = m[r, c]
        if abs(pivot) <= tol:
            break
        rank += 1
        row = m[r] / pivot
        m = np.delete(m, r, axis=0)
        m = np.delete(m - np.outer(m[:, c], row), c, axis=1)
    return rank


def raise_stratum_reference(
    points: list[Subspace], target_i: int, t: Fraction
) -> Optional[list[Subspace]]:
    """Exact tilts over Q(i) in one move.  Row r of the stacked bases, in
    point then slot order, is spanned by the rows before it when the first
    r + 1 rows have the rank of the first r (Gauss-Jordan over Q(i)); the
    first target_i - j0 such rows, j0 the rank of the stack, get t times
    the standard directions outside the sum, the j-th row the j-th.  None when a tilted
    point loses dimension, two points coincide or the rank is not
    target_i."""
    k, n = points[0].k, points[0].n
    stack = stack_all(p.basis for p in points)
    ranks = [0] + [rref_reference(leading_rows(stack, r))[1] for r in range(1, stack.rows + 1)]
    spanned = [r for r in range(stack.rows) if ranks[r + 1] == ranks[r]]
    rows = [list(row) for row in stack.entries]
    factor = GaussianRational(t)
    for j, r in enumerate(spanned[:target_i - ranks[-1]]):
        fresh = complement(subspace_sum(points)).basis.entries[j]
        rows[r] = [e + factor * d for e, d in zip(rows[r], fresh)]
    pts = [
        canonicalize(Matrix(k, n, tuple(tuple(row) for row in rows[a * k:(a + 1) * k])), n)
        for a in range(len(points))
    ]
    if any(p.k != k for p in pts) or len(set(pts)) < len(pts):
        return None
    if rref_reference(stack_all(p.basis for p in pts))[1] != target_i:
        return None
    return pts


def adjacency_bound_reference(c: Configuration, eps: Fraction) -> Fraction:
    """min(eps, half the smallest projector gap over all pairs of points)."""
    projectors = [_integer_projector([row for _, row in p.basis.zrows]) for p in c.points]
    return min([eps] + [
        Fraction(_projector_gap(na, da, nb, db), 2 * da * db)
        for a, (na, da) in enumerate(projectors) for nb, db in projectors[a + 1:]
    ])


# ---------------------------------------------------------------------------
# F_q point counts of the strata; a polynomial is its coefficient tuple,
# lowest degree first, with no trailing zeros


def poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@cache
def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """[n, k]_q, the number of k-subspaces of F_q^n, by the recurrence
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    return poly_add(gaussian_binomial(n - 1, k - 1), (0,) * k + gaussian_binomial(n - 1, k))


@cache
def distinct_tuple_count(h: int, k: int, j: int) -> tuple[int, ...]:
    """T(j) = [j,k] ([j,k] - 1) ... ([j,k] - h + 1): ordered h-tuples of
    distinct k-subspaces of F_q^j."""
    g = gaussian_binomial(j, k)
    out: tuple[int, ...] = (1,)
    for a in range(h):
        out = _poly_mul(out, poly_add(g, (-a,)))
    return out


def stratum_point_count(h: int, i: int, k: int, n: int) -> tuple[int, ...]:
    """N = [n,i]_q sum_m (-1)^(i-m) q^C(i-m,2) [i,m]_q T(m): the tuples
    counted by T(n) whose sum has dimension exactly i."""
    total: tuple[int, ...] = ()
    for m in range(i + 1):
        d = i - m
        term = _poly_mul(gaussian_binomial(i, m), distinct_tuple_count(h, k, m))
        total = poly_add(total, (0,) * (d * (d - 1) // 2) + tuple((-1) ** d * c for c in term))
    return _poly_mul(gaussian_binomial(n, i), total)


def poly_at(poly: list[int], q: int) -> int:
    return sum(c * q ** e for e, c in enumerate(poly))


def rref_mod_q(rows: list[tuple[int, ...]], q: int) -> list[tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form over F_q (q prime)."""
    grid = [[x % q for x in row] for row in rows]
    out: list[list[int]] = []
    cols = len(grid[0]) if grid else 0
    for col in range(cols):
        pivot = next((r for r in grid if r[col]), None)
        if pivot is None:
            continue
        grid.remove(pivot)
        inv = pow(pivot[col], -1, q)
        pivot = [x * inv % q for x in pivot]
        for r in grid + out:
            factor = r[col]
            if factor:
                r[:] = [(x - factor * y) % q for x, y in zip(r, pivot)]
        out.append(pivot)
    return [tuple(r) for r in out]


def subspaces_mod_q(k: int, n: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every k-subspace of F_q^n as its RREF basis: pivot columns, then
    each entry right of a pivot and outside the pivot columns free."""
    out = []
    for pivots in combinations(range(n), k):
        free = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[int(c == p) for c in range(n)] for p in pivots]
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            out.append(tuple(map(tuple, rows)))
    return out


def stratum_point_counts_brute(h: int, k: int, n: int, q: int) -> list[int]:
    """Entry i: the ordered h-tuples of distinct k-subspaces of F_q^n whose
    sum has dimension i, by enumeration."""
    counts = [0] * (n + 1)
    for tup in permutations(subspaces_mod_q(k, n, q), h):
        counts[len(rref_mod_q([row for basis in tup for row in basis], q))] += 1
    return counts
