"""Exact matrix arithmetic over the Gaussian rationals Q(i).

Every rank decision in this package is made here, over an exact field:
complex numbers whose real and imaginary parts are arbitrary-precision
rationals.  A Matrix stores each row in its primitive Z[i] form (s, v), the
Q(i) row v / s with v over the Gaussian integers, and every operation of
this module reads and builds those rows directly: a result row is made
primitive with one gcd.  The rows as GaussianRational values (entries,
str and the JSON codec) are a view built on first read, and converting
GaussianRational values to Z[i] rows happens only for matrices built from
them.

One elimination routine serves the whole package: _integer_rref, a
fraction-free elimination over Z[i].  rref, kernel and solve run the full
Gauss-Jordan elimination on Z[i] rows and divide each result row once by
the last pivot; rank runs the forward elimination only and reads the
pivot count, without building a reduced matrix.  rref and
grassmann.canonicalize share _rref_rows, and solve and
grassmann._solve_along, the one solve of projections and chart
coordinates, share _solve_rows; both take Z[i] rows at any row scale, so
a caller that only reduces rows passes them as it built them.
_rank_at_least first tries a mod-p rank certificate that can only prove
a lower bound on the rank and leaves every other answer to
_integer_rref.  Every decision "rank >= r" goes through it: the
sampler's draws of invertible matrices and subspaces, the direct-sum test
of fibrations.pr_forget_last, the gamma suite's check that a fiber inside
V0 spans it (rank dim V0), the dimension suite's tangent rank and
grassmann.intersection_dim's test that a sum is direct.
An elimination decides its own system: a chart projection
(grassmann._projection_solve) and chart coordinates catch _solve_rows'
InconsistentSystemError, so every transversality decision of fibrations
and the roundtrip suites' chart search tests no matrix first.
The certificate's one mod-p elimination, _modular_rank, counts pivots
and keeps nothing else; _rank_at_least is its only caller.
A product (_products) brings the right factor's rows to one common scale
and builds each entry as one Z[i] dot product.  Matrix @ makes each
product row primitive with one gcd, as a row's common content otherwise
grows with n.  The chart maps of
fibrations build no projection matrix: grassmann._project applies a
projection's solve to the rows they move and makes each row primitive
the same way.  grassmann._image, for the sampler's model points and an
intersection's null rows, reduces the product rows as they are.  All
values are immutable and all operations are pure (the entries view is
filled once, with the same value by whichever thread reads it first), so
the module is safe to use from multiple threads without coordination.

>>> a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
>>> print(a * a.conjugate())
13/36
>>> m = Matrix.from_rows([[gq(1, 2), gq(0, Fraction(1, 3))]])
>>> m.zrows
((3, ((3, 6), (0, 1))),)
>>> print(m @ m.transpose())
[-28/9+4i]
>>> print(m.transpose() @ m)
[-3+4i  -2/3+1/3i]
[-2/3+1/3i  -1/9]
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    InconsistentSystemError,
    WireFormatError,
    _frozen_delattr,
    _frozen_setattr,
    _wire_field,
    _wire_int,
    record,
)

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]
GInt = tuple[int, int]
# A row in primitive form: (s, v) stands for the Q(i) row v / s, with s > 0
# and gcd(s, every part of v) = 1.
ZRow = tuple[int, tuple[GInt, ...]]


@record
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    ``Fraction`` keeps numerators and denominators coprime with positive
    denominators, so equality of normalized values is plain field equality.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def coerce(value: Scalarish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "+" if (self.im > 0 and parts) else ""
            coeff = "" if abs(self.im) == 1 else str(abs(self.im))
            parts.append(f"{sign}{'-' if self.im < 0 else ''}{coeff}i")
        return "".join(parts)


ZERO = GaussianRational()


def gq(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor: gq(1, -2) is 1 - 2i."""
    return GaussianRational(Fraction(re), Fraction(im))


def _integer_row(row: Sequence[GaussianRational]) -> ZRow:
    """The primitive form of a row of GaussianRational values: s is the lcm
    of the row's denominators, so s * row has Gaussian-integer entries and
    no prime divides s and all of them."""
    parts = [q.as_integer_ratio() for e in row for q in (e.re, e.im)]
    scale = lcm(*(den for _, den in parts))
    return scale, tuple(
        (re_num * (scale // re_den), im_num * (scale // im_den))
        for (re_num, re_den), (im_num, im_den) in zip(parts[::2], parts[1::2])
    )


def _primitive(den: int, row: Sequence[GInt]) -> ZRow:
    """The primitive form of the Q(i) row row / den, for a positive den:
    one gcd over den and every part."""
    g = gcd(den, *chain.from_iterable(row))
    if g == 1:
        return den, tuple(row)
    return den // g, tuple((re // g, im // g) for re, im in row)


def _divided(row: Sequence[GInt], d: GInt) -> ZRow:
    """The primitive form of row / d, for a nonzero Gaussian integer d."""
    d_re, d_im = d
    if not d_im:
        if d_re > 0:
            return _primitive(d_re, row)
        return _primitive(-d_re, [(-re, -im) for re, im in row])
    # row / d = row * conj(d) / |d|^2
    return _primitive(
        d_re * d_re + d_im * d_im,
        [(re * d_re + im * d_im, im * d_re - re * d_im) for re, im in row],
    )


def _scaled(row: tuple[GInt, ...], factor: int) -> tuple[GInt, ...]:
    return row if factor == 1 else tuple((re * factor, im * factor) for re, im in row)


def _common_scale(zrows: Sequence[ZRow]) -> tuple[int, list[tuple[GInt, ...]]]:
    """(L, rows) with L the lcm of the row scales and each row v / s
    rewritten as rows[r] / L."""
    big = lcm(*(s for s, _ in zrows))
    return big, [_scaled(row, big // s) for s, row in zrows]


def _over(value: GInt, den: int) -> GaussianRational:
    """The Gaussian rational value / den, for a positive integer den."""
    re, im = value
    if not (re or im):
        return ZERO
    return GaussianRational(
        Fraction(re, den) if re else ZERO.re, Fraction(im, den) if im else ZERO.re
    )


class Matrix:
    """Immutable dense matrix over Q(i), row-major.

    Vectors are rows throughout the package; a linear map C^n -> C^m is an
    n x m matrix acting by right multiplication, x -> x @ a.

    The stored form is ``zrows``: each row as its primitive Z[i] form
    (s, v), the Q(i) row v / s with s > 0 and gcd(s, every part of v) = 1.
    A Q(i) row has exactly one primitive form (s is the lcm of its
    denominators), so ``==`` and ``hash`` compare the stored rows and agree
    with entrywise equality.  ``Matrix(rows, cols, entries)`` converts its
    GaussianRational entries once; ``entries`` is a view built from the
    stored rows on first read and kept.

    The package calls every method here; entry access, scalar multiples,
    conjugates and zero tests read ``entries`` or ``zrows``.
    """

    __slots__ = ("rows", "cols", "zrows", "_entries")
    rows: int
    cols: int
    zrows: tuple[ZRow, ...]

    def __init__(
        self, rows: int, cols: int, entries: Sequence[Sequence[GaussianRational]]
    ) -> None:
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != rows:
            raise ValueError("row count mismatch")
        if any(len(row) != cols for row in grid):
            raise ValueError("column count mismatch")
        _init(self, rows, cols, tuple(map(_integer_row, grid)), grid)

    @classmethod
    def _of(cls, rows: int, cols: int, zrows: tuple[ZRow, ...]) -> "Matrix":
        """The matrix with the given stored rows, each already primitive."""
        m = object.__new__(cls)
        _init(m, rows, cols, zrows, None)
        return m

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __reduce__(self):
        return Matrix._of, (self.rows, self.cols, self.zrows)

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        grid = self._entries
        if grid is None:
            grid = tuple(tuple(_over(v, s) for v in row) for s, row in self.zrows)
            object.__setattr__(self, "_entries", grid)
        return grid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.zrows) == (other.rows, other.cols, other.zrows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.zrows))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalarish]]) -> "Matrix":
        grid = tuple(
            tuple(GaussianRational.coerce(x) for x in row) for row in rows
        )
        if not grid:
            raise ValueError("a matrix needs at least one row; use zeros()")
        return Matrix(len(grid), len(grid[0]), grid)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, ((1, ((0, 0),) * cols),) * rows)

    @staticmethod
    def unit_rows(indices: Sequence[int], n: int) -> "Matrix":
        """The rows e_j, j in indices, of the n x n identity."""
        return Matrix._of(len(indices), n, tuple(
            (1, tuple((1, 0) if c == j else (0, 0) for c in range(n))) for j in indices
        ))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.unit_rows(range(n), n)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        self._check_same_shape(other)
        out = []
        for (s, u), (t, v) in zip(self.zrows, other.zrows):
            g = gcd(s, t)
            a, b = t // g, sign * (s // g)
            out.append(_primitive(s * a, [
                (a * u_re + b * v_re, a * u_im + b * v_im)
                for (u_re, u_im), (v_re, v_im) in zip(u, v)
            ]))
        return Matrix._of(self.rows, self.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product: row r of the product is the row of _products,
        over s * L for the scale s of row r of self, one gcd per row."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not self.cols:
            return Matrix.zeros(self.rows, other.cols)
        big, rows = _products(_integer_rows(self), other)
        return Matrix._of(self.rows, other.cols, tuple(
            _primitive(s * big, row) for (s, _), row in zip(self.zrows, rows)
        ))

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix.zeros(self.cols, 0)
        big, rows = _common_scale(self.zrows)
        return Matrix._of(self.cols, self.rows, tuple(_primitive(big, col) for col in zip(*rows)))

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("stacked matrices need equal column counts")
        return Matrix._of(self.rows + other.rows, self.cols, self.zrows + other.zrows)

    def columns(self, indices: Sequence[int]) -> "Matrix":
        """The columns at indices, in that order; an index may repeat."""
        if any(not 0 <= j < self.cols for j in indices):
            raise ValueError(f"column index out of range(0, {self.cols}): {indices}")
        rows = tuple(_primitive(s, [row[j] for j in indices]) for s, row in self.zrows)
        return Matrix._of(self.rows, len(indices), rows)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(e) for e in row) + "]" for row in self.entries)


def _init(m: Matrix, rows: int, cols: int, zrows: tuple[ZRow, ...], entries) -> None:
    set_slot = object.__setattr__
    set_slot(m, "rows", rows)
    set_slot(m, "cols", cols)
    set_slot(m, "zrows", zrows)
    set_slot(m, "_entries", entries)


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple[int, ...]


def _integer_rows(m: Matrix) -> list[tuple[GInt, ...]]:
    """The stored Z[i] rows of m without their scales: the same row space."""
    return [row for _, row in m.zrows]


def _gdot(u: Sequence[GInt], v: Sequence[GInt]) -> GInt:
    """Sum of the products u[l] * v[l] in Z[i]."""
    re = im = 0
    for (ar, ai), (br, bi) in zip(u, v):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return (re, im)


def _products(rows: Sequence[Sequence[GInt]], m: Matrix) -> tuple[int, list[list[GInt]]]:
    """(L, out) with L the common scale of m's rows and out[r] the Z[i]
    row of dot products of rows[r] with the columns of L * m: for the Q(i)
    row x = rows[r] / s, x @ m is out[r] / (s * L).  No row is made
    primitive; a caller that only spans or eliminates the rows needs no
    scale, as scaling a row changes no span.  A row whose length is not
    m's row count raises ValueError, as Matrix @ does."""
    for row in rows:
        if len(row) != m.rows:
            raise ValueError(f"cannot multiply {len(rows)}x{len(row)} by {m.rows}x{m.cols}")
    big, right = _common_scale(m.zrows)
    cols = list(zip(*right))
    return big, [[_gdot(row, col) for col in cols] for row in rows]


def _integer_rref(
    grid: list[Sequence[GInt]], reduce: bool = True
) -> tuple[GInt, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Each step multiplies every other row by the new pivot p, subtracts the
    matching multiple of the pivot row, and divides by the previous pivot;
    by Sylvester's identity every entry stays a minor of the input, so the
    division is exact (Bareiss, Math. Comp. 22, 1968).  Afterwards the
    first rank rows are d times the reduced row echelon form, d the last
    pivot, and the remaining rows are zero.  Returns (d, pivot columns);
    d = 1 when the input is zero.

    A step computes only the columns it can change.  The pivot row and the
    rows below it are zero left of the pivot column, so a lower row gets
    a zero prefix and computes only the columns right of it; a row above
    is only scaled by p / prev left of it, and the pivot column becomes
    zero in every other row.  A real previous pivot (every step of a Gram
    matrix's elimination, whose leading minors are real) is divided by
    directly, a complex one through its conjugate.

    With reduce=False each step eliminates only the rows below the pivot:
    the pivots and d are the same, the rows above are left in echelon
    form rather than reduced.  The grid's rows are replaced, never
    mutated, so the caller's rows may be shared.
    """
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
        # a step with no other row to update (the last step of a forward
        # elimination, any step of a one-row grid) needs no set-up
        if n_rows > 1 and (reduce or piv_r + 1 < n_rows):
            if prev_im:
                # x / prev = x * conj(prev) / |prev|^2; conj(prev) is folded
                # into both multipliers, leaving one exact division per part
                div = prev_re * prev_re + prev_im * prev_im
                s_re, s_im = p_re * prev_re + p_im * prev_im, p_im * prev_re - p_re * prev_im
            else:
                div, s_re, s_im = prev_re, p_re, p_im
            unchanged = (p_re, p_im) == (prev_re, prev_im)
            right = col + 1
            zeros, ptail = [(0, 0)] * right, prow[right:]
            for r in range(0 if reduce else piv_r + 1, n_rows):
                row = grid[r]
                f_re, f_im = row[col]
                if r == piv_r or (not (f_re or f_im) and unchanged):
                    continue
                if prev_im:
                    f_re, f_im = f_re * prev_re + f_im * prev_im, f_im * prev_re - f_re * prev_im
                tail = [
                    ((s_re * a_re - s_im * a_im - f_re * b_re + f_im * b_im) // div,
                     (s_re * a_im + s_im * a_re - f_re * b_im - f_im * b_re) // div)
                    for (a_re, a_im), (b_re, b_im) in zip(row[right:], ptail)
                ]
                grid[r] = zeros + tail if r > piv_r else [
                    ((s_re * a_re - s_im * a_im) // div, (s_re * a_im + s_im * a_re) // div)
                    for a_re, a_im in row[:col]
                ] + [(0, 0)] + tail
        prev_re, prev_im = p_re, p_im
        pivots.append(col)
        piv_r += 1
        if piv_r == n_rows:
            break
    return (prev_re, prev_im), tuple(pivots)


# A rank certificate, not a second kernel: the ring map Z[i] -> F_p that
# sends i to a square root of -1 (p = 10^9 + 9 is a prime = 1 mod 4) maps
# every minor to its image, so a minor that is nonzero mod p is nonzero
# over Z[i] and the mod-p rank never exceeds the rank.  A mod-p rank that
# reaches r proves rank >= r; below r only _integer_rref decides.
_P = 1_000_000_009
_SQRT_MINUS_ONE = 430_477_711


def _modular_rank(rows: Iterable[Sequence[GInt]], cap: int) -> int:
    """Rank of the Z[i] rows mapped to F_p, counting at most cap pivots:
    a forward elimination of their images that stops at cap pivots."""
    grid = [[(re + _SQRT_MINUS_ONE * im) % _P for re, im in row] for row in rows]
    found = 0
    for col in range(len(grid[0]) if grid else 0):
        if found >= cap or found == len(grid):
            break
        sel = next((r for r in range(found, len(grid)) if grid[r][col]), None)
        if sel is None:
            continue
        grid[found], grid[sel] = grid[sel], grid[found]
        prow = grid[found]
        p = prow[col]
        for r in range(found + 1, len(grid)):
            f = grid[r][col]
            if f:
                grid[r] = [(p * a - f * b) % _P for a, b in zip(grid[r], prow)]
        found += 1
    return found


def _rank_at_least(rows: Sequence[Sequence[GInt]], r: int) -> bool:
    """Whether the Z[i] rows have rank >= r: proved by the mod-p rank when
    it reaches r, otherwise decided by the pivot count of _integer_rref."""
    if _modular_rank(rows, r) >= r:
        return True
    return len(_integer_rref(list(rows), reduce=False)[1]) >= r


def _rref_rows(rows: Sequence[Sequence[GInt]]) -> tuple[tuple[ZRow, ...], tuple[int, ...]]:
    """(the nonzero rows of the RREF, its pivots) of the span of the Z[i]
    rows: one _integer_rref of a copy, each pivot row divided once by the
    last pivot.  A row may carry any scale: scaling a row changes no span."""
    grid = list(rows)
    d, pivots = _integer_rref(grid)
    return tuple(_divided(row, d) for row in grid[:len(pivots)]), pivots


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, computed by _rref_rows.

    Over an exact ring the first nonzero entry is always an acceptable
    pivot; no size heuristics are involved.  The result is the unique RREF
    of the row space, so two matrices have equal row spaces iff their
    reduced forms agree entrywise.
    """
    reduced, pivots = _rref_rows(_integer_rows(m))
    rk = len(pivots)
    reduced += Matrix.zeros(m.rows - rk, m.cols).zrows
    return RrefResult(Matrix._of(m.rows, m.cols, reduced), rk, pivots)


def rank(m: Matrix) -> int:
    """Pivot count of the forward elimination; no reduced matrix is built."""
    return len(_integer_rref(_integer_rows(m), reduce=False)[1])


def kernel(m: Matrix) -> Matrix:
    """Basis of the right null space, one solution of m @ x^T = 0 per row.

    Returns a (cols - rank) x cols matrix; a full-column-rank input yields
    a 0 x cols matrix.  With the reduced rows d * R, the row of free column
    f is d at f and -d * R[r, f] at pivot column r, over d.
    """
    grid = _integer_rows(m)
    d, pivots = _integer_rref(grid)
    rows = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        vec = [(0, 0)] * m.cols
        vec[f] = d
        for r, p in enumerate(pivots):
            re, im = grid[r][f]
            vec[p] = (-re, -im)
        rows.append(_divided(vec, d))
    return Matrix._of(len(rows), m.cols, tuple(rows))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution x of a @ x = b, with zero residual.

    Free variables are set to zero, making the result deterministic.
    Raises InconsistentSystemError when b is not in the column space of a.
    """
    if a.rows != b.rows:
        raise ValueError("a and b need the same number of rows")
    # row r of [a | b] over lcm(s, t), from the rows (s, u) of a and (t, v) of b
    grid = []
    for (s, u), (t, v) in zip(a.zrows, b.zrows):
        g = gcd(s, t)
        grid.append(_scaled(u, t // g) + _scaled(v, s // g))
    return _solve_rows(grid, a.cols, b.cols)


def _solve_rows(grid: list[Sequence[GInt]], a_cols: int, b_cols: int) -> Matrix:
    """solve for the Z[i] rows of [a | b], a with a_cols columns and b with
    b_cols: one _integer_rref of grid, in place.  Scaling a row of [a | b]
    changes neither its solutions nor its reduced form, so each row may
    carry its own scale."""
    d, pivots = _integer_rref(grid)
    if any(p >= a_cols for p in pivots):
        raise InconsistentSystemError("right-hand side is outside the column space")
    x = list(Matrix.zeros(a_cols, b_cols).zrows)
    for r, p in enumerate(pivots):
        x[p] = _divided(grid[r][a_cols:], d)
    return Matrix._of(a_cols, b_cols, tuple(x))


def matrix_to_json(m: Matrix) -> dict:
    """Wire form: integer components as decimal strings, row-major.

    ``{"rows": R, "cols": C, "entries": [[re_num, re_den, im_num, im_den], ...]}``
    """
    entries = []
    for row in m.entries:
        for e in row:
            entries.append([
                str(e.re.numerator), str(e.re.denominator),
                str(e.im.numerator), str(e.im.denominator),
            ])
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _wire_count(data: dict, key: str, what: str) -> int:
    """The nonnegative wire-format integer data[key] of the object named
    what; a non-integer or negative one raises WireFormatError naming it."""
    raw = _wire_field(data, key, what)
    try:
        value = _wire_int(raw)
    except WireFormatError as exc:
        raise WireFormatError(f"the field {key!r} of {what}: {exc}") from None
    if value < 0:
        raise WireFormatError(f"the field {key!r} of {what} is {value}; it must be >= 0")
    return value


def matrix_from_json(data: dict) -> Matrix:
    """Parse the wire form; malformed data raises WireFormatError."""
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise WireFormatError("a matrix must be an object with an 'entries' list")
    rows, cols = (_wire_count(data, key, "a matrix") for key in ("rows", "cols"))
    raw = data["entries"]
    if len(raw) != rows * cols:
        raise WireFormatError(f"expected {rows * cols} entries, got {len(raw)}")
    flat = []
    for idx, q in enumerate(raw):
        if not isinstance(q, list) or len(q) != 4:
            raise WireFormatError(f"entry {q!r} is not [re_num, re_den, im_num, im_den]")
        try:
            re_num, re_den, im_num, im_den = (_wire_int(x) for x in q)
        except WireFormatError as exc:
            where = f"row {idx // cols}, column {idx % cols}"
            raise WireFormatError(f"the entry at {where} of a matrix: {exc}") from None
        if not (re_den and im_den):
            raise WireFormatError(f"entry {q!r} has a zero denominator")
        flat.append(GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den)))
    grid = tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))
    return Matrix(rows, cols, grid)
