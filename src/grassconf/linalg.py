"""Exact matrix arithmetic over the Gaussian rationals Q(i).

Every rank decision in this package is made here, over an exact field:
complex numbers whose real and imaginary parts are arbitrary-precision
rationals.  One elimination routine serves the whole package:
_integer_rref, a fraction-free elimination over the Gaussian integers
Z[i].  rref, and through it kernel, solve and invert, scale each row to
Z[i], run the full Gauss-Jordan elimination and divide by the common pivot
only when building the result; rank runs the forward elimination only and
reads the pivot count, without building a reduced matrix.  The product
runs on the same Z[i] rows: each row of the left factor and each column of
the right one is scaled to Z[i], and each entry is one Z[i] dot product
divided by the two scales.  All values are immutable and all operations
are pure, so the module is safe to use from multiple threads without
coordination.

>>> a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
>>> print(a * a.conjugate())
13/36
>>> m = Matrix.from_rows([[gq(1, 2), gq(0, Fraction(1, 3))]])
>>> print(m @ m.conjugate_transpose())
[46/9]
>>> print(m.conjugate_transpose() @ m)
[5  2/3+1/3i]
[2/3-1/3i  1/9]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InconsistentSystemError

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]
GInt = tuple[int, int]


@dataclass(frozen=True)
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

    def abs_max(self) -> Fraction:
        """Rational-valued magnitude surrogate max(|re|, |im|)."""
        return max(abs(self.re), abs(self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

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
ONE = GaussianRational(Fraction(1))


def gq(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor: gq(1, -2) is 1 - 2i."""
    return GaussianRational(Fraction(re), Fraction(im))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over Q(i), row-major.

    Vectors are rows throughout the package; a linear map C^n -> C^m is an
    n x m matrix acting by right multiplication, x -> x @ a.
    """

    rows: int
    cols: int
    entries: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("column count mismatch")

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
        return Matrix(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n,
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
        )

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def scale(self, factor: Scalarish) -> "Matrix":
        factor = GaussianRational.coerce(factor)
        return Matrix(self.rows, self.cols, tuple(
            tuple(factor * e for e in row) for row in self.entries
        ))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product: with each row of self scaled to Z[i] by s and each
        column of other by t, entry (r, j) is their Z[i] dot product over
        s * t, one division per entry."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not self.cols:
            return Matrix.zeros(self.rows, other.cols)
        cols = [_integer_row(col) for col in zip(*other.entries)]
        grid = tuple(
            tuple(_over(_gdot(row, col), s * t) for t, col in cols)
            for s, row in map(_integer_row, self.entries)
        )
        return Matrix(self.rows, other.cols, grid)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else tuple(() for _ in range(self.cols)))

    def conjugate(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(e.conjugate() for e in row) for row in self.entries
        ))

    def conjugate_transpose(self) -> "Matrix":
        return self.conjugate().transpose()

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("stacked matrices need equal column counts")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_rows(self, count: int) -> "Matrix":
        return Matrix(count, self.cols, self.entries[:count])

    def drop_rows(self, count: int) -> "Matrix":
        return Matrix(self.rows - count, self.cols, self.entries[count:])

    def max_abs(self) -> Fraction:
        """Largest max(|re|, |im|) over all entries (0 for empty matrices)."""
        best = Fraction(0)
        for row in self.entries:
            for e in row:
                m = e.abs_max()
                if m > best:
                    best = m
        return best

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(e) for e in row) + "]" for row in self.entries)


def stack_all(matrices: Iterable[Matrix]) -> Matrix:
    mats = list(matrices)
    out = mats[0]
    for m in mats[1:]:
        out = out.stack(m)
    return out


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple[int, ...]


def _integer_row(row: Sequence[GaussianRational]) -> tuple[int, list[GInt]]:
    """(s, s * row) with s the lcm of the row's denominators, so the
    scaled row has Gaussian-integer entries."""
    scale = 1
    for e in row:
        for den in (e.re.denominator, e.im.denominator):
            scale = scale * den // gcd(scale, den)
    return scale, [
        (e.re.numerator * (scale // e.re.denominator),
         e.im.numerator * (scale // e.im.denominator))
        for e in row
    ]


def _integer_rows(m: Matrix) -> list[list[GInt]]:
    """Each row scaled by _integer_row: Gaussian-integer entries, same row
    space."""
    return [_integer_row(row)[1] for row in m.entries]


def _gdot(u: Sequence[GInt], v: Sequence[GInt]) -> GInt:
    """Sum of the products u[l] * v[l] in Z[i]."""
    re = im = 0
    for (ar, ai), (br, bi) in zip(u, v):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return (re, im)


def _over(value: GInt, den: int) -> GaussianRational:
    """The Gaussian rational value / den, for a positive integer den."""
    re, im = value
    if not (re or im):
        return ZERO
    return GaussianRational(
        Fraction(re, den) if re else ZERO.re, Fraction(im, den) if im else ZERO.re
    )


def _integer_rref(
    grid: list[list[GInt]], reduce: bool = True
) -> tuple[GInt, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Each step multiplies every other row by the new pivot p, subtracts the
    matching multiple of the pivot row, and divides by the previous pivot;
    by Sylvester's identity every entry stays a minor of the input, so the
    division is exact (Bareiss, Math. Comp. 22, 1968).  Afterwards the
    first rank rows are d times the reduced row echelon form, d the last
    pivot, and the remaining rows are zero.  Returns (d, pivot columns);
    d = 1 when the input is zero.

    With reduce=False each step eliminates only the rows below the pivot:
    the pivots and d are the same, the rows above are left in echelon
    form rather than reduced.  The grid's row lists are replaced, never
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
        # x / prev = x * conj(prev) / |prev|^2; conj(prev) is folded into
        # both multipliers, leaving one exact integer division per part
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


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, computed by _integer_rref.

    Over an exact ring the first nonzero entry is always an acceptable
    pivot; no size heuristics are involved.  The result is the unique RREF
    of the row space, so two matrices have equal row spaces iff their
    reduced forms agree entrywise.
    """
    grid = _integer_rows(m)
    (d_re, d_im), pivots = _integer_rref(grid)
    # e / d = e * conj(d) / |d|^2
    norm = d_re * d_re + d_im * d_im
    reduced = tuple(
        tuple(
            _over((e_re * d_re + e_im * d_im, e_im * d_re - e_re * d_im), norm)
            for e_re, e_im in row
        )
        for row in grid
    )
    return RrefResult(Matrix(m.rows, m.cols, reduced), len(pivots), pivots)


def rank(m: Matrix) -> int:
    """Pivot count of the forward elimination; no reduced matrix is built."""
    return len(_integer_rref(_integer_rows(m), reduce=False)[1])


def kernel(m: Matrix) -> Matrix:
    """Basis of the right null space, one solution of m @ x^T = 0 per row.

    Returns a (cols - rank) x cols matrix; a full-column-rank input yields
    a 0 x cols matrix.
    """
    reduced, rk, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    rows = []
    for f in free:
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r, f]
        rows.append(tuple(vec))
    return Matrix(len(rows), m.cols, tuple(rows))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution x of a @ x = b, with zero residual.

    Free variables are set to zero, making the result deterministic.
    Raises InconsistentSystemError when b is not in the column space of a.
    """
    if a.rows != b.rows:
        raise ValueError("a and b need the same number of rows")
    augmented = Matrix(
        a.rows, a.cols + b.cols,
        tuple(ra + rb for ra, rb in zip(a.entries, b.entries)),
    )
    reduced, _, pivots = rref(augmented)
    if any(p >= a.cols for p in pivots):
        raise InconsistentSystemError("right-hand side is outside the column space")
    x = [[ZERO] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for c in range(b.cols):
            x[p][c] = reduced[r, a.cols + c]
    return Matrix(a.cols, b.cols, tuple(tuple(row) for row in x))


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    try:
        return solve(m, Matrix.identity(m.rows))
    except InconsistentSystemError:
        raise InconsistentSystemError("matrix is singular") from None


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


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


def _wire_int(value) -> int:
    """A wire-format integer: a JSON integer or a decimal string (a JSON
    boolean is neither, though Python's bool is an int)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def matrix_from_json(data: dict) -> Matrix:
    """Parse the wire form; malformed data raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ValueError("a matrix must be an object with an 'entries' list")
    rows, cols = _wire_int(data["rows"]), _wire_int(data["cols"])
    raw = data["entries"]
    if len(raw) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(raw)}")
    flat = []
    for q in raw:
        if not isinstance(q, list) or len(q) != 4:
            raise ValueError(f"entry {q!r} is not [re_num, re_den, im_num, im_den]")
        re_num, re_den, im_num, im_den = (_wire_int(x) for x in q)
        if not (re_den and im_den):
            raise ValueError(f"entry {q!r} has a zero denominator")
        flat.append(GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den)))
    grid = tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))
    return Matrix(rows, cols, grid)
