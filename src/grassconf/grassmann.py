"""Points of Grassmannians, configurations, and the sum-dimension strata.

A point of Gr(k, n) is stored as its unique reduced-row-echelon basis, so
subspace equality is entrywise equality of basis matrices.  An ordered
configuration of h pairwise-distinct k-subspaces of C^n with
dim(H_1 + ... + H_h) = i is a point of the stratum named by
StratumId(h, i, k, n).  The strata as index data live in _strata, which
needs no matrix code; this module re-exports them.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from . import linalg
from ._strata import (  # noqa: F401  (re-exported)
    StratumId,
    _require_nonempty,
    is_stratum_nonempty,
    strata_list,
    stratum_closure,
    stratum_dimension,
)
from .errors import (
    DuplicatePointsError,
    FullSpaceError,
    InconsistentSystemError,
    MixedAmbientError,
    NotComplementaryError,
    WireFormatError,
    ZeroSubspaceError,
    _wire_field,
    record,
)
from .linalg import GInt, Matrix, ZRow

SeedLike = Union[int, str]


def _canonical_pivots(m: Matrix) -> Optional[tuple[int, ...]]:
    """The leading column of each stored Z[i] row, or None unless the rows
    are a canonical RREF basis: a row (s, v) has the pivot 1 where its
    first nonzero part is (s, 0), and every other row is (0, 0) there."""
    pivots: list[int] = []
    for r, (s, row) in enumerate(m.zrows):
        lead = next((c for c, part in enumerate(row) if part != (0, 0)), None)
        if lead is None or (pivots and lead <= pivots[-1]) or row[lead] != (s, 0):
            return None
        if any(other[lead] != (0, 0) for rr, (_, other) in enumerate(m.zrows) if rr != r):
            return None
        pivots.append(lead)
    return tuple(pivots)


class PivotSplit(NamedTuple):
    """(P, F, L, C) of an RREF basis A = W / L at one common scale L: its
    pivot columns, its free columns (none for the full space), L, and C[j]
    the column F[j] of W, which determine the null basis of A."""

    pivots: tuple[int, ...]
    free: tuple[int, ...]
    scale: int
    cols: tuple[tuple[GInt, ...], ...]


@record
class Subspace:
    """A k-dimensional subspace of C^n; basis rows are in canonical RREF.
    Its pivots, found when it is built, and its _pivot_split, a
    cached_property, are kept beside the fields, so ==, hash and repr
    ignore them."""

    n: int
    k: int
    basis: Matrix

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.n:
            raise ValueError(f"need 0 < k <= n, got k={self.k}, n={self.n}")
        if self.basis.rows != self.k or self.basis.cols != self.n:
            raise ValueError("basis shape does not match (k, n)")
        pivots = _canonical_pivots(self.basis)
        if pivots is None:
            raise ValueError("basis is not in canonical reduced row echelon form")
        object.__setattr__(self, "_pivots", pivots)

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @cached_property
    def _pivot_split(self) -> PivotSplit:
        """The PivotSplit of the RREF basis, computed on first read; it is
        all tuples, so the kept split cannot be mutated."""
        scale, ints = linalg._common_scale(self.basis.zrows)
        free = tuple(sorted(set(range(self.n)).difference(self._pivots)))
        cols = tuple(tuple(row[f] for row in ints) for f in free)
        return PivotSplit(self._pivots, free, scale, cols)

    def contains(self, other: "Subspace") -> bool:
        """Whether other ⊆ self, read off the RREF basis with no elimination.

        The basis W / L of self (one scale L) is the identity at its pivot
        columns P, so a row u of other's basis, at any scale, lies in self
        exactly when L·u[F] = u[P]·W[:, F] at the free columns F: one
        integer test per row, whether its _kernel_block row is zero.

        >>> plane = canonicalize(Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), 3)
        >>> plane.contains(canonicalize(Matrix.from_rows([[1, 1, 2]]), 3))
        True
        >>> plane.contains(canonicalize(Matrix.from_rows([[1, 1, 1]]), 3))
        False
        """
        if other.n != self.n:
            raise MixedAmbientError("ambient dimensions differ")
        split = self._pivot_split
        zero = [(0, 0)] * len(split.free)
        return all(_kernel_block(u, split) == zero for _, u in other.basis.zrows)

    def __str__(self) -> str:
        return f"Subspace(k={self.k}, n={self.n})\n{self.basis}"


@record
class Configuration:
    """Ordered tuple of pairwise-distinct k-subspaces of a common C^n."""

    h: int
    k: int
    n: int
    points: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError("a configuration needs h >= 1 points")
        if len(self.points) != self.h:
            raise ValueError(
                f"declared h = {self.h} but the configuration has {len(self.points)} points"
            )
        for p in self.points:
            if p.n != self.n:
                raise MixedAmbientError("all points must share the ambient space")
            if p.k != self.k:
                raise ValueError("all points must share the subspace dimension")
        for a in range(self.h):
            for b in range(a + 1, self.h):
                if self.points[a] == self.points[b]:
                    raise DuplicatePointsError(f"points {a} and {b} coincide")

    @cached_property
    def span(self) -> Subspace:
        """H_1 + ... + H_h, by subspace_sum on first read, then kept.

        The sum is kept beside the fields, not as one, so ==, hash, repr
        and the JSON form ignore it; it lives as long as the configuration.

        >>> c = Configuration.of([
        ...     canonicalize(Matrix.from_rows([[1, 0, 0]]), 3),
        ...     canonicalize(Matrix.from_rows([[0, 1, 1]]), 3),
        ... ])
        >>> print(c.span.basis)
        [1  0  0]
        [0  1  1]
        >>> c.span is c.span
        True
        """
        return subspace_sum(self.points)

    @staticmethod
    def of(points: Sequence[Subspace]) -> "Configuration":
        if not points:
            raise ValueError("empty configuration")
        return Configuration(len(points), points[0].k, points[0].n, tuple(points))


def canonicalize(raw_basis: Matrix, n: int) -> Subspace:
    """The subspace spanned by the rows, in canonical form.

    The dimension is the rank of the generating set; dependent generators
    collapse.  Raises ZeroSubspaceError when every row is zero.
    """
    if raw_basis.cols != n:
        raise MixedAmbientError(f"expected {n} columns, got {raw_basis.cols}")
    return _canonical_span(linalg._integer_rows(raw_basis), n)


def _canonical_span(rows: Sequence[Sequence[GInt]], n: int) -> Subspace:
    """canonicalize of the Z[i] rows of length n, each at any scale, which
    changes no span: one linalg._rref_rows, and a Subspace built by its
    public constructor."""
    reduced, pivots = linalg._rref_rows(rows)
    if not pivots:
        raise ZeroSubspaceError("generating set spans only the zero subspace")
    return Subspace(n, len(pivots), Matrix._of(len(pivots), n, reduced))


def subspace_sum(parts: Sequence[Subspace]) -> Subspace:
    """Span of the union of bases, H_1 + ... + H_m."""
    if not parts:
        raise ValueError("empty sum")
    n = parts[0].n
    if any(p.n != n for p in parts):
        raise MixedAmbientError("ambient dimensions differ")
    return _canonical_span([row for p in parts for _, row in p.basis.zrows], n)


def subspace_intersection(a: Subspace, b: Subspace) -> Optional[Subspace]:
    """Exact intersection; None encodes the zero subspace.

    Solutions of x·A + y·B = 0 are read off the null space of the stacked
    basis matrix; their x·A span A ∩ B (negating y would only negate
    each x), so dim(A+B) + dim(A∩B) = dim A + dim B holds exactly.  Each
    x is a null row's first dim A parts, at that row's scale.
    """
    if a.n != b.n:
        raise MixedAmbientError("ambient dimensions differ")
    stacked = a.basis.stack(b.basis)
    null_rows = linalg.kernel(stacked.transpose())
    if null_rows.rows == 0:
        return None
    return _image([row[:a.k] for _, row in null_rows.zrows], a.basis)


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(A ∩ B) = dim A + dim B - dim(A + B), from the stacked bases.

    A mod-p rank (linalg._modular_rank) that reaches dim A + dim B proves
    the sum direct with no exact elimination; otherwise one exact rank
    gives dim(A + B).
    """
    if a.n != b.n:
        raise MixedAmbientError("ambient dimensions differ")
    stacked = a.basis.stack(b.basis)
    if linalg._modular_rank(linalg._integer_rows(stacked), a.k + b.k) == a.k + b.k:
        return 0
    return a.k + b.k - linalg.rank(stacked)


def complement(v: Subspace) -> Subspace:
    """The deterministic complement spanned by non-pivot standard vectors.

    Because the basis is in RREF, the standard basis vectors at non-pivot
    columns always complete it to a basis of C^n.
    """
    if v.k == v.n:
        raise FullSpaceError("the full space has no complement")
    return Subspace(v.n, v.n - v.k, Matrix.unit_rows(v._pivot_split.free, v.n))


def _kernel_block(u: Sequence[GInt], split: PivotSplit) -> list[GInt]:
    """L·u·N = L·u[F] - u[P]·W[:, F] for the Z[i] row u, N the null basis
    of the RREF basis A = W / L with this split.

    Column j of N is e_f - Σ_r A[r, f]·e_(p_r), for the j-th free column f
    of A and the pivot p_r of its row r; A is the identity at its pivots,
    so A·N = 0, and N is never built.  The row is zero exactly when u lies
    in the span of A.
    """
    pivots, free, scale, cols = split
    lead = [u[p] for p in pivots]
    out = []
    for f, col in zip(free, cols):
        re, im = linalg._gdot(lead, col)
        out.append((scale * u[f][0] - re, scale * u[f][1] - im))
    return out


def _solve_along(
    rows: Sequence[Sequence[GInt]], split: PivotSplit, columns: Sequence[int]
) -> Matrix:
    """solve(L·Y·N, L·Y[:, columns]) for the Z[i] rows Y at any scales, N
    the null basis of the RREF basis A = W / L with this split: one
    linalg._solve_rows of the rows [L·y·N | L·y at columns].  For rows of
    full rank it raises InconsistentSystemError exactly when their span
    meets A's, if A's nonzero vectors are nonzero at the columns (all of
    them, or A's pivots): x·N = 0 exactly for x in A's span, so
    y·Y·N = 0 with y != 0 leaves y·Y[:, columns] != 0 out of reach."""
    scale = split.scale
    grid = [
        _kernel_block(u, split) + [(scale * u[c][0], scale * u[c][1]) for c in columns]
        for u in rows
    ]
    return linalg._solve_rows(grid, len(split.free), len(columns))


class _Projection(NamedTuple):
    """A chart projection P as the result of its one solve.

    With A = W / L the RREF basis of the side the solve ran against (its
    PivotSplit), N the null basis of A (see _kernel_block, never built)
    and T the basis of the other side, Z = (T·N)^-1·T is kept as the
    columns of M·Z at one common scale M.  P is N·Z, the projection onto
    T along A, or I - N·Z when minus is set; _project applies it to rows.
    """

    split: PivotSplit
    scale: int
    z_cols: tuple[tuple[GInt, ...], ...]
    minus: bool

    def flipped(self) -> "_Projection":
        """I - P: the same solve with the side flag flipped."""
        return self._replace(minus=not self.minus)


def _projection_solve(target: Subspace, along: Subspace) -> _Projection:
    """The projection onto target along along, from one _solve_along.

    The solve runs on the smaller side: T is target's basis and A along's
    when dim target <= dim along; otherwise the roles swap and the kept
    value is I minus the projection onto along along target, so the
    solve has min(k, n-k) rows.  It decides target ⊕ along = C^n: its
    InconsistentSystemError, raised exactly when target meets along (see
    _solve_along), becomes NotComplementaryError.
    """
    if target.n != along.n:
        raise MixedAmbientError("ambient dimensions differ")
    if target.k + along.k != target.n:
        raise NotComplementaryError("dimensions do not add up to the ambient dimension")
    minus = target.k > along.k
    if minus:
        target, along = along, target
    split = along._pivot_split
    try:
        z = _solve_along(linalg._integer_rows(target.basis), split, range(target.n)).zrows
    except InconsistentSystemError:
        raise NotComplementaryError("subspaces intersect nontrivially") from None
    big, z_rows = linalg._common_scale(z)
    return _Projection(split, big, tuple(zip(*z_rows)), minus)


def _project(zrows: Sequence[ZRow], proj: _Projection) -> list[ZRow]:
    """x·P for each stored row (s, u), x = u / s, in primitive form.

    _kernel_block(u) is L·u·N, so x·N·Z is (L·u·N)·(M·Z) / (s·L·M): one
    Z[i] dot product per column, and x minus that when P is I - N·Z.
    Each row is made primitive with one gcd, as Matrix @ makes it, so a
    row equals the product row x @ P; no n x n matrix is built.
    """
    split, big, z_cols, minus = proj
    den = split.scale * big
    out = []
    for s, u in zrows:
        block = _kernel_block(u, split)
        row = [linalg._gdot(block, col) for col in z_cols]
        if minus:
            row = [(den * a - re, den * b - im) for (a, b), (re, im) in zip(u, row)]
        out.append(linalg._primitive(s * den, row))
    return out


def _projection_matrix(proj: _Projection) -> Matrix:
    """The n x n matrix of P: _project of the identity's rows."""
    n = len(proj.z_cols)
    return Matrix._of(n, n, tuple(_project(Matrix.identity(n).zrows, proj)))


def projection_along(target: Subspace, along: Subspace) -> Matrix:
    """Matrix of the idempotent with image ``target`` and kernel ``along``.

    Acts on row vectors by right multiplication.  With T the basis of
    target, A that of along and N the null basis of A (see _kernel_block),
    the projection is P = N·(T·N)^-1·T: A·P = 0 and T·P = T.  Its one
    solve (_projection_solve, on the smaller side) raises
    NotComplementaryError unless target ⊕ along = C^n, and the matrix is
    _project of the identity's rows, the route the chart maps of
    fibrations take for the rows they move.

    >>> line = canonicalize(Matrix.from_rows([[1, 1, 0]]), 3)
    >>> plane = canonicalize(Matrix.from_rows([[0, 1, 0], [0, 0, 1]]), 3)
    >>> print(projection_along(line, plane))  # a 1 x 1 block
    [1  1  0]
    [0  0  0]
    [0  0  0]
    >>> print(projection_along(plane, line))  # I minus the projection above
    [0  -1  0]
    [0  1  0]
    [0  0  1]
    """
    return _projection_matrix(_projection_solve(target, along))


def _image(rows: Sequence[Sequence[GInt]], g: Matrix) -> Subspace:
    """The span of the Z[i] rows times g: the rows of linalg._products,
    reduced as they are."""
    return _canonical_span(linalg._products(rows, g)[1], g.cols)


def stratum_of(c: Configuration) -> int:
    """dim(H_1 + ... + H_h), the stratum index of the configuration."""
    return c.span.k


# ---------------------------------------------------------------------------
# seeded random constructions


def random_matrix(rows: int, cols: int, rng: random.Random) -> Matrix:
    """A seeded matrix whose parts are a/b with a in [-3, 3] and b in {1, 2}.

    Each entry draws its real part, then its imaginary part, each as
    rng.randint(-3, 3) over rng.randint(1, 2), built straight as Z[i] rows.
    The draws replicate randint's: 3 random bits redrawn on 7, then 2
    random bits redrawn on 2 or 3, so the values and the generator state
    afterwards are those of the randint calls.  A row's scale is 2 when
    some part has reduced denominator 2 (b = 2 with a odd), else 1; the
    odd numerator of that part keeps the row primitive.
    """
    getrandbits = rng.getrandbits
    zrows = []
    for _ in range(rows):
        parts = []
        for _ in range(2 * cols):
            num = getrandbits(3)
            while num == 7:
                num = getrandbits(3)
            den = getrandbits(2)
            while den >= 2:
                den = getrandbits(2)
            parts.append((num - 3, den + 1))
        scale = 2 if any(den == 2 and num % 2 for num, den in parts) else 1
        values = [num * scale // den for num, den in parts]
        zrows.append((scale, tuple(zip(values[::2], values[1::2]))))
    return Matrix._of(rows, cols, tuple(zrows))


def random_invertible(n: int, rng: random.Random) -> Matrix:
    while True:
        m = random_matrix(n, n, rng)
        if linalg._rank_at_least(linalg._integer_rows(m), n):
            return m


def sample_subspace(k: int, n: int, seed: SeedLike) -> Subspace:
    """A seeded random point of Gr(k, n).  Every draw of rank below k is
    redrawn, so k and n are checked before the first draw."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    rng = random.Random(f"subspace:{k}:{n}:{seed}")
    while True:
        reduced, rk, _ = linalg.rref(random_matrix(k, n, rng))
        if rk == k:
            return Subspace(n, k, reduced)


def _model_bases(h: int, i: int, k: int, n: int) -> list[Matrix]:
    """Coordinate model of the stratum: fresh directions first, then tilts.

    H_1 takes the first k standard directions of the target span
    V = <e_0, ..., e_{i-1}>.  Later subspaces consume fresh directions of V
    until it is exhausted, topping up with already-used ones; afterwards
    distinctness comes from tilting e_0 toward e_k inside V, which leaves
    the sum untouched (i >= k+1 whenever tilts occur).
    """
    bases = [Matrix.unit_rows(range(k), n)]
    used = k
    tilt = 0
    for _ in range(h - 1):
        fresh = min(k, i - used)
        if fresh > 0:
            bases.append(Matrix.unit_rows([*range(used, used + fresh), *range(k - fresh)], n))
            used += fresh
        else:
            tilt += 1
            tilted = tuple((1, 0) if c == 0 else (tilt, 0) if c == k else (0, 0) for c in range(n))
            bases.append(Matrix._of(1, n, ((1, tilted),)).stack(Matrix.unit_rows(range(1, k), n)))
    return bases


def sample_configuration(s: StratumId, seed: SeedLike) -> Configuration:
    """A seeded configuration lying exactly in the stratum.

    A coordinate model with sum <e_0, ..., e_{i-1}> is moved by a seeded
    invertible rational change of coordinates g of C^n.  The model's
    points are pairwise distinct and g is invertible, so the moved points
    are too; Configuration checks it.
    """
    _require_nonempty(s)
    g = random_invertible(s.n, random.Random(f"config:{s.h}:{s.i}:{s.k}:{s.n}:{seed}"))
    points = tuple(_image(linalg._integer_rows(b), g) for b in _model_bases(s.h, s.i, s.k, s.n))
    return Configuration(s.h, s.k, s.n, points)


# ---------------------------------------------------------------------------
# wire formats


def subspace_to_json(v: Subspace) -> dict:
    return {"n": v.n, "k": v.k, "basis": linalg.matrix_to_json(v.basis)}


def subspace_from_json(data: dict) -> Subspace:
    """Parse, and canonicalize unless the basis already is the canonical
    one: k >= 1 rows of length n in canonical RREF (_canonical_pivots),
    as every file that sample -o writes holds, are taken as they are.
    The canonical form is unique, so both routes give the same Subspace;
    rank-deficient bases are rejected."""
    if not isinstance(data, dict):
        raise WireFormatError("a subspace must be an object with 'n', 'k' and 'basis'")
    n, k = (linalg._wire_count(data, key, "a subspace") for key in ("n", "k"))
    basis = linalg.matrix_from_json(_wire_field(data, "basis", "a subspace"))
    if basis.cols == n and basis.rows == k >= 1 and _canonical_pivots(basis) is not None:
        return Subspace(n, k, basis)
    sub = canonicalize(basis, n)
    if sub.k != k:
        raise WireFormatError(f"declared dimension {k} but basis has rank {sub.k}")
    return sub


def configuration_to_json(c: Configuration) -> dict:
    return {
        "h": c.h,
        "k": c.k,
        "n": c.n,
        "points": [subspace_to_json(p) for p in c.points],
    }


def configuration_from_json(data: dict) -> Configuration:
    """Parse a configuration; malformed data raises WireFormatError."""
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise WireFormatError("a configuration must be an object with a 'points' list")
    points = tuple(subspace_from_json(p) for p in data["points"])
    h, k, n = (linalg._wire_count(data, key, "a configuration") for key in ("h", "k", "n"))
    return Configuration(h, k, n, points)
