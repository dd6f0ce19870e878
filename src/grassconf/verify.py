"""Exact verification suites.

Three batch checks back the exact layer:

* check_dimension builds the differential of an explicit chart of a
  stratum at a sampled point, exactly over Q(i), and confirms that its
  rank is the predicted complex dimension i(n-i) + hk(i-k).  The chart is
  holomorphic, so no real Jacobian, float or step size is involved.
* check_adjacency produces an exact witness arbitrarily close to a given
  configuration inside a higher stratum, and confirms that small exact
  perturbations never lower the stratum.  Its chart metric is the
  largest |re| or |im| over the entries of the difference of two
  orthogonal projectors.  A stored basis is RREF, so one integer test
  (_moves_less_than) proves that a move keeps the rank and stays within a
  bound; witness and trial alike take the least t = a / (b 4^j) at which
  it holds, with j read off bit lengths (_shrunk).  A check with a tilt
  or a trial runs one rank-only elimination of the base stack M at its
  sum's pivot columns P (_eliminate_base); it names the rows that the
  rows before them span and ends on the determinant of the others.  At
  target j0 c is its own witness and no t is computed.  Otherwise the
  witness makes one move: the first target - j0 spanned rows are tilted
  toward unit vectors outside the sum, and one _rank_at_least proves the
  raised rank; no null space is computed.
  M is M[:, P] times the sum's RREF basis, so sigma_j0(M) >=
  sigma_min(M[:, P]), and a check with trials keeps one exact floor on
  sigma_j0(M)^2, j0 the base stratum.  Every trial's move is below
  h eps^2 / (1 + eps)^2, whatever it draws, so a floor above that proves
  every trial at once by Weyl's inequality (_certifies_every_trial), and
  each trial is recorded as passed with no seeding, no draws and no base
  gap.  The first floor is the determinant of the kept rows at P over
  their Frobenius norm (_det_floor), all integer arithmetic on the
  elimination's last pivot.  Only when it fails the certificate is the
  Gram floor (_sigma_floor, an elimination of [G | I]) built, once; the
  check keeps the larger of the two, and the certificate tests it.
  Trials run one at a time only past the certificate.  They stay within
  eps and half the smallest gap between base points.  One integer test
  per row (_far_apart) decides each base pair: it proves the gap at least
  2 eps, which leaves that minimum alone, without a projector.  Only a
  pair it cannot prove builds its points' projectors, as Gaussian-integer
  matrices over a positive integer, each at most once per check.  The
  floor, the bound, the draw count with each point's slice of the draws,
  and the scale's numerator and base make the check's one _TrialPlan,
  which no later check reuses.  A trial keeps only its own work: its
  seeded draws as bytes, their counts of zero draws (per point and in
  all), its scale draw (randint(1, 4096) restated by getrandbits),
  _shrunk and one integer comparison with the floor, keeping t = a/b as
  two integers.  A trial whose move t D has |t|^2 ||D||_F^2 below the
  floor keeps rank >= j0 by Weyl's inequality.  Past it, the trial
  builds its Z[i] rows by the witness's routine and a Fraction for t,
  and a drop is always decided by the exact pivot count.
* run_roundtrip_suite exercises the gamma/pr/eta trivializations on
  seeded samples of one stratum, entrywise over Q(i).  A case's chart is
  the first seeded one, centred in Gr(k, n) for k the chart dimension of
  its stratum's fibration (_strata.fibration), on which the case's own
  trivializing map succeeds; the inverse reuses the Q_V of that map's
  guard.  A case checks the base component (an eta base, of the chart's
  dimension, is the intersection exactly when it lies in both points),
  the one fiber fact no map decides, and the round trip.  The guards of
  pr_trivialize (direct sum), pr_untrivialize (a fiber subspace misses
  V0) and eta_fiber_lift (quotient pair in L0, in direct sum) decide the
  rest.
  A gamma case compares the base with the sample's sum, reduced once
  (Configuration.span), and checks that the fiber spans V0 without
  reducing the fiber's sum: every fiber point lies in V0 (one integer
  test per row on V0's RREF basis) and the fiber's stacked bases reach
  rank dim V0 (the mod-p certificate, with the exact pivot count as
  fallback).

Each case is a pure function of (parameters, seed, case index), so suites
can run in any order, or in parallel, with identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import lcm, prod
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from . import grassmann, linalg
from ._strata import Fibration, _require_arity, _require_nonempty, fibration
from .errors import (
    Factory,
    GrassconfError,
    NotComplementaryError,
    OutsideChartError,
    UnreachableError,
    record,
)
from .grassmann import Configuration, StratumId, Subspace
from .linalg import GInt, Matrix

if TYPE_CHECKING:
    from .fibrations import ChartPoint, Trivialization

SeedLike = Union[int, str]


@record(frozen=False)
class VerificationReport:
    suite: str
    cases: int = 0
    passed: int = 0
    failures: list[tuple[str, str]] = Factory(list)
    parameters: dict = Factory(dict)

    def record(self, seed: SeedLike, desc: Optional[str]) -> None:
        self.cases += 1
        if desc is None:
            self.passed += 1
        else:
            self.failures.append((str(seed), desc))

    @property
    def ok(self) -> bool:
        return self.passed == self.cases

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [{"seed": s, "desc": d} for s, d in self.failures],
            "params": self.parameters,
        }


# ---------------------------------------------------------------------------
# exact chart metric


# The metric runs on scaled Gaussian-integer arithmetic: for a basis B of
# Gaussian-integer rows the orthogonal projector is N / d with
# N = B^H (d G^-1 B), G = B B^H and d = det G, read off one kernel
# elimination, so distance comparisons never touch Fraction normalization.
# Scaling a row of B changes N and d but not N / d.  G and N are
# Hermitian, so only their upper triangles are computed and the lower
# ones are mirrored as conjugates; for the same reason a gap between two
# projectors reads the entries with r <= c only (|re| and |im| agree
# across the diagonal).


def _hermitian(upper: list[list[GInt]]) -> list[list[GInt]]:
    """The Hermitian matrix whose row r, from column r on, is upper[r]."""
    full: list[list[GInt]] = []
    for r, tail in enumerate(upper):
        full.append([(re, -im) for re, im in (row[r] for row in full)] + tail)
    return full


Projector = tuple[list[list[GInt]], int]


def _gram_solve(
    rows: Sequence[Sequence[GInt]], rhs: Sequence[Sequence[GInt]]
) -> Optional[tuple[int, list[list[GInt]]]]:
    """(d, d G^-1 rhs) with G = W W^H for the Z[i] rows W and d = det G > 0,
    from one elimination of [G | rhs]; None when the rows are dependent.

    G is positive semidefinite, so it is definite exactly when its columns
    are the pivots; then its leading minors are positive, no row is
    swapped, every step divides by a real previous pivot, and the
    elimination leaves [d I | d G^-1 rhs].
    """
    k = len(rows)
    conj = [[(re, -im) for re, im in row] for row in rows]
    gram = _hermitian([[linalg._gdot(a, b) for b in conj[r:]] for r, a in enumerate(rows)])
    grid = [g_row + list(r_row) for g_row, r_row in zip(gram, rhs)]
    d, pivots = linalg._integer_rref(grid)
    if pivots != tuple(range(k)):
        return None
    return d[0], [row[k:] for row in grid]


def _integer_projector(rows: Sequence[Sequence[GInt]]) -> Projector:
    """(N, d) with orthogonal projector N / d of the span of the independent
    Z[i] rows B, d > 0, from d G^-1 B (_gram_solve); dependent rows raise
    ArithmeticError."""
    solved = _gram_solve(rows, rows)
    if solved is None:
        raise ArithmeticError("rows must be independent, with a real positive Gram determinant")
    d, x = solved
    conj_cols = [[(re, -im) for re, im in col] for col in zip(*rows)]
    x_cols = list(zip(*x))
    return _hermitian([
        [linalg._gdot(ca, sb) for sb in x_cols[r:]] for r, ca in enumerate(conj_cols)
    ]), d


def _projector_gap(na, da, nb, db) -> int:
    """The largest |re| or |im| over the entries of N_a/d_a - N_b/d_b,
    scaled by d_a*d_b (an integer)."""
    worst = 0
    for r, (row_a, row_b) in enumerate(zip(na, nb)):
        for ea, eb in zip(row_a[r:], row_b[r:]):
            re = abs(ea[0] * db - eb[0] * da)
            im = abs(ea[1] * db - eb[1] * da)
            if re > worst:
                worst = re
            if im > worst:
                worst = im
    return worst


def _moves_less_than(size: int, a: int, b: int, bound: Fraction) -> bool:
    """Whether adding t * D, with t = a/b (b > 0, a and b not necessarily
    coprime) and size the sum of |d|^2 over D, to a basis whose k-th
    singular value is >= 1 (any RREF basis) keeps its rank and moves its
    projector by less than bound.  With e = |t| sqrt(size) < 1 the rank
    stays (Weyl) and the projector moves by at most e / (1 - e) (Wedin,
    BIT 12, 1972; Stewart & Sun, Matrix Perturbation Theory, 1990); with
    bound = p/q, that is < p/q iff a^2 size (p + q)^2 < p^2 b^2, which
    holds for (a, b) exactly when it holds for (a/g, b/g)."""
    p, q = bound.numerator, bound.denominator
    return a * a * size * (p + q) ** 2 < p * p * b * b


def subspace_distance(a: Subspace, b: Subspace) -> Fraction:
    """The largest |re| or |im| over the entries of P_a - P_b, the
    difference of the orthogonal projectors; rational-valued, zero iff the
    subspaces are equal."""
    if a.n != b.n:
        raise ValueError("subspaces are not comparable")
    na, da = _integer_projector(linalg._integer_rows(a.basis))
    nb, db = _integer_projector(linalg._integer_rows(b.basis))
    return Fraction(_projector_gap(na, da, nb, db), da * db)


def _far_apart(a: Subspace, b: Subspace, eps: Fraction) -> bool:
    """Whether one integer test per row of b's basis proves
    subspace_distance(a, b) >= 2 eps, with no projector.

    Let A = W / L be a's RREF basis at one scale L, P its pivot columns, F
    the others, and x = u / s a row of b's basis.  The residual
    y = x - x[:, P] A is zero on P, and for any z, x - z A is
    w = x[:, P] - z on P and w A[:, F] + y[:, F] on F; so the distance
    from x to a is at least ||y|| / (1 + ||A[:, F]||_F).  As P_b x = x,
    that distance, ||(P_a - P_b) x||, is at most ||P_a - P_b||_2 ||x||
    (the sin-theta argument; Wedin, BIT 12, 1972; Stewart & Sun, Matrix
    Perturbation Theory, 1990), and ||P_a - P_b||_2 <= ||P_a - P_b||_F
    <= sqrt(2) n g, g the largest |re| or |im| over the entries of
    P_a - P_b.  With (1 + f)^2 <= 2 (1 + f^2), g >= 2 eps holds when
    ||y||^2 >= 16 eps^2 n^2 ||x||^2 (1 + ||A[:, F]||_F^2), which at
    eps = p/q and Y = s L y = L u - u[:, P] W (grassmann._kernel_block) reads
    q^2 ||Y||^2 >= 16 p^2 n^2 ||u||^2 (L^2 + ||W[:, F]||_F^2).  False
    leaves the gap undecided; it never claims a gap below 2 eps.

    >>> a = grassmann.canonicalize(Matrix.from_rows([[1, 0]]), 2)
    >>> far = grassmann.canonicalize(Matrix.from_rows([[0, 1]]), 2)
    >>> near = grassmann.canonicalize(Matrix.from_rows([[1, Fraction(1, 10000)]]), 2)
    >>> _far_apart(a, far, Fraction(1, 1000)), _far_apart(a, near, Fraction(1, 1000))
    (True, False)
    """
    split = grassmann._pivot_split(a)
    _, _, scale, cols = split
    weight = scale * scale + sum(re * re + im * im for col in cols for re, im in col)
    p, q = eps.numerator, eps.denominator
    factor = 16 * p * p * a.n * a.n * weight
    for _, u in b.basis.zrows:
        residual = sum(re * re + im * im for re, im in grassmann._kernel_block(u, split))
        if q * q * residual >= factor * sum(re * re + im * im for re, im in u):
            return True
    return False


def configuration_distance(c1: Configuration, c2: Configuration) -> Fraction:
    if c1.h != c2.h or c1.n != c2.n:
        raise ValueError("configurations are not comparable")
    return max(subspace_distance(p, q) for p, q in zip(c1.points, c2.points))


# ---------------------------------------------------------------------------
# dimension of the strata via the exact chart tangent


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: entry (p * b.rows + q, x * b.cols + y) is
    a[p, x] * b[q, y]."""
    return Matrix._of(a.rows * b.rows, a.cols * b.cols, tuple(
        linalg._primitive(s * t, [
            (a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
            for a_re, a_im in u for b_re, b_im in v
        ])
        for s, u in a.zrows for t, v in b.zrows
    ))


def _chart_tangent(c: Configuration) -> Matrix:
    """Differential at c of the stratum's chart, exact over Q(i).

    The chart moves the sum V (RREF basis V, dimension i) by graph
    coordinates over its complement W, to V + Z W, and each point's
    coefficients C_j in V (k x i, the point's RREF basis H_j read at V's
    pivot columns) by graph coordinates over their complement Inner_j in
    C^i; point j is then spanned by B_j = C_j V, which is H_j at 0.  One
    row per complex coordinate: those of V, row-major, then those of each
    point in turn.  One column per affine coordinate of a point,
    X_j = B_j[:, P]^-1 B_j[:, N] with P and N the pivot and free columns
    of H_j, k x (n - k) row-major, point after point.

    Since H_j[:, P] = I, dX_j = dB_j[:, N] - dB_j[:, P] H_j[:, N], and no
    chart direction moves the columns P: they are pivot columns of V
    (H_j lies in V), a row of W is a unit row at a free column of V, and
    Inner_j[col] V is the row m of V for a free column m of C_j, zero at
    V's pivot column of every pivot of C_j.  So dX_j = dB_j[:, N].  V's
    coordinate (r, col) moves every point by dB_j = C_j[:, r] W[col], so
    its rows are C_j^T (x) W[:, N] in block j; point j's coordinate
    (r, col) moves point j alone by dB_j = e_r Inner_j[col] V, so its rows
    are I_k (x) (Inner_j V)[:, N] in block j and zero elsewhere.
    """
    h, k, n = c.h, c.k, c.n
    total = c.span
    i = total.k
    outer_dirs = Matrix.unit_rows(grassmann._free_columns(total), n)
    outer, inner = [], []
    for j, p in enumerate(c.points):
        free = grassmann._free_columns(p)
        coeff = p.basis.columns(total.pivots())
        inner_dirs = Matrix.unit_rows(grassmann._free_columns(Subspace(i, k, coeff)), i)
        block = Matrix.unit_rows([j], h)
        outer.append(_kron(block, _kron(coeff.transpose(), outer_dirs.columns(free))))
        inner.append(_kron(block, _kron(Matrix.identity(k), (inner_dirs @ total.basis).columns(free))))
    return reduce(Matrix.stack, inner, sum(outer[1:], outer[0]))


def _dimension_case(c: Configuration, s: StratumId) -> Optional[str]:
    tangent = _chart_tangent(c)
    expected = grassmann.stratum_dimension(s)
    if tangent.rows != expected:
        return f"chart has {tangent.rows} parameters, formula predicts {expected}"
    if linalg._rank_at_least(linalg._integer_rows(tangent), expected):
        return None
    return f"tangent rank {linalg.rank(tangent)} != dimension {expected}"


def check_dimension(s: StratumId, samples: int = 3, *, seed: SeedLike = 0) -> VerificationReport:
    """Exact verification of the dimension formula at sampled points.

    Each sample passes when the chart tangent at it, one row per complex
    chart coordinate, has rank i(n-i) + hk(i-k) over Q(i).  The chart is
    holomorphic, so this is half the real rank of its real Jacobian.

    >>> check_dimension(StratumId(2, 3, 2, 4), samples=2, seed=1).ok
    True
    """
    _require_count("samples", samples)
    _require_nonempty(s)
    if samples < 0:
        raise ValueError("samples must be >= 0")
    report = VerificationReport(
        suite="dimension",
        parameters={
            "h": s.h, "i": s.i, "k": s.k, "n": s.n,
            "samples": samples, "seed": str(seed),
        },
    )
    for idx in range(samples):
        case_seed = f"{seed}:{idx}"
        c = grassmann.sample_configuration(s, case_seed)
        report.record(case_seed, _dimension_case(c, s))
    return report


# ---------------------------------------------------------------------------
# adjacency of strata


ScaledRows = Sequence[linalg.ZRow]


def _eliminate_base(base: ScaledRows, pivots: Sequence[int]) -> tuple[GInt, tuple[int, ...]]:
    """(d, kept) from one rank-only elimination of the stored rows' columns
    at the pivots P of their sum: kept lists the rows that the rows before
    them do not span, and |d|, the last pivot, is |det V| for V the kept
    stored rows at P.  Each row x lies in the sum, so x is x[:, P] times
    its RREF basis, and scaling a row changes no span, so the stored rows
    at P serve."""
    return linalg._integer_rref([[v[j] for _, v in base] for j in pivots], reduce=False)


def _raise_stratum(
    points: Sequence[Subspace], total: Subspace, target_i: int, t: Fraction,
    kept: Sequence[int],
) -> Optional[list[Subspace]]:
    """Exact tilts raising total, the sum of the points, from its dimension
    j0 to target_i, or None if the check fails.

    The rows not in kept, from the stack's one rank-only elimination
    (_eliminate_base), are those that the rows before them span.  The
    first m = target_i - j0 of them are tilted by t, the j-th toward e_f,
    f the j-th free column of the sum.  The untilted rows still span the
    sum, and modulo the sum the tilted rows are t e_f, independent for
    t != 0.  So the rank rises by exactly m, a tilted point keeps
    dimension k and leaves the sum, and two tilted points differ modulo
    the sum; the three facts are checked.
    """
    pts = list(points)
    k, n = pts[0].k, pts[0].n
    rows = [row for p in pts for _, row in p.basis.zrows]
    spanned = [r for r in range(len(rows)) if r not in kept]
    directions: dict[int, list[list[GInt]]] = {}
    for r, fresh in zip(spanned, grassmann._free_columns(total)[:target_i - total.k]):
        m_idx, slot = divmod(r, k)
        direction = directions.setdefault(m_idx, [[(0, 0)] * n for _ in range(k)])
        direction[slot][fresh] = (1, 0)
    for m_idx, direction in directions.items():
        tilted = _perturbed_rows(pts[m_idx].basis.zrows, direction, t)
        rows[m_idx * k:(m_idx + 1) * k] = tilted
        pts[m_idx] = grassmann._canonical_span(tilted, n)
    raised = all(p.k == k for p in pts) and len(set(pts)) == len(pts)
    return pts if raised and linalg._rank_at_least(rows, target_i) else None


def _shrunk(size: int, a: int, b: int, bound: Fraction) -> int:
    """The least b 4^j, j >= 0, at which _moves_less_than(size, a, ., bound)
    holds.  Each step of j adds exactly four bits to the right side of its
    test, a^2 size (p + q)^2 < p^2 (b 4^j)^2: below the first j at which
    that side has as many bits as the left the test fails, and at j + 1 it
    holds, so the test is asked once, at b 4^j: b 4^(j+1) when it fails."""
    p, q = bound.numerator, bound.denominator
    lack = (a * a * size * (p + q) ** 2).bit_length() - (p * p * b * b).bit_length()
    b <<= 2 * max(0, -(-lack // 4))
    return b if _moves_less_than(size, a, b, bound) else 4 * b


def _perturbed_rows(
    base: ScaledRows, direction: Sequence[Sequence[GInt]], t: Fraction
) -> list[list[GInt]]:
    """Z[i] rows spanning the row space of basis + t * direction.

    base holds each basis row in its stored primitive form (s, s * row).
    With t = a/b the row b * (s * row) + a * s * d is s * b times the
    Q(i) row row + t * d, so the span, and with it the projector and the
    rank, is that of the Q(i) matrix.
    """
    a, b = t.numerator, t.denominator
    return [
        [(b * re + a * s * d_re, b * im + a * s * d_im)
         for (re, im), (d_re, d_im) in zip(row, d_row)]
        for (s, row), d_row in zip(base, direction)
    ]


# for the top byte b of a 32-bit word: _TOP_BITS maps b to its top two
# bits, b >> 6, and _TOP_BITS_THREE lists the bytes translate deletes first
_TOP_BITS = bytes(b >> 6 for b in range(256))
_TOP_BITS_THREE = bytes(range(192, 256))


def _unit_draws(rng: random.Random, count: int) -> bytes:
    """count values of rng.randint(-1, 1), each stored as value + 1.

    randint draws -1 + _randbelow(3): the top two bits of one 32-bit word,
    redrawn on 3.  getrandbits(32 m) fills its result with m such words,
    least significant first, so byte 4j + 3 of its little-endian bytes is
    the top byte of word j.  Each round keeps the words whose top bits are
    not 3, in order, and fetches one word per value still missing; the
    values and the generator state afterwards are those of count randint
    calls."""
    out = b""
    need = count
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        kept = words[3::4].translate(_TOP_BITS, _TOP_BITS_THREE)
        out += kept
        need -= len(kept)
    return out


def _det_floor(
    base: ScaledRows, pivots: Sequence[int], kept: Sequence[int], d: GInt
) -> tuple[int, int]:
    """(num, den) with num / den <= sigma_min^2 of B, the Q(i) matrix of the
    scaled Z[i] rows base[r], r in kept, read at the j columns pivots, from
    (d, kept) of _eliminate_base; (0, 1) when fewer than j rows are kept.

    At one scale L over the kept rows B = U / L, and |det U| is |d| times
    the product of L / s over their scales s.  B's j squared singular
    values multiply to |det B|^2, and by AM-GM the j - 1 largest multiply
    to at most (F / (j - 1))^(j - 1), F = ||B||_F^2 = ||U||_F^2 / L^2.  So
    sigma_min(B)^2 >= |det U|^2 (j - 1)^(j - 1) / (L^2 ||U||_F^(2(j - 1))).

    >>> base = [(1, ((1, 0), (0, 0))), (2, ((0, 0), (1, 0)))]
    >>> d, kept = _eliminate_base(base, (0, 1))
    >>> _det_floor(base, (0, 1), kept, d)
    (4, 20)
    >>> base = [(1, ((1, 0), (2, 1))), (2, ((2, 0), (4, 2)))]
    >>> d, kept = _eliminate_base(base, (0, 1))
    >>> _det_floor(base, (0, 1), kept, d)
    (0, 1)
    """
    j = len(pivots)
    if len(kept) < j:
        return 0, 1
    scale = lcm(*(base[r][0] for r in kept))
    weights = [(scale // base[r][0]) ** 2 for r in kept]
    size = sum(w * sum(re * re + im * im for re, im in (base[r][1][c] for c in pivots))
               for w, r in zip(weights, kept))
    det = (d[0] * d[0] + d[1] * d[1]) * prod(weights)
    return det * (j - 1) ** (j - 1), scale * scale * size ** (j - 1)


def _sigma_floor(rows: ScaledRows) -> tuple[int, int]:
    """(num, den) with num / den <= sigma_min^2 of the Q(i) matrix with
    rows v / s, for the scaled Z[i] rows (s, v); (0, 1) when they are
    dependent.  At one scale L that matrix is W / L.

    _gram_solve of [G | I], G = W W^H, gives d = det G and d G^-1.  For
    Hermitian positive definite G, lambda_min(G) >= 1 / ||G^-1||_inf, and
    |z| <= |re z| + |im z| bounds ||d G^-1||_inf by m, the largest row
    sum of |re| + |im|.  So d / (m L^2) <= lambda_min(G) / L^2, the
    smallest squared singular value of W / L.

    >>> _sigma_floor([(1, ((1, 0), (0, 0))), (1, ((0, 0), (1, 0)))])
    (1, 1)
    >>> _sigma_floor([(2, ((1, 0), (0, 0), (0, 0)))])
    (1, 4)
    >>> _sigma_floor([(1, ((1, 0), (2, 1))), (2, ((2, 0), (4, 2)))])
    (0, 1)
    """
    scale, ints = linalg._common_scale(rows)
    k = len(ints)
    solved = _gram_solve(ints, [[(int(r == col), 0) for col in range(k)] for r in range(k)])
    if solved is None:
        return 0, 1
    d, inverse = solved
    m = max(sum(abs(re) + abs(im) for re, im in row) for row in inverse)
    return d, m * scale * scale


def _certifies_every_trial(h: int, eps: Fraction, floor: tuple[int, int]) -> bool:
    """Whether floor, num / den <= sigma_j0^2 of the base stack, proves at
    once that no trial of a check of h points at eps lowers the stratum,
    whatever the trial draws.

    A trial's t = a / b passes _shrunk, so a^2 size (p + q)^2 < p^2 b^2 at
    its bound p / q <= eps, and it has at most h size nonzero draws; as
    x / (1 + x) grows with x, its move a^2 nonzero / b^2 is below
    h eps^2 / (1 + eps)^2.  So a floor with den > 0 and
    h P^2 den <= num (P + Q)^2, eps = P / Q, lies above every trial's
    move, and each trial is certified as _semicontinuity_trial would
    certify it (Weyl, Math. Ann. 71, 1912).  At h = 2 and eps = 5 the
    floor must reach 2 * 25 / 36 = 25 / 18; a floor of 0 never does:

    >>> _certifies_every_trial(2, Fraction(5), (25, 18))
    True
    >>> _certifies_every_trial(2, Fraction(5), (24, 18))
    False
    >>> _certifies_every_trial(2, Fraction(1, 1000), (0, 1))
    False
    """
    p, q = eps.numerator, eps.denominator
    num, den = floor
    return h * p * p * den <= num * (p + q) ** 2


class _TrialPlan(NamedTuple):
    """What every semicontinuity trial of one check shares, built once per
    check by check_adjacency, only when the check-wide certificate
    (_certifies_every_trial) does not cover the check, and dropped with it.

    base holds the points' stacked bases as scaled Z[i] rows, j0 =
    base_rank.  floor, num / den <= sigma_j0^2 of their stack, is the one
    the certificate failed: the larger of the determinant floor
    (_det_floor) and the Gram floor (_sigma_floor).  A trial draws
    count = 2hkn values, per_point of them for each point in the slices;
    its scale is t = eps_num * x / scale_base for x = randint(1, 4096),
    scale_base = 32768 * eps.denominator, before _shrunk raises the
    denominator toward bound."""

    base: ScaledRows
    base_rank: int
    n: int
    count: int
    per_point: int
    slices: tuple[tuple[int, int], ...]
    eps_num: int
    scale_base: int
    bound: Fraction
    floor: tuple[int, int]


def _semicontinuity_trial(plan: _TrialPlan, rng: random.Random) -> Optional[str]:
    """One seeded exact perturbation of chart-metric size < eps.

    Directions come from the {-1, 0, 1} lattice of Z[i]; the scale is
    randomized and then shrunk, as the witness's is, to the largest
    a / (b 4^j) at which _moves_less_than certifies every point's move
    below bound (_shrunk; at most eps and half the smallest base gap, so
    the points stay distinct).  The stack moves by t D, and
    ||t D||_2 <= |t| ||D||_F with ||D||_F^2 the count of nonzero draws; so
    with t = a/b and a floor num / den, a^2 ||D||_F^2 den < num b^2
    gives ||t D||_2 < sigma_j0, and by Weyl's inequality
    (sigma_j0(M + E) >= sigma_j0(M) - ||E||_2; Weyl, Math. Ann. 71, 1912)
    the stratum did not drop.  Past the plan's one floor, the exact rows
    decide by _rank_at_least.  A check runs its trials only when that
    floor does not cover the whole eps-ball at once
    (_certifies_every_trial), so a trial's own move is what it is
    compared with.
    Returns a failure description when the stratum drops, None otherwise.
    """
    draws = _unit_draws(rng, plan.count)
    # each draw is -1, 0 or 1 (stored as 0, 1 or 2), so a point's sum of
    # |d|^2 counts its nonzero draws
    size = plan.per_point - min(draws.count(1, lo, hi) for lo, hi in plan.slices)
    nonzero = plan.count - draws.count(1)
    # randint(1, 4096) as CPython draws it: 13 random bits, redrawn while
    # they reach 4096, plus 1
    x = rng.getrandbits(13)
    while x >= 4096:
        x = rng.getrandbits(13)
    # t = a/b unreduced, with b raised by _shrunk; the floor's test is
    # homogeneous in (a, b)
    a = plan.eps_num * (x + 1)
    b = _shrunk(size, a, plan.scale_base, plan.bound)
    num, den = plan.floor
    if a * a * nonzero * den < num * b * b:
        return None
    n = plan.n
    pairs = [(re - 1, im - 1) for re, im in zip(draws[::2], draws[1::2])]
    directions = [pairs[r:r + n] for r in range(0, len(pairs), n)]
    rows = _perturbed_rows(plan.base, directions, Fraction(a, b))
    if not linalg._rank_at_least(rows, plan.base_rank):
        return "stratum dropped under a perturbation of size < eps"
    return None


def _trial_bound(points: Sequence[Subspace], eps: Fraction) -> Fraction:
    """min(eps, half the smallest subspace_distance between two points).

    A pair that _far_apart proves at least 2 eps apart cannot lower the
    minimum; any other pair reads its gap off the points' projectors,
    each built at most once."""
    projector = cache(lambda j: _integer_projector([row for _, row in points[j].basis.zrows]))
    bound = eps
    for a, b in combinations(range(len(points)), 2):
        if not _far_apart(points[a], points[b], eps):
            (na, da), (nb, db) = projector(a), projector(b)
            bound = min(bound, Fraction(_projector_gap(na, da, nb, db), 2 * da * db))
    return bound


def _require_count(name: str, value: object) -> None:
    """Raise TypeError, naming the parameter, unless value is an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def check_adjacency(
    c: Configuration,
    target_i: int,
    eps: Fraction,
    trials: int = 0,
    seed: SeedLike = 0,
) -> VerificationReport:
    """Exact witness in the target stratum within eps of c, plus the
    semicontinuity counterpart: perturbations of size < eps are recorded
    as failures whenever they lower the stratum.  eps is an int or a
    Fraction, so that every bound stays exact."""
    if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
        raise TypeError(f"eps must be an int or a Fraction, not {type(eps).__name__}")
    _require_count("trials", trials)
    _require_count("target_i", target_i)
    eps = Fraction(eps)
    total = c.span
    j0 = total.k
    if not j0 <= target_i <= min(c.h * c.k, c.n):
        raise UnreachableError(
            f"target {target_i} is not reachable from stratum {j0}"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    report = VerificationReport(
        suite="adjacency",
        parameters={
            "h": c.h, "k": c.k, "n": c.n, "from": j0, "target_i": target_i,
            "eps": str(eps), "trials": trials, "seed": str(seed),
        },
    )
    # a witness point gets at most m = target_i - j0 unit tilts, a size of
    # at most m <= m^2; with m = 0 c itself is the witness
    m = target_i - j0
    if not (m or trials):
        report.record(f"{seed}:witness", None)
        return report
    base = [row for p in c.points for row in p.basis.zrows]
    pivots = total.pivots()
    d, kept = _eliminate_base(base, pivots)
    witness = not m or _raise_stratum(
        c.points, total, target_i,
        Fraction(eps.numerator, _shrunk(m * m, eps.numerator, eps.denominator * 8, eps)), kept,
    )
    report.record(f"{seed}:witness", None if witness else "no tilt slot raises the sum dimension")
    if not trials:
        return report
    # the trials' floor on sigma_j0^2 of the base stack M: each row lies in
    # the sum, whose RREF basis S is the identity at its pivot columns P,
    # so M = M[:, P] S with S S^H >= I, and sigma_j0(M) >= sigma_min(M[:, P]),
    # which is at least sigma_min of the kept rows at P
    floor = _det_floor(base, pivots, kept, d)
    covered = _certifies_every_trial(c.h, eps, floor)
    if not covered:
        scale, ints = linalg._common_scale(base)
        cols = list(zip(*ints))
        gram = _sigma_floor([(scale, cols[j]) for j in pivots])
        if gram[0] * floor[1] > floor[0] * gram[1]:
            floor, covered = gram, _certifies_every_trial(c.h, eps, gram)
    if covered:
        for idx in range(trials):
            report.record(f"{seed}:{idx}", None)
        return report
    per_point = 2 * c.k * c.n
    plan = _TrialPlan(
        base=base, base_rank=j0, n=c.n, count=c.h * per_point, per_point=per_point,
        slices=tuple((p * per_point, (p + 1) * per_point) for p in range(c.h)),
        eps_num=eps.numerator, scale_base=eps.denominator * 32768,
        bound=_trial_bound(c.points, eps),
        floor=floor,
    )
    for idx in range(trials):
        case_seed = f"{seed}:{idx}"
        desc = _semicontinuity_trial(plan, random.Random(f"adjacency:{case_seed}"))
        report.record(case_seed, desc)
    return report


# ---------------------------------------------------------------------------
# round-trip suites for the three fibrations; fibrations is imported
# where a case runs, so the dimension and adjacency suites never load it


DEFAULT_GRIDS = {
    "gamma": {"h": 2, "i": 3, "k": 2, "n": 5},
    "pr": {"h": 3, "k": 2, "n": 6},
    "eta": {"h": 2, "i": 3, "k": 2, "n": 4},
}


def _random_chart(
    c: Configuration, k: int, trivialize: Callable[..., ChartPoint], seed_tag: str
) -> Optional[tuple[Trivialization, ChartPoint]]:
    """(chart, trivialize(c, chart)) from the first seeded chart on which
    the case's own trivializing map succeeds.  Each attempt draws V0 from
    Gr(k, n), k the chart dimension in _strata.fibration, and L0 from
    Gr(n - k, n); the chart's projection raises NotComplementaryError when
    L0 meets V0.  Catching OutsideChartError is safe: on a configuration of
    its stratum only a map's guard raises it, as pr's coordinate solve
    cannot fail (I - Q_V + P carries the front's sum V onto V0; the last
    point misses V).  Randomizing the complement matters: the deterministic
    one is constant across generic base points, so a sample touching it
    would never find a chart by resampling the base alone."""
    from .fibrations import Trivialization

    for attempt in range(64):
        v0 = grassmann.sample_subspace(k, c.n, f"{seed_tag}:base:{attempt}")
        l0 = grassmann.sample_subspace(c.n - k, c.n, f"{seed_tag}:comp:{attempt}")
        try:
            triv = Trivialization.over(v0, l0)
            return triv, trivialize(c, triv)
        except (NotComplementaryError, OutsideChartError):  # L0 meets V0 or the map's base
            continue
    return None


def _gamma_case(fib, c, triv, point) -> Optional[str]:
    from . import fibrations

    if point.base != c.span:
        return "base component differs from the subspace sum"
    # the fiber spans V0 exactly when it lies in V0 and its stack reaches
    # rank dim V0, which the mod-p certificate proves without an rref
    fiber, v0 = point.fiber.points, triv.base_point
    if not (all(v0.contains(q) for q in fiber)
            and linalg._rank_at_least([row for q in fiber for _, row in q.basis.zrows], v0.k)):
        return "fiber does not span the chart base point"
    if fibrations.gamma_untrivialize(point, triv) != c:
        return "round trip failed (untrivialize o trivialize)"
    return None


def _pr_case(fib, c, triv, point) -> Optional[str]:
    from . import fibrations

    s = fib.stratum
    if point.base != Configuration(s.h - 1, s.k, s.n, c.points[:-1]):
        return "base component differs from the forgotten-last projection"
    if isinstance(point.fiber, Matrix) != (s.n == s.i):
        return "fiber is not chart coordinates exactly when n = hk"
    if fibrations.pr_untrivialize(point, triv) != c:
        return "round trip failed (untrivialize o trivialize)"
    return None


def _eta_case(fib, c, triv, point) -> Optional[str]:
    from . import fibrations

    # a base of the chart's dimension inside both points is H1 ∩ H2
    if not all(q.contains(point.base) for q in c.points):
        return "base component differs from the intersection"
    if any(q.k != fib.hands_on.k for q in point.fiber):
        return "quotient images have the wrong dimension"
    if fibrations.eta_fiber_lift(point, triv) != c:
        return "round trip failed (lift o fiber point)"
    return None


# each suite's map, looked up in fibrations when a case runs, and its checks
_SUITE_CASES: dict[str, tuple[str, Callable[..., Optional[str]]]] = {
    "gamma": ("gamma_trivialize", _gamma_case),
    "pr": ("pr_trivialize", _pr_case),
    "eta": ("eta_fiber_point", _eta_case),
}


def _check_grid_point(which: str, params: dict) -> Fibration:
    """The fibration a grid point's cases run; arity first, as h and k may name no stratum."""
    h, k, n = params["h"], params["k"], params["n"]
    _require_arity(which, h)
    return fibration(which, StratumId(h, h * k if which == "pr" else params["i"], k, n))


def run_roundtrip_suite(
    which: str,
    grid: Optional[dict] = None,
    cases: int = 100,
    seed: SeedLike = 0,
) -> VerificationReport:
    """Exercise one fibration's trivialization on seeded samples of one
    stratum.

    ``grid`` maps each parameter name of the suite's DEFAULT_GRIDS entry
    to an int, None to that entry; every case samples the stratum it
    names.  Before the first case a grid key the suite needs and lacks or
    does not use raises ValueError ({} lacks every key), a value that is
    not an int raises TypeError naming the key in sorted key order (a
    list, tuple or range too: ``grid['i'] must be an int, not list``), and
    a grid point that no case could pass raises the GrassconfError of
    _strata.fibration; a case's failure is recorded in the report, never
    raised.
    """
    from . import fibrations

    _require_count("cases", cases)
    if which not in _SUITE_CASES:
        raise ValueError(f"unknown suite {which!r}; pick gamma, pr, or eta")
    if cases < 0:
        raise ValueError("cases must be >= 0")
    grid = DEFAULT_GRIDS[which] if grid is None else grid
    missing = set(DEFAULT_GRIDS[which]) - set(grid)
    if missing:
        raise ValueError(f"grid for {which} is missing {sorted(missing)}")
    unknown = [key for key in grid if key not in DEFAULT_GRIDS[which]]
    if unknown:
        raise ValueError(f"grid for {which} has unknown keys {unknown}")
    for key in sorted(grid):
        _require_count(f"grid[{key!r}]", grid[key])
    fib = _check_grid_point(which, grid)
    name, checks = _SUITE_CASES[which]
    report = VerificationReport(
        suite=which,
        parameters={"grid": dict(grid), "cases": cases, "seed": str(seed)},
    )
    for idx in range(cases):
        case_seed = f"{seed}:{idx}"
        try:
            c = grassmann.sample_configuration(fib.stratum, case_seed)
            found = _random_chart(c, fib.chart_dim, getattr(fibrations, name), case_seed)
            desc = (checks(fib, c, *found) if found
                    else "no chart found containing the sample")
        except GrassconfError as exc:
            desc = f"{type(exc).__name__}: {exc}"
        report.record(case_seed, desc)
    return report
