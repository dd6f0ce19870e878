"""Numerical and constructive verification suites.

Three batch checks back the exact layer:

* check_dimension drives an explicit chart of a stratum with float
  arithmetic and confirms that the finite-difference Jacobian has real
  rank twice the predicted complex dimension i(n-i) + hk(i-k).
* check_adjacency produces an exact witness arbitrarily close to a given
  configuration inside a higher stratum, and confirms that small exact
  perturbations never lower the stratum.  Its chart metric compares
  orthogonal projectors as Gaussian-integer matrices over a positive
  integer, each from one call of the linalg elimination kernel; both the
  Gram matrix and the projector are Hermitian, so only their upper
  triangles are computed and compared.  The witness and the perturbation
  trials both stay in Z[i]: each tilted or perturbed basis is built as
  integer rows by the same routine, and both test the distance bound
  with the same integer comparison against the base point's projectors,
  computed once per check.  A witness step finds every redundant basis
  vector from one left null space of the stacked bases.  The trials'
  final rank check first tries a mod-p rank certificate, which can only
  prove that the rank did not drop; a drop is always decided by the
  kernel's exact pivot count.
* run_roundtrip_suite exercises the gamma/pr/eta trivializations on
  seeded samples, entrywise over Q(i).

Each case is a pure function of (parameters, seed, case index), so suites
can run in any order, or in parallel, with identical reports.

The float layer of check_dimension runs on Python complex and float
values in lists of rows: its matrices are a few dozen entries wide, where
list arithmetic costs less than loading numpy, which the package does not
use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence, Union

from . import fibrations, grassmann, linalg
from .errors import (
    DirectSumError,
    EmptyStratumError,
    GrassconfError,
    NotComplementaryError,
    UnreachableError,
    WrongArityError,
)
from .fibrations import Trivialization
from .grassmann import Configuration, StratumId, Subspace
from .linalg import GInt, Matrix

SeedLike = Union[int, str]

FD_STEPS = (1e-4, 1e-5)


@dataclass
class VerificationReport:
    suite: str
    cases: int = 0
    passed: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

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
# elimination, so distance comparisons never touch Fraction normalization
# (the hot path of the perturbation suites).  Scaling a row of B changes
# N and d but not N / d.  G and N are Hermitian, so only their upper
# triangles are computed and the lower ones are mirrored as conjugates;
# for the same reason a gap or an equality test between two projectors
# reads the entries with r <= c only (|re| and |im| agree across the
# diagonal).


def _hermitian(upper: list[list[GInt]]) -> list[list[GInt]]:
    """The Hermitian matrix whose row r, from column r on, is upper[r]."""
    full: list[list[GInt]] = []
    for r, tail in enumerate(upper):
        full.append([(re, -im) for re, im in (row[r] for row in full)] + tail)
    return full


Projector = tuple[list[list[GInt]], int]


def _integer_projector(rows: Sequence[Sequence[GInt]]) -> Projector:
    """(N, d) with orthogonal projector N / d of the span of the Z[i] rows;
    d > 0 iff the rows are independent (d = 0 signals a rank drop).

    One elimination of [G | B] leaves [d I | d G^-1 B] with d = det G:
    G is positive definite, so its leading minors are the pivots.
    """
    k = len(rows)
    conj = [[(re, -im) for re, im in row] for row in rows]
    gram = _hermitian([[linalg._gdot(a, b) for b in conj[r:]] for r, a in enumerate(rows)])
    grid = [g_row + list(a) for g_row, a in zip(gram, rows)]
    (d, d_im), pivots = linalg._integer_rref(grid)
    # rank [G | B] = rank B, so a rank drop shows as fewer than k pivots
    if len(pivots) < k:
        return [], 0
    if d_im or d <= 0:
        raise ArithmeticError("Gram determinant must be real and positive")
    solved = list(zip(*(row[k:] for row in grid)))
    return _hermitian([
        [linalg._gdot(ca, sb) for sb in solved[r:]] for r, ca in enumerate(zip(*conj))
    ]), d


def _projector_gap(na, da, nb, db) -> int:
    """max-entry of |N_a/d_a - N_b/d_b| scaled by d_a*d_b (an integer)."""
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


def _same_projector(na, da, nb, db) -> bool:
    """Whether N_a/d_a == N_b/d_b; stops at the first entry that differs."""
    for r, (row_a, row_b) in enumerate(zip(na, nb)):
        for (a_re, a_im), (b_re, b_im) in zip(row_a[r:], row_b[r:]):
            if a_re * db != b_re * da or a_im * db != b_im * da:
                return False
    return True


def _within(projector: Projector, base: Projector, eps: Fraction) -> bool:
    """Whether the chart-metric distance of the projectors N/d is < eps."""
    (na, da), (nb, db) = projector, base
    return _projector_gap(na, da, nb, db) * eps.denominator < eps.numerator * da * db


def subspace_distance(a: Subspace, b: Subspace) -> Fraction:
    """Max-entry distance of orthogonal projectors; rational-valued, zero
    iff the subspaces are equal."""
    if a.n != b.n:
        raise ValueError("subspaces are not comparable")
    na, da = _integer_projector(linalg._integer_rows(a.basis))
    nb, db = _integer_projector(linalg._integer_rows(b.basis))
    return Fraction(_projector_gap(na, da, nb, db), da * db)


def configuration_distance(c1: Configuration, c2: Configuration) -> Fraction:
    if c1.h != c2.h or c1.n != c2.n:
        raise ValueError("configurations are not comparable")
    return max(subspace_distance(p, q) for p, q in zip(c1.points, c2.points))


# ---------------------------------------------------------------------------
# dimension of the strata via float chart rank


def matrix_to_complex(m: Matrix) -> list[list[complex]]:
    """The entries of m as rows of Python complex numbers."""
    return [[e.to_complex() for e in row] for row in m.entries]


def float_rank(a: Sequence[Sequence[float]], tol: float) -> int:
    """Rank with a relative pivot threshold after row-scaling.

    a is any sequence of real rows, a 2-d numpy array included.  Rows are
    scaled to unit max-norm, then eliminated with full pivoting; a pivot
    below tol ends the count.  A row whose entry in the pivot column is
    zero is left as it is: its update would change at most the sign of a
    zero.
    """
    m: list[list[float]] = []
    for row in a:
        row = [float(x) for x in row]
        norm = max(map(abs, row), default=0.0)
        if norm > 0.0:
            m.append([x / norm for x in row])
    # peaks[r] is the largest magnitude in m[r]
    peaks = [1.0] * len(m)
    rank = 0
    while m and m[0]:
        # the pivot is the first entry of largest magnitude in row-major order
        top = max(peaks)
        r = peaks.index(top)
        row = m.pop(r)
        del peaks[r]
        c = [abs(x) for x in row].index(top)
        pivot = row[c]
        if abs(pivot) <= tol:
            break
        rank += 1
        scaled = [x / pivot for x in row]
        del scaled[c]
        for idx, row in enumerate(m):
            f = row.pop(c)
            if f:
                m[idx] = row = [x - f * p for x, p in zip(row, scaled)]
                peaks[idx] = max(map(abs, row), default=0.0)
    return rank


def _product(
    a: Sequence[Sequence[complex]], b_cols: Sequence[Sequence[complex]]
) -> list[list[complex]]:
    """a @ b for the matrix b given by its columns."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def _solve(a: list[list[complex]], b: list[list[complex]]) -> list[list[complex]]:
    """x with a @ x = b for a square nonsingular a: Gaussian elimination
    with partial pivoting on |re| + |im|, the pivot choice of LAPACK's gesv."""
    k = len(a)
    rows = [ar + br for ar, br in zip(a, b)]
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(rows[r][c].real) + abs(rows[r][c].imag))
        rows[c], rows[p] = rows[p], rows[c]
        top = rows[c]
        for r in range(c + 1, k):
            f = rows[r][c] / top[c]
            rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    x: list[list[complex]] = [[] for _ in range(k)]
    for r in reversed(range(k)):
        row = rows[r]
        acc = row[k:]
        for c in range(r + 1, k):
            acc = [v - row[c] * w for v, w in zip(acc, x[c])]
        x[r] = [v / row[r] for v in acc]
    return x


def _projector_parts(
    coeff: list[list[complex]], space_cols: Sequence[Sequence[complex]]
) -> list[float]:
    """Real parts, then imaginary parts, row by row, of the orthogonal
    projector onto the row space of coeff @ V, with V given by its columns."""
    basis = _product(coeff, space_cols)
    conj = [[z.conjugate() for z in row] for row in basis]
    x = _solve(_product(basis, conj), basis)
    proj = _product(list(zip(*conj)), list(zip(*x)))
    return [z.real for row in proj for z in row] + [z.imag for row in proj for z in row]


def _coefficients_in(v: Subspace, p: Subspace) -> Matrix:
    """Rows of p expressed in the basis of the enclosing subspace v."""
    return linalg.solve(v.basis.transpose(), p.basis.transpose()).transpose()


ChartMap = Callable[[int, float], list[Optional[list[float]]]]


def _chart_map(c: Configuration) -> tuple[ChartMap, int]:
    """Float chart of the stratum at c.

    Parameters move the sum V inside Gr(i, n) by graph coordinates and
    each subspace inside V by graph coordinates; the value is the stacked
    real/imaginary parts of the h orthogonal projector matrices.  The
    parameters are the real parts of the complex coordinates, then their
    imaginary parts; the coordinates are those of V, then those of each
    subspace in turn.

    Returns (map, parameter count).  map(p, t) is the chart at t times the
    p-th unit vector, one entry per subspace: the parts of its projector,
    or None where parameter p does not move it (the coordinates of a
    subspace inside V move that subspace only).
    """
    h, k, n = c.h, c.k, c.n
    total = grassmann.subspace_sum(c.points)
    i = total.k
    vb = matrix_to_complex(total.basis)
    wb = matrix_to_complex(grassmann.complement(total).basis) if i < n else []
    coeffs = []
    inner_complements = []
    for p in c.points:
        coeff = _coefficients_in(total, p)
        coeffs.append(matrix_to_complex(coeff))
        if k < i:
            inner = grassmann.complement(grassmann.canonicalize(coeff, i))
            inner_complements.append(matrix_to_complex(inner.basis))
    n_outer = i * (n - i)
    n_inner = k * (i - k)
    n_complex = n_outer + h * n_inner
    vb_cols = list(zip(*vb))

    def chart(p: int, t: float) -> list[Optional[list[float]]]:
        q, z = (p, complex(t, 0.0)) if p < n_complex else (p - n_complex, complex(0.0, t))
        if q < n_outer:
            r, col = divmod(q, n - i)
            va = list(vb)
            va[r] = [v + z * w for v, w in zip(vb[r], wb[col])]
            va_cols = list(zip(*va))
            return [_projector_parts(cj, va_cols) for cj in coeffs]
        j, q = divmod(q - n_outer, n_inner)
        r, col = divmod(q, i - k)
        cj = list(coeffs[j])
        cj[r] = [v + z * w for v, w in zip(cj[r], inner_complements[j][col])]
        parts: list[Optional[list[float]]] = [None] * h
        parts[j] = _projector_parts(cj, vb_cols)
        return parts

    return chart, 2 * n_complex


def _fd_jacobian(f: ChartMap, n_params: int, step: float) -> list[list[float]]:
    """Central-difference Jacobian at 0, parameters as rows.

    A block that f leaves as None does not move with the parameter, so its
    part of the row is 0.0, the difference of two equal values.
    """
    scale = 2.0 * step
    rows = []
    for p in range(n_params):
        plus, minus = f(p, step), f(p, -step)
        width = len(next(part for part in plus if part is not None))
        row: list[float] = []
        for a, b in zip(plus, minus):
            row.extend([0.0] * width if a is None else [(x - y) / scale for x, y in zip(a, b)])
        rows.append(row)
    return rows


def _dimension_case(c: Configuration, s: StratumId, tol: float) -> Optional[str]:
    chart, n_params = _chart_map(c)
    expected = 2 * grassmann.stratum_dimension(s)
    if n_params != expected:
        return f"chart has {n_params} parameters, formula predicts {expected}"
    ranks = [float_rank(_fd_jacobian(chart, n_params, step), tol) for step in FD_STEPS]
    if ranks[0] != ranks[1]:
        return f"step sizes disagree on the rank: {ranks[0]} vs {ranks[1]}"
    if ranks[0] != expected:
        return f"chart rank {ranks[0]} != 2 * dimension {expected}"
    return None


def check_dimension(
    s: StratumId,
    samples: int = 3,
    tol: float = 1e-6,
    seed: SeedLike = 0,
) -> VerificationReport:
    """Float-rank verification of the dimension formula at sampled points."""
    if not grassmann.is_stratum_nonempty(s):
        raise EmptyStratumError(f"{s} is empty")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    report = VerificationReport(
        suite="dimension",
        parameters={
            "h": s.h, "i": s.i, "k": s.k, "n": s.n,
            "samples": samples, "tol": tol, "steps": list(FD_STEPS),
            "seed": str(seed),
        },
    )
    for idx in range(samples):
        case_seed = f"{seed}:{idx}"
        c = grassmann.sample_configuration(s, case_seed)
        report.record(case_seed, _dimension_case(c, s, tol))
    return report


# ---------------------------------------------------------------------------
# adjacency of strata


ScaledRows = Sequence[linalg.ZRow]


def _raise_stratum(
    points: Sequence[Subspace], current: int, target_i: int, t: Fraction
) -> Optional[list[Subspace]]:
    """Greedy exact tilts: nudge redundant basis vectors toward fresh
    directions until the sum of the points, of dimension current, reaches
    target_i.  Each step provably raises the rank by one; the exact checks
    below are guards.

    A step tries the rows of the stacked bases in order.  Row r is
    redundant iff some left null vector of the stack is nonzero at r; it
    is tilted by t toward the first standard direction outside the sum.
    """
    pts = list(points)
    k, n = pts[0].k, pts[0].n
    while current < target_i:
        stacked = linalg.stack_all(p.basis for p in pts)
        pivots = linalg.rref(stacked).pivots
        fresh = next(col for col in range(n) if col not in pivots)
        null = linalg.kernel(stacked.transpose())
        redundant = {r for _, y in null.zrows for r, part in enumerate(y) if part != (0, 0)}
        for r in sorted(redundant):
            m_idx, slot = divmod(r, k)
            direction = [[(0, 0)] * n for _ in range(k)]
            direction[slot][fresh] = (1, 0)
            rows = _perturbed_rows(pts[m_idx].basis.zrows, direction, t)
            tilted = grassmann.canonicalize(
                Matrix._of(k, n, tuple((1, tuple(row)) for row in rows)), n
            )
            if tilted.k != k:
                continue
            trial = pts[:m_idx] + [tilted] + pts[m_idx + 1:]
            if any(trial[a] == trial[b] for a in range(len(trial)) for b in range(a + 1, len(trial))):
                continue
            if linalg.rank(linalg.stack_all(p.basis for p in trial)) != current + 1:
                continue
            pts = trial
            current += 1
            break
        else:
            return None
    return pts


def _adjacency_witness(
    c: Configuration, j0: int, target_i: int, eps: Fraction, cached: Sequence[Projector]
) -> Optional[str]:
    """None when an exact configuration of stratum target_i lies within eps
    of c, else a failure description.  c lies in stratum j0, and cached
    holds the projectors of its points."""
    if j0 == target_i:
        return None
    t = eps / 8
    for _ in range(80):
        pts = _raise_stratum(c.points, j0, target_i, t)
        if pts is None:
            return "no tilt slot raises the sum dimension"
        if all(
            q == p or _within(_integer_projector(linalg._integer_rows(q.basis)), base, eps)
            for p, q, base in zip(c.points, pts, cached)
        ):
            return None
        t = t / 4
    return "could not meet the distance bound"


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


def _unit_draws(rng: random.Random, count: int) -> list[int]:
    """count values of rng.randint(-1, 1), drawn as randint draws them:
    -1 + _randbelow(3), two random bits redrawn on 3.  The values and the
    generator state afterwards are those of count randint calls."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(2)
        while r == 3:
            r = getrandbits(2)
        out.append(r - 1)
    return out


def _semicontinuity_trial(
    c: Configuration,
    base_rank: int,
    base: Sequence[ScaledRows],
    cached: Sequence[Projector],
    eps: Fraction,
    rng: random.Random,
) -> Optional[str]:
    """One seeded exact perturbation of chart-metric size < eps.

    Directions come from the {-1, 0, 1} lattice of Z[i]; the scale is
    randomized and then shrunk until the distance bound and nondegeneracy
    hold.  base holds each point's basis as scaled Z[i] rows and cached
    its projector.  Returns a failure description when the stratum drops,
    None otherwise.
    """
    h, k, n = c.h, c.k, c.n
    draws = iter(_unit_draws(rng, 2 * h * k * n))
    pairs = list(zip(draws, draws))
    directions = [[pairs[r * n:(r + 1) * n] for r in range(p * k, (p + 1) * k)] for p in range(h)]
    t = eps * Fraction(rng.randint(1, 4096), 4096) / 8
    for _ in range(80):
        raw = [_perturbed_rows(rows, d, t) for rows, d in zip(base, directions)]
        projectors = [_integer_projector(rows) for rows in raw]
        degenerate = any(d == 0 for _, d in projectors) or any(
            _same_projector(*projectors[a], *projectors[b])
            for a in range(h) for b in range(a + 1, h)
        )
        if degenerate:
            t = t / 4
            continue
        if not all(_within(p, base, eps) for p, base in zip(projectors, cached)):
            t = t / 4
            continue
        stacked = [row for rows in raw for row in rows]
        if not linalg._rank_at_least(stacked, base_rank):
            return "stratum dropped under a perturbation of size < eps"
        return None
    return "could not build a perturbation inside the bound"


def check_adjacency(
    c: Configuration,
    target_i: int,
    eps: Fraction,
    trials: int = 0,
    seed: SeedLike = 0,
) -> VerificationReport:
    """Exact witness in the target stratum within eps of c, plus the
    semicontinuity counterpart: perturbations of size < eps are recorded
    as failures whenever they lower the stratum."""
    j0 = grassmann.stratum_of(c)
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
    base = [p.basis.zrows for p in c.points]
    cached = [_integer_projector([row for _, row in rows]) for rows in base]
    report.record(f"{seed}:witness", _adjacency_witness(c, j0, target_i, eps, cached))
    for idx in range(trials):
        case_seed = f"{seed}:{idx}"
        desc = _semicontinuity_trial(
            c, j0, base, cached, eps, random.Random(f"adjacency:{case_seed}")
        )
        report.record(case_seed, desc)
    return report


# ---------------------------------------------------------------------------
# round-trip suites for the three fibrations


DEFAULT_GRIDS = {
    "gamma": {"h": 2, "i": 3, "k": 2, "n": 5},
    "pr": {"h": 3, "k": 2, "n": 6},
    "eta": {"h": 2, "i": 3, "k": 2, "n": 4},
}


def _expand_grid(grid: dict) -> list[dict]:
    keys = sorted(grid)
    combos: list[dict] = [{}]
    for key in keys:
        value = grid[key]
        values = list(value) if isinstance(value, (list, tuple, range)) else [value]
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    return combos


def _random_chart(
    over: Subspace, seed_tag: str, sample_base: Callable[[int], Subspace]
) -> Optional[Trivialization]:
    """A trivialization with seeded random base point AND complement whose
    chart contains ``over``; sample_base(attempt) draws the base point of
    each attempt.  Randomizing the complement matters: the deterministic
    one is constant across generic base points, so a sample touching it
    would never find a chart by resampling the base alone."""
    n = over.n
    for attempt in range(64):
        v0 = sample_base(attempt)
        l0 = grassmann.sample_subspace(n - v0.k, n, f"{seed_tag}:comp:{attempt}")
        if linalg.rank(over.basis.stack(l0.basis)) != n:
            continue
        try:
            return Trivialization.over(v0, l0)
        except NotComplementaryError:  # V0 meets L0
            continue
    return None


def _gamma_case(params: dict, case_seed: str) -> Optional[str]:
    h, i, k, n = params["h"], params["i"], params["k"], params["n"]
    c = grassmann.sample_configuration(StratumId(h, i, k, n), case_seed)
    total = grassmann.subspace_sum(c.points)
    triv = _random_chart(
        total, case_seed,
        lambda attempt: grassmann.sample_subspace(i, n, f"{case_seed}:base:{attempt}"),
    )
    if triv is None:
        return "no chart found containing the sample"
    point = fibrations.gamma_trivialize(c, triv)
    if point.base != total:
        return "base component differs from the subspace sum"
    fiber = point.fiber
    if grassmann.subspace_sum(fiber.points) != triv.base_point:
        return "fiber does not span the chart base point"
    if grassmann.stratum_of(fiber) != i:
        return "fiber stratum index changed"
    back = fibrations.gamma_untrivialize(point, triv)
    if back != c:
        return "round trip failed (untrivialize o trivialize)"
    again = fibrations.gamma_trivialize(back, triv)
    if again != point:
        return "round trip failed (trivialize o untrivialize)"
    return None


def _pr_case(params: dict, case_seed: str) -> Optional[str]:
    h, k, n = params["h"], params["k"], params["n"]
    c = grassmann.sample_configuration(StratumId(h, h * k, k, n), case_seed)
    front = fibrations.pr_forget_last(c)
    base_stratum = StratumId(h - 1, (h - 1) * k, k, n)
    triv = _random_chart(
        grassmann.subspace_sum(front.points), case_seed,
        lambda attempt: grassmann.subspace_sum(
            grassmann.sample_configuration(base_stratum, f"{case_seed}:cfg:{attempt}").points
        ),
    )
    if triv is None:
        return "no chart found containing the sample"
    point = fibrations.pr_trivialize(c, triv)
    if point.base != front:
        return "base component differs from the forgotten-last projection"
    if grassmann.stratum_of(point.base) != (h - 1) * k:
        return "base stratum index is wrong"
    if isinstance(point.fiber, Matrix):
        if n != h * k:
            return "chart coordinates returned although n > hk"
        image = fibrations.chart_point(point.fiber, triv.base_point)
        if linalg.rank(image.basis.stack(triv.base_point.basis)) != n:
            return "fiber is not complementary to the chart base point"
    else:
        image = point.fiber
        if grassmann.intersection_dim(image, triv.base_point) != 0:
            return "fiber image meets the chart base point"
    back = fibrations.pr_untrivialize(point, triv)
    if back != c:
        return "round trip failed (untrivialize o trivialize)"
    again = fibrations.pr_trivialize(back, triv)
    if again != point:
        return "round trip failed (trivialize o untrivialize)"
    return None


def _eta_case(params: dict, case_seed: str) -> Optional[str]:
    k, i, n = params["k"], params["i"], params["n"]
    c = grassmann.sample_configuration(StratumId(2, i, k, n), case_seed)
    inter = fibrations.eta(c)
    if inter.k != 2 * k - i:
        return "intersection dimension differs from 2k - i"
    triv = _random_chart(
        inter, case_seed,
        lambda attempt: grassmann.sample_subspace(2 * k - i, n, f"{case_seed}:base:{attempt}"),
    )
    if triv is None:
        return "no chart found containing the sample"
    point = fibrations.eta_fiber_point(c, triv)
    if point.base != inter:
        return "base component differs from the intersection"
    first, second = point.fiber
    if first.k != i - k or second.k != i - k:
        return "quotient images have the wrong dimension"
    if not (triv.complement.contains(first) and triv.complement.contains(second)):
        return "quotient images do not lie in the chart complement"
    if grassmann.intersection_dim(first, second) != 0:
        return "quotient images are not in direct sum"
    if grassmann.subspace_sum([first, second]).k != 2 * (i - k):
        return "quotient pair is not in the direct-sum stratum"
    back = fibrations.eta_fiber_lift(point, triv)
    if back != c:
        return "round trip failed (lift o fiber point)"
    again = fibrations.eta_fiber_point(back, triv)
    if again != point:
        return "round trip failed (fiber point o lift)"
    return None


def _check_grid_point(which: str, params: dict) -> None:
    """Raise the GrassconfError that every case of this grid point would
    record: the sampled stratum is empty, or the fibration does not apply."""
    k, n = params["k"], params["n"]
    if which == "pr":
        if params["h"] < 2:
            raise WrongArityError("need at least two subspaces to forget one")
        s = StratumId(params["h"], params["h"] * k, k, n)
    else:
        s = StratumId(params["h"] if which == "gamma" else 2, params["i"], k, n)
    if not grassmann.is_stratum_nonempty(s):
        raise EmptyStratumError(f"{s} is empty")
    if which == "eta" and s.i == 2 * k:
        raise DirectSumError(f"{s} is in direct sum; the intersection is zero")


_SUITE_CASES: dict[str, Callable[[dict, str], Optional[str]]] = {
    "gamma": _gamma_case,
    "pr": _pr_case,
    "eta": _eta_case,
}


def run_roundtrip_suite(
    which: str,
    grid: Optional[dict] = None,
    cases: int = 100,
    seed: SeedLike = 0,
) -> VerificationReport:
    """Exercise one fibration's trivialization on seeded samples.

    ``grid`` maps parameter names to a value or list of values; cases
    cycle through the combinations.  A combination that no case could
    pass (an empty stratum, pr with h < 2, eta on a direct sum) raises its
    GrassconfError before the first case; the failures of the cases
    themselves are recorded in the report, never raised.
    """
    if which not in _SUITE_CASES:
        raise ValueError(f"unknown suite {which!r}; pick gamma, pr, or eta")
    if cases < 0:
        raise ValueError("cases must be >= 0")
    grid = grid or DEFAULT_GRIDS[which]
    missing = set(DEFAULT_GRIDS[which]) - set(grid)
    if missing:
        raise ValueError(f"grid for {which} is missing {sorted(missing)}")
    combos = _expand_grid(grid)
    if not combos:
        raise ValueError("empty parameter grid")
    for params in combos:
        _check_grid_point(which, params)
    case_fn = _SUITE_CASES[which]
    grid_json = {
        key: list(value) if isinstance(value, (list, tuple, range)) else value
        for key, value in grid.items()
    }
    report = VerificationReport(
        suite=which,
        parameters={"grid": grid_json, "cases": cases, "seed": str(seed)},
    )
    for idx in range(cases):
        params = combos[idx % len(combos)]
        case_seed = f"{seed}:{idx}"
        try:
            desc = case_fn(params, case_seed)
        except GrassconfError as exc:
            desc = f"{type(exc).__name__}: {exc}"
        report.record(case_seed, desc)
    return report
