"""The three fibrations of sum-dimension strata, with exact trivializations.

Each fibration is trivialized over a chart: a base point V0 with a fixed
complement L0.  Every chart map is a sum or product of P, the projection
onto V0 along L0, and Q_V, the projection onto the base V along L0:

* gamma sends a configuration to the sum V of its subspaces; P carries the
  configuration into V0, and Q_V carries it back onto V.
* pr forgets the last subspace of a direct-sum configuration; the fiber
  point is the image of the forgotten subspace under I - Q_V + P, which
  agrees with P on the base sum V and fixes L0; Q_V + I - P undoes it.
* eta sends a pair to its intersection V; the fiber point is the pair of
  images in the quotient C^n / V, identified with L0 by I - Q_V.

A projection is kept as the result of its one solve
(grassmann._Projection), and each map applies it straight to the rows
it moves (grassmann._project), each made primitive before it is
reduced; I - Q_V and I - P are the same solves with the side flag
flipped, so no map builds an n x n matrix.  Chart coordinates and the
projections share one solve (grassmann._solve_along), whose
inconsistency refuses a subspace that meets the complement.

Every trivialization here is an exact bijection on its chart: composing
with its inverse returns the input entrywise over Q(i).  A chart keeps its
last Q_V, so pr's inverse reuses the projection pr solved, and a
configuration keeps its sum (Configuration.span); each memo lives as long
as the object that holds it.

>>> v0 = grassmann.canonicalize(Matrix.from_rows([[1, 0, 0], [0, 1, 0]]), 3)
>>> triv = Trivialization.over(v0)  # L0 = <e_2>
>>> print(triv.projector)
[1  0  0]
[0  1  0]
[0  0  0]
>>> c = Configuration.of([
...     grassmann.canonicalize(Matrix.from_rows([[1, 0, 1]]), 3),
...     grassmann.canonicalize(Matrix.from_rows([[0, 1, 1]]), 3),
... ])
>>> point = gamma_trivialize(c, triv)
>>> [str(q.basis) for q in point.fiber.points]
['[1  0  0]', '[0  1  0]']
>>> gamma_untrivialize(point, triv) == c
True
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence, Union

from . import grassmann, linalg
from ._strata import _require_arity
from .errors import (
    DirectSumError,
    InconsistentSystemError,
    MixedAmbientError,
    NotComplementaryError,
    NotDirectSumError,
    OutsideChartError,
    record,
)
from .grassmann import Configuration, Subspace
from .linalg import GInt, Matrix

FiberPoint = Union[Configuration, Matrix, Subspace, tuple[Subspace, Subspace]]


@record
class Trivialization:
    """Chart data: a base point V0 and a complement L0.  The projection P
    onto V0 along L0 is solved from them when the chart is built
    (grassmann._projection_solve), and that solve decides V0 ⊕ L0 = C^n,
    so a base point that is its own complement is refused:

    >>> v0 = grassmann.canonicalize(Matrix.unit_rows([0, 1], 4), 4)
    >>> Trivialization(v0, v0)
    Traceback (most recent call last):
    ...
    grassconf.errors.NotComplementaryError: subspaces intersect nontrivially

    The solved P, its matrix (projector, a cached_property) and the last
    result (v, Q_v) of _chart_projection are kept beside the fields, so
    ==, hash and repr ignore them.
    """

    base_point: Subspace
    complement: Subspace

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_projection",
            grassmann._projection_solve(self.base_point, self.complement),
        )

    @cached_property
    def projector(self) -> Matrix:
        """P as an n x n matrix acting on row vectors, built from the kept
        solve on first read, then kept; no chart map reads it."""
        return grassmann._projection_matrix(self._projection)

    @staticmethod
    def over(v0: Subspace, l0: Optional[Subspace] = None) -> "Trivialization":
        """Build the chart over v0; without l0, the deterministic
        non-pivot complement is used."""
        return Trivialization(v0, grassmann.complement(v0) if l0 is None else l0)

    @property
    def n(self) -> int:
        return self.base_point.n


@record
class ChartPoint:
    """Image of a point under a trivialization: (base component, fiber
    component).  The fiber type depends on the fibration: a Configuration
    for gamma, chart coordinates or a Subspace for pr, and a pair of
    quotient subspaces for eta."""

    base: Union[Subspace, Configuration]
    fiber: FiberPoint


def _chart_projection(
    v: Subspace, triv: Trivialization, what: str
) -> grassmann._Projection:
    """Q_v, the projection onto v along L0 as its kept solve, which alone
    decides v ⊕ L0 = C^n; a failure raises OutsideChartError prefixed by
    what.

    The chart's own projection came from the same solve, which makes
    dim V0 + dim L0 = n, so a v of the chart's ambient dimension and of
    dimension dim V0 whose solve fails meets L0.

    The chart keeps the last (v, Q_v) it returned, and answers the same v
    from it; a failure is never kept, so it is decided again each time.
    """
    last = triv.__dict__.get("_last_projection")
    if last is not None and last[0] == v:
        return last[1]
    try:
        q = grassmann._projection_solve(v, triv.complement)
    except (MixedAmbientError, NotComplementaryError):
        if v.n != triv.n:
            raise OutsideChartError(f"{what}: ambient dimension mismatch") from None
        if v.k != triv.base_point.k:
            raise OutsideChartError(
                f"{what}: dimension {v.k} does not match the chart base dimension {triv.base_point.k}"
            ) from None
        raise OutsideChartError(f"{what}: not transverse to the chart complement") from None
    object.__setattr__(triv, "_last_projection", (v, q))
    return q


def _moved(rows: Matrix, away: grassmann._Projection, onto: grassmann._Projection) -> Matrix:
    """rows @ (I - away + onto), pr's row map: x - x·away + x·onto for each
    row x, as the rows of x·(I - away) plus those of x·onto, one Matrix
    sum."""
    def applied(proj):
        return Matrix._of(rows.rows, rows.cols, tuple(grassmann._project(rows.zrows, proj)))
    return applied(away.flipped()) + applied(onto)


def _image(v: Subspace, proj: grassmann._Projection) -> Subspace:
    """The image of v under proj, reduced from the rows _project hands it."""
    rows = grassmann._project(v.basis.zrows, proj)
    return grassmann._canonical_span([row for _, row in rows], v.n)


def _mapped(c: Configuration, proj: grassmann._Projection) -> Configuration:
    """The configuration of the images of c's points under proj."""
    return Configuration(c.h, c.k, c.n, tuple(_image(p, proj) for p in c.points))


def extend_isomorphism(v: Subspace, triv: Trivialization) -> Matrix:
    """The automorphism of C^n restricting to the chart projection on v and
    to the identity on L0: I - Q_v + P sends x = a + l, a in v and l in
    L0, to aP + l, since Q_v fixes v and both projections vanish on L0.

    On v it is an isomorphism v -> V0; invertibility follows from
    v ⊕ L0 = C^n.  The matrix is pr's row map applied to the identity's
    rows.
    """
    q = _chart_projection(v, triv, "extend_isomorphism")
    return _moved(Matrix.identity(v.n), q, triv._projection)


def gamma_trivialize(c: Configuration, triv: Trivialization) -> ChartPoint:
    """Split a configuration into (sum, configuration inside V0).

    The fiber is the image of the configuration under the projection onto
    V0 along L0, a configuration of the same stratum index inside V0.
    """
    total = c.span
    _chart_projection(total, triv, "gamma_trivialize")  # the guard; the inverse reuses Q_V
    return ChartPoint(base=total, fiber=_mapped(c, triv._projection))


def gamma_untrivialize(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Inverse of gamma_trivialize over the same chart."""
    base = p.base
    fiber = p.fiber
    if not isinstance(base, Subspace) or not isinstance(fiber, Configuration):
        raise TypeError("gamma chart points have a Subspace base and a Configuration fiber")
    for q in fiber.points:
        if not triv.base_point.contains(q):
            raise OutsideChartError("fiber configuration does not lie in the chart base point")
    return _mapped(fiber, _chart_projection(base, triv, "gamma_untrivialize"))


def pr_forget_last(c: Configuration) -> Configuration:
    """Drop the last subspace of a direct-sum configuration."""
    _require_arity("pr", c.h)
    if not linalg._rank_at_least([row for p in c.points for _, row in p.basis.zrows], c.h * c.k):
        raise NotDirectSumError("the subspaces are not in direct sum")
    return Configuration(c.h - 1, c.k, c.n, c.points[:-1])


def chart_coordinates(hh: Subspace, w: Subspace) -> Matrix:
    """Graph coordinates of hh on the chart of subspaces complementary to w.

    Writing the basis Y of hh in the decomposition C^n = C ⊕ w, where C is
    the deterministic complement of w, and normalizing the C-block to the
    identity leaves the k x (n-k) coefficient matrix on w: hh is the graph
    of that linear map C -> w.

    C is spanned by the unit rows at the free columns of the RREF basis W
    of w, the pivots of C; W is the identity at its own pivots, where C is
    zero, so q_block is Y there and p_block is Y - q_block W at C's pivots:
    the k x k block Y·N, N the null basis of W.  That is the solve
    grassmann.projection_along runs, asked for W's pivot columns rather
    than every column (grassmann._solve_along), and it decides that hh
    misses w: y·p_block = 0 with y != 0 would leave y·q_block, the
    w-coordinates of y·Y != 0, out of reach.
    """
    if hh.n != w.n:
        raise OutsideChartError("ambient dimension mismatch")
    if hh.k + w.k != hh.n:
        raise OutsideChartError(
            f"chart of Gr({hh.k},{hh.n}) needs a complementary w of dimension {hh.n - hh.k}"
        )
    return _graph_coordinates(linalg._integer_rows(hh.basis), w)


def _graph_coordinates(rows: Sequence[Sequence[GInt]], w: Subspace) -> Matrix:
    """chart_coordinates from the Z[i] rows of any basis of hh, each at any
    scale, unguarded: both blocks are linear in the basis, and
    solve(A·p, A·q) = solve(p, q) for an invertible A.  With W = W' / L at
    one scale L, one grassmann._solve_along of the rows
    [L·y·N | L·y at W's pivots], whose InconsistentSystemError becomes
    OutsideChartError."""
    try:
        return grassmann._solve_along(rows, w._pivot_split, w.pivots())
    except InconsistentSystemError:
        raise OutsideChartError("subspace meets w nontrivially") from None


def _graph_basis(coords: Matrix, w: Subspace) -> Matrix:
    """The unreduced basis of chart_point(coords, w): row r of
    complement(w)'s basis, the unit row at w's r-th free column f, plus
    row r of coords·W.  With coords' row r at scale s and W at its common
    scale L, that is the product row (linalg._products) with s L added at
    f, over s L, made primitive as Matrix @ makes its rows."""
    if coords.cols != w.k or coords.rows + w.k != w.n:
        raise ValueError("coordinate matrix shape does not match the chart")
    big, rows = linalg._products(linalg._integer_rows(coords), w.basis)
    zrows = []
    for (s, _), row, f in zip(coords.zrows, rows, w._pivot_split.free):
        re, im = row[f]
        row[f] = (re + s * big, im)
        zrows.append(linalg._primitive(s * big, row))
    return Matrix._of(coords.rows, w.n, tuple(zrows))


def chart_point(coords: Matrix, w: Subspace) -> Subspace:
    """Inverse of chart_coordinates: the graph of the coefficient matrix."""
    return grassmann.canonicalize(_graph_basis(coords, w), w.n)


def pr_trivialize(c: Configuration, triv: Trivialization) -> ChartPoint:
    """Split a direct-sum configuration into (first h-1 subspaces, fiber).

    The fiber is the image of the last subspace under the isomorphism
    carrying the base sum to the chart base point, I - Q_V + P
    (extend_isomorphism), applied to the last subspace's basis rows alone.
    When n = hk that image is recorded in chart coordinates relative to
    the base point, read off its unreduced basis (the solve cannot fail:
    V goes onto V0, and the last subspace misses V); for n > hk no single
    chart covers the fiber and the image subspace itself is returned.
    """
    front = pr_forget_last(c)
    # the guard names this map; the chart keeps Q_V for pr's inverse
    q = _chart_projection(front.span, triv, "pr_trivialize")
    image = _moved(c.points[-1].basis, q, triv._projection)
    if c.n == c.h * c.k:
        return ChartPoint(
            base=front, fiber=_graph_coordinates(linalg._integer_rows(image), triv.base_point)
        )
    return ChartPoint(base=front, fiber=grassmann.canonicalize(image, c.n))


def pr_untrivialize(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Inverse of pr_trivialize: reattach the forgotten subspace."""
    front = p.base
    if not isinstance(front, Configuration):
        raise TypeError("pr chart points have a Configuration base")
    if isinstance(p.fiber, Matrix):
        # a graph over complement(V0), which misses V0, left unreduced
        image = _graph_basis(p.fiber, triv.base_point)
    elif isinstance(p.fiber, Subspace):
        if grassmann.intersection_dim(p.fiber, triv.base_point) != 0:
            raise OutsideChartError("fiber subspace meets the chart base point")
        image = p.fiber.basis
    else:
        raise TypeError("pr fiber is chart coordinates or a subspace")
    q = _chart_projection(front.span, triv, "pr_untrivialize")
    # the inverse of the extended isomorphism, I - P + Q_V: Q_V on V0, the
    # identity on L0
    last = grassmann.canonicalize(_moved(image, triv._projection, q), front.n)
    return Configuration(front.h + 1, front.k, front.n, front.points + (last,))


def eta(c: Configuration) -> Subspace:
    """Intersection of a pair of subspaces with nonzero intersection."""
    _require_arity("eta", c.h)
    inter = grassmann.subspace_intersection(c.points[0], c.points[1])
    if inter is None:
        raise DirectSumError("the pair is in direct sum; the intersection is zero")
    return inter


def eta_fiber_point(c: Configuration, triv: Trivialization) -> ChartPoint:
    """Split a pair into (intersection, quotient pair).

    The quotient C^n / V by the intersection V is identified with L0
    through I - Q_V, the projection onto L0 along V; the two images are
    subspaces of L0 of dimension k - dim(V), in direct sum.
    """
    inter = eta(c)
    to_quotient = _chart_projection(inter, triv, "eta_fiber_point").flipped()
    first, second = (_image(p, to_quotient) for p in c.points)
    return ChartPoint(base=inter, fiber=(first, second))


def eta_fiber_lift(p: ChartPoint, triv: Trivialization) -> Configuration:
    """Inverse of eta_fiber_point: rebuild the pair over the recorded
    intersection V as the sums V + q of V with each quotient image q."""
    base = p.base
    fiber = p.fiber
    if not isinstance(base, Subspace) or not isinstance(fiber, tuple):
        raise TypeError("eta chart points have a Subspace base and a pair fiber")
    first, second = fiber
    for q in (first, second):
        if not triv.complement.contains(q):
            raise OutsideChartError("quotient images must lie in the chart complement")
    if grassmann.intersection_dim(first, second) != 0:
        raise OutsideChartError("quotient images must be in direct sum")
    _chart_projection(base, triv, "eta_fiber_lift")
    rows = linalg._integer_rows(base.basis)
    points = tuple(
        grassmann._canonical_span(rows + linalg._integer_rows(q.basis), base.n) for q in fiber
    )
    return Configuration(2, points[0].k, base.n, points)
