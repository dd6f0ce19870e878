"""The sum-dimension strata F_h^i(k, n) as index data.

Which strata are nonempty, their dimensions and their closure order are
closed-form in (h, i, k, n), so this module needs no matrix code: the
``strata`` and ``pi`` commands run on it alone.  So are the facts of the
three fibrations (fibration).  grassmann re-exports the strata's names.
"""

from __future__ import annotations

from .errors import DirectSumError, EmptyStratumError, FullSpaceError, NotDirectSumError
from .errors import WrongArityError, record


@record
class StratumId:
    """Index data (h, i, k, n) of the stratum of h-tuples with sum dimension i."""

    h: int
    i: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.h < 1:
            raise ValueError("need h >= 1")

    def __str__(self) -> str:
        return f"F_{self.h}^{self.i}({self.k},{self.n})"


def _lowest_sum(h: int, k: int) -> int:
    """The least sum dimension of h distinct k-subspaces: H_1 alone spans
    k, and a second point, distinct from it, adds at least one more."""
    return k + min(h - 1, 1)


def is_stratum_nonempty(s: StratumId) -> bool:
    """Emptiness predicate: the lowest sum (k for h = 1, else k + 1) <= i <= min(hk, n)."""
    return _lowest_sum(s.h, s.k) <= s.i <= min(s.h * s.k, s.n)


def _require_nonempty(s: StratumId) -> None:
    """The one guard of every entry that needs a nonempty stratum."""
    if not is_stratum_nonempty(s):
        raise EmptyStratumError(f"{s} is empty")


def stratum_dimension(s: StratumId) -> int:
    """Complex dimension i(n-i) + hk(i-k) of the nonempty stratum."""
    _require_nonempty(s)
    return s.i * (s.n - s.i) + s.h * s.k * (s.i - s.k)


def strata_list(h: int, k: int, n: int) -> list[StratumId]:
    """All nonempty strata for any h >= 1, in increasing i; the last is
    open.  h = 1 has the single stratum i = k, Gr(k, n) itself."""
    if h < 1:
        raise ValueError("need h >= 1")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return [StratumId(h, i, k, n) for i in range(_lowest_sum(h, k), min(h * k, n) + 1)]


def stratum_closure(s: StratumId) -> list[StratumId]:
    """Strata contained in the closure, for any h >= 1: every index from
    the lowest sum up to i."""
    _require_nonempty(s)
    return [StratumId(s.h, j, s.k, s.n) for j in range(_lowest_sum(s.h, s.k), s.i + 1)]


@record
class Fibration:
    """A fibration of a stratum: its chart is centred in Gr(chart_dim, n),
    and its homotopy rule hands on pi_j of hands_on (None for gamma at
    h = 1, whose fiber F_1^k(k, k) is a point)."""

    stratum: StratumId
    chart_dim: int
    hands_on: StratumId | None


def _require_arity(kind: str, h: int) -> None:
    """The first guard of a fibration, which reads h alone."""
    if kind == "pr" and h < 2:
        raise WrongArityError("need at least two subspaces to forget one")
    if kind == "eta" and h != 2:
        raise WrongArityError("the intersection map applies to pairs")


def fibration(kind: str, s: StratumId) -> Fibration:
    """The fibration kind of s: "gamma" (sum), "pr" (forget the last) or
    "eta" (intersect a pair).  It refuses, in this order, the wrong arity,
    an empty stratum, gamma onto C^n, pr off a direct sum and eta on one.

    >>> for kind, s in (("gamma", StratumId(2, 3, 2, 5)), ("pr", StratumId(3, 6, 2, 7)),
    ...                 ("eta", StratumId(2, 3, 2, 4))):
    ...     f = fibration(kind, s)
    ...     print(kind, s, f.chart_dim, f.hands_on)
    gamma F_2^3(2,5) 3 F_2^3(2,3)
    pr F_3^6(2,7) 4 F_2^4(2,7)
    eta F_2^3(2,4) 1 F_2^2(1,3)
    >>> fibration("eta", StratumId(2, 4, 2, 5))
    Traceback (most recent call last):
    ...
    grassconf.errors.DirectSumError: F_2^4(2,5) is in direct sum; the intersection is zero
    """
    h, i, k, n = s.h, s.i, s.k, s.n
    _require_arity(kind, h)
    _require_nonempty(s)
    if kind == "gamma":
        if i == n:
            raise FullSpaceError(f"{s} sums to C^{n}; the chart complement would be zero")
        return Fibration(s, i, StratumId(h, i, k, i) if h > 1 else None)
    if kind == "pr":
        if i != h * k:
            raise NotDirectSumError(f"{s} is not a direct sum (i != hk)")
        return Fibration(s, i - k, StratumId(h - 1, i - k, k, n))
    if i == 2 * k:
        raise DirectSumError(f"{s} is in direct sum; the intersection is zero")
    return Fibration(s, 2 * k - i, StratumId(2, 2 * (i - k), i - k, n - 2 * k + i))
