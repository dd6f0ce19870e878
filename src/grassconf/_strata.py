"""The sum-dimension strata F_h^i(k, n) as index data.

Which strata are nonempty, their dimensions and their closure order are
closed-form in (h, i, k, n), so this module needs no matrix code: the
``strata`` and ``pi`` commands run on it alone.  grassmann re-exports every
name defined here.
"""

from __future__ import annotations

from .errors import EmptyStratumError, record


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
