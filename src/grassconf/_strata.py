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


def is_stratum_nonempty(s: StratumId) -> bool:
    """Emptiness predicate: h=1 needs i=k; h>=2 needs k+1 <= i <= min(hk, n)."""
    if s.h == 1:
        return s.i == s.k
    return s.k + 1 <= s.i <= min(s.h * s.k, s.n)


def stratum_dimension(s: StratumId) -> int:
    """Complex dimension i(n-i) + hk(i-k) of the nonempty stratum."""
    if not is_stratum_nonempty(s):
        raise EmptyStratumError(f"{s} is empty")
    return s.i * (s.n - s.i) + s.h * s.k * (s.i - s.k)


def strata_list(h: int, k: int, n: int) -> list[StratumId]:
    """All nonempty strata for h >= 2, in increasing i; the last is open."""
    if h < 1:
        raise ValueError("need h >= 1")
    if h == 1:
        raise ValueError("strata_list applies to h >= 2; h = 1 has the single stratum i = k")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return [StratumId(h, i, k, n) for i in range(k + 1, min(h * k, n) + 1)]


def stratum_closure(s: StratumId) -> list[StratumId]:
    """Strata contained in the closure: every index from k+1 up to i."""
    if s.h < 2:
        raise ValueError("closure adjacency applies to h >= 2")
    if not is_stratum_nonempty(s):
        raise EmptyStratumError(f"{s} is empty")
    return [StratumId(s.h, j, s.k, s.n) for j in range(s.k + 1, s.i + 1)]
