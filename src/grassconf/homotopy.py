"""Symbolic homotopy groups of Stiefel manifolds, Grassmannians, and
sum-dimension configuration strata.

Groups are carried up to isomorphism as normal-form expressions:

>>> print(product(free_abelian(2), free_abelian(1)))
Z^3
>>> print(config_pi2(StratumId(h=3, i=6, k=2, n=6)))
Z^2

The derivation engine rewrites a query pi_j(F_h^i(k,n)) along the three
fibrations (sum, forget-last, intersection) down to Grassmannian base
cases, recording each rule application so the trace replays to the
answer.  One ordered rule table per degree (_RULES) drives both derive
and replay: a query takes the first row whose condition holds.
"""

from __future__ import annotations

from ._strata import StratumId, _require_nonempty, fibration, is_stratum_nonempty
from .errors import OutOfRangeError, OutOfScopeError, WireFormatError
from .errors import _wire_field, record


class GroupExpr:
    """Base class of the symbolic group expressions.

    Each variant is a record whose fields are its whole description.  Its
    JSON is ``{"variant": <class name>}`` plus every field (a product's
    factors as their own JSON), and group_from_json accepts exactly what
    to_json writes: no other key, each field of its JSON type, and a product
    only in the normal form product() builds.
    """

    def render(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        data = {"variant": type(self).__name__}
        for name in self.__match_args__:
            value = getattr(self, name)
            data[name] = [f.to_json() for f in value] if isinstance(value, tuple) else value
        return data

    def __str__(self) -> str:
        return self.render()


@record
class Zero(GroupExpr):
    def render(self) -> str:
        return "0"


@record
class FreeAbelian(GroupExpr):
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("use free_abelian(); rank 0 normalizes to Zero")

    def render(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@record
class PureSphereBraid(GroupExpr):
    """Opaque atom: the pure braid group on ``strands`` strings of the
    2-sphere.  No presentation is carried."""

    strands: int

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError(f"need strands >= 1, got {self.strands}")

    def render(self) -> str:
        return f"PB_{self.strands}(S^2)"


@record
class Symmetric(GroupExpr):
    """Opaque atom: the symmetric group on ``degree`` letters."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"need degree >= 1, got {self.degree}")

    def render(self) -> str:
        return f"Sigma_{self.degree}"


@record
class Product(GroupExpr):
    """Direct product in normal form; build through product()."""

    factors: tuple[GroupExpr, ...]

    def render(self) -> str:
        return " x ".join(f.render() for f in self.factors)


@record
class Unknown(GroupExpr):
    reason: str

    def render(self) -> str:
        return f"Unknown({self.reason})"


@record
class PiQuery(GroupExpr):
    """A pending homotopy-group query, used inside derivation traces."""

    degree: int
    h: int
    i: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"need degree >= 1, got {self.degree}")
        StratumId(self.h, self.i, self.k, self.n)  # its checks: h >= 1, 0 < k < n

    def render(self) -> str:
        return f"pi_{self.degree}(F_{self.h}^{self.i}({self.k},{self.n}))"


# Every variant; the first four, in this order, are the factor order of a
# normal-form product, which then sorts by field values.
_VARIANTS = (FreeAbelian, PureSphereBraid, Symmetric, PiQuery, Zero, Product, Unknown)
# the JSON type that to_json writes for each annotated field type
_JSON_TYPES = {"int": int, "str": str, "tuple[GroupExpr, ...]": list}
TRIVIAL = Zero()
Z = FreeAbelian(1)


def free_abelian(rank: int) -> GroupExpr:
    """Z^rank, with rank 0 normalized to the trivial group."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return TRIVIAL if rank == 0 else FreeAbelian(rank)


def pure_sphere_braid(strands: int) -> GroupExpr:
    """PB_strands(S^2), with one or two strands normalized to the trivial
    group: Conf_1(S^2) is S^2 and Conf_2(S^2) deformation retracts onto
    S^2, both simply connected.

    >>> print(pure_sphere_braid(2), pure_sphere_braid(3))
    0 PB_3(S^2)
    """
    return TRIVIAL if strands in (1, 2) else PureSphereBraid(strands)


def _sort_key(expr: GroupExpr) -> tuple:
    if type(expr) not in _VARIANTS[:4]:
        raise TypeError(f"unexpected factor {expr!r}")
    return (_VARIANTS.index(type(expr)), *(getattr(expr, f) for f in expr.__match_args__))


def product(*factors: GroupExpr) -> GroupExpr:
    """Normal-form direct product.

    Products flatten, trivial factors disappear, free-abelian ranks add,
    an Unknown factor absorbs the whole product, and the remaining
    factors are sorted into a stable order, so equal groups compare equal.
    """
    flat: list[GroupExpr] = []
    stack = list(factors)
    while stack:
        f = stack.pop(0)
        if isinstance(f, Product):
            stack = list(f.factors) + stack
        elif isinstance(f, Zero):
            continue
        else:
            flat.append(f)
    for f in flat:
        if isinstance(f, Unknown):
            return f
    rank = sum(f.rank for f in flat if isinstance(f, FreeAbelian))
    rest = [f for f in flat if not isinstance(f, FreeAbelian)]
    out: list[GroupExpr] = ([FreeAbelian(rank)] if rank else []) + sorted(rest, key=_sort_key)
    if not out:
        return TRIVIAL
    if len(out) == 1:
        return out[0]
    return Product(tuple(out))


def group_from_json(data: dict) -> GroupExpr:
    """Read what GroupExpr.to_json writes; anything else raises
    WireFormatError naming the field."""
    if not isinstance(data, dict):
        raise WireFormatError(f"a group must be a JSON object, got {data!r}")
    variant = _wire_field(data, "variant", "a group")
    cls = next((c for c in _VARIANTS if c.__name__ == variant), None)
    if cls is None:
        raise WireFormatError(f"unknown variant {variant!r}")
    what = f"a group of variant {variant!r}"
    extra = set(data).difference(["variant", *cls.__match_args__])
    if extra:
        raise WireFormatError(f"{what} has no field {min(extra)!r}")
    values = []
    for name in cls.__match_args__:
        value = _wire_field(data, name, what)
        if type(value) is not _JSON_TYPES[cls.__annotations__[name]]:
            raise WireFormatError(f"the field {name!r} of {what} has the wrong type: {value!r}")
        values.append(tuple(map(group_from_json, value)) if type(value) is list else value)
    if cls is Product and product(*values[0]) != Product(*values):
        raise WireFormatError(f"the field 'factors' of {what} is not in normal form")
    try:
        return cls(*values)
    except ValueError as exc:
        raise WireFormatError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# closed-form tables


def _check_degree(j: int) -> None:
    if j not in (1, 2, 3):
        raise OutOfRangeError(f"pi_{j} is outside the computed range (1 <= j <= 3)")


def stiefel_pi(j: int, k: int, n: int) -> GroupExpr:
    """pi_j of the complex Stiefel manifold V_{k,n}, for j <= 3.

    V_{n,n} = U(n) and V_{1,n} = S^{2n-1}; removing the last vector
    identifies pi_j(V_{k,n}) with pi_j of an odd sphere when k < n.
    """
    _check_degree(j)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        if n == 1:
            return Z if j == 1 else TRIVIAL
        return {1: Z, 2: TRIVIAL, 3: Z}[j]
    sphere_dim = 2 * (n - k) + 1
    if j == 3 and sphere_dim == 3:
        return Z
    return TRIVIAL


def grassmann_pi(j: int, k: int, n: int) -> GroupExpr:
    """pi_j of Gr(k,n) for j <= 3: simply connected, pi_2 = Z, and pi_3
    trivial except for the sphere Gr(1,2)."""
    _check_degree(j)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if j == 1:
        return TRIVIAL
    if j == 2:
        return Z
    return Z if (k, n) == (1, 2) else TRIVIAL


def config_pi1(s: StratumId) -> GroupExpr:
    """Fundamental group of the stratum.

    Zero for k > 1 on every nonempty stratum.  For k = 1 only the open
    stratum is tabulated: the sphere braid group when n = 2 (trivial for
    h = 2, pure_sphere_braid), zero
    otherwise (when n = hk = h, pr reduces it to an open stratum with
    n != hk); below it, Unknown.  The value is read off derive, whose
    rules are the single source of this case analysis.
    """
    return derive(s, 1)[0]


def config_unordered_pi1(s: StratumId) -> GroupExpr:
    """Fundamental group of the unordered quotient: the symmetric group,
    reported as an opaque atom (k > 1 only)."""
    _require_nonempty(s)
    if s.k == 1:
        raise OutOfScopeError("unordered line configurations (k = 1) are out of scope")
    return Symmetric(s.h)


def config_pi2(s: StratumId) -> GroupExpr:
    """Second homotopy group of the stratum, k > 1.

    Direct-sum strata (i = hk) give Z^{h-1} when n = hk and Z^h when
    n > hk; pairs (h = 2) with i < 2k give Z^2 when i = n and Z^3 when
    i < n.  Everything else is a typed Unknown.  The value is read off
    derive, whose rules are the single source of this case analysis.
    """
    return derive(s, 2)[0]


# ---------------------------------------------------------------------------
# derivation engine


@record
class DerivationStep:
    rule: str
    statement: str
    before: GroupExpr
    after: GroupExpr

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "statement": self.statement,
            "before": self.before.render(),
            "after": self.after.render(),
        }


@record
class DerivationTrace:
    initial: GroupExpr
    steps: tuple[DerivationStep, ...]
    result: GroupExpr

    def replay(self) -> GroupExpr:
        """Re-apply the rewrite rules step by step; raises ValueError unless
        every recorded step is the rule the engine applies to the pending
        query of its ``before``, and the last one leaves the result.  A
        query of ``initial`` that names an empty stratum raises it before
        any rule runs."""
        factors = self.initial.factors if isinstance(self.initial, Product) else (self.initial,)
        for query in factors:
            if isinstance(query, PiQuery):
                s = StratumId(query.h, query.i, query.k, query.n)
                if not is_stratum_nonempty(s):
                    raise ValueError(
                        f"trace does not replay: {query.render()} names the empty stratum {s}"
                    )
        rules = _derivation(self.initial)
        current = self.initial
        for idx, step in enumerate(self.steps, start=1):
            if step.before != current:
                raise ValueError(
                    f"trace does not replay: expected {current.render()}, "
                    f"step {idx} starts from {step.before.render()}"
                )
            if idx > len(rules):
                raise ValueError(f"trace does not replay: step {idx} follows the answer")
            expected = rules[idx - 1]
            if step != expected:
                raise ValueError(
                    f"trace does not replay: step {idx} records [{step.rule}] "
                    f"-> {step.after.render()}, the rules give [{expected.rule}] "
                    f"-> {expected.after.render()}"
                )
            current = step.after
        if len(self.steps) < len(rules):
            raise ValueError("trace does not replay: it stops before the answer")
        if current != self.result:
            raise ValueError("trace does not replay to the recorded result")
        return current

    def render_lines(self) -> list[str]:
        lines = [f"query: {self.initial.render()}"]
        for idx, step in enumerate(self.steps, start=1):
            lines.append(f"step {idx} [{step.rule}]: {step.before.render()} -> {step.after.render()}")
            lines.append(f"        {step.statement}")
        lines.append(f"answer: {self.result.render()}")
        return lines

    def to_json(self) -> dict:
        return {
            "initial": self.initial.render(),
            "steps": [s.to_json() for s in self.steps],
            "result": self.result.render(),
        }


def _handed_on(kind: str, q: PiQuery) -> PiQuery:
    """pi of q's degree of the stratum the fibration kind hands on."""
    s = fibration(kind, StratumId(q.h, q.i, q.k, q.n)).hands_on
    return PiQuery(q.degree, s.h, s.i, s.k, s.n)


# The rewrite rules, one ordered table per degree.  A row is (name,
# statement, when(h, i, k, n), replacement(query)); a query takes the first
# row whose when holds, so a table's order is its precedence, and its last
# row holds on every query.
_SINGLE = (
    "single-subspace-base",
    "a configuration of one subspace is a point of Gr(k,n); its homotopy is the Grassmannian's",
    lambda h, i, k, n: h == 1, lambda q: grassmann_pi(q.degree, q.k, q.n),
)
# exact for pi_2 too, where gamma-split has taken every i < n
_PR = (
    "pr-equality",
    "forgetting the last subspace of a direct-sum configuration in C^{hk} is a fibration "
    "with fiber a chart C^{k(hk-k)}, so pi_j is unchanged",
    lambda h, i, k, n: i == h * k == n, lambda q: _handed_on("pr", q),
)
_RULES = {
    1: (
        _SINGLE,
        ("sphere-braid-base", "h distinct points of Gr(1,2) = S^2: pi_1 is the pure braid "
         "group of the sphere on h strands",
         lambda h, i, k, n: k == 1 and n == 2, lambda q: pure_sphere_braid(q.h)),
        ("open-stratum-base", "the open stratum with n != hk is simply connected",
         lambda h, i, k, n: i == min(n, h * k) and n != h * k, lambda q: TRIVIAL),
        _PR,
        ("line-case-out-of-range", "k = 1 strata below the open one are not tabulated here",
         lambda h, i, k, n: k == 1,
         lambda q: Unknown("pi_1 of line configurations (k = 1) is outside these tables")),
        ("gamma-reduction", "pi_1 surjects from the fiber of the sum fibration over the "
         "simply connected Gr(i,n); the fiber is the same stratum inside the i-plane",
         lambda h, i, k, n: True, lambda q: _handed_on("gamma", q)),
    ),
    2: (
        _SINGLE,
        ("gamma-split", "the sum fibration over Gr(i,n) splits on pi_2 when i < n: "
         "pi_2(total) = pi_2(fiber inside the i-plane) x Z",
         lambda h, i, k, n: i < n, lambda q: product(Z, _handed_on("gamma", q))),
        _PR,
        ("eta-split", "the intersection fibration over Gr(2k-i,n) splits on pi_2: "
         "pi_2(total) = Z x pi_2(direct-sum pairs of (i-k)-planes in the quotient)",
         lambda h, i, k, n: h == 2 and i < 2 * k,
         lambda q: product(Z, _handed_on("eta", q))),
        ("uncovered-pi2", "no computed value covers h >= 3 with k < i < hk",
         lambda h, i, k, n: True,
         lambda q: Unknown("pi_2 has no computed value for h >= 3 with k < i < hk")),
    ),
}


def _next_step(current: GroupExpr) -> DerivationStep | None:
    """The rule application to the first pending query of current, or None
    when no query is pending; the replacement takes the place of every
    factor equal to that query."""
    factors = current.factors if isinstance(current, Product) else (current,)
    query = next((f for f in factors if isinstance(f, PiQuery)), None)
    if query is None:
        return None
    if query.degree not in _RULES:
        raise ValueError(f"no rewrite rules for {query.render()}")
    name, statement, _, replace = next(
        row for row in _RULES[query.degree] if row[2](query.h, query.i, query.k, query.n)
    )
    replacement = replace(query)
    after = product(*(replacement if f == query else f for f in factors))
    return DerivationStep(name, statement, current, after)


def _derivation(initial: GroupExpr) -> list[DerivationStep]:
    """The rule applications that rewrite initial until no query is pending."""
    steps: list[DerivationStep] = []
    current = initial
    for _ in range(200):
        step = _next_step(current)
        if step is None:
            return steps
        steps.append(step)
        current = step.after
    raise RuntimeError("derivation did not terminate")


def derive(s: StratumId, j: int) -> tuple[GroupExpr, DerivationTrace]:
    """Compute pi_j of the stratum by rewriting, with a replayable trace.

    Only j = 1 and j = 2 are derivable for configuration strata; for
    j = 2 the k = 1 case is out of scope, matching config_pi2.
    """
    if j not in (1, 2):
        raise OutOfRangeError(f"pi_{j} of configuration strata is outside the computed range")
    _require_nonempty(s)
    if j == 2 and s.k == 1:
        raise OutOfScopeError("pi_2 for line configurations (k = 1) is out of scope")
    initial = PiQuery(j, s.h, s.i, s.k, s.n)
    steps = _derivation(initial)
    return steps[-1].after, DerivationTrace(initial, tuple(steps), steps[-1].after)
