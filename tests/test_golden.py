"""Byte-identity of deterministic outputs, against committed SHA-256 hashes.

Each payload below is a JSON report, a CLI stdout or a wire-format chart
point that must not change when the exact kernel or the chart maps are
refactored: the roundtrip suites, the adjacency check, five CLI commands,
the ``pi`` command's four output modes with its exit code and stderr,
and the chart points, untrivialize results and extended isomorphisms of
the three fibrations, all on fixed seeds.  A round trip only shows that a
chart map and its inverse agree; the chart-point payloads pin the maps
themselves, and the off-chart payload pins each map's error message.  The
roundtrip-values payloads pin every intermediate value of the suites'
default-grid cases: the sampled configuration, the chart projector, Q_V,
the chart point's base and fiber, and the round-trip result.  golden_hashes.json holds
the SHA-256 of each payload as a known-good tree produced it; regenerate it
only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from grassconf import cli, fibrations, grassmann, homotopy, linalg, verify
from grassconf.errors import GrassconfError
from grassconf.fibrations import ChartPoint, Trivialization
from grassconf.grassmann import Configuration, StratumId, Subspace

HASHES = Path(__file__).with_name("golden_hashes.json")

ROUNDTRIP_CASES = 20
# (stratum of the sampled configuration, target stratum index)
ADJACENCY = (
    (StratumId(2, 3, 2, 4), 4),
    (StratumId(3, 2, 1, 3), 3),
    (StratumId(2, 3, 2, 5), 4),
)
ADJACENCY_TRIALS = 10
SAMPLE_ARGS = ["sample", "--h", "3", "--i", "4", "--k", "2", "--n", "5", "--seed", "7"]
STRATA_ARGS = ["strata", "--h", "3", "--k", "2", "--n", "6", "--json"]
# (h, i, k, n) of the dimension-suite runs: k = 1, inner parameters
# (k < i < n), i = n (no outer parameters), and h = 3
DIMENSION_JSON = ((2, 2, 1, 3), (2, 3, 2, 5), (2, 4, 2, 4), (3, 4, 2, 5))
DIMENSION_TEXT = (2, 3, 2, 4)
# (order, h, i, k, n) of the pi runs: between them every rule name, an
# Unknown answer of each order (exit 3), an empty stratum and a k = 1 pi_2
# (both exit 2)
PI_QUERIES = (
    (2, 2, 4, 2, 4), (2, 3, 6, 2, 9), (2, 2, 3, 2, 4), (2, 2, 5, 3, 5),
    (1, 3, 4, 2, 6), (1, 3, 6, 2, 6), (1, 4, 2, 1, 2), (1, 2, 2, 1, 5),
    (1, 4, 3, 1, 5), (2, 3, 4, 2, 6), (1, 2, 5, 2, 7), (2, 3, 3, 1, 5),
)
PI_MODES = ((), ("--trace",), ("--json",), ("--trace", "--json"))
CHART_SEEDS = 5
# (h, i, k, n) of the gamma samples, (h, k, n) of the pr samples (n = hk
# records chart coordinates, n > hk a subspace) and (k, i, n) of the eta pairs
CHART_GAMMA = ((2, 3, 2, 5), (3, 4, 2, 6))
CHART_PR = ((2, 2, 4), (3, 2, 6), (3, 1, 5))
CHART_ETA = ((2, 3, 5), (3, 4, 6))


def _dimension_args(h: int, i: int, k: int, n: int) -> list[str]:
    return [
        "verify", "--suite", "dimension", "--h", str(h), "--i", str(i),
        "--k", str(k), "--n", str(n), "--samples", "2", "--seed", "5",
    ]


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return f"exit {code}\n{out.getvalue()}"


def _cli_output(argv: list[str]) -> str:
    """The exit code, stdout and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        text = _cli_stdout(argv)
    return f"{text}--- stderr\n{err.getvalue()}"


def _pi_payloads() -> Iterator[tuple[str, str]]:
    for order, h, i, k, n in PI_QUERIES:
        argv = ["pi", "--order", str(order), "--h", str(h), "--i", str(i), "--k", str(k),
                "--n", str(n)]
        for mode in PI_MODES:
            tag = "".join(flag.replace("--", "-") for flag in mode)
            yield f"cli-pi{order}-{h}-{i}-{k}-{n}{tag}", _cli_output([*argv, *mode])


def _chart(covered: list[Subspace], dim: int, tag: str) -> Trivialization:
    """The first seeded chart (V0, L0) with dim V0 = dim whose complement
    L0 is transverse to V0 and to every covered subspace."""
    n = covered[0].n
    for attempt in range(64):
        v0 = grassmann.sample_subspace(dim, n, f"{tag}:base:{attempt}")
        l0 = grassmann.sample_subspace(n - dim, n, f"{tag}:comp:{attempt}")
        if all(linalg.rank(v.basis.stack(l0.basis)) == n for v in (v0, *covered)):
            return Trivialization.over(v0, l0)
    raise AssertionError(f"no chart found for {tag}")


def _wire(x) -> object:
    """The wire JSON of a subspace, configuration, matrix or pair."""
    if isinstance(x, Subspace):
        return grassmann.subspace_to_json(x)
    if isinstance(x, Configuration):
        return grassmann.configuration_to_json(x)
    if isinstance(x, linalg.Matrix):
        return linalg.matrix_to_json(x)
    return [_wire(part) for part in x]


def _chart_case(base, covered, trivialize, untrivialize, c, other, triv) -> dict:
    """The chart point of c, its untrivialize result, the untrivialize
    result of the same fiber over the base of other, and the isomorphism
    extending the chart projection on the covered subspace of c."""
    point = trivialize(c, triv)
    moved = ChartPoint(base=base(other), fiber=point.fiber)
    return {
        "base": _wire(point.base),
        "fiber": _wire(point.fiber),
        "back": _wire(untrivialize(point, triv)),
        "moved": _wire(untrivialize(moved, triv)),
        "iso": _wire(fibrations.extend_isomorphism(covered(c), triv)),
    }


def _chart_payloads() -> Iterator[tuple[str, str]]:
    def total(c):
        return grassmann.subspace_sum(c.points)

    def front(c):
        return fibrations.pr_forget_last(c)

    def front_sum(c):
        return total(front(c))

    # (name, sampled strata, base of a chart point, covered subspace, maps)
    runs = (
        ("gamma", [StratumId(*s) for s in CHART_GAMMA], total, total,
         fibrations.gamma_trivialize, fibrations.gamma_untrivialize),
        ("pr", [StratumId(h, h * k, k, n) for h, k, n in CHART_PR], front, front_sum,
         fibrations.pr_trivialize, fibrations.pr_untrivialize),
        ("eta", [StratumId(2, i, k, n) for k, i, n in CHART_ETA], fibrations.eta, fibrations.eta,
         fibrations.eta_fiber_point, fibrations.eta_fiber_lift),
    )
    for name, strata, base, covered, trivialize, untrivialize in runs:
        for s in strata:
            tag = f"chart-{name}-{s.h}-{s.i}-{s.k}-{s.n}"
            cases = []
            for seed in range(CHART_SEEDS):
                c = grassmann.sample_configuration(s, f"{tag}:{seed}")
                other = grassmann.sample_configuration(s, f"{tag}:other:{seed}")
                v = covered(c)
                triv = _chart([v, covered(other)], v.k, f"{tag}:{seed}")
                cases.append(_chart_case(base, covered, trivialize, untrivialize, c, other, triv))
            yield tag, json.dumps(cases)


def _off_chart_errors() -> dict:
    """The error each chart map raises on an input outside its chart."""

    def span(n, *idx):
        return grassmann.canonicalize(linalg.Matrix.unit_rows(idx, n), n)

    plane = Trivialization.over(span(4, 0, 1))  # L0 = <e2, e3>
    line = Trivialization.over(span(4, 0))  # L0 = <e1, e2, e3>
    meets = span(4, 0, 2)
    front = Configuration.of([span(4, 0), span(4, 2)])
    inside = Configuration.of([span(4, 0), span(4, 1)])
    calls = {
        "extend_isomorphism": lambda: fibrations.extend_isomorphism(meets, plane),
        "extend_isomorphism_dimension": lambda: fibrations.extend_isomorphism(span(4, 2), plane),
        "gamma_trivialize": lambda: fibrations.gamma_trivialize(front, plane),
        "gamma_untrivialize": lambda: fibrations.gamma_untrivialize(
            ChartPoint(base=meets, fiber=inside), plane),
        "gamma_untrivialize_fiber": lambda: fibrations.gamma_untrivialize(
            ChartPoint(base=span(4, 0, 1), fiber=front), plane),
        "pr_trivialize": lambda: fibrations.pr_trivialize(
            Configuration.of([*front.points, span(4, 1)]), plane),
        "pr_untrivialize": lambda: fibrations.pr_untrivialize(
            ChartPoint(base=front, fiber=span(4, 3)), plane),
        "pr_untrivialize_fiber": lambda: fibrations.pr_untrivialize(
            ChartPoint(base=inside, fiber=span(4, 1)), plane),
        "eta_fiber_point": lambda: fibrations.eta_fiber_point(
            Configuration.of([span(4, 1, 2), span(4, 1, 3)]), line),
        "eta_fiber_lift": lambda: fibrations.eta_fiber_lift(
            ChartPoint(base=span(4, 1), fiber=(span(4, 2), span(4, 3))), line),
        "chart_coordinates": lambda: fibrations.chart_coordinates(span(4, 1, 2), span(4, 0, 1)),
    }
    out = {}
    for name, call in calls.items():
        try:
            call()
        except GrassconfError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
        else:
            out[name] = "no error"
    return out


def _roundtrip_values() -> Iterator[tuple[str, str]]:
    """Per suite and seed, the wire JSON of each default-grid case's
    sample, chart projector, Q_V (V the base the map projects: pr's is
    the front's sum), chart point and round-trip result."""
    for suite, (name, inverse) in (
        ("gamma", ("gamma_trivialize", "gamma_untrivialize")),
        ("pr", ("pr_trivialize", "pr_untrivialize")),
        ("eta", ("eta_fiber_point", "eta_fiber_lift")),
    ):
        fib = verify._check_grid_point(suite, verify.DEFAULT_GRIDS[suite])
        trivialize, untrivialize = getattr(fibrations, name), getattr(fibrations, inverse)
        for seed in range(3):
            cases = []
            for idx in range(ROUNDTRIP_CASES):
                case_seed = f"{seed}:{idx}"
                c = grassmann.sample_configuration(fib.stratum, case_seed)
                triv, point = verify._random_chart(c, fib.chart_dim, trivialize, case_seed)
                v = point.base.span if suite == "pr" else point.base
                cases.append({
                    "sample": _wire(c),
                    "projector": _wire(triv.projector),
                    "q_v": _wire(grassmann.projection_along(v, triv.complement)),
                    "base": _wire(point.base),
                    "fiber": _wire(point.fiber),
                    "back": _wire(untrivialize(point, triv)),
                })
            yield f"roundtrip-values-{suite}-seed{seed}", json.dumps(cases)


def payloads() -> Iterator[tuple[str, str]]:
    """(name, text) of every hashed payload, in a fixed order."""
    for suite in ("gamma", "pr", "eta"):
        for seed in range(3):
            report = verify.run_roundtrip_suite(suite, cases=ROUNDTRIP_CASES, seed=seed)
            yield f"roundtrip-{suite}-seed{seed}", json.dumps(report.to_json())
    for s, target in ADJACENCY:
        c = grassmann.sample_configuration(s, "golden")
        report = verify.check_adjacency(
            c, target, Fraction(1, 1000), trials=ADJACENCY_TRIALS, seed="golden"
        )
        yield f"adjacency-{s.h}-{s.i}-{s.k}-{s.n}-to-{target}", json.dumps(report.to_json())
    sample = _cli_stdout(SAMPLE_ARGS)
    yield "cli-sample", sample
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(sample.split("\n", 1)[1], encoding="utf-8")
        yield "cli-classify-json", _cli_stdout(["classify", str(path), "--json"])
    yield "cli-strata-json", _cli_stdout(STRATA_ARGS)
    for s in DIMENSION_JSON:
        name = "-".join(str(x) for x in s)
        yield f"cli-verify-dimension-json-{name}", _cli_stdout([*_dimension_args(*s), "--json"])
    name = "-".join(str(x) for x in DIMENSION_TEXT)
    yield f"cli-verify-dimension-text-{name}", _cli_stdout(_dimension_args(*DIMENSION_TEXT))
    yield from _pi_payloads()
    yield from _chart_payloads()
    yield "chart-off-chart-errors", json.dumps(_off_chart_errors())
    yield from _roundtrip_values()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_payloads_match_golden_hashes():
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    got = {name: _sha256(text) for name, text in payloads()}
    assert list(got) == list(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"output changed: {changed}"


def test_pi_queries_apply_every_rule():
    # the traces that the --trace --json payloads hash name every row of
    # both rule tables; a refused query prints no JSON
    applied = set()
    for order, h, i, k, n in PI_QUERIES:
        argv = ["pi", "--order", str(order), "--h", str(h), "--i", str(i), "--k", str(k),
                "--n", str(n), "--trace", "--json"]
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv, out=out)
        if out.getvalue():
            applied.update(step["rule"] for step in json.loads(out.getvalue())["trace"]["steps"])
    assert applied == {row[0] for rows in homotopy._RULES.values() for row in rows}


if __name__ == "__main__":
    json.dump({name: _sha256(text) for name, text in payloads()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
