"""Byte-identity of deterministic outputs, against committed SHA-256 hashes.

Each payload below is a JSON report or a CLI stdout that must not change
when the exact kernel is refactored: the roundtrip suites, the adjacency
check and five CLI commands, all on fixed seeds.  golden_hashes.json holds
the SHA-256 of each payload as a known-good tree produced it; regenerate it
only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from grassconf import cli, grassmann, verify
from grassconf.grassmann import StratumId

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


def _dimension_args(h: int, i: int, k: int, n: int) -> list[str]:
    return [
        "verify", "--suite", "dimension", "--h", str(h), "--i", str(i),
        "--k", str(k), "--n", str(n), "--samples", "2", "--seed", "5",
    ]


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return f"exit {code}\n{out.getvalue()}"


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_payloads_match_golden_hashes():
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    got = {name: _sha256(text) for name, text in payloads()}
    assert list(got) == list(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"output changed: {changed}"


if __name__ == "__main__":
    json.dump({name: _sha256(text) for name, text in payloads()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
