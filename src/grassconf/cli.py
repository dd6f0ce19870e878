"""Command-line surface: strata queries, homotopy groups with traces,
sampling, classification, and verification suites.

Exit codes: 0 success, 1 verification failures, 2 usage or data errors,
3 answer outside the computed coverage (rendered as Unknown).

At start-up only the strata as index data (_strata, which holds no matrix
code) is imported: ``strata`` runs on it alone and ``pi`` adds homotopy.
``sample``, ``classify`` and ``verify`` import grassmann (with linalg), and
``verify`` the verification suites, when they run (fibrations only for a
roundtrip suite), so a fresh interpreter loads only what its command
needs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from ._strata import (
    StratumId,
    is_stratum_nonempty,
    strata_list,
    stratum_closure,
    stratum_dimension,
)
from .errors import GrassconfError

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_UNCOVERED = 3


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def _parse_eps(text: str):
    """--eps as an exact fraction the report can write back; anything else
    is a usage error that names the flag.

    Fraction(text) computes 10**|exponent| before its digits can be
    counted.  An exponent past the int-to-str limit by more than the
    mantissa's length leaves any nonzero value a numerator or denominator
    too long to write, so it is refused from the mantissa alone, which has
    the text's syntax and, when it is 0, its value.  With the limit
    switched off (0) both checks use the interpreter's default limit, so
    the same texts are refused.
    """
    from fractions import Fraction

    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    scaled = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*", text, re.DOTALL)
    try:
        huge = scaled is not None and abs(int(scaled[2])) > limit + len(scaled[1])
        eps = Fraction(scaled[1] + "e0") if huge else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--eps {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--eps {text!r} is not a fraction") from None
    try:
        if (huge and eps) or any(len(str(abs(part))) > limit for part in eps.as_integer_ratio()):
            raise ValueError
    except ValueError:
        raise ValueError(f"--eps {text!r} has too many digits to write in the report") from None
    return eps


def cmd_strata(args, out) -> int:
    ids = strata_list(args.h, args.k, args.n)
    rows = [{
        "i": s.i,
        "dimension": stratum_dimension(s),
        "nonempty": is_stratum_nonempty(s),
        "open": s is ids[-1],
        "closure": [t.i for t in stratum_closure(s)],
    } for s in ids]
    if args.json:
        _emit(_dumps({"h": args.h, "k": args.k, "n": args.n, "strata": rows}), out)
    else:
        for row in rows:
            tag = "  open" if row["open"] else ""
            closure = ",".join(str(x) for x in row["closure"])
            _emit(
                f"F_{args.h}^{row['i']}({args.k},{args.n})  dim={row['dimension']}"
                f"  nonempty={'yes' if row['nonempty'] else 'no'}{tag}  closure=[{closure}]",
                out,
            )
    return EXIT_OK


def cmd_pi(args, out) -> int:
    from . import homotopy

    s = _stratum_flags(args)
    value, trace = homotopy.derive(s, args.order)
    if args.json:
        payload = {
            "query": {"order": args.order, "h": args.h, "i": args.i, "k": args.k, "n": args.n},
            "group": value.to_json(),
            "render": value.render(),
        }
        if args.trace:
            payload["trace"] = trace.to_json()
        _emit(_dumps(payload), out)
    else:
        if args.trace:
            for line in trace.render_lines():
                _emit(line, out)
        else:
            _emit(value.render(), out)
    return EXIT_UNCOVERED if isinstance(value, homotopy.Unknown) else EXIT_OK


def cmd_sample(args, out) -> int:
    from . import grassmann

    _check_seed(args.seed)
    s = _stratum_flags(args)
    cfg = grassmann.sample_configuration(s, args.seed)
    text = _dumps(grassmann.configuration_to_json(cfg))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _emit(text, out)
    return EXIT_OK


def cmd_classify(args, out) -> int:
    from . import grassmann

    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"the JSON in {args.file} is nested too deeply") from None
    cfg = grassmann.configuration_from_json(data)
    s = StratumId(cfg.h, grassmann.stratum_of(cfg), cfg.k, cfg.n)
    if args.json:
        _emit(_dumps({"h": s.h, "i": s.i, "k": s.k, "n": s.n}), out)
    else:
        _emit(f"i = {s.i}", out)
    return EXIT_OK


def _build_grid(args, suite: str) -> dict:
    from . import verify

    grid = dict(verify.DEFAULT_GRIDS[suite])
    for key in grid:
        if getattr(args, key) is not None:
            grid[key] = getattr(args, key)
    return grid


def _stratum_flags(args) -> StratumId:
    if None in (args.h, args.i, args.k, args.n):
        raise ValueError(f"suite {args.suite} needs --h, --i, --k, and --n")
    return StratumId(args.h, args.i, args.k, args.n)


def cmd_verify(args, out) -> int:
    from . import grassmann, verify

    _check_seed(args.seed)
    if args.suite in ("gamma", "pr", "eta"):
        report = verify.run_roundtrip_suite(
            args.suite, grid=_build_grid(args, args.suite), cases=args.cases, seed=args.seed
        )
    elif args.suite == "dimension":
        s = _stratum_flags(args)
        report = verify.check_dimension(s, samples=args.samples, seed=args.seed)
    elif args.suite == "adjacency":
        s = _stratum_flags(args)
        cfg = grassmann.sample_configuration(s, args.seed)
        target = args.target if args.target is not None else min(s.h * s.k, s.n)
        report = verify.check_adjacency(
            cfg, target, _parse_eps(args.eps), trials=args.trials, seed=args.seed
        )
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    payload = _dumps(report.to_json())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.json:
        _emit(payload, out)
    else:
        _emit(f"suite {report.suite}: {report.passed}/{report.cases} passed", out)
        for seed, desc in report.failures:
            _emit(f"  FAIL [{seed}] {desc}", out)
    return EXIT_OK if report.ok else EXIT_FAILURES


def _add_stratum_flags(parser: argparse.ArgumentParser, names: str, required: bool) -> None:
    """The integer flags --h, --i, --k and --n of the stratum, those in names."""
    for name in names:
        parser.add_argument(f"--{name}", type=int, required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassconf",
        description="Configuration spaces of subspaces in complex Grassmannians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", help="list the sum-dimension strata")
    _add_stratum_flags(p_strata, "hkn", required=True)
    p_strata.add_argument("--json", action="store_true")
    p_strata.set_defaults(handler=cmd_strata)

    p_pi = sub.add_parser("pi", help="homotopy group of a stratum")
    p_pi.add_argument("--order", type=int, choices=(1, 2), required=True)
    _add_stratum_flags(p_pi, "hikn", required=True)
    p_pi.add_argument("--trace", action="store_true")
    p_pi.add_argument("--json", action="store_true")
    p_pi.set_defaults(handler=cmd_pi)

    p_sample = sub.add_parser("sample", help="sample a configuration from a stratum")
    _add_stratum_flags(p_sample, "hikn", required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("-o", "--output")
    p_sample.set_defaults(handler=cmd_sample)

    p_classify = sub.add_parser("classify", help="stratum index of a stored configuration")
    p_classify.add_argument("file")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(handler=cmd_classify)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", required=True,
        choices=("gamma", "pr", "eta", "dimension", "adjacency"),
    )
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_stratum_flags(p_verify, "hikn", required=False)
    p_verify.add_argument("--samples", type=int, default=3)
    p_verify.add_argument("--target", type=int)
    p_verify.add_argument("--eps", default="1/1000")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("-o", "--output")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse drops a value of exactly "--" and stores [] unconverted
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        return args.handler(args, out)
    except (GrassconfError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
