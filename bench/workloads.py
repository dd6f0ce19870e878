"""The three workloads: inputs made from the seed, one case at a time, and
the check of every output.

A case is a pair of callables: ``run()`` does the timed work and returns
its output, ``check(output)`` returns None when the output is correct and
a one-line description otherwise.  Checks use only the benchmark's own
restatement of the paper's closed forms, never the package's tables.

``cases()`` is the fixed list of cases one timed pass runs; every pass runs
the same list.  ``trace_pass()`` is the smaller fixed block that the traced
run repeats, so call and scalar-operation counts repeat exactly from pass
to pass.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import procs


class Case(NamedTuple):
    case_id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# the paper's closed forms, restated


def nonempty(h: int, i: int, k: int, n: int) -> bool:
    if h == 1:
        return i == k
    return k + 1 <= i <= min(h * k, n)


def dimension(h: int, i: int, k: int, n: int) -> int:
    return i * (n - i) + h * k * (i - k)


def free_abelian(rank: int) -> str:
    return "0" if rank == 0 else "Z" if rank == 1 else f"Z^{rank}"


def pi2(h: int, i: int, k: int, n: int) -> Optional[str]:
    """pi_2 of a nonempty stratum with k >= 2; None where the table has no
    value (h >= 3 with k < i < hk)."""
    if i == h * k:
        return free_abelian(h - 1 if n == i else h)
    if h == 2:
        return free_abelian(2 if i == n else 3)
    return None


# ---------------------------------------------------------------------------
# adjacency


ADJ_EPS = Fraction(1, 1000)
ADJ_TRIALS = 20
ADJ_ROUNDS = 3


class Adjacency:
    """One case is one check_adjacency call.  Each round covers the 25
    (low, high) stratum pairs of h in {2, 3}, k in {1, 2, 3}, n <= 6, with
    its own configurations sampled from the low strata."""

    name = "adjacency"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs: list = []

    def setup(self) -> None:
        from grassconf import grassmann

        for rnd in range(ADJ_ROUNDS):
            for h in (2, 3):
                for k in (1, 2, 3):
                    for n in range(k + 1, 7):
                        ids = grassmann.strata_list(h, k, n)
                        for a, low in enumerate(ids):
                            c = grassmann.sample_configuration(
                                low, f"{self.seed}:adj:{rnd}:{h}:{k}:{n}:{low.i}"
                            )
                            for high in ids[a + 1:]:
                                label = f"{h}:{low.i}:{k}:{n}->{high.i}@{rnd}"
                                self.pairs.append((label, c, high.i, rnd))
        if len(self.pairs) != 25 * ADJ_ROUNDS:
            raise RuntimeError(f"expected 25 stratum pairs a round, got {len(self.pairs)}")

    def _case(self, label: str, c, target: int, rnd: int) -> Case:
        from grassconf import verify

        check_seed = f"{self.seed}:{rnd}"

        def run():
            return verify.check_adjacency(c, target, ADJ_EPS, trials=ADJ_TRIALS, seed=check_seed)

        def check(report) -> Optional[str]:
            if report.cases != ADJ_TRIALS + 1:
                return f"{report.cases} cases recorded, expected {ADJ_TRIALS + 1}"
            if not report.ok:
                return f"adjacency failures: {report.failures[:2]}"
            return None

        return Case(label, run, check)

    def cases(self) -> list[Case]:
        return [self._case(*pair) for pair in self.pairs]

    def trace_pass(self) -> list[Case]:
        return [self._case(*pair) for pair in self.pairs if pair[3] == 0]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def describe(self) -> dict:
        return {
            "case": "verify.check_adjacency(c, high.i, eps, trials, seed)",
            "eps": str(ADJ_EPS), "trials": ADJ_TRIALS, "rounds": ADJ_ROUNDS,
            "pairs": [label for label, _, _, _ in self.pairs],
            "configuration_seed": f"{self.seed}:adj:<round>:<h>:<k>:<n>:<low i>",
            "check_seed": f"{self.seed}:<round>",
        }


# ---------------------------------------------------------------------------
# roundtrip


SUITES = ("gamma", "pr", "eta")
ROUNDTRIP_CASES = 60
ROUNDTRIP_TRACE_CASES = 15


class Roundtrip:
    """One case is one run_roundtrip_suite call with a single case, on the
    default grid, cycling gamma, pr, eta."""

    name = "roundtrip"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        import grassconf  # noqa: F401  (set-up includes the package import)

    def _case(self, j: int) -> Case:
        from grassconf import verify

        which = SUITES[j % len(SUITES)]
        case_seed = f"{self.seed}:{j}"

        def run():
            return verify.run_roundtrip_suite(which, cases=1, seed=case_seed)

        def check(report) -> Optional[str]:
            if report.cases != 1:
                return f"{report.cases} cases recorded, expected 1"
            if not report.ok:
                return f"{which} failures: {report.failures}"
            return None

        return Case(f"{which}:{case_seed}", run, check)

    def cases(self) -> list[Case]:
        return [self._case(j) for j in range(ROUNDTRIP_CASES)]

    def trace_pass(self) -> list[Case]:
        return [self._case(j) for j in range(ROUNDTRIP_TRACE_CASES)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def describe(self) -> dict:
        return {
            "case": "verify.run_roundtrip_suite(which, cases=1, seed=f'{seed}:{j}')",
            "cycle": list(SUITES), "grid": "default",
            "cases": ROUNDTRIP_CASES, "trace_pass_cases": ROUNDTRIP_TRACE_CASES,
        }


# ---------------------------------------------------------------------------
# cli


CLI_COMMANDS = ("strata", "pi1", "pi2", "pi2_uncovered", "sample", "classify", "verify_dimension")
CLI_ROUNDS = 5
# (h, i, k, n) of the nonempty strata the command parameters are drawn from
CLI_STRATA = [
    (h, i, k, n)
    for h in (2, 3) for k in (1, 2, 3) for n in range(k + 1, 8)
    for i in range(1, n + 1) if nonempty(h, i, k, n)
]


def _hikn(s: tuple) -> list[str]:
    return ["--h", str(s[0]), "--i", str(s[1]), "--k", str(s[2]), "--n", str(s[3])]


class Cli:
    """One case is one ``python -m grassconf`` run in a fresh interpreter.
    Each round is the command mix CLI_COMMANDS with its own parameters
    drawn from the seed."""

    name = "cli"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds: list[list] = []
        self.first_stdout: dict[str, bytes] = {}
        self.max_rss_kb = 0

    def setup(self) -> None:
        import grassconf  # noqa: F401  (set-up includes the package import)

        rng = random.Random(f"cli:{self.seed}")
        self.rounds = [self._commands(rng, rnd) for rnd in range(CLI_ROUNDS)]

    def _commands(self, rng: random.Random, rnd: int) -> list:
        strata = CLI_STRATA
        wide = [s for s in strata if s[2] >= 2]
        h, k, n = rng.choice([(h, k, n) for h, _, k, n in strata if n <= 6])
        p1 = rng.choice(wide)
        p2 = rng.choice([s for s in wide if pi2(*s) is not None])
        p2u = rng.choice([s for s in wide if pi2(*s) is None])
        smp = rng.choice([s for s in strata if s[3] <= 5])
        dim = rng.choice([s for s in strata if s[3] <= 5 and s[2] <= 2])
        sample_seed = rng.randrange(2 ** 32)
        path = str((procs.TMP_DIR / f"cli-sample-{self.seed}-{rnd}.json").relative_to(procs.ROOT))
        commands = [
            ("strata", ["strata", "--h", str(h), "--k", str(k), "--n", str(n), "--json"],
             self._check_strata(h, k, n)),
            # pi_1 of every nonempty stratum with k >= 2 is trivial
            ("pi1", ["pi", "--order", "1", *_hikn(p1), "--trace", "--json"], self._check_pi(0, "0")),
            ("pi2", ["pi", "--order", "2", *_hikn(p2), "--trace", "--json"], self._check_pi(0, pi2(*p2))),
            ("pi2_uncovered", ["pi", "--order", "2", *_hikn(p2u), "--trace", "--json"],
             self._check_pi(3, None)),
            ("sample", ["sample", *_hikn(smp), "--seed", str(sample_seed), "-o", path],
             self._check_sample(path)),
            ("classify", ["classify", path], self._check_classify(smp[1])),
            ("verify_dimension",
             ["verify", "--suite", "dimension", *_hikn(dim), "--samples", "2",
              "--seed", str(sample_seed), "--json"],
             self._check_dimension(2)),
        ]
        assert tuple(label for label, _, _ in commands) == CLI_COMMANDS
        return commands

    @staticmethod
    def _check_strata(h: int, k: int, n: int):
        def check(code: int, out: bytes) -> Optional[str]:
            if code != 0:
                return f"exit {code}"
            rows = json.loads(out)["strata"]
            expected = [(i, dimension(h, i, k, n)) for i in range(1, n + 1) if nonempty(h, i, k, n)]
            got = [(r["i"], r["dimension"]) for r in rows]
            if got != expected:
                return f"strata dimensions {got} != {expected}"
            return None

        return check

    @staticmethod
    def _check_pi(expected_code: int, render: Optional[str]):
        def check(code: int, out: bytes) -> Optional[str]:
            if code != expected_code:
                return f"exit {code}, expected {expected_code}"
            payload = json.loads(out)
            if render is None:
                if payload["group"]["variant"] != "Unknown":
                    return f"expected Unknown, got {payload['render']}"
            elif payload["render"] != render:
                return f"answer {payload['render']} != {render}"
            if not payload.get("trace", {}).get("steps"):
                return "no derivation trace"
            return None

        return check

    @staticmethod
    def _check_sample(path: str):
        def check(code: int, out: bytes) -> Optional[str]:
            if code != 0:
                return f"exit {code}"
            if out:
                return "sample -o wrote to stdout"
            if not os.path.isfile(path):
                return "sample -o wrote no file"
            return None

        return check

    @staticmethod
    def _check_classify(i: int):
        def check(code: int, out: bytes) -> Optional[str]:
            if code != 0:
                return f"exit {code}"
            if out != f"i = {i}\n".encode():
                return f"classify printed {out!r}, expected i = {i}"
            return None

        return check

    @staticmethod
    def _check_dimension(samples: int):
        def check(code: int, out: bytes) -> Optional[str]:
            if code != 0:
                return f"exit {code}"
            report = json.loads(out)
            if report["cases"] != samples or report["passed"] != samples:
                return f"dimension suite passed {report['passed']}/{report['cases']}"
            return None

        return check

    def _checked(self, case_id: str, check):
        """Add the repeat check: every run of a case prints the bytes of its first run."""
        def full(result) -> Optional[str]:
            code, out = result
            desc = check(code, out)
            if desc is None:
                first = self.first_stdout.setdefault(case_id, out)
                if out != first:
                    desc = "stdout differs from the first run of the same command"
            return desc

        return full

    def _fresh_case(self, case_id: str, argv: list[str], check) -> Case:
        def run():
            result = procs.run_child(procs.python("-m", "grassconf", *argv))
            self.max_rss_kb = max(self.max_rss_kb, result.maxrss_kb)
            if result.timed_out:
                raise TimeoutError(f"ran longer than {procs.CHILD_TIMEOUT_S} s")
            return result.code, result.stdout

        return Case(case_id, run, self._checked(case_id, check))

    def _inprocess_case(self, case_id: str, argv: list[str], check) -> Case:
        from grassconf import cli

        def run():
            out = io.StringIO()
            code = cli.main(list(argv), out=out)
            return code, out.getvalue().encode()

        return Case(case_id, run, self._checked(f"in-process {case_id}", check))

    def cases(self) -> list[Case]:
        return [
            self._fresh_case(f"{label}:{rnd}", argv, check)
            for rnd, commands in enumerate(self.rounds)
            for label, argv, check in commands
        ]

    def trace_pass(self) -> list[Case]:
        """The first round through cli.main in this process, so that the
        package's spans can be recorded; case ids are the command labels."""
        return [self._inprocess_case(*command) for command in self.rounds[0]]

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024

    def describe(self) -> dict:
        return {
            "case": "python -m grassconf <command>, one fresh interpreter at a time",
            "rounds": [{label: argv for label, argv, _ in commands} for commands in self.rounds],
        }


WORKLOADS = {w.name: w for w in (Adjacency, Roundtrip, Cli)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
