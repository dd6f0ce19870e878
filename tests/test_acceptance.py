"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion also asserts, so a plain pytest run enforces them.
"""

import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from grassconf.cli import main as cli_main
from grassconf.errors import EmptyStratumError
from grassconf.grassmann import (
    StratumId,
    canonicalize,
    is_stratum_nonempty,
    random_invertible,
    sample_configuration,
    sample_subspace,
    strata_list,
    stratum_of,
)
from grassconf.homotopy import (
    TRIVIAL,
    Z,
    Symmetric,
    Unknown,
    config_pi1,
    config_pi2,
    config_unordered_pi1,
    free_abelian,
    grassmann_pi,
    stiefel_pi,
)
from grassconf.linalg import kernel, rank, rref
from grassconf.verify import check_adjacency, check_dimension, run_roundtrip_suite
from oracles import rand_matrix


def run_criterion(num, label, budget, body):
    start = time.monotonic()
    error = None
    try:
        body()
    except BaseException as exc:  # re-raised after reporting
        error = exc
    elapsed = time.monotonic() - start
    ok = error is None and elapsed < budget
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)",
        flush=True,
    )
    if error is not None:
        raise error
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget:.0f}s)"


def nonempty_strata(h, k, n):
    if h == 1:
        return [StratumId(1, k, k, n)]
    return strata_list(h, k, n)


def test_criterion_1_homotopy_tables():
    def body():
        for h in range(1, 6):
            for k in range(2, 5):
                for n in range(k + 1, 13):
                    for s in nonempty_strata(h, k, n):
                        assert config_pi1(s) == TRIVIAL, s
                        assert config_unordered_pi1(s) == Symmetric(h), s
                        pi2 = config_pi2(s)
                        if s.i == h * k:
                            expected = free_abelian(h - 1 if n == h * k else h)
                            assert pi2 == expected, (s, pi2)
                        elif h == 2:
                            assert s.i < 2 * k
                            expected = free_abelian(2 if s.i == n else 3)
                            assert pi2 == expected, (s, pi2)
                        else:
                            assert isinstance(pi2, Unknown), (s, pi2)

    run_criterion(1, "homotopy table reproduction (exact symbolic)", 1.0, body)


def test_criterion_2_stiefel_grassmann_tables():
    def body():
        # explicitly stated values
        for n in range(2, 13):
            assert stiefel_pi(1, n, n) == Z
            assert stiefel_pi(2, n, n) == TRIVIAL
            assert stiefel_pi(3, n, n) == Z
            assert stiefel_pi(3, n - 1, n) == Z
        assert grassmann_pi(3, 1, 2) == Z
        # full sweep against the fibration reductions: for k < n the
        # homotopy is that of the odd sphere S^{2(n-k)+1}
        for n in range(1, 13):
            for k in range(1, n + 1):
                for j in (1, 2, 3):
                    got = stiefel_pi(j, k, n)
                    if k == n:
                        expected = {1: Z, 2: TRIVIAL, 3: Z if n > 1 else TRIVIAL}[j]
                    else:
                        sphere = 2 * (n - k) + 1
                        expected = Z if j == sphere else TRIVIAL
                    assert got == expected, (j, k, n, got)
        for n in range(2, 13):
            for k in range(1, n):
                assert grassmann_pi(1, k, n) == TRIVIAL
                assert grassmann_pi(2, k, n) == Z
                expected3 = Z if (k, n) == (1, 2) else TRIVIAL
                assert grassmann_pi(3, k, n) == expected3, (k, n)

    run_criterion(2, "Stiefel and Grassmannian tables (j <= 3, n <= 12)", 1.0, body)


def test_criterion_3_dimension_formula():
    def body():
        count = 0
        for h in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(k + 1, 7):
                    for s in nonempty_strata(h, k, n):
                        report = check_dimension(s, samples=3, seed=11)
                        assert report.ok, (s, report.failures[:2])
                        count += 1
        assert count == 55

    run_criterion(3, "dimension formula by exact tangent rank", 120.0, body)


def test_criterion_4_emptiness_and_sampler():
    def body():
        for h in range(1, 5):
            for k in range(1, 5):
                for n in range(k + 1, 9):
                    for i in range(0, min(h * k, n) + 2):
                        s = StratumId(h, i, k, n)
                        if is_stratum_nonempty(s):
                            c = sample_configuration(s, 5)
                            assert stratum_of(c) == i, s
                        else:
                            try:
                                sample_configuration(s, 5)
                            except EmptyStratumError:
                                pass
                            else:
                                raise AssertionError(f"sampler succeeded on empty {s}")

    run_criterion(4, "emptiness predicate = sampler success set", 60.0, body)


def test_criterion_5_roundtrip_suites():
    def body():
        for which in ("gamma", "pr", "eta"):
            report = run_roundtrip_suite(which, cases=100, seed=1)
            assert report.cases == 100
            assert report.ok, (which, report.failures[:3])
        # the eta suite checks dim(H1 ^ H2) = 2k - i on every case, and
        # eta_fiber_lift decides that the quotient pair is in direct sum;
        # spot-check the intersection once more directly
        c = sample_configuration(StratumId(2, 3, 2, 4), 17)
        from grassconf.fibrations import eta

        assert eta(c).k == 2 * 2 - 3

    run_criterion(5, "trivialization round trips 100/100 per fibration", 60.0, body)


def test_criterion_6_exact_linalg_properties():
    def body():
        # rank-nullity, 1000 cases
        for seed in range(1000):
            rng = random.Random(f"rn:{seed}")
            m = rand_matrix(rng.randint(1, 4), rng.randint(1, 6), rng, sparse=0.4)
            assert rank(m) + kernel(m).rows == m.cols
        # modular dimension identity, 1000 cases
        from grassconf.grassmann import intersection_dim, subspace_sum as ssum

        for seed in range(1000):
            rng = random.Random(f"mod:{seed}")
            n = rng.randint(2, 6)
            ka = rng.randint(1, n - 1)
            kb = rng.randint(1, n - 1)
            a = sample_subspace(ka, n, f"acc6:{seed}:a")
            b = sample_subspace(kb, n, f"acc6:{seed}:b")
            assert ssum([a, b]).k + intersection_dim(a, b) == ka + kb
        # rref idempotence, 1000 cases
        for seed in range(1000):
            rng = random.Random(f"idem:{seed}")
            m = rand_matrix(rng.randint(1, 4), rng.randint(1, 6), rng, sparse=0.4)
            reduced = rref(m)
            assert rref(reduced.matrix) == reduced
        # canonical-form invariance under change of basis, 1000 cases
        for seed in range(1000):
            rng = random.Random(f"canon:{seed}")
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            raw = rand_matrix(k, n, rng)
            if rank(raw) < k:
                continue
            s = canonicalize(raw, n)
            g = random_invertible(k, rng)
            assert canonicalize(g @ raw, n) == s

    run_criterion(6, "exact linear algebra properties, 1000 cases each", 60.0, body)


def test_criterion_7_adjacency():
    def body():
        eps = Fraction(1, 1000)
        pairs = 0
        for h in (2, 3):
            for k in (1, 2, 3):
                for n in range(k + 1, 7):
                    ids = strata_list(h, k, n)
                    for a in range(len(ids)):
                        for b in range(a + 1, len(ids)):
                            low, high = ids[a], ids[b]
                            c = sample_configuration(low, f"adj:{h}:{k}:{n}:{low.i}")
                            report = check_adjacency(c, high.i, eps, trials=500, seed=7)
                            assert report.ok, (low, high.i, report.failures[:3])
                            pairs += 1
        assert pairs == 25

    run_criterion(7, "adjacency witnesses and 500-trial semicontinuity", 120.0, body)


def test_criterion_8_cli_determinism(tmp_path):
    def body():
        def run(argv):
            out = io.StringIO()
            code = cli_main(argv, out=out)
            return code, out.getvalue()

        commands = [
            ["sample", "--h", "3", "--i", "5", "--k", "2", "--n", "7", "--seed", "42"],
            ["verify", "--suite", "eta", "--cases", "5", "--seed", "3", "--json"],
            ["pi", "--order", "2", "--h", "2", "--i", "3", "--k", "2", "--n", "5",
             "--trace", "--json"],
            ["strata", "--h", "3", "--k", "2", "--n", "6", "--json"],
        ]
        for argv in commands:
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            assert code1 == code2
            assert out1 == out2, argv
            json.loads(out1)
        # end-to-end through a fresh interpreter as well
        cmd = [sys.executable, "-m", "grassconf.cli", "sample", "--h", "2", "--i",
               "3", "--k", "2", "--n", "5", "--seed", "9"]
        first = subprocess.run(cmd, capture_output=True, timeout=60)
        second = subprocess.run(cmd, capture_output=True, timeout=60)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    run_criterion(8, "CLI determinism: identical seeds, identical bytes", 60.0, body)
