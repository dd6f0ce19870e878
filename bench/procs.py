"""Child interpreters, one at a time, and the facts a result file records
about the machine."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = OUT_DIR / "tmp"
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion and return its output and its own peak RSS.

    ``os.wait4`` reaps the child, so its resource usage is the child's
    alone rather than the running maximum over every child so far.
    """
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=TMP_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            proc.stdout.close()
            if status is None:
                proc.kill()
                os.waitpid(proc.pid, 0)
            proc.returncode = -1 if status is None else os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(
            proc.returncode, out, err.read(), wall, usage.ru_maxrss, timed_out.is_set()
        )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    grassconf and generated every input of the workload."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import workloads\n"
        f"workloads.make({workload!r}, {seed!r}).setup()\n"
        "sys.stdout.write('ready\\n')\n"
        "sys.stdout.flush()\n"
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        python("-c", script), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        killer.cancel()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"setup of {workload} failed in a fresh interpreter (exit {code})")
    return elapsed


REFERENCE_TERMS = 2500
# reference_work() on an idle 2-vCPU Intel Xeon host with CPython 3.11, the
# host the benchmark was defined on
REFERENCE_NOMINAL_S = 0.010


def reference_work() -> float:
    """Seconds for a fixed pure-Python Fraction sum: the yardstick of host
    speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def time_bare_interpreter() -> float:
    result = run_child(python("-c", "pass"))
    if result.code != 0:
        raise RuntimeError("a bare interpreter failed to start")
    return result.wall_s


def time_import() -> float:
    """Seconds a fresh interpreter spends in ``import grassconf``."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import grassconf\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    result = run_child(python("-c", code))
    if result.code != 0:
        raise RuntimeError("import grassconf failed in a fresh interpreter")
    return float(result.stdout)


def numpy_import_s() -> float:
    """numpy's cumulative import time under ``-X importtime`` while a fresh
    interpreter imports grassconf (0.0 when grassconf does not load numpy)."""
    result = run_child(python("-X", "importtime", "-c", "import grassconf"))
    if result.code != 0:
        raise RuntimeError("import grassconf failed under -X importtime")
    for line in result.stderr.decode().splitlines():
        # "import time:  self [us] | cumulative | imported package"
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }
