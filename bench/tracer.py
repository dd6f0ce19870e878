"""Spans and counters recorded from outside the package.

The tracer replaces public functions in the module that defines them, so
calls made inside the package (``linalg.rank`` calling ``rref``, ``verify``
calling ``linalg.rank``) go through the wrapper too.  It wraps no
``_private`` name: those are implementation details that refactors are free
to delete or rename.  The only dunder names it touches are the arithmetic
operators of ``GaussianRational`` and ``Matrix.__matmul__``, which are the
public operator protocol of those classes.

Spans are kept in memory while a pass runs and written out when the
benchmark ends.  Self time is a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

# Public functions by layer, named as in the defining module.  "Cls.meth"
# names a method; ATTRIBUTE maps a name to the attribute that implements it.
LAYERS = {
    "linalg": ["rref", "rank", "solve", "invert", "kernel", "Matrix.matmul"],
    "grassmann": [
        "canonicalize", "subspace_sum", "subspace_intersection",
        "projection_along", "sample_configuration", "sample_subspace",
    ],
    "fibrations": [
        "gamma_trivialize", "gamma_untrivialize", "pr_trivialize",
        "pr_untrivialize", "eta_fiber_point", "eta_fiber_lift",
        "extend_isomorphism", "Trivialization.over",
    ],
    "homotopy": ["derive", "DerivationTrace.replay"],
    "verify": [
        "check_adjacency", "run_roundtrip_suite", "check_dimension",
        "subspace_distance", "configuration_distance", "float_rank",
    ],
    "cli": ["main"],
}
ATTRIBUTE = {"Matrix.matmul": "__matmul__"}

# GaussianRational operators counted as linalg.scalar.<op>; subtraction
# counts as an addition.
SCALAR_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__"),
    "div": ("__truediv__",),
}

RREF = "linalg.rref"
RANK = "linalg.rank"
WIDE_BITS = 32


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _resolve(name: str):
    """(owner, attribute name, current value) of a dotted span name; the
    value is None when the package no longer defines the name."""
    layer, _, rest = name.partition(".")
    owner = importlib.import_module(f"grassconf.{layer}")
    cls, dot, fn = rest.rpartition(".")
    attr = ATTRIBUTE.get(rest, fn)
    if not dot:
        return owner, attr, getattr(owner, attr, None)
    owner = getattr(owner, cls, None)
    # vars() keeps a staticmethod wrapped, so it can be re-wrapped as one
    return owner, attr, vars(owner).get(attr) if isinstance(owner, type) else None


def component_bits(m) -> int:
    """Largest bit length of any numerator or denominator in the matrix."""
    best = 0
    for row in m.entries:
        for e in row:
            for q in (e.re, e.im):
                b = max(q.numerator.bit_length(), q.denominator.bit_length())
                if b > best:
                    best = b
    return best


class Tracer:
    """Records spans (name, start, end, parent, case id) and scalar-op counts."""

    def __init__(self) -> None:
        self.names = span_names()
        self.spans: list = []
        self.inputs: dict[int, object] = {}
        self.stack: list[int] = []
        self.case = None
        self.scalar = {op: [0] for op in SCALAR_OPS}
        self.missing: list[str] = []
        self.passes: list[list] = []

    def _wrap(self, name_idx: int, fn, keep_input: bool):
        spans, stack, inputs, clock = self.spans, self.stack, self.inputs, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if keep_input:
                inputs[idx] = args[0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, tracer.case)

        return wrapper

    @staticmethod
    def _count(cell: list, fn):
        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of one traced pass."""
        saved = []
        try:
            for idx, name in enumerate(self.names):
                owner, attr, raw = _resolve(name)
                if raw is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                keep = name == RREF
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(idx, raw.__func__, keep))
                else:
                    new = self._wrap(idx, raw, keep)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            gr = importlib.import_module("grassconf.linalg").GaussianRational
            for op, attrs in SCALAR_OPS.items():
                for attr in attrs:
                    raw = vars(gr)[attr]
                    saved.append((gr, attr, raw))
                    setattr(gr, attr, self._count(self.scalar[op], raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def end_pass(self, wall_ns: int) -> dict:
        """Summarize the spans of the pass just run, keep them, and reset."""
        spans = self.spans
        if self.stack or any(s is None for s in spans):
            raise RuntimeError("a span was left open at the end of a pass")
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        rref_rows = []  # (bits, self_ns, reached through rank)
        root_ns = 0
        for idx, (name_idx, start, end, parent, _) in enumerate(spans):
            own = end - start - child[idx]
            calls[name_idx] += 1
            self_ns[name_idx] += own
            if parent < 0:
                root_ns += end - start
            if idx in self.inputs:
                through_rank = parent >= 0 and self.names[spans[parent][0]] == RANK
                rref_rows.append((component_bits(self.inputs[idx]), own, through_rank))
        summary = {
            "wall_ns": wall_ns,
            "root_ns": root_ns,
            "calls": dict(zip(self.names, calls)),
            "self_ns": dict(zip(self.names, self_ns)),
            "scalar": {op: cell[0] for op, cell in self.scalar.items()},
            "rref": rref_rows,
        }
        self.passes.append(list(spans))
        spans.clear()
        self.inputs.clear()
        for cell in self.scalar.values():
            cell[0] = 0
        return summary

    def write_spans(self, path: Path) -> int:
        """One JSON array per line: [pass, name, start_ns, end_ns, parent, case].

        Times are relative to the first span of the pass; parent is the
        index of the parent span within the same pass, -1 for a root.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for pass_idx, spans in enumerate(self.passes):
                t0 = spans[0][1] if spans else 0
                for name_idx, start, end, parent, case in spans:
                    fh.write(json.dumps(
                        [pass_idx, self.names[name_idx], start - t0, end - t0, parent, case]
                    ) + "\n")
                    count += 1
        return count


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = (summary["calls"][name], "count")
        out[f"{name}.self_s"] = (summary["self_ns"][name] / 1e9, "s")
    for layer, fns in LAYERS.items():
        out[f"{layer}.self_s"] = (sum(summary["self_ns"][f"{layer}.{fn}"] for fn in fns) / 1e9, "s")
    rows = summary["rref"]
    bits = sorted(b for b, _, _ in rows)
    total = sum(own for _, own, _ in rows)
    wide = sum(own for b, own, _ in rows if b > WIDE_BITS)
    out["linalg.rref.in_bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
    out["linalg.rref.in_bits_max"] = (bits[-1] if bits else 0, "bits")
    out["linalg.rref.wide_share"] = (wide / total if total else 0.0, "ratio")
    out["linalg.rref.rank_only_share"] = (
        sum(1 for _, _, via in rows if via) / len(rows) if rows else 0.0, "ratio"
    )
    for op in SCALAR_OPS:
        out[f"linalg.scalar.{op}"] = (summary["scalar"][op], "count")
    return out


def counts_repeat(summaries: list[dict]) -> bool:
    """True when every pass made exactly the same calls and scalar ops."""
    first = summaries[0]
    return all(s["calls"] == first["calls"] and s["scalar"] == first["scalar"] for s in summaries)
