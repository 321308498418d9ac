"""Span tracing of archdim's public functions from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
archdim namespace that holds a reference to it (modules import by name, so
``experiments.tangent_frame`` and ``contraction.tangent_frame`` are the same
object in two places), and in the class dictionary for methods.
``Tracer.uninstall`` puts every original object back.  Spans stay in memory
as (name, start, end, parent, op) rows until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# (defining module, attribute or Class.attribute, span name)
TARGETS = (
    ("cli", "main", "cli"),
    ("experiments", "growth_sweep", "experiments.sweep"),
    ("experiments", "randomized_architecture_experiment", "experiments.mc"),
    ("architecture", "staircase", "architecture.build"),
    ("architecture", "brickwork", "architecture.build"),
    ("architecture", "random_adjacent", "architecture.build"),
    ("architecture", "detect_staircase_slices", "architecture.detect"),
    ("contraction", "GateAssignment.haar", "contraction.haar"),
    ("contraction", "accessible_dimension", "contraction.consensus"),
    ("contraction", "tangent_frame", "contraction.frame"),
    ("contraction", "pauli_coefficients", "contraction.pauli"),
    ("contraction", "numerical_rank", "contraction.rank"),
    ("contraction", "contract", "contraction.contract"),
    ("contraction", "contract_state", "contraction.contract"),
    ("dense", "apply_gate_left", "dense.apply"),
    ("dense", "apply_gate_right", "dense.apply"),
    ("witness", "witness_point", "witness.build"),
    ("witness", "verify_certificate", "witness.verify"),
    ("clifford", "CliffordTableau.conjugate", "clifford.conj"),
    ("clifford", "routing_clifford_2q", "clifford.routing"),
)

# Self time of each span name, reported under the benchmark's metric names.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "experiments.sweep": "experiments.sweep.self_s",
    "experiments.mc": "experiments.mc.self_s",
    "architecture.build": "architecture.build_s",
    "architecture.detect": "architecture.detect_s",
    "contraction.haar": "contraction.haar_s",
    "contraction.consensus": "contraction.consensus.self_s",
    "contraction.frame": "contraction.frame.self_s",
    "contraction.pauli": "contraction.pauli_s",
    "contraction.rank": "contraction.rank_s",
    "contraction.contract": "contraction.contract_s",
    "dense.apply": "dense.apply_s",
    "witness.build": "witness.build_s",
    "witness.verify": "witness.verify.self_s",
    "clifford.conj": "clifford.conj_s",
    "clifford.routing": "clifford.routing_s",
}

CALL_METRICS = {
    "contraction.pauli": "contraction.pauli_calls",
    "dense.apply": "dense.apply_calls",
    "contraction.rank": "contraction.rank_calls",
    "clifford.conj": "clifford.conj_calls",
    "clifford.routing": "clifford.routing_calls",
}

# Counts that must repeat exactly between two traced passes of one op list.
COUNT_METRICS = (
    *CALL_METRICS.values(), "contraction.frames", "contraction.frame_mb",
    "contraction.conclusive_ratio", "architecture.gates", "witness.slices",
    "trace.ops", "trace.spans",
)


def _frame_bytes(frame) -> int:
    # Computed from n, mode and R, not measured: rows x 15R float64 columns.
    rows = 4 ** frame.n if frame.mode == "unitary" else 2 * 2 ** frame.n
    return rows * 15 * frame.gate_count * 8


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "architecture.build":
        counts["architecture.gates"] += result.gate_count
    elif name == "contraction.frame":
        counts["contraction.frames"] += 1
        counts["contraction.frame_bytes"] += _frame_bytes(result)
    elif name == "contraction.rank":
        counts["contraction.conclusive"] += int(result.conclusive)
    elif name == "witness.build":
        counts["witness.slices"] += result.slice_count


class Tracer:
    """Wraps archdim's public functions with in-memory span recording."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op_id)
                stack.pop()
            _count_result(counts, name, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "archdim" or key.startswith("archdim.")]
        for module_name, attr, span in TARGETS:
            home = sys.modules[f"archdim.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapped = self._wrap(raw, span)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, span)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def write(self, path: str) -> None:
        """Write every span as gzipped ``index,op,name,start,end,parent`` CSV."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index,op,name,start,end,parent\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i},{op},{name},{start!r},{end!r},{parent}\n")

    def metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics, inclusive seconds per span name).

        Self time is a span's duration minus the durations of its direct
        child spans; metrics are self times, call counts and counts taken
        from return values."""
        self_time: Counter = Counter()
        total_time: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = set()
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
            total_time[name] += end - start
            calls[name] += 1
            ops.add(op)
        out = {metric: self_time[name] for name, metric in SELF_TIME_METRICS.items()}
        out.update({metric: calls[name] for name, metric in CALL_METRICS.items()})
        c = self.counts
        out["contraction.frames"] = c["contraction.frames"]
        out["contraction.frame_mb"] = c["contraction.frame_bytes"] / 1e6
        rank_calls = calls["contraction.rank"]
        # No estimate at all means none was inconclusive.
        out["contraction.conclusive_ratio"] = (
            c["contraction.conclusive"] / rank_calls if rank_calls else 1.0)
        out["architecture.gates"] = c["architecture.gates"]
        out["witness.slices"] = c["witness.slices"]
        out["trace.ops"] = len(ops)
        out["trace.spans"] = len(self.spans)
        return out, dict(total_time)
