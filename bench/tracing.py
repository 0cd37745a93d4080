"""Spans around the public functions of each `qpirlab` layer.

The benchmark never edits the program: it replaces each traced function by
a wrapper in every `qpirlab` module that holds a reference to it.  Modules
use `from .linalg import uhlmann_unitary`, so patching only the defining
module would miss most calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    audit: int
    size: dict | None = None


def _mb(nbytes: float) -> float:
    return nbytes / 2**20


def _batch_size(args, kwargs, result) -> dict:
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    rows = max(columns.shape[0], result[1].shape[0])
    return {"columns": columns.shape[1],
            "batch_mb": _mb(rows * columns.shape[1] * 16)}


def _density_size(args, kwargs, result) -> dict:
    d = args[0].layout.total_dim
    return {"mb": _mb(d * d * 16)}


def _uhlmann_size(args, kwargs, result) -> dict:
    return {"d_client": result.input_layout.total_dim}


def _suite_size(args, kwargs, result) -> dict:
    return {"inputs": len(result)}


#: (module, attribute path, span name, size function).  The span name is
#: `<module>.<function>`; sizes are computed from array shapes.
TARGETS = (
    ("protocol", "purify_both", None, None),
    ("protocol", "execute_pure_batch", None, _batch_size),
    ("protocol", "execute", None, None),
    ("protocol", "rank_trace", None, None),
    ("protocol", "random_protocol", None, None),
    ("qpir", "correctness_delta", None, None),
    ("qpir", "server_marginals", None, None),
    ("qpir", "privacy_epsilon_purified", None, None),
    ("qpir", "builtin", None, None),
    ("linalg", "uhlmann_unitary", None, _uhlmann_size),
    ("linalg", "schmidt_compressor", None, None),
    ("linalg", "helstrom_matrices", None, None),
    ("linalg", "trace_distance_matrices", None, None),
    ("linalg", "schmidt_rank", None, None),
    ("reduction", "build_rae", None, None),
    ("reduction", "recovery_rates", None, None),
    ("reduction", "bound_report", None, None),
    ("reduction", "superposition_attack", None, None),
    ("states", "apply_isometry", None, None),
    ("states", "apply_channel", None, None),
    ("states", "pure_density", None, _density_size),
    ("states", "Isometry.__post_init__", "states.Isometry.validate", None),
    ("adversary", "certify_specious", None, None),
    ("adversary", "purified_adversary", None, None),
    ("adversary", "trace_out_recovery", None, None),
    ("adversary", "default_input_suite", None, _suite_size),
    ("cli", "main", None, None),
)

#: Constructors only counted, not timed: a span per object would cost
#: more than the object.
COUNTERS = (
    ("registers", "RegisterLayout.__post_init__", "registers.RegisterLayout.new"),
)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    audit: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, size_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent, self.audit)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if size_fn is not None:
                span.size = size_fn(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a traced function in `qpirlab`."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "qpirlab" or k.startswith("qpirlab."))]
        for module, path, name, size_fn in TARGETS:
            self._patch(mods, module, path, name or f"{module}.{path}",
                        lambda n, f, s=size_fn: self._span(n, f, s))
        for module, path, name in COUNTERS:
            self._patch(mods, module, path, name, self._counter)

    def _patch(self, mods, module: str, path: str, name: str, make) -> None:
        owner = sys.modules[f"qpirlab.{module}"]
        if "." in path:  # a method: patch the class attribute once
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(name, original))
            return
        original = getattr(owner, path)
        wrapper = make(name, original)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": sp.name,
                                     "start": sp.start, "end": sp.end,
                                     "parent": sp.parent, "audit": sp.audit,
                                     "size": sp.size}) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


#: Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("protocol.purify_both.calls", "count"),
    ("protocol.purify_both.self_s", "s"),
    ("protocol.execute_pure_batch.calls", "count"),
    ("protocol.execute_pure_batch.self_s", "s"),
    ("protocol.execute_pure_batch.columns", "count"),
    ("protocol.execute_pure_batch.batch_mb", "MB"),
    ("protocol.execute.calls", "count"),
    ("protocol.execute.self_s", "s"),
    ("protocol.rank_trace.self_s", "s"),
    ("protocol.random_protocol.self_s", "s"),
    ("qpir.correctness_delta.self_s", "s"),
    ("qpir.server_marginals.calls", "count"),
    ("qpir.server_marginals.self_s", "s"),
    ("qpir.privacy_epsilon_purified.self_s", "s"),
    ("qpir.builtin.self_s", "s"),
    ("linalg.uhlmann_unitary.calls", "count"),
    ("linalg.uhlmann_unitary.self_s", "s"),
    ("linalg.uhlmann_unitary.support_frac", "ratio"),
    ("linalg.schmidt_compressor.self_s", "s"),
    ("linalg.helstrom_matrices.calls", "count"),
    ("linalg.helstrom_matrices.self_s", "s"),
    ("linalg.trace_distance_matrices.calls", "count"),
    ("linalg.trace_distance_matrices.self_s", "s"),
    ("linalg.schmidt_rank.calls", "count"),
    ("linalg.schmidt_rank.self_s", "s"),
    ("reduction.build_rae.self_s", "s"),
    ("reduction.recovery_rates.self_s", "s"),
    ("reduction.bound_report.self_s", "s"),
    ("reduction.superposition_attack.self_s", "s"),
    ("states.Isometry.validate.calls", "count"),
    ("states.Isometry.validate.self_s", "s"),
    ("registers.RegisterLayout.new.calls", "count"),
    ("states.apply_isometry.calls", "count"),
    ("states.apply_isometry.self_s", "s"),
    ("states.apply_channel.calls", "count"),
    ("states.apply_channel.self_s", "s"),
    ("states.pure_density.calls", "count"),
    ("states.pure_density.self_s", "s"),
    ("states.pure_density.mb", "MB"),
    ("adversary.certify_specious.self_s", "s"),
    ("adversary.purified_adversary.self_s", "s"),
    ("adversary.trace_out_recovery.self_s", "s"),
    ("adversary.default_input_suite.inputs", "count"),
    ("cli.main.self_s", "s"),
    ("layer.protocol.self_s", "s"),
    ("layer.qpir.self_s", "s"),
    ("layer.linalg.self_s", "s"),
    ("layer.reduction.self_s", "s"),
    ("layer.states.self_s", "s"),
    ("layer.adversary.self_s", "s"),
    ("layer.cli.self_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(tracer: Tracer, passes: int, walls: dict,
                  compressed_dims: dict) -> dict:
    """Per-layer figures per traced pass of the workload.

    `walls` maps traced (True/False) to the total wall time of the audits
    run that way; `compressed_dims` maps audit id to the `compressed_dim`
    of its reduce report.  Sizes are computed from array shapes:
    `batch_mb` and `mb` are the largest seen, other sizes are per pass.
    """
    per_pass: dict = defaultdict(float)   # divided by passes at the end
    largest: dict = defaultdict(float)
    support = [0, 0]                      # compressed rank, d_client
    for sp, own in zip(tracer.spans, self_times(tracer.spans)):
        per_pass[f"{sp.name}.calls"] += 1
        per_pass[f"{sp.name}.self_s"] += own
        per_pass[f"layer.{sp.name.split('.')[0]}.self_s"] += own
        for key, value in (sp.size or {}).items():
            if key in ("batch_mb", "mb"):
                largest[f"{sp.name}.{key}"] = max(largest[f"{sp.name}.{key}"], value)
            elif key == "d_client":
                support[0] += compressed_dims.get(sp.audit, 0)
                support[1] += value
            else:
                per_pass[f"{sp.name}.{key}"] += value
    for name, count in tracer.counts.items():
        per_pass[f"{name}.calls"] += count
    covered = sum(v for k, v in per_pass.items() if k.endswith(".self_s")
                  and not k.startswith(("layer.", "cli.main.")))
    overhead = walls[True] - walls[False]
    values = {k: v / passes for k, v in per_pass.items()}
    values.update(largest)
    values.update({
        "linalg.uhlmann_unitary.support_frac":
            support[0] / support[1] if support[1] else 0.0,
        "trace.coverage_frac": covered / walls[True],
        "trace.overhead_s": overhead / passes,
        "trace.overhead_frac": overhead / walls[False],
    })
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_METRICS}
