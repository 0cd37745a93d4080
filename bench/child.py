"""Workload child: runs one workload's audits in a closed loop.

Started by run.py with `qpirlab` on PYTHONPATH, the BLAS thread count fixed
and an address-space cap.  Prints one JSON line when set-up is done, one per
audit, and one summary line at the end, so the parent keeps every finished
audit even if this process is killed.

    python3 bench/child.py --workload NAME --seed N --seconds T [--trace]
    python3 bench/child.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_audit(main, audit) -> tuple:
    """Call the CLI in-process; return (wall seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(audit.argv))
        error = None
    except Exception as exc:  # MemoryError included: it becomes a failed audit
        code = None
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    wall = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return wall, out.getvalue(), error


def verdict_problems(audit, text: str, first_digest: dict) -> list:
    """What is wrong with an audit's report: its verdict, or a change from
    the report the same audit printed first in this run."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = audit.check(report)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if first_digest.setdefault(audit.argv, digest) != digest:
        problems.append("report differs from the first run of this audit")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qpirlab.cli

    def build(proto):
        return qpirlab.builtin(proto.name, proto.n, delta=proto.delta,
                               seed=proto.seed)

    start = time.monotonic()
    audits = workloads.WORKLOADS[args.workload](
        args.seed, lambda proto: build(proto).communication)
    generation_s = time.monotonic() - start
    for proto in {a.protocol for a in audits if a.protocol is not None}:
        build(proto)
    # making the inputs is the benchmark's work, not the program's set-up
    emit({"ready": time.monotonic(), "generation_s": generation_s})
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None

    first_digest: dict = {}
    walls = {False: 0.0, True: 0.0}     # traced? -> total audit wall time
    compressed_dims: dict = {}
    # a trace run repeats each audit with spans recorded; the difference
    # between the paired wall times is the tracing overhead.  The order
    # alternates because an audit's second run in a process is faster.
    modes = (False, True) if tracer is not None else (False,)
    deadline = time.perf_counter() + args.seconds
    audit_id = 0
    passes = 0
    # whole passes only, and every audit at least twice, so each run does
    # the same mix of audits and checks that a repeated audit's report is
    # unchanged
    while passes * len(modes) < 2 or time.perf_counter() < deadline:
        for k, audit in enumerate(audits):
            for traced in (modes if k % 2 == 0 else modes[::-1]):
                if traced:
                    tracer.audit = audit_id
                    tracer.install()
                try:
                    wall, text, error = run_audit(qpirlab.cli.main, audit)
                finally:
                    if traced:
                        tracer.uninstall()
                problems = ([error] if error
                            else verdict_problems(audit, text, first_digest))
                walls[traced] += wall
                if traced and audit.verb == "reduce" and not problems:
                    compressed_dims[audit_id] = json.loads(text)["compressed_dim"]
                emit({"audit": audit_id, "pass": passes, "verb": audit.verb,
                      "label": audit.label, "wall_s": wall, "traced": traced,
                      "ok": not problems, "problems": problems,
                      "peak_rss_mb": peak_rss_mb()})
                audit_id += 1
        passes += 1

    summary = {"done": True, "passes": passes, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        out_dir = Path(__file__).resolve().parent.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        summary["layers"] = tracing.layer_metrics(tracer, passes, walls,
                                                  compressed_dims)
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
