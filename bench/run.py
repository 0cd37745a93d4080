"""qpirlab benchmark: time-to-verdict, set-up time and peak RSS of audits.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  Each workload runs in its own child process (bench/child.py)
under an address-space cap and a wall timeout, with one BLAS thread.  The
load is a closed loop with one client: the next audit starts when the
previous one returns, and whole passes over the workload's audit list
repeat until T seconds have passed and every audit ran at least twice.
Every verdict is checked against a value derived by hand
(bench/workloads.py).

Every metric is printed as `name = value unit`; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 4
#: Every run ends within this many seconds of starting; the set-up samples
#: taken after the workload get the reserve.
RUN_BUDGET_S = 170.0
SETUP_RESERVE_S = 20.0
BLAS_THREADS = 1


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QPIRLAB_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(args: list, cap_mb: int, timeout: float) -> tuple:
    """Run bench/child.py; return (JSON records, exit status, timed out).

    The address-space cap turns an oversized allocation into a MemoryError
    inside the child; the timeout kills a child that hangs.  Records
    printed before a kill are kept.
    """
    cap = cap_mb * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, preexec_fn=limit_memory)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 and err.strip():
        sys.stderr.write(err[-2000:])
    return records, proc.returncode, timed_out


def measure_setup(workload: str, seed: int, cap_mb: int, count: int) -> list:
    """Seconds from spawning a child until it could issue its first audit,
    less the time the child spent making the workload's inputs."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        records, code, _ = launch(
            ["--workload", workload, "--seed", str(seed), "--setup-only"],
            cap_mb, timeout=30.0)
        ready = [r for r in records if "ready" in r]
        if code != 0 or not ready:
            return []
        samples.append(ready[0]["ready"] - start - ready[0]["generation_s"])
    return samples


def tail_percentile(values: list) -> tuple | None:
    """Highest of p90/p99 with at least ten samples beyond it, else None."""
    n = len(values)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def summarize(workload: str, records: list, code: int, timed_out: bool,
              setup: list, trace: bool) -> dict:
    audits = [r for r in records if "audit" in r]
    summary = next((r for r in records if r.get("done")), None)
    failed = [r for r in audits if not r["ok"]]
    attempted = len(audits)
    lost = summary is None  # killed, timed out or crashed mid-audit
    if lost:
        attempted += 1
    n_failed = len(failed) + (1 if lost else 0)

    print(f"workload = {workload}")
    print(f"blas_threads = {BLAS_THREADS}")
    print(f"passes = {summary['passes'] if summary else 'incomplete'}")
    if setup:
        print(f"setup_s samples = {', '.join(f'{v:.4f}' for v in setup)} s")
    timed = [r for r in audits if not r["traced"]]
    by_verb: dict = {}
    for r in timed:
        by_verb.setdefault(r["verb"], []).append(r["wall_s"])
    for verb, walls in sorted(by_verb.items()):
        line = f"{verb}_s median = {statistics.median(walls):.6f} s"
        tail = tail_percentile(walls)
        if tail:
            line += f", p{tail[0]} = {tail[1]:.6f} s"
        print(line + f" ({len(walls)} samples)")
    for r in failed:
        print(f"FAILED audit {r['audit']}: {r['label']}: {'; '.join(r['problems'])}")
    if lost:
        why = "timeout" if timed_out else f"child exit status {code}"
        print(f"FAILED: the child ended before finishing its audits ({why})")
    print(f"fail_frac = {n_failed / attempted:.6f} ({n_failed} of {attempted})")

    by_audit: dict = {}
    for r in timed:
        if r["ok"]:
            by_audit.setdefault(r["label"], []).append(r["wall_s"])
    metrics = {}
    if trace:
        metrics = (summary or {}).get("layers", {})
    elif by_audit:
        rss = summary["peak_rss_mb"] if summary else audits[-1]["peak_rss_mb"]
        walls = [w for ws in by_audit.values() for w in ws]
        # each audit at its median over the run's passes, summed over the
        # workload's audit list: the time to all of the workload's verdicts
        to_verdicts = sum(statistics.median(ws) for ws in by_audit.values())
        metrics = {
            "time_to_verdicts_s": {"value": to_verdicts, "unit": "s"},
            "audits_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": n_failed == 0, "attempted": attempted,
            "failed": n_failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qpirlab" / "__init__.py").is_file():
        print(f"error: no qpirlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    cap_mb = workloads.MEMORY_CAP_MB[args.workload]
    # half the set-up samples are taken before the workload and half after,
    # so one slow spell of the machine does not move them all
    setup = []
    if not args.trace:
        setup = measure_setup(args.workload, args.seed, cap_mb, SETUP_SAMPLES // 2)
        if not setup:
            print("error: workload set-up failed", file=sys.stderr)
            return 1
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    if args.trace:
        child_args.append("--trace")
    budget = RUN_BUDGET_S - SETUP_RESERVE_S - (time.monotonic() - started)
    records, code, timed_out = launch(child_args, cap_mb, budget)
    if not any("ready" in r for r in records):
        print("error: workload child did not start", file=sys.stderr)
        return 1
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, cap_mb,
                               SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = summarize(args.workload, records, code, timed_out, setup,
                       bool(args.trace))
    if not result["metrics"]:
        print("error: no metrics measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
