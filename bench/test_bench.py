"""Tests of the benchmark itself: oracle, failure isolation and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- oracle -----------------------------------------------------------------

def test_noisy_bound_matches_hand_value():
    # H(0.8) = 0.72192809..., so (1 - H(0.8)) * 4 = 1.11228762...
    assert math.isclose(workloads.noisy_trivial_bound(4, 0.2),
                        1.1122876204505, rel_tol=1e-12)
    assert workloads.noisy_trivial_bound(5, 0.0) == 5.0


def test_checks_reject_wrong_verdicts():
    good = {"deltas": [0.0] * 3, "epsilon_used": 0.0, "recovery_avg": 1.0,
            "m": 3.0, "bound_value": 3.0, "consistency": "bound-applies",
            "nayak": {"holds": True}}
    assert workloads.reduce_trivial(3)(good) == []
    assert workloads.reduce_trivial(3)(dict(good, consistency="BOUND-VIOLATED"))
    assert workloads.reduce_trivial(3)(dict(good, bound_value=2.5))
    assert workloads.reduce_random(3)(dict(good, consistency="BOUND-VIOLATED"))
    assert workloads.reduce_random(3)(dict(good, nayak={"holds": False}))
    noisy = dict(good, deltas=[0.2] * 3, recovery_avg=0.8,
                 bound_value=workloads.noisy_trivial_bound(3, 0.2))
    assert workloads.reduce_noisy(3, 0.2)(noisy) == []
    assert workloads.reduce_noisy(3, 0.2)(dict(noisy, deltas=[0.2, 0.2, 0.3]))
    assert workloads.attack_verdict("PRIVATE")({"verdict": "LEAKY"})
    assert workloads.attack_verdict(None)(
        {"consistency": "SUBLINEAR-AND-PRIVATE"})
    assert workloads.certified({"certified": True, "epsilon_hat": 0.0}) == []
    assert workloads.certified({"certified": True, "epsilon_hat": 1e-3})
    clean = {"checked": 5, "violations": []}
    assert workloads.fuzz_clean(5)(
        {"schmidt_rank": clean, "fuchs_van_de_graaf": clean}) == []
    assert workloads.fuzz_clean(5)(
        {"schmidt_rank": clean,
         "fuchs_van_de_graaf": {"checked": 5, "violations": [3]}})


def test_repeated_audit_must_print_the_same_report():
    audit = workloads.Audit("fuzz", ("fuzz",), lambda rep: [])
    digests: dict = {}
    assert child.verdict_problems(audit, '{"a": 1}', digests) == []
    assert child.verdict_problems(audit, '{"a": 1}', digests) == []
    assert child.verdict_problems(audit, '{"a": 2}', digests)


def _communication(proto):
    import qpirlab
    return qpirlab.builtin(proto.name, proto.n, delta=proto.delta,
                           seed=proto.seed).communication


def test_workloads_depend_only_on_the_seed():
    for name in ("audit-pure", "audit-noisy", "small-protocols"):
        make = workloads.WORKLOADS[name]
        argv = [a.argv for a in make(7, _communication)]
        assert argv == [a.argv for a in make(7, _communication)]
        assert argv != [a.argv for a in make(8, _communication)]


def test_audit_pure_holds_one_random_protocol_per_cost():
    for seed in (1, 2, 3):
        protos = {a.protocol for a in workloads.audit_pure(seed, _communication)
                  if a.protocol.name == "random"}
        costs = sorted(_communication(p) for p in protos)
        assert costs == [6.0, 7.0, 8.0]


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _ in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == [
        "audit-pure", "audit-noisy", "small-protocols"]


# -- failure isolation ------------------------------------------------------

def test_memory_cap_turns_oom_into_a_failed_audit():
    records, code, timed_out = run.launch(
        ["--workload", "oom-probe", "--seed", "0", "--seconds", "0"],
        cap_mb=workloads.MEMORY_CAP_MB["oom-probe"], timeout=120)
    assert code == 0 and not timed_out
    audits = [r for r in records if "audit" in r]
    assert audits
    for audit in audits:
        assert not audit["ok"]
        assert "MemoryError" in audit["problems"][0]
    result = run.summarize("oom-probe", records, code, timed_out, [0.1], False)
    assert result["attempted"] == result["failed"] == len(audits)
    assert result["correct"] is False


def test_timeout_keeps_finished_audits_and_fails_the_lost_one():
    records, code, timed_out = run.launch(
        ["--workload", "small-protocols", "--seed", "0", "--seconds", "60"],
        cap_mb=workloads.MEMORY_CAP_MB["small-protocols"], timeout=4)
    assert timed_out and code != 0
    done = [r for r in records if "audit" in r]
    assert done and all(r["ok"] for r in done)
    result = run.summarize("small-protocols", records, code, timed_out,
                           [0.1], False)
    assert result["attempted"] == len(done) + 1
    assert result["failed"] == 1


# -- tracing ----------------------------------------------------------------

def test_tracer_patches_imported_names_and_restores_them(capsys):
    import qpirlab.cli
    import qpirlab.linalg
    import qpirlab.reduction

    original = qpirlab.linalg.uhlmann_unitary
    tracer = tracing.Tracer(audit=0)
    tracer.install()
    try:
        assert qpirlab.reduction.uhlmann_unitary is not original
        code = qpirlab.cli.main(["reduce", "--protocol", "builtin:trivial?n=2"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(capsys.readouterr().out)["n"] == 2
    assert qpirlab.reduction.uhlmann_unitary is original
    assert qpirlab.linalg.uhlmann_unitary is original

    spans = tracer.spans
    names = {sp.name for sp in spans}
    assert {"cli.main", "reduction.bound_report", "linalg.uhlmann_unitary",
            "qpir.correctness_delta", "states.Isometry.validate"} <= names
    (root,) = [sp for sp in spans if sp.parent is None]
    assert root.name == "cli.main"
    uhl = next(sp for sp in spans if sp.name == "linalg.uhlmann_unitary")
    assert spans[uhl.parent].name == "reduction.build_rae"
    own = tracing.self_times(spans)
    assert min(own) >= 0.0
    assert math.isclose(sum(own), root.end - root.start, rel_tol=1e-9)
    assert tracer.counts["registers.RegisterLayout.new"] > 0
