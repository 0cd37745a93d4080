"""Benchmark workloads and the verdict oracle.

A workload is a list of audits generated from the workload seed; the
`communication` argument of each generator returns the qubits a protocol
sends.  Each
audit is one `qpirlab` command line plus the verdict a correct program must
print for it, derived by hand from the protocol's construction:

* trivial: delta = 0, epsilon = 0, recovery 1, m = n, bound n,
  `bound-applies`; the attack sees nothing (`PRIVATE`).
* noisy-trivial(delta): every per-index error is delta, recovery 1 - delta,
  epsilon 0, bound (1 - H(1 - delta)) n, computed here and not by
  `qpirlab.lower_bound`.
* index-in-clear: the server learns i, so epsilon = 1,
  `consistent-because-non-private`, and the attack says `NOT-PRIVATE`.
* random: Nayak's bound holds and the verdict is never `BOUND-VIOLATED`.
* certify of a purified party: certified, epsilon_hat <= 1e-8.
* fuzz: no violations.

This module imports nothing from `qpirlab`, so the oracle shares no code
with the program it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: Tolerance on probabilities, distances and bound values read from a report.
TOL = 1e-6
#: Largest certification distance accepted for a purified (0-specious) party.
CERTIFY_TOL = 1e-8
#: Trial count of the fuzz audit in small-protocols.
FUZZ_TRIALS = 500

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Protocol:
    """Arguments of `qpirlab.builtin` for one protocol of a workload."""

    name: str
    n: int
    delta: float | None = None
    seed: int | None = None

    def address(self) -> str:
        query = f"n={self.n}"
        if self.delta is not None:
            query += f"&delta={self.delta!r}"
        if self.seed is not None:
            query += f"&seed={self.seed}"
        return f"builtin:{self.name}?{query}"


@dataclass(frozen=True)
class Audit:
    verb: str
    argv: tuple
    check: Check
    protocol: Protocol | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def noisy_trivial_bound(n: int, delta: float) -> float:
    """(1 - H(1 - delta - 2 sqrt(eps (1 - eps)))) n at epsilon = 0."""
    return (1.0 - binary_entropy(1.0 - delta)) * n


# ---------------------------------------------------------------------------
# checks: each returns the list of problems found in a parsed report
# ---------------------------------------------------------------------------

def _near(rep: dict, key: str, want: float, tol: float = TOL) -> list:
    got = rep.get(key)
    if not isinstance(got, (int, float)) or abs(got - want) > tol:
        return [f"{key} = {got!r}, expected {want!r}"]
    return []


def _equal(rep: dict, key: str, want) -> list:
    got = rep.get(key)
    return [] if got == want else [f"{key} = {got!r}, expected {want!r}"]


def _all_near(rep: dict, key: str, want: float, n: int) -> list:
    got = rep.get(key)
    if (not isinstance(got, list) or len(got) != n
            or any(abs(v - want) > TOL for v in got)):
        return [f"{key} = {got!r}, expected {n} x {want!r}"]
    return []


def _nayak_holds(rep: dict) -> list:
    nayak = rep.get("nayak") or {}
    return [] if nayak.get("holds") is True else [f"nayak = {nayak!r}"]


def reduce_trivial(n: int) -> Check:
    return lambda rep: (
        _all_near(rep, "deltas", 0.0, n) + _near(rep, "epsilon_used", 0.0)
        + _near(rep, "recovery_avg", 1.0) + _near(rep, "m", float(n))
        + _near(rep, "bound_value", float(n))
        + _equal(rep, "consistency", "bound-applies") + _nayak_holds(rep))


def reduce_noisy(n: int, delta: float) -> Check:
    return lambda rep: (
        _all_near(rep, "deltas", delta, n) + _near(rep, "epsilon_used", 0.0)
        + _near(rep, "recovery_avg", 1.0 - delta)
        + _near(rep, "bound_value", noisy_trivial_bound(n, delta))
        + _equal(rep, "consistency", "bound-applies") + _nayak_holds(rep))


def reduce_index_in_clear(n: int) -> Check:
    return lambda rep: (
        _near(rep, "epsilon_used", 1.0)
        + _equal(rep, "consistency", "consistent-because-non-private")
        + _nayak_holds(rep))


def reduce_random(n: int) -> Check:
    def check(rep: dict) -> list:
        problems = _nayak_holds(rep)
        if rep.get("consistency") not in ("bound-applies", "non-private",
                                          "consistent-because-non-private"):
            problems.append(f"consistency = {rep.get('consistency')!r}")
        return problems
    return check


def privacy_epsilon(want: float) -> Check:
    return lambda rep: _near(rep, "epsilon_hat", want)


def privacy_in_range(rep: dict) -> list:
    eps = rep.get("epsilon_hat")
    if not isinstance(eps, (int, float)) or not -TOL <= eps <= 1.0 + TOL:
        return [f"epsilon_hat = {eps!r} outside [0, 1]"]
    return []


def attack_verdict(verdict: str | None) -> Check:
    def check(rep: dict) -> list:
        problems = []
        if verdict is not None:
            problems += _equal(rep, "verdict", verdict)
        if rep.get("consistency") == "SUBLINEAR-AND-PRIVATE":
            problems.append("sublinear private protocol reported")
        return problems
    return check


def certified(rep: dict) -> list:
    problems = _equal(rep, "certified", True)
    eps = rep.get("epsilon_hat")
    if not isinstance(eps, (int, float)) or not 0.0 <= eps <= CERTIFY_TOL:
        problems.append(f"epsilon_hat = {eps!r} > {CERTIFY_TOL}")
    return problems


def fuzz_clean(trials: int) -> Check:
    def check(rep: dict) -> list:
        problems = []
        for key in ("schmidt_rank", "fuchs_van_de_graaf"):
            part = rep.get(key) or {}
            if part.get("checked") != trials or part.get("violations") != []:
                problems.append(f"{key} = {part!r}")
        return problems
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _audit(verb: str, proto: Protocol, check: Check, *extra: str) -> Audit:
    return Audit(verb, (verb, "--protocol", proto.address()) + extra, check,
                 proto)


def random_protocols(rng: random.Random, n: int, communication) -> list:
    """One seeded random protocol per communication cost the builtin draws.

    The random builtin draws from its seed how many extra qubits travel,
    and an audit's cost grows with them, so a workload holding one protocol
    of each cost does the same work on every seed.  The cost is read from
    the n=1 instance of each candidate seed, which is cheap to build and
    sends n + extra qubits like the n-qubit one.
    """
    by_extra: dict = {}
    for _ in range(64):
        seed = rng.randrange(1, 1_000_000)
        extra = communication(Protocol("random", 1, seed=seed)) - 1
        by_extra.setdefault(extra, seed)
    return [Protocol("random", n, seed=by_extra[e]) for e in sorted(by_extra)]


def audit_pure(seed: int, communication) -> list:
    """reduce, qpir-privacy and attack at n=6 on pure protocols."""
    rng = random.Random(seed)
    n = 6
    plan = [
        (Protocol("trivial", n), reduce_trivial(n), privacy_epsilon(0.0),
         attack_verdict("PRIVATE")),
        (Protocol("index-in-clear", n), reduce_index_in_clear(n),
         privacy_epsilon(1.0), attack_verdict("NOT-PRIVATE")),
    ] + [
        (proto, reduce_random(n), privacy_in_range, attack_verdict(None))
        for proto in random_protocols(rng, n, communication)
    ]
    audits = []
    for proto, red, priv, att in plan:
        audits += [_audit("reduce", proto, red),
                   _audit("qpir-privacy", proto, priv),
                   _audit("attack", proto, att)]
    return audits


def audit_noisy(seed: int, communication) -> list:
    """reduce at n=4 on noisy-trivial, two delta values in (0, 0.5)."""
    rng = random.Random(seed)
    n = 4
    deltas = [round(rng.uniform(0.01, 0.49), 6) for _ in range(2)]
    return [_audit("reduce", Protocol("noisy-trivial", n, delta=d),
                   reduce_noisy(n, d)) for d in deltas]


def small_protocols(seed: int, communication) -> list:
    """certify every builtin at n=2 for both parties, plus one fuzz pass.

    As in audit-pure, the random builtin appears once per communication cost.
    """
    rng = random.Random(seed)
    n = 2
    protos = [
        Protocol("trivial", n),
        Protocol("index-in-clear", n),
        Protocol("noisy-trivial", n, delta=round(rng.uniform(0.01, 0.49), 6)),
    ] + random_protocols(rng, n, communication)
    audits = [_audit("certify", p, certified, "--party", party)
              for p in protos for party in ("A", "B")]
    fuzz_seed = rng.randrange(1, 1_000_000)
    audits.append(Audit(
        "fuzz",
        ("fuzz", "--seed", str(fuzz_seed), "--trials", str(FUZZ_TRIALS)),
        fuzz_clean(FUZZ_TRIALS)))
    return audits


def oom_probe(seed: int, communication) -> list:
    """reduce on trivial n=5, which peaks near 190 MB of address space.

    Not a benchmark workload: the isolation self-test runs it under a cap
    below that, and expects failed audits, not a crash.
    """
    proto = Protocol("trivial", 5)
    return [_audit("reduce", proto, reduce_trivial(5))]


WORKLOADS = {
    "audit-pure": audit_pure,
    "audit-noisy": audit_noisy,
    "small-protocols": small_protocols,
    "oom-probe": oom_probe,
}

#: Address-space cap per workload child, in MiB.  Each is several times
#: the workload's peak RSS; oom-probe's sits between the ~100 MB that
#: importing qpirlab takes and what its audit needs.
MEMORY_CAP_MB = {
    "audit-pure": 4096,
    "audit-noisy": 3072,
    "small-protocols": 2048,
    "oom-probe": 160,
}
