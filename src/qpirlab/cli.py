"""Batch front-end.

Every verb takes --dim-guard, --out and --format, plus only the flags it
reads:

    run               --protocol --n --seed --x --i
    bound             --n --delta --epsilon
    reduce            --protocol --n --seed --rank-tol
    qpir-correctness  --protocol --n --seed
    qpir-privacy      --protocol --n --seed
    attack            --protocol --n --seed
    certify           --protocol --n --seed --party
    schmidt           --protocol --n --seed --rank-tol --i
    fuzz              --seed --trials --rank-tol

--protocol is a JSON file or `builtin:<name>?<params>`.  Each builtin's
parameters, with their types, are its entry in `qpir._BUILTINS`: trivial
and index-in-clear read n, noisy-trivial n and a required delta, random n
and a seed that is 0 by default.  Any other parameter is an error.  For
an address, --n fills in a missing n and --seed a missing seed, and either
is an error where it contradicts the address's; --seed is also an error
for a builtin that reads no seed.  A protocol's n is its client's input
dimension, and its server's must be 2^n.  So for a file, its optional
"n" and --n only check that n, and --seed is an error.  fuzz's seed is 0
by default.

`run` checks the input |x>|i> and reports the protocol's step table: the
registers alive after each step, and whether a pure input stays pure (every
op an isometry).  It needs no execution.  `certify` certifies the purified
party against trace-out recovery, on one batched run of each purified spec
with every marginal pair compared in its span; both factors of each pair
are equal, so it checks the dilation code (a party without a channel is
its own purification) and reads exactly 0 by construction.  `schmidt` (on
the purified protocol) and `fuzz` (on random unitary ones) each audit a
run with `protocol.rank_trace`, one `execute` per run, and judge it by one
rule: the final rank across the cut is at most 2^c for c qubits exchanged,
and no event exceeds its bound.

--n must be positive, --seed and --trials non-negative, --delta and
--epsilon in [0, 1], and --rank-tol in (0, 1).  JSON is the contract format
(text/csv are derived); exit code 0 on success, 1 on input errors and on
runs that exhaust memory, and 2 when a checked verdict fails.  One report
field decides each verb's exit 2: `reduce`'s `BoundReport.verdict_failed`
(a property, so not in the JSON), `certify`'s `certified` being false,
`schmidt`'s `rank_within_cap` being false or any event's `ok` being false,
and `fuzz`'s `violations` being nonempty.  `run`, `bound`,
`qpir-correctness`, `qpir-privacy` and `attack` never exit 2.  The rules
behind `reduce`'s, `attack`'s and `bound`'s verdicts live in `reduction`.
Reports are deterministic per seed, byte for byte, at a fixed BLAS thread
count.  The thread count changes how BLAS splits its sums, so the last bits
of floats can differ between thread counts (e.g. `reduce` on random n=6
seed 1 gives bound_value 5.99999256557387 with OPENBLAS_NUM_THREADS=1 and
5.999992425625127 with 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .errors import CliInputError, QpirlabError
from .registers import DEFAULT_DIM_GUARD, set_dim_guard
from .linalg import (
    DEFAULT_RANK_TOL,
    fidelity_matrices,
    trace_distance_matrices,
)
from .protocol import (
    product_input,
    purify_both,
    random_protocol,
    rank_trace,
)
from .adversary import (
    certify_specious,
    default_input_suite,
    purified_adversary,
    trace_out_recovery,
)
from .qpir import (
    PurifiedRun,
    QpirProtocol,
    builtin_from_address,
    correctness_delta,
    privacy_epsilon_purified,
    qpir_input,
)
from .reduction import (
    bound_report,
    guarantee_vacuous,
    guarantee_value,
    lower_bound,
    superposition_attack,
)
from . import serialize


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliInputError(message)


def _checked(kind, ok, name: str):
    """argparse type: `kind(text)`, rejected unless `ok` holds for it."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise ValueError(text)
        return value
    parse.__name__ = name  # argparse reports "invalid <name> value"
    return parse


_SIZE = _checked(int, lambda v: v >= 1, "positive int")
_COUNT = _checked(int, lambda v: v >= 0, "non-negative int")
_PROBABILITY = _checked(float, lambda v: 0.0 <= v <= 1.0, "probability")
_RANK_TOL = _checked(float, lambda v: 0.0 < v < 1.0, "rank tolerance")

_PROTOCOL_VERBS = ("run", "reduce", "qpir-correctness", "qpir-privacy",
                   "attack", "certify", "schmidt")


#: How far a trace distance may stray outside the Fuchs-van de Graaf
#: interval [1 - F, sqrt(1 - F^2)] and still fall inside it: the round-off
#: of the distance and of the fidelity, each a sum of eigen- or singular
#: values of a matrix of at most 8 dimensions.
FVDG_SLACK = 1e-9


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every verb, built on the first call and reused: each
    parse makes a fresh namespace from the defaults, so no call sees
    another's values."""
    parser = _Parser(prog="qpirlab")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--dim-guard", type=int, default=DEFAULT_DIM_GUARD)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        if verb in _PROTOCOL_VERBS:
            p.add_argument("--protocol", help="builtin:<name>?n=... or a JSON file")
        if verb in _PROTOCOL_VERBS or verb == "bound":
            p.add_argument("--n", type=_SIZE, default=None)
        if verb in _PROTOCOL_VERBS or verb == "fuzz":
            p.add_argument("--seed", type=_COUNT,
                           default=0 if verb == "fuzz" else None)
        if verb in ("reduce", "schmidt", "fuzz"):
            p.add_argument("--rank-tol", type=_RANK_TOL, default=DEFAULT_RANK_TOL)
        if verb == "fuzz":
            p.add_argument("--trials", type=_COUNT, default=200)
        if verb == "run":
            p.add_argument("--x", type=int, default=0)
        if verb in ("run", "schmidt"):
            p.add_argument("--i", type=int, default=1)
        if verb == "bound":
            p.add_argument("--delta", type=_PROBABILITY, default=0.0)
            p.add_argument("--epsilon", type=_PROBABILITY, default=0.0)
        if verb == "certify":
            p.add_argument("--party", choices=("A", "B"), default="A")
    return parser


def _resolve_qpir(args) -> QpirProtocol:
    if not args.protocol:
        raise CliInputError("--protocol is required for this verb")
    if args.protocol.startswith("builtin:"):
        return builtin_from_address(args.protocol, n=args.n, seed=args.seed)
    if args.seed is not None:
        raise CliInputError(f"protocol file {args.protocol} reads no --seed")
    try:
        data = serialize.load(args.protocol)
    except OSError as exc:
        raise CliInputError(f"cannot read protocol file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"malformed protocol file {args.protocol}: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        qpir = QpirProtocol(serialize.protocol_spec_from_json(data))
    except KeyError as exc:
        raise CliInputError(
            f"protocol file {args.protocol} is missing field {exc}"
        ) from exc
    except QpirlabError as exc:
        raise CliInputError(f"protocol file {args.protocol}: {exc}") from exc
    for what, n in (('its "n"', data.get("n", qpir.n)),
                    ("--n", qpir.n if args.n is None else args.n)):
        if type(n) is not int or n != qpir.n:
            raise CliInputError(
                f"protocol file {args.protocol}: {what} is {n!r}, but its "
                f"client input dimension is {qpir.n}"
            )
    return qpir


# ---------------------------------------------------------------------------
# verbs (each returns (report_dict, verdict_failed))
# ---------------------------------------------------------------------------

def _verb_run(args):
    qpir = _resolve_qpir(args)
    qpir_input(qpir, args.x, args.i)  # validates x and i
    spec = qpir.spec
    report = {
        "n": qpir.n,
        "rounds": spec.rounds,
        "communication": qpir.communication,
        "input": {"x": args.x, "i": args.i},
        "steps": [{"step": st.number, "registers": list(st.order)}
                  for st in spec.steps],
        "final_registers": list(spec.steps[-1].order),
        "final_is_pure": spec.all_unitary(),
    }
    return report, False


def _verb_bound(args):
    g = guarantee_value(args.delta, args.epsilon)
    if args.n is None:
        raise CliInputError("bound requires --n")
    value = lower_bound(args.n, args.delta, args.epsilon)
    report = {
        "n": args.n,
        "delta": args.delta,
        "epsilon": args.epsilon,
        "guarantee": g,
        "bound": value,
        "vacuous": guarantee_vacuous(g),
    }
    return report, False


def _verb_reduce(args):
    qpir = _resolve_qpir(args)
    rep = bound_report(qpir, rank_tol=args.rank_tol)
    return rep.to_dict(), rep.verdict_failed


def _verb_correctness(args):
    qpir = _resolve_qpir(args)
    rep = correctness_delta(PurifiedRun(qpir))
    return {
        "n": rep.n,
        "deltas": list(rep.deltas),
        "delta_max": rep.delta_max,
        "delta_avg": rep.delta_avg,
    }, False


def _verb_privacy(args):
    return privacy_epsilon_purified(PurifiedRun(_resolve_qpir(args))).to_dict(), False


def _verb_attack(args):
    qpir = _resolve_qpir(args)
    return superposition_attack(qpir).to_dict(), False


def _verb_certify(args):
    qpir = _resolve_qpir(args)
    spec = qpir.spec
    adv = purified_adversary(spec, args.party)
    recovery = trace_out_recovery(spec, adv)
    suite = default_input_suite(spec)
    rep = certify_specious(spec, adv, recovery, suite)
    return {"party": args.party, **asdict(rep)}, rep.certified is False


def _rank_verdict(events, spec) -> tuple[bool, bool]:
    """(final rank within the cap 2^c, audit failed): the rank audit fails
    when the final rank exceeds the cap or any event exceeds its bound.
    The cap is compared as the integer it is, the product of the message
    dimensions, not as 2 raised to comm, a sum of log2's."""
    cap = math.prod(lay.total_dim for lay in spec.x_comm + spec.y_comm)
    within = events[-1].rank <= cap
    return within, not within or not all(e.ok for e in events)


def _verb_schmidt(args):
    qpir = _resolve_qpir(args)
    psi = qpir_input(qpir, None, args.i)
    events = rank_trace(purify_both(qpir.spec), psi, rank_tol=args.rank_tol)
    kept = events[-1].coefficients  # B's last step: cut at A's final memory
    c = qpir.communication
    within, failed = _rank_verdict(events, qpir.spec)
    report = {
        "n": qpir.n,
        "i": args.i,
        "communication": c,
        "rank": len(kept),
        "rank_cap": 2 ** c,
        "rank_within_cap": within,
        "coefficients": list(kept),
        "events": [{"step": e.step, "rank": e.rank, "bound": e.bound,
                    "ok": e.ok} for e in events],
    }
    return report, failed


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    k = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _verb_fuzz(args):
    seed = args.seed
    trials = args.trials
    rng = np.random.default_rng(seed)

    schmidt_violations = []
    for t in range(trials):
        budget = 1 + t % 6
        rounds = 1 + int(rng.integers(0, 3))
        spec = random_protocol(seed * 1_000_003 + t, rounds, budget)
        psi = product_input(spec, seed=seed + t)
        events = rank_trace(spec, psi, rank_tol=args.rank_tol)
        if _rank_verdict(events, spec)[1]:
            schmidt_violations.append(t)

    fvdg_violations = []
    for t in range(trials):
        dim = (2, 4, 8)[t % 3]
        rho = _random_density(rng, dim)
        sigma = _random_density(rng, dim)
        d = trace_distance_matrices(rho, sigma)
        f = fidelity_matrices(rho, sigma)
        if not (1.0 - f - FVDG_SLACK <= d
                <= math.sqrt(max(0.0, 1.0 - f * f)) + FVDG_SLACK):
            fvdg_violations.append(t)

    report = {
        "seed": seed,
        "trials": trials,
        "schmidt_rank": {"checked": trials, "violations": schmidt_violations},
        "fuchs_van_de_graaf": {"checked": trials, "violations": fvdg_violations},
    }
    return report, bool(schmidt_violations or fvdg_violations)


_VERBS = {
    "run": _verb_run,
    "bound": _verb_bound,
    "reduce": _verb_reduce,
    "qpir-correctness": _verb_correctness,
    "qpir-privacy": _verb_privacy,
    "attack": _verb_attack,
    "certify": _verb_certify,
    "schmidt": _verb_schmidt,
    "fuzz": _verb_fuzz,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "text":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        return "".join(f"{k} = {v}\n" for k, v in rows)
    # csv: one header line plus one row of scalar fields
    scalars = {k: v for k, v in report.items()
               if isinstance(v, (int, float, str, bool)) or v is None}
    header = ",".join(scalars)
    row = ",".join(json.dumps(v) for v in scalars.values())
    return f"{header}\n{row}\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        set_dim_guard(args.dim_guard)
        report, failed = _VERBS[args.verb](args)
    except QpirlabError as exc:
        print(f"qpirlab: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a run too large for this machine
        detail = f": {exc}" if str(exc) else ""
        print(f"qpirlab: error: MemoryError{detail}", file=sys.stderr)
        return 1
    text = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qpirlab: error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if failed:
        print("qpirlab: verdict failure (see report)", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    """`main` as a process.  OpenBLAS allocates its work buffers on the
    first complex and the first real matmul, and a failed allocation there
    ends the process with no Python error; made here, small, they leave a
    later allocation to fail as a MemoryError, which `main` reports."""
    for dtype in (np.float64, np.complex128):
        a = np.ones((256, 256), dtype)
        a @ a
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
