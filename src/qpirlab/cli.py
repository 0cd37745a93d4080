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

`run` checks the input |x>|i> and reports the protocol's step table: the
registers alive after each step, and whether a pure input stays pure (every
op an isometry).  It needs no execution.  `certify` compares marginals of
purified runs, so a purified party certifies at exactly 0.

--n must be positive, --seed and --trials non-negative, --delta and
--epsilon in [0, 1], and --rank-tol in (0, 1).  JSON is the contract format
(text/csv are derived); exit code 0 on success, 2 when a checked verdict
fails, 1 on input errors and on runs that exhaust memory.
Reports are deterministic per seed, byte for byte, at a fixed BLAS thread
count.  The thread count changes how BLAS splits its sums, so the last bits
of floats can differ between thread counts (e.g. `reduce` on random n=6
seed 1 gives bound_value 5.99999256557387 with OPENBLAS_NUM_THREADS=1 and
5.999992425625127 with 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import CliInputError, QpirlabError
from .registers import DEFAULT_DIM_GUARD, set_dim_guard
from .linalg import (
    DEFAULT_RANK_TOL,
    fidelity_matrices,
    schmidt_decompose,
    trace_distance_matrices,
)
from .protocol import (
    communication_complexity,
    execute,
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


def _build_parser() -> _Parser:
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
                           default=os.environ.get("QPIRLAB_SEED") or "0",
                           help="default: $QPIRLAB_SEED, else 0")
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
        spec = serialize.protocol_spec_from_json(data)
    except KeyError as exc:
        raise CliInputError(
            f"protocol file {args.protocol} is missing field {exc}"
        ) from exc
    except QpirlabError as exc:
        raise CliInputError(f"protocol file {args.protocol}: {exc}") from exc
    n = data.get("n", args.n)
    if n is None:
        n = spec.b_memory[0].total_dim
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CliInputError(
            f"protocol file {args.protocol}: n must be an integer >= 1, "
            f"got {n!r}"
        )
    return QpirProtocol(n, spec)


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
        "communication": communication_complexity(spec),
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
        "vacuous": g < 0.5,
    }
    return report, False


def _verb_reduce(args):
    qpir = _resolve_qpir(args)
    rep = bound_report(qpir, rank_tol=args.rank_tol)
    failed = not rep.nayak.holds
    if rep.privacy_premise_ok:
        failed = failed or not rep.guarantee_met or not rep.bound_consistent
    return rep.to_dict(), failed


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
    qpir = _resolve_qpir(args)
    rep = privacy_epsilon_purified(PurifiedRun(qpir))
    return {
        "n": rep.n,
        "distance_matrix": [list(map(float, row)) for row in rep.distance_matrix],
        "epsilon_by_reference": list(rep.epsilon_by_reference),
        "epsilon_hat": rep.epsilon_hat,
        "reference_index": rep.reference_index,
        "per_index_distances": list(rep.per_index_distances),
        "pairwise_lower": rep.pairwise_lower,
    }, False


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
    report = {
        "party": args.party,
        "rows": [{"step": r.step, "input_id": r.input_id, "distance": r.distance}
                 for r in rep.rows],
        "epsilon_hat": rep.epsilon_hat,
        "gamma": rep.gamma,
        "certified": rep.certified,
    }
    return report, rep.certified is False


def _verb_schmidt(args):
    qpir = _resolve_qpir(args)
    spec_pp = purify_both(qpir.spec)
    psi = qpir_input(qpir, None, args.i)
    transcript = execute(spec_pp, psi)
    final = transcript.final
    cut = spec_pp.a_memory[-1].labels()
    dec = schmidt_decompose(final, cut, rank_tol=args.rank_tol)
    c = communication_complexity(qpir.spec)
    cap = 2 ** c
    events = rank_trace(transcript, rank_tol=args.rank_tol)
    report = {
        "n": qpir.n,
        "i": args.i,
        "communication": c,
        "rank": dec.rank,
        "rank_cap": cap,
        "rank_within_cap": dec.rank <= cap + 1e-9,
        "coefficients": [float(x) for x in dec.coefficients[:dec.rank]],
        "events": [{"step": e.step, "rank": e.rank, "bound": e.bound,
                    "ok": e.ok} for e in events],
    }
    return report, not report["rank_within_cap"] or not all(
        e.ok for e in events
    )


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
        events = rank_trace(execute(spec, psi), rank_tol=args.rank_tol)
        cap = 2 ** communication_complexity(spec)
        final_rank = events[-1].rank
        if final_rank > cap + 1e-9 or not all(e.ok for e in events):
            schmidt_violations.append(t)

    fvdg_violations = []
    for t in range(trials):
        dim = (2, 4, 8)[t % 3]
        rho = _random_density(rng, dim)
        sigma = _random_density(rng, dim)
        d = trace_distance_matrices(rho, sigma)
        f = fidelity_matrices(rho, sigma)
        if not (1.0 - f - 1e-9 <= d <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-9):
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
        print(f"qpirlab: error: MemoryError: {exc}", file=sys.stderr)
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
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
