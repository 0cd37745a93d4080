"""Reduction from a QPIR protocol to a random access encoding, plus the
communication lower bound it certifies.

Pipeline: every stage reads one `PurifiedRun` (the server and the client's
ops before its last one purified, each party once; the basis inputs run
one index at a time, i fixed in the client's first op and each client
memory before the last op written in the span the client reaches with i
fixed; each index's runs stream in chunks of databases sized from one
byte budget, and no chunk is kept once used.  No run goes on through the
client's last op, which is never dilated).
Purified, that op would be a local isometry, which moves neither the
encoding's size, nor its decoders' success, nor the server's marginals,
so every stage is built before it.  There the states nu_i, the uniform
database with each index, give the client subspace actually used, which
is Schmidt-compressed to rank r; each database is encoded as the
compressed client state of its index-1 basis run; and any index i is
decoded by rotating nu_1 onto nu_i with a purifier-side (Uhlmann)
unitary, from index 1's span to index i's, before index i's Helstrom
measurement from the correctness audit, pulled back through the last op.
Each decoder is stored as the d_pre x r partial isometry U E (E the
compressor).  delta comes from one pass over each index's runs (one
matmul per chunk pairing every database with its bit-i partner adds to
the Helstrom operator on the last op's inputs, which is pushed through
that op and diagonalized in the span of its Kraus operators); epsilon
compares the server marginals of the same nu_i, with the eigensolver's
round-off floored, so a private protocol's epsilon is exactly 0.  Once
every measurement and decoder is known, one more pass over index 1's
runs encodes each chunk of databases and decodes it at every index,
keeping only the (n, 2^n) probabilities of outcome 0; so index 1's runs
are made twice, and no encoded state outlives its chunk.  The measured
recovery rate feeds the entropy bound on random-access-encoding size,
which bounds the communication from below.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SupportViolation
from .linalg import (
    DEFAULT_RANK_TOL,
    binary_entropy,
    pure_distance_amplitudes,
    schmidt_compressor,
    uhlmann_unitary,
)
from .states import Isometry, matricize
from .protocol import communication_complexity
from .qpir import (
    CorrectnessReport,
    PrivacyReport,
    PurifiedRun,
    QpirProtocol,
    correctness_delta,
    privacy_epsilon_purified,
)

#: Above this privacy leak the purifier-rotation argument says nothing:
#: the marginal-distance budget 2*eps stops being a trace-distance bound.
PRIVACY_PREMISE_MAX = 0.5

#: How far a state that lies in the compression support may seem to leave
#: it: the round-off of compressing and decompressing it.  E's columns are
#: orthonormal to about d u, so a unit column in range(E) leaves it by
#: about sqrt(d) u, near 1e-14 at the sizes audited.  A Schmidt direction
#: that the rank tolerance cuts, or a server that keeps no copy of x,
#: leaves it by far more, and that run is refused.
SUPPORT_LEAK_TOL = 1e-8

#: How far a probability or a rate formed in floating point may stray
#: outside [0, 1] and still be clamped onto it: the round-off of a sum of
#: squared amplitudes of a unit vector, a few ulps (without the clamp,
#: index 1 of random n=4 seed 1 recovers with 1 + 4.4e-16).  A value
#: beyond it is an error, not round-off.
UNIT_INTERVAL_SLACK = 1e-9

#: `reduce`'s verdicts (`BoundReport.consistency`): with the privacy
#: premise, whether comm meets the bound; without it, whether comm is
#: below n.
BOUND_APPLIES = "bound-applies"
BOUND_VIOLATED = "BOUND-VIOLATED"
CONSISTENT_BECAUSE_NON_PRIVATE = "consistent-because-non-private"
NON_PRIVATE = "non-private"
REDUCE_CONSISTENCY = (BOUND_APPLIES, BOUND_VIOLATED,
                      CONSISTENT_BECAUSE_NON_PRIVATE, NON_PRIVATE)

#: `attack`'s verdicts on how far the server's marginals tell indices
#: apart (`AttackReport.verdict`), and on the protocol's cost
#: (`AttackReport.consistency`, which shares `reduce`'s
#: `CONSISTENT_BECAUSE_NON_PRIVATE`).
PRIVATE = "PRIVATE"
LEAKY = "LEAKY"
NOT_PRIVATE = "NOT-PRIVATE"
ATTACK_VERDICT = (PRIVATE, LEAKY, NOT_PRIVATE)
BOUND_RESPECTED = "bound-respected"
SUBLINEAR_AND_PRIVATE = "SUBLINEAR-AND-PRIVATE"
ATTACK_CONSISTENCY = (BOUND_RESPECTED, SUBLINEAR_AND_PRIVATE,
                      CONSISTENT_BECAUSE_NON_PRIVATE)


@dataclass(frozen=True)
class RandomAccessEncoding:
    """n-bit strings encoded as states on the compressed client space.

    m is log2 of the compressed dimension (reported with its qubit
    ceiling); decoding index i applies its decoder, which decompresses and
    rotates in one step, and then index i's Helstrom measurement from
    `correctness`.  Each client space is the d_pre-dimensional one before
    the client's last op.  The encoded states themselves are not kept:
    each is decoded at every index as it is made, and only the
    probability of outcome 0 is stored.
    """

    n: int
    communication: float
    m: float
    m_ceil: int
    compressed_dim: int
    compressor: Isometry                     # compressed register -> index 1's client, (d_pre, r)
    decoders: tuple[Isometry, ...]           # U^{1->i} E: compressed -> index i's client, (d_pre, r)
    correctness: CorrectnessReport           # carries the per-index measurements
    rotation_distances: tuple[float, ...]    # D((1 x U E)c_1, nu_i) achieved
    outcome_zero: np.ndarray                 # (n, 2^n): ||(W_i (x) 1) U E c_x||^2, unclamped


def build_rae(run: PurifiedRun,
              rank_tol: float = DEFAULT_RANK_TOL) -> RandomAccessEncoding:
    """Construct the random access encoding induced by a QPIR protocol.

    The compressor comes from the support of nu_1's marginal on all but
    A_s; nu_1 and every per-database run must live inside that support
    (a violation signals a rank-tolerance misconfiguration or a protocol
    whose server does not retain the database branches), and each
    refusal names the rank tolerance.  nu_1 is checked first, then
    correctness runs every index's pass for its measurements W_i, the
    decoders rotate the nu_i, and one more pass over index 1 encodes
    every database and decodes it at every index (`_encode`).
    """
    qpir = run.qpir
    n = qpir.n
    nu1 = run.nu(1)
    client = nu1.layout.drop(run.spec.a_memory[-1].labels()).labels()
    compressor = schmidt_compressor(nu1, client, rank_tol=rank_tol)
    r = compressor.input_layout.total_dim
    m = math.log2(r)
    emat = compressor.matrix
    m1 = matricize(nu1.amplitudes, nu1.layout, client)
    c1 = emat.conj().T @ m1
    _refuse_leak(float(np.linalg.norm(m1 - emat @ c1)),
                 "the uniform database's run with index 1", rank_tol)
    correctness = correctness_delta(run)

    decoders, rot_dist, measured = [], [], []
    for i, w in enumerate(correctness.measurements, start=1):
        nui = run.nu(i)
        decoder = uhlmann_unitary(nui, nu1, support=compressor)
        decoders.append(decoder)
        rot_dist.append(pure_distance_amplitudes(
            matricize(nui.amplitudes, nui.layout, client).reshape(-1),
            (decoder.matrix @ c1).reshape(-1)))
        decode = matricize(decoder.matrix, decoder.output_layout,
                           correctness.measured_labels)           # (d_pre, d_bar, r)
        measured.append((w @ decode.reshape(w.shape[1], -1)).reshape(-1, r))
    outcome_zero = _encode(run, emat, measured, rank_tol)
    outcome_zero.setflags(write=False)
    return RandomAccessEncoding(
        n=n,
        communication=communication_complexity(qpir.spec),
        m=m,
        m_ceil=math.ceil(m - 1e-12),
        compressed_dim=r,
        compressor=compressor,
        decoders=tuple(decoders),
        correctness=correctness,
        rotation_distances=tuple(rot_dist),
        outcome_zero=outcome_zero,
    )


def _refuse_leak(leak: float, what: str, rank_tol: float) -> None:
    """A SupportViolation, naming the rank tolerance, if `what` leaves the
    compression support by more than `SUPPORT_LEAK_TOL`."""
    if leak > SUPPORT_LEAK_TOL:
        raise SupportViolation(
            f"{what} leaves the compression support by {leak:.3e}; "
            f"check the rank tolerance ({rank_tol})"
        )


def _encode(run: PurifiedRun, emat: np.ndarray, measured: list[np.ndarray],
            rank_tol: float) -> np.ndarray:
    """p_0[i, x] = ||(measured_i (x) 1) c_x||^2 for each matrix in
    `measured` (an index's measurement folded into its decoder, (k d_bar)
    x r) and every database x, as (len(measured), 2^n).

    c_x is database x's index-1 run before the client's last op, M_x,
    compressed by `emat` to (1 (x) E^dagger) M_x (`_compressed`) and
    renormalized.  The runs come one chunk at a time from a pass over
    index 1 (`PurifiedRun._chunks`); each chunk is compressed, decoded at
    every index and freed, so no encoded state outlives its chunk.  A run that
    leaves the compression support by more than `SUPPORT_LEAK_TOL` is a
    SupportViolation, raised after every chunk with the worst leak of all.
    """
    server = run.spec.a_memory[-1].labels()
    r = emat.shape[1]
    p0 = np.empty((len(measured), 2 ** run.qpir.n))
    worst = 0.0
    for xs, lay, cur in run._chunks(1):
        xs = xs.reshape(-1)
        # the chunk is kept in one form at a time (its runs, compressed,
        # then laid out r first for the decoders), so no more than one
        # chunk-sized array outlives the step that made the next
        part, leak = _compressed(emat, matricize(cur, lay, server))  # A_s leads
        del cur
        worst = max(worst, leak)
        if worst > SUPPORT_LEAK_TOL:      # refused below, after every chunk
            continue
        part /= np.linalg.norm(part.reshape(-1, len(xs)), axis=0)
        runs = part.transpose(1, 0, 2).reshape(r, -1)    # (r, d_server * len(xs))
        del part
        for p, meas in zip(p0, measured):
            # amplitudes (k*d_bar, d_server * len(xs)), freed once squared
            p[xs] = np.sum(np.abs((meas @ runs).reshape(-1, len(xs))) ** 2, axis=0)
        del runs
    _refuse_leak(worst, "a database run", rank_tol)
    return p0


def _compressed(emat: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float]:
    """(1 (x) E^dagger) M for runs m, (d_server, d_pre, C), as (d_server,
    r, C), and the largest distance ||M_x - (1 (x) E)(1 (x) E^dagger)
    M_x|| of a run from the compression support."""
    part = emat.conj().T @ m
    outside = emat @ part
    np.subtract(m, outside, out=outside)
    # each column's squared norm, summed over its real and imaginary parts
    parts = outside.reshape(-1, m.shape[-1]).view(np.float64)
    leaks = np.einsum("kj,kj->j", parts, parts).reshape(-1, 2).sum(axis=1)
    return part, math.sqrt(float(np.max(leaks)))


def recovery_rates(rae: RandomAccessEncoding) -> tuple[tuple[float, ...], float]:
    """Average probability of recovering bit i over uniform databases.

    Reads the outcome-0 probabilities the encoding stored, p_0(x) =
    ||(W_i (x) 1) U E c_x||^2, formed on the pure runs (decoding commutes
    with tracing the server side), with the decoder's purifier, if any,
    riding along.  Each outcome probability and each rate is clamped to
    [0, 1] against round-off; one beyond it by more than
    `UNIT_INTERVAL_SLACK` is a ValueError.
    """
    n = rae.n
    p0 = rae.outcome_zero
    for i, row in enumerate(p0, start=1):
        for extreme in (row.min(), row.max()):
            _unit_interval(float(extreme), f"index {i}'s outcome-0 probability")
    p0 = np.clip(p0, 0.0, 1.0)
    bits = np.arange(2 ** n) >> (n - np.arange(1, n + 1))[:, None] & 1
    correct = np.where(bits, 1.0 - p0, p0)
    rates = tuple(_unit_interval(float(np.mean(row)), f"index {i}'s recovery rate")
                  for i, row in enumerate(correct, start=1))
    return rates, float(np.mean(rates))


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def _unit_interval(value: float, name: str) -> float:
    """Clamp round-off dust at the ends of [0, 1]; reject real violations."""
    if not -UNIT_INTERVAL_SLACK <= value <= 1.0 + UNIT_INTERVAL_SLACK:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return min(1.0, max(0.0, value))


def guarantee_value(delta: float, epsilon: float) -> float:
    """Recovery rate the decoder is guaranteed: 1 - delta - 2 sqrt(eps(1-eps))."""
    delta = _unit_interval(delta, "delta")
    epsilon = _unit_interval(epsilon, "epsilon")
    return 1.0 - delta - 2.0 * math.sqrt(epsilon * (1.0 - epsilon))


def lower_bound(n: int, delta: float, epsilon: float) -> float:
    """Communication lower bound (1 - H_bin(g)) n at the guaranteed recovery
    rate g = 1 - delta - 2 sqrt(eps(1-eps)).

    Nayak's entropy bound says nothing about recovery rates below 1/2, so
    the bound is 0 whenever g <= 1/2 (the report layer flags it vacuous).
    """
    g = guarantee_value(delta, epsilon)
    if g <= 0.5:
        return 0.0
    return (1.0 - binary_entropy(g)) * n


@dataclass(frozen=True)
class NayakVerdict:
    """Check of m >= (1 - H_bin(p)) n for an (n, m, p) random access encoding."""

    n: int
    m: float
    p: float
    bound: float
    slack: float
    holds: bool


def nayak_check(n: int, m: float, p: float) -> NayakVerdict:
    p = _unit_interval(p, "recovery probability")
    bound = (1.0 - binary_entropy(p)) * n
    slack = m - bound
    return NayakVerdict(n, m, p, bound, slack, slack >= -1e-9)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Everything the end-to-end audit of one protocol produces."""

    n: int
    communication: float
    m: float
    m_ceil: int
    compressed_dim: int
    delta_avg: float
    delta_max: float
    deltas: tuple[float, ...]
    epsilon_used: float            # replay simulator pinned to index 1
    epsilon_min: float             # best reference index
    recovery_avg: float
    recovery_per_index: tuple[float, ...]
    guarantee: float
    bound_value: float
    nayak: NayakVerdict
    rotation_distances: tuple[float, ...]
    marginal_distances: tuple[float, ...]  # D(server_i, server_1), from privacy
    privacy_premise_ok: bool
    guarantee_vacuous: bool
    guarantee_met: bool | None     # None when the privacy premise fails
    bound_consistent: bool | None
    premise_failure: str | None
    consistency: str

    def to_dict(self) -> dict:
        """The fields in order; of the verdict, only bound, slack and holds."""
        v = self.nayak
        return {**asdict(self),
                "nayak": {"bound": v.bound, "slack": v.slack, "holds": v.holds}}


def bound_report(qpir: QpirProtocol,
                 rank_tol: float = DEFAULT_RANK_TOL) -> BoundReport:
    """Run the whole reduction and audit every claim it rests on."""
    run = PurifiedRun(qpir)
    rae = build_rae(run, rank_tol=rank_tol)
    privacy: PrivacyReport = privacy_epsilon_purified(run)
    eps = privacy.epsilon_by_reference[0]
    delta_avg = rae.correctness.delta_avg
    per_index, p_avg = recovery_rates(rae)

    g = guarantee_value(delta_avg, eps)
    bound = lower_bound(rae.n, delta_avg, eps)
    nayak = nayak_check(rae.n, rae.m, p_avg)
    premise_ok = eps <= PRIVACY_PREMISE_MAX + 1e-9
    vacuous = g <= 0.5
    guarantee_met = (p_avg >= g - 1e-6) if premise_ok else None
    bound_consistent = (rae.communication >= bound - 1e-6) if premise_ok else None
    premise_failure = None if premise_ok else "privacy"
    if premise_ok:
        consistency = BOUND_APPLIES if bound_consistent else BOUND_VIOLATED
    else:
        consistency = (CONSISTENT_BECAUSE_NON_PRIVATE
                       if rae.communication < rae.n else NON_PRIVATE)
    return BoundReport(
        n=rae.n,
        communication=rae.communication,
        m=rae.m,
        m_ceil=rae.m_ceil,
        compressed_dim=rae.compressed_dim,
        delta_avg=delta_avg,
        delta_max=rae.correctness.delta_max,
        deltas=rae.correctness.deltas,
        epsilon_used=eps,
        epsilon_min=privacy.epsilon_hat,
        recovery_avg=p_avg,
        recovery_per_index=per_index,
        guarantee=g,
        bound_value=bound,
        nayak=nayak,
        rotation_distances=rae.rotation_distances,
        marginal_distances=tuple(float(d) for d in privacy.distance_matrix[:, 0]),
        privacy_premise_ok=premise_ok,
        guarantee_vacuous=vacuous,
        guarantee_met=guarantee_met,
        bound_consistent=bound_consistent,
        premise_failure=premise_failure,
        consistency=consistency,
    )


# ---------------------------------------------------------------------------
# superposition-database attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackReport:
    """How well the purified server distinguishes index inputs when handed
    the database superposition."""

    n: int
    communication: float
    distance_matrix: np.ndarray
    max_pairwise: float
    pairwise_lower: float
    guess_probability: float
    verdict: str
    privacy_premise_holds: bool
    sublinear: bool
    consistency: str

    to_dict = PrivacyReport.to_dict   # the fields, the matrix as nested lists


def superposition_attack(qpir: QpirProtocol) -> AttackReport:
    """Feed the purified server the uniform database superposition and see
    how well its final marginal reveals the client's index."""
    n = qpir.n
    privacy = privacy_epsilon_purified(PurifiedRun(qpir))
    dist = privacy.distance_matrix
    max_pair = float(np.max(dist))
    guess = min(1.0, 0.5 + 0.5 * max_pair)
    if max_pair >= 1.0 - 1e-9:
        verdict = NOT_PRIVATE
    elif max_pair > 1e-9:
        verdict = LEAKY
    else:
        verdict = PRIVATE
    c = communication_complexity(qpir.spec)
    premise = privacy.epsilon_hat <= PRIVACY_PREMISE_MAX + 1e-9
    sublinear = c < n - 1e-9
    if sublinear and not premise:
        consistency = CONSISTENT_BECAUSE_NON_PRIVATE
    elif sublinear:
        consistency = SUBLINEAR_AND_PRIVATE
    else:
        consistency = BOUND_RESPECTED
    return AttackReport(
        n=n,
        communication=c,
        distance_matrix=dist,
        max_pairwise=max_pair,
        pairwise_lower=max_pair / 2.0,
        guess_probability=guess,
        verdict=verdict,
        privacy_premise_holds=premise,
        sublinear=sublinear,
        consistency=consistency,
    )
