"""Reduction from a QPIR protocol to a random access encoding, plus the
communication lower bound it certifies.

Pipeline: every stage reads one `PurifiedRun` (the server and the client's
ops before its last one purified, each party once; the basis inputs run
one index at a time, i fixed in the client's first op and each client
memory before the last op written in the span the client reaches with i
fixed; each index's runs stream in chunks of databases sized from one
byte budget, and each (index, database) run is made once: index 1's
chunks feed the encoding and its Helstrom operator in one pass.  No run
goes on through the client's last op, which is never dilated).
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
compressor).  The same runs yield delta (one matmul per chunk pairing
every database with its bit-i partner adds to the Helstrom operator on
the last op's inputs, which is pushed through that op and diagonalized in
the span of its Kraus operators); epsilon compares the server marginals
of the same nu_i, with the eigensolver's round-off floored, so a private
protocol's epsilon is exactly 0.  The measured recovery rate, formed over
slices of databases, feeds the entropy bound on random-access-encoding
size, which bounds the communication from below.
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
    _chunk_columns,
    correctness_delta,
    privacy_epsilon_purified,
)

#: Above this privacy leak the purifier-rotation argument says nothing:
#: the marginal-distance budget 2*eps stops being a trace-distance bound.
PRIVACY_PREMISE_MAX = 0.5


@dataclass(frozen=True)
class RandomAccessEncoding:
    """n-bit strings encoded as states on the compressed client space.

    m is log2 of the compressed dimension (reported with its qubit
    ceiling); decoding index i applies its decoder, which decompresses and
    rotates in one step, and then index i's Helstrom measurement from
    `correctness`.  Each client space is the d_pre-dimensional one before
    the client's last op.
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
    compressed_runs: np.ndarray              # (r, server_dim, 2^n), unit columns


def build_rae(run: PurifiedRun,
              rank_tol: float = DEFAULT_RANK_TOL) -> RandomAccessEncoding:
    """Construct the random access encoding induced by a QPIR protocol.

    The compressor comes from the support of nu_1's marginal on all but
    A_s; every per-database run must live inside that support (a violation
    signals a rank-tolerance misconfiguration or a protocol whose server
    does not retain the database branches).  Index 1's pass gives the
    encoding, and Gamma_1^pre with it, before correctness runs the rest;
    the decoders rotate the nu_i.
    """
    qpir = run.qpir
    n = qpir.n
    nu1 = run.nu(1)
    client = nu1.layout.drop(run.spec.a_memory[-1].labels()).labels()
    compressor = schmidt_compressor(nu1, client, rank_tol=rank_tol)
    r = compressor.input_layout.total_dim
    m = math.log2(r)
    emat = compressor.matrix
    comp = _encode(run, emat, rank_tol)
    comp.setflags(write=False)
    correctness = correctness_delta(run)

    c1 = emat.conj().T @ matricize(nu1.amplitudes, nu1.layout, client)
    decoders, rot_dist = [], []
    for i in range(1, n + 1):
        nui = run.nu(i)
        decoders.append(uhlmann_unitary(nui, nu1, support=compressor))
        rot_dist.append(pure_distance_amplitudes(
            matricize(nui.amplitudes, nui.layout, client).reshape(-1),
            (decoders[-1].matrix @ c1).reshape(-1)))
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
        compressed_runs=comp,
    )


def _encode(run: PurifiedRun, emat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Every database's index-1 run before the client's last op, compressed
    by `emat` and renormalized, as (r, server_dim, 2^n).  With M_x run x's
    column, it compresses to (1 (x) E^dagger) M_x and leaves the
    compression support by ||M_x - (1 (x) E)(1 (x) E^dagger) M_x||; a leak
    beyond 1e-8 is a SupportViolation.  The runs come one chunk at a time
    from index 1's pass (`PurifiedRun.index_pass`), which also keeps
    Gamma_1^pre for correctness, so no index-1 run is made twice."""
    da = 2 ** run.qpir.n
    server = run.spec.a_memory[-1]
    comp = np.empty((emat.shape[1], server.total_dim, da), dtype=np.complex128)
    leaks = np.empty(da)

    def encode(xs: np.ndarray, lay, cur: np.ndarray) -> None:
        m = matricize(cur, lay, server.labels())   # A_s leads: a view
        part = emat.conj().T @ m                    # (d_server, r, len(xs))
        outside = emat @ part
        np.subtract(m, outside, out=outside)
        # each column's squared norm, summed over its real and imaginary parts
        parts = outside.reshape(-1, len(xs)).view(np.float64)
        leaks[xs] = np.sqrt(np.einsum("kj,kj->j", parts, parts).reshape(-1, 2).sum(axis=1))
        if np.max(leaks[xs]) <= 1e-8:     # else refused below, after every chunk
            part /= np.linalg.norm(part.reshape(-1, len(xs)), axis=0)
            comp[:, :, xs] = part.transpose(1, 0, 2)

    run.index_pass(1, encode)
    worst = float(np.max(leaks))
    if worst > 1e-8:
        raise SupportViolation(
            f"a database run leaves the compression support by {worst:.3e}; "
            f"check the rank tolerance ({rank_tol})"
        )
    return comp


def recovery_rates(rae: RandomAccessEncoding) -> tuple[tuple[float, ...], float]:
    """Average probability of recovering bit i over uniform databases.

    Works on the stored pure runs (decoding commutes with tracing the
    server side), one matmul per index and slice of databases:
    p_0(x) = ||(W_i (x) 1) U E c_x||^2, with the decoder's purifier, if
    any, riding along.  W_i is folded into the decoder first, so that
    matmul is (k d_bar) x r, with k the rows of W_i; each slice holds as
    many databases as `CHUNK_BYTES` allows of its (k d_bar) x d_server
    amplitudes per database.  Each outcome probability and each rate is
    clamped to [0, 1] against round-off; one beyond it by more than 1e-9
    is a ValueError.
    """
    n = rae.n
    da = 2 ** n
    comp = rae.compressed_runs           # (r, d_server, da)
    r, d_server, _ = comp.shape
    correctness = rae.correctness
    p0 = np.empty((n, da))
    for i, (decoder, w) in enumerate(zip(rae.decoders, correctness.measurements)):
        decode = matricize(decoder.matrix, decoder.output_layout,
                           correctness.measured_labels)           # (d_pre, d_bar, r)
        measured = (w @ decode.reshape(w.shape[1], -1)).reshape(-1, r)
        step = _chunk_columns(measured.shape[0] * d_server)
        for x in range(0, da, step):
            runs = comp[:, :, x:x + step]
            amp = measured @ runs.reshape(r, -1)                   # (k*d_bar, ds*slice)
            p0[i, x:x + step] = np.sum(np.abs(amp.reshape(-1, runs.shape[2])) ** 2, axis=0)
    for i, row in enumerate(p0, start=1):
        for extreme in (row.min(), row.max()):
            _unit_interval(float(extreme), f"index {i}'s outcome-0 probability")
    p0 = np.clip(p0, 0.0, 1.0)
    bits = np.arange(da) >> (n - np.arange(1, n + 1))[:, None] & 1
    correct = np.where(bits, 1.0 - p0, p0)
    rates = tuple(_unit_interval(float(np.mean(row)), f"index {i}'s recovery rate")
                  for i, row in enumerate(correct, start=1))
    return rates, float(np.mean(rates))


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def _unit_interval(value: float, name: str) -> float:
    """Clamp round-off dust at the ends of [0, 1]; reject real violations."""
    if not -1e-9 <= value <= 1.0 + 1e-9:
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
        consistency = "bound-applies" if bound_consistent else "BOUND-VIOLATED"
    else:
        consistency = ("consistent-because-non-private"
                       if rae.communication < rae.n else "non-private")
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
        verdict = "NOT-PRIVATE"
    elif max_pair > 1e-9:
        verdict = "LEAKY"
    else:
        verdict = "PRIVATE"
    c = communication_complexity(qpir.spec)
    premise = privacy.epsilon_hat <= PRIVACY_PREMISE_MAX + 1e-9
    sublinear = c < n - 1e-9
    if sublinear and not premise:
        consistency = "consistent-because-non-private"
    elif sublinear:
        consistency = "SUBLINEAR-AND-PRIVATE"
    else:
        consistency = "bound-respected"
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
