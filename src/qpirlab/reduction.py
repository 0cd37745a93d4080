"""Reduction from a QPIR protocol to a random access encoding, plus the
communication lower bound it certifies.

Pipeline: every stage reads one `PurifiedRun` (the server and the client's
ops before its last one purified, each party once; the basis inputs run
one index at a time, i fixed in the client's first op and each client
memory before the last op written in the span the client reaches with i
fixed.  No run goes on through the client's last op, which is never
dilated).  Purified, that op would be a local isometry, which moves
neither the encoding's size, nor its decoders' success, nor the server's
marginals, so every stage is built before it.  There the states nu_i, the
uniform database with each index, give the client subspace actually used,
which is Schmidt-compressed to rank r; each database is encoded as the
compressed client state of its index-1 basis run; and any index i is
decoded by rotating nu_1 onto nu_i with a purifier-side (Uhlmann)
unitary, from index 1's span to index i's, before index i's Helstrom
measurement W_i from the correctness audit, pulled back through the last
op.  Each decoder is stored as the d_pre x r partial isometry U E (E the
compressor).  Only the (n, 2^n) probabilities of outcome 0 are kept, and
the measured recovery rate feeds the entropy bound on
random-access-encoding size, which bounds the communication from below.

Two paths build the encoding (`build_rae`), picked by the column test
on index 1's server columns (`_one_hot_split`):

* Basis path: the runs are one-hot (`PurifiedRun.one_hot`, as in every
  builtin but random) and no two of index 1's share a server column, so
  nu_1 has one nonzero per server column.  Everything is read off each
  index's record of its runs (`PurifiedRun.basis_runs`), composed and
  split once, which carries nu_i's entries: E is the basis map onto the
  client rows of nu_1 that the rank rule keeps, each decoder is monomial
  (its polar part the phase of each entry) wherever K = c_1^T conj(nu_i)
  is, and p_0[i, x] is a gather of W_i's weights.  No chunk is run, no
  row is split again, and no array is sized by the runs' whole layout;
  only a decoder whose K is not monomial forms the dense nu_i, for its
  Uhlmann solve, as each of index-in-clear's does, since its server
  learns i.
* Dense path, for everything else (random, protocol files, and any
  protocol that fails the column test): E is an SVD of nu_1, each
  decoder an Uhlmann polar factor, and once every measurement and
  decoder is known one more pass over index 1's chunks encodes each
  chunk of databases and decodes it at every index, so index 1's runs
  are made twice and no encoded state outlives its chunk (`_encode`).

delta comes from each index's runs, summing the Helstrom operator on the
last op's inputs and pushing it through that op: read off a diagonal when
every op those runs and that op meet is a basis map, and diagonalized in
the span of the op's Kraus operators otherwise
(`qpir.correctness_delta`); epsilon compares the server marginals of the
same nu_i, read off the runs' records as diagonals when no two
databases share a client column, with the eigensolver's round-off
floored, so a private protocol's epsilon is exactly 0.

Each rule a verdict rests on is decided here once, for every verb:
`privacy_premise_holds` (the premise epsilon <= 1/2), `below_n` (comm
below n qubits), `guarantee_vacuous` (a guarantee g <= 1/2, whose bound
is 0) and `nayak_check`; `BoundReport.verdict_failed` decides `reduce`'s
exit status.  Every comparison's slack is a named constant that says
what round-off it absorbs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SupportViolation
from .linalg import (
    DEFAULT_RANK_TOL,
    SUPPORT_LEAK_TOL,
    binary_entropy,
    one_hot_compressor,
    pure_distance_amplitudes,
    schmidt_compressor,
    uhlmann_unitary,
)
from .states import BasisMap, Isometry, _distinct, dense, matricize
from .qpir import (
    BasisRuns,
    CorrectnessReport,
    PrivacyReport,
    PurifiedRun,
    QpirProtocol,
    bit_of,
    correctness_delta,
    privacy_epsilon_purified,
)

#: Above this privacy leak the purifier-rotation argument says nothing:
#: the marginal-distance budget 2*eps stops being a trace-distance bound.
PRIVACY_PREMISE_MAX = 0.5

#: How far a privacy leak may exceed `PRIVACY_PREMISE_MAX` and still meet
#: the premise: the round-off of a trace distance, an eigenvalue sum good
#: to a few ulps.
PREMISE_SLACK = 1e-9

#: How far a probability, a rate or a trace distance formed in floating
#: point may stray past an end of [0, 1] and still count as that end: the
#: round-off of a sum of squared amplitudes of a unit vector, or of an
#: eigenvalue sum, a few ulps (without the clamp, index 1 of random n=4
#: seed 1 recovers with 1 + 4.4e-16).  A probability beyond it is an
#: error, not round-off.
UNIT_INTERVAL_SLACK = 1e-9

#: How far below n qubits a protocol must exchange to count as sublinear:
#: the round-off of comm, a sum of log2's of a few integer dimensions, a
#: few ulps of n.  comm is log2 of an integer product P, so P < 2^n puts it
#: at least 2^-n / ln 2 below n, which exceeds this for every n <= 30.
SUBLINEAR_SLACK = 1e-9

#: How far m may fall short of Nayak's (1 - H(p)) n and still pass: the
#: round-off of the entropy at a measured rate p, times n.
NAYAK_SLACK = 1e-9

#: How far the measured recovery rate may fall short of the guarantee g and
#: still meet it: the round-off of a rate read through SVD-built decoders,
#: and of epsilon, which g's 2 sqrt(eps (1 - eps)) lifts (an epsilon of
#: 2.5e-13 costs g 1e-6).
GUARANTEE_SLACK = 1e-6

#: How far comm may fall short of the bound (1 - H(g)) n and still meet it:
#: the round-off of g lifted by the entropy, whose slope log2((1 - g) / g)
#: is steep near g = 1, and by the guarantee's square root, times n.
BOUND_SLACK = 1e-6

#: How far log2 of the compressed dimension may sit above an integer and
#: still be that many qubits: log2's round-off, a few ulps.
QUBIT_CEIL_SLACK = 1e-12

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
    the client's last op.  On the basis path the compressor and each
    monomial decoder hold basis maps, d_pre integers and phases where a
    dense one would be d_pre x r amplitudes.  The encoded states
    themselves are not kept: only the probability of outcome 0 is stored.
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
    decoders rotate the nu_i, and every database is encoded and decoded
    at every index.

    Index 1's runs pick one of two paths.  When they pass the column test
    (`_one_hot_split`), the encoding is read off their rows and values
    (`_basis_rae`).  Otherwise the compressor is an SVD of nu_1
    (`schmidt_compressor`), each decoder an Uhlmann polar factor, and one
    more pass over index 1's chunks encodes every database (`_encode`).
    """
    runs = _one_hot_split(run)
    if runs is not None:
        return _basis_rae(run, runs, rank_tol)
    nu1 = run.nu(1)
    client = nu1.layout.drop(run.spec.a_memory[-1].labels()).labels()
    compressor = schmidt_compressor(nu1, client, rank_tol=rank_tol)
    r = compressor.input_layout.total_dim
    emat = compressor.matrix
    m1 = matricize(nu1.amplitudes, nu1.layout, client)
    c1 = emat.conj().T @ m1
    _refuse_leak(float(np.linalg.norm(m1 - emat @ c1)),
                 "the uniform database's run with index 1", rank_tol)
    correctness = correctness_delta(run)

    decoders, rot_dist, measured = [], [], []
    for i, w in enumerate(correctness.measurements, start=1):
        decoder, distance = _uhlmann_decoder(run, i, compressor, c1)
        decoders.append(decoder)
        rot_dist.append(distance)
        decode = matricize(decoder.matrix, decoder.output_layout,
                           correctness.measured_labels)           # (d_pre, d_bar, r)
        measured.append((w @ decode.reshape(w.shape[1], -1)).reshape(-1, r))
    outcome_zero = _encode(run, emat, measured, rank_tol)
    return _encoding(run, compressor, correctness, decoders, rot_dist, outcome_zero)


def _encoding(run: PurifiedRun, compressor: Isometry, correctness: CorrectnessReport,
              decoders: list[Isometry], rot_dist: list[float],
              outcome_zero: np.ndarray) -> RandomAccessEncoding:
    """The encoding with these parts, its size read off the compressor."""
    r = compressor.input_layout.total_dim
    m = math.log2(r)
    outcome_zero.setflags(write=False)
    return RandomAccessEncoding(
        n=run.qpir.n,
        communication=run.qpir.communication,
        m=m,
        m_ceil=math.ceil(m - QUBIT_CEIL_SLACK),
        compressed_dim=r,
        compressor=compressor,
        decoders=tuple(decoders),
        correctness=correctness,
        rotation_distances=tuple(rot_dist),
        outcome_zero=outcome_zero,
    )


def _uhlmann_decoder(run: PurifiedRun, i: int, support: Isometry,
                     c1: np.ndarray) -> tuple[Isometry, float]:
    """Index i's decoder U E, the Uhlmann polar factor that rotates nu_1
    onto nu_i within the dense compressor `support`, and the distance
    D((1 x U E) c_1, nu_i) it achieves, c_1 = E^dagger nu_1 as (r,
    d_server)."""
    nui = run.nu(i)
    decoder = uhlmann_unitary(nui, run.nu(1), support=support)
    client = support.output_layout.labels()
    return decoder, pure_distance_amplitudes(
        matricize(nui.amplitudes, nui.layout, client).reshape(-1),
        (decoder.matrix @ c1).reshape(-1))


def _one_hot_split(run: PurifiedRun) -> BasisRuns | None:
    """The column test: index 1's runs (`PurifiedRun.basis_runs`) when
    they are `PurifiedRun.one_hot` and no two of them share a server
    column, so that nu_1, matricized with the client's registers as rows,
    has at most one nonzero per column; otherwise None.  It reads the
    runs' integer columns, never a value or a tolerance."""
    if run.one_hot and _distinct(run.basis_runs(1).server):
        return run.basis_runs(1)
    return None


def _basis_rae(run: PurifiedRun, runs: BasisRuns, rank_tol: float) -> RandomAccessEncoding:
    """`build_rae` for index-1 runs that pass the column test: database x's
    run sits at client row runs.client[x] and server column
    runs.server[x], no two in one column, so nu_1's entries are the runs'
    own (runs.nu).

    * The compressor E is the basis map onto nu_1's client rows that the
      rank rule keeps (`one_hot_compressor`), and c_1 = E^dagger nu_1
      keeps nu_1's entries, each at its compressed row.  A run outside E
      would leave nu_1 outside it by at least its own amplitude, so
      nu_1's check is every run's.
    * Each decoder is monomial where K = c_1^T conj(nu_i) is
      (`_monomial_decoder`, on index i's runs), and otherwise the
      SVD-built Uhlmann polar factor on E made dense (`_uhlmann_decoder`,
      which reads the dense nu_i).
    * c_x is database x's run, compressed and renormalized: a phase at
      its compressed row k_x.  So p_0[i, x] = ||(W_i (x) 1) U E |k_x>||^2,
      a gather of one value per compressed row (`_outcome_zero_by_row`).

    No chunk is run, no SVD taken and no encoded state formed, and no
    array is sized by the runs' whole layout.
    """
    client = runs.layout.drop(run.spec.a_memory[-1].labels())
    compressor = one_hot_compressor(client, runs.client, runs.nu, rank_tol)
    r = compressor.input_layout.total_dim
    compressed = np.full(client.total_dim, -1)
    compressed[compressor.matrix.rows] = np.arange(r)
    ks = compressed[runs.client]              # each database's compressed row, -1 if cut
    outside = runs.nu[ks < 0]
    _refuse_leak(math.sqrt(np.sum(outside.real ** 2 + outside.imag ** 2)),
                 "the uniform database's run with index 1", rank_tol)
    correctness = correctness_delta(run)

    # the database whose run is in each server column, -1 for none
    by_column = np.full(runs.layout.total_dim // client.total_dim, -1)
    by_column[runs.server] = np.arange(len(runs.server))
    decoders, rot_dist, outcome_zero = [], [], []
    for i, w in enumerate(correctness.measurements, start=1):
        found = _monomial_decoder(runs, run.basis_runs(i), compressor, ks, by_column)
        if found is None:
            c1 = np.zeros((r, len(by_column)), dtype=np.complex128)
            c1[ks, runs.server] = runs.nu
            support = Isometry(compressor.input_layout, client, dense(compressor.matrix))
            found = (*_uhlmann_decoder(run, i, support, c1), None)
        decoder, distance, pre = found
        decoders.append(decoder)
        rot_dist.append(distance)
        outcome_zero.append(_outcome_zero_by_row(w, decoder, correctness.measured_labels,
                                                 pre)[ks])
    return _encoding(run, compressor, correctness, decoders, rot_dist,
                     np.array(outcome_zero))


def _monomial_decoder(first: BasisRuns, runs: BasisRuns, compressor: Isometry,
                      ks: np.ndarray, by_column: np.ndarray
                      ) -> tuple[Isometry, float, np.ndarray] | None:
    """Index i's decoder U E as a basis map, the distance D((1 x U E) c_1,
    nu_i) it achieves, and the `pre` row that each compressed row k lands
    on, b_k's, read off index i's record, when K = c_1^T conj(nu_i) is
    monomial; None otherwise.

    `first` is index 1's runs and `runs` index i's, both read off
    `PurifiedRun.basis_runs`.  They end over one layout when the client
    reaches as many rows of each memory with either index, as in every
    builtin; when they do not, this is None too, and the Uhlmann solve
    refuses the two layouts.  nu_1's entry for
    database x is first.nu[x], at compressed row ks[x] and server column
    first.server[x]; by_column gives the database in each server column,
    -1 for none.  Each run of index i in a column of nu_1's adds
    c_1[k, s] conj(nu_i[b, s]) to K[k, b].  When, on the integer rows
    alone, each compressed row k gets exactly one such term and no two
    terms share a client row b, K = sum_k kappa_k |k><b_k| and its polar
    factor, the Uhlmann decoder, is sum_k (conj(kappa_k) / |kappa_k|)
    |b_k><k|, exactly.
    """
    if runs.layout != first.layout:
        return None
    client = compressor.output_layout
    partner = by_column[runs.server]
    hit = partner >= 0
    k = ks[partner[hit]]
    r = compressor.input_layout.total_dim
    b = runs.client[hit]
    if not (np.array_equal(np.sort(k), np.arange(r)) and _distinct(b)):
        return None
    kappa = first.nu[partner[hit]] * runs.nu[hit].conj()
    rows, pre = np.empty(r, dtype=np.intp), np.empty(r, dtype=np.intp)
    phases = np.empty(r, dtype=np.complex128)
    rows[k], phases[k], pre[k] = b, kappa.conj() / np.abs(kappa), runs.pre[hit]
    decoder = Isometry(compressor.input_layout, client,
                       BasisMap((client.total_dim, r), rows, phases))
    # (1 x U E) c_1 puts nu_1's entry for each x at (b_{k_x}, first.server[x]),
    # times a phase: on index i's run in that column where there is one,
    # and where nu_i is 0 otherwise.  No two runs share a row, so each
    # run in no column of nu_1's is one entry of nu_i, listed in row
    # order, as the dense nu_i lists them, so the distance keeps its bits.
    alone = np.ones(len(first.nu), dtype=bool)   # nu_1's runs in no column of index i's
    alone[partner[hit]] = False
    others = runs.nu[~hit][np.argsort(runs.rows[~hit])]
    target = np.concatenate((runs.nu[hit], others, np.zeros_like(first.nu[alone])))
    moved = np.concatenate((phases[k] * first.nu[partner[hit]], np.zeros_like(others),
                            phases[ks[alone]] * first.nu[alone]))
    return decoder, pure_distance_amplitudes(target, moved), pre


def _outcome_zero_by_row(w, decoder: Isometry, labels: tuple[str, ...],
                         pre: np.ndarray | None) -> np.ndarray:
    """||(W (x) 1) U E |k>||^2 for each compressed row k, W a measurement
    on the `labels` registers of the decoder's output.  A monomial
    decoder sends |k> to a phase at one client row, whose `labels` part
    is pre[k] (`_monomial_decoder`), so a diagonal basis-map W gives the
    squared magnitude of its value there, one gather; otherwise, or with
    no `pre`, W is applied to the dense decoder."""
    if isinstance(w, BasisMap) and pre is not None:
        return (w.values.real ** 2 + w.values.imag ** 2)[pre]
    decode = matricize(dense(decoder.matrix), decoder.output_layout, labels)
    measured = dense(w) @ decode.reshape(w.shape[1], -1)
    return np.sum(np.abs(measured.reshape(-1, decode.shape[-1])) ** 2, axis=0)


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
    """The dense path's encoding: p_0[i, x] = ||(measured_i (x) 1) c_x||^2
    for each matrix in `measured` (an index's measurement folded into its
    decoder, (k d_bar) x r) and every database x, as (len(measured), 2^n).

    c_x is database x's index-1 run before the client's last op, M_x,
    compressed by the dense compressor `emat` to (1 (x) E^dagger) M_x
    (`_compressed`) and renormalized.  The runs come one chunk at a time
    from a pass over index 1 (`PurifiedRun._chunks`), A_s first; each
    chunk is compressed, decoded at every index and freed, so no encoded
    state outlives its chunk.  A run that leaves the compression support
    by more than `SUPPORT_LEAK_TOL` is a SupportViolation, raised after
    every chunk with the worst leak of all.  The basis path
    (`_basis_rae`) never calls it: there each c_x is a phase at one
    compressed row, and p_0 a gather.
    """
    server = run.spec.a_memory[-1].labels()
    r = emat.shape[1]
    p0 = np.empty((len(measured), 2 ** run.qpir.n))
    worst = 0.0
    for xs, t in run._chunks(1, server):
        # the chunk is kept in one form at a time (its runs, compressed,
        # then laid out r first for the decoders), so no more than one
        # chunk-sized array outlives the step that made the next
        part, leak = _compressed(emat, t)  # A_s leads
        del t
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
    bits = bit_of(np.arange(2 ** n), np.arange(1, n + 1)[:, None], n)
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
    rate g = 1 - delta - 2 sqrt(eps(1-eps)), and 0 where g is vacuous
    (`guarantee_vacuous`)."""
    g = guarantee_value(delta, epsilon)
    if guarantee_vacuous(g):
        return 0.0
    return (1.0 - binary_entropy(g)) * n


# ---------------------------------------------------------------------------
# the verdict rules: each decided here, once, for every verb
# ---------------------------------------------------------------------------

def privacy_premise_holds(epsilon: float) -> bool:
    """The theorem's premise, epsilon <= 1/2, up to `PREMISE_SLACK`.

    Each verb passes the epsilon its argument rests on.  `reduce` passes
    the replay epsilon pinned to index 1: its decoders rotate index 1's
    run onto each index's, so the distance from each server marginal to
    index 1's is the budget those rotations spend.  `attack` passes the
    best replay epsilon_hat: it asks whether any replay simulator makes
    the protocol private, whatever index it replays.
    """
    return epsilon <= PRIVACY_PREMISE_MAX + PREMISE_SLACK


def below_n(communication: float, n: int) -> bool:
    """Whether comm qubits are fewer than the n a protocol that ships the
    database whole exchanges, by more than `SUBLINEAR_SLACK`."""
    return communication < n - SUBLINEAR_SLACK


def guarantee_vacuous(g: float) -> bool:
    """Whether the guaranteed recovery rate g says nothing: Nayak's entropy
    bound (FOCS 1999) needs a rate above 1/2, so at g <= 1/2 the bound is 0."""
    return g <= 0.5


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
    return NayakVerdict(n, m, p, bound, slack, slack >= -NAYAK_SLACK)


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

    @property
    def verdict_failed(self) -> bool:
        """`reduce`'s exit 2: Nayak's check fails, or, under the privacy
        premise, the guarantee is not met or comm is below the bound."""
        return not self.nayak.holds or (
            self.privacy_premise_ok
            and not (self.guarantee_met and self.bound_consistent))

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
    premise_ok = privacy_premise_holds(eps)
    guarantee_met = (p_avg >= g - GUARANTEE_SLACK) if premise_ok else None
    bound_consistent = (rae.communication >= bound - BOUND_SLACK) if premise_ok else None
    premise_failure = None if premise_ok else "privacy"
    if premise_ok:
        consistency = BOUND_APPLIES if bound_consistent else BOUND_VIOLATED
    else:
        consistency = (CONSISTENT_BECAUSE_NON_PRIVATE
                       if below_n(rae.communication, rae.n) else NON_PRIVATE)
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
        guarantee_vacuous=guarantee_vacuous(g),
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
    if max_pair >= 1.0 - UNIT_INTERVAL_SLACK:
        verdict = NOT_PRIVATE
    elif max_pair > UNIT_INTERVAL_SLACK:
        verdict = LEAKY
    else:
        verdict = PRIVATE
    c = qpir.communication
    premise = privacy_premise_holds(privacy.epsilon_hat)
    sublinear = below_n(c, n)
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
