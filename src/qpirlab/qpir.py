"""Private-information-retrieval wrappers around the protocol engine.

Party A is the server (database input x, 2^n-dimensional computational
encoding), party B the client (index input i, n-dimensional encoding).
Every audit reads one `PurifiedRun`: the protocol with the server and the
client's ops before its last one purified, run on the basis inputs |x>|i>
one index at a time (i fixed inside the client's first op), and on the
uniform database superposition with each index, one column per index.
No run goes through the client's last op, and that op is never dilated:
it is local and comes after the last message, so what an audit needs of
it is pulled back onto its inputs.  trivial, index-in-clear and
noisy-trivial store every op as a basis map, and a consumer that needs a
dense matrix makes one Kraus operator dense at a time.

Op types alone pick how the basis runs are held, once per run, since no
op's type depends on i.  When every op of the schedule is a basis map,
as in every builtin but random (a client op before the last is one when
it and the span before it are, below), each run stays one-hot
(`PurifiedRun.one_hot`).  Each index's runs are then composed through
steps 1..2s-1 once, on integers, and split once into the record every
audit reads (`PurifiedRun.basis_runs`, a `BasisRuns`): per database, the
run's one row and value, nu_i's entry at that row, and the row's parts
on the registers the last op reads, on the client's and on the
server's.  That record is the one owner of the format: no consumer
splits a row again, and no audit of a one-hot builtin reads the dense nu_i.
Otherwise, which leaves random, protocol files and fuzz ops, whose ops
are dense but for random's server scramble of what the client returns,
1 (x) U stored as its block U (an `IdentityKron`) and applied one slice
at a time, the runs go in chunks of databases sized from one byte
budget, `CHUNK_BYTES`: each chunk is a
slice of the databases with x_i = 0 followed by their partners
x + 2^(n-i), so no chunk holds more than the budget allows (or one pair
of databases), and every pass reads each chunk matricized once, its two
halves lined up pair by pair.  Step 1 on a basis input |x> is column x
of the server's first op, so each chunk starts as those columns
(`states.dense`), gathered from a dense op or scattered into zeros from
a basis map, never a matmul.

Correctness is judged by optimal (Helstrom) discrimination of the client's
final states averaged over {x : x_i = 0} and over {x : x_i = 1}.  The
client's last op touches only its own registers, so their Helstrom
operator Gamma_i = rho_0/2 - rho_1/2 is that op, as a channel, applied to
Gamma_i^pre, the same operator on the op's inputs.  With i fixed, each
client memory B_1..B_{s-1} is written in the span the client's ops can
reach, so Gamma_i^pre and that span are only as large as what the client
can hold: the basis map onto the rows it reaches when the op and the
span before it are basis maps, and one thin QR per op otherwise
(`PurifiedRun._reach`).  The last op itself is never rebuilt on that
span: where it is read at all, each of its Kraus operators is composed
with the span's isometry Q_{s-1}.  Three paths follow, picked once for
all indices.  When the runs are one-hot and every Kraus operator of the
last op is a basis map with distinct rows (its `distinct_basis_maps`,
decided once by the op's own check), each run's marginal is a diagonal
projector, so
Gamma_i^pre is diagonal, one signed bincount of the runs' squared
values, read off their record; pushed through the Kraus operators,
stacked once as rows and values and composed with each index's Q_{s-1}
by one gather, it stays diagonal, and
delta_i is read off its entries, with no eigensolver and no dense Kraus
operator.  Otherwise Gamma_i^pre is summed over index i's chunks in one
pass, each chunk adding one matmul that pairs each x with its bit-i
partner.  When the last op has one Kraus operator K, as random's does,
K (Q_{s-1} (x) 1) is an isometry, which keeps Gamma_i^pre's nonzero
spectrum and pulls the optimal projector back to Gamma_i^pre's own, so
Gamma_i^pre is diagonalized as it is and the op is never read.
Otherwise Gamma_i is diagonalized in the span of the composed Kraus
operators, of which only the triangular factor is kept (`_kraus_span`).
Each index's optimal measurement is kept pulled back through the last op,
as a factor W_i of the effect it induces on the op's inputs, for the
reduction's decoder to apply: a diagonal basis map on the basis path,
and the adjoint of Gamma_i^pre's outcome-0 eigenbasis for one Kraus
operator.
Privacy compares the purified server's marginals of the superposition
runs nu_i across index inputs.  The server's registers are final once it
sends its last message, so the marginals are read before the client's
last op, as they are after it.  Whether a marginal of nu_i is diagonal
is decided in one place, on the record's integer rows
(`BasisRuns.marginal`): on one side it is when no two databases share a
row of the other side, and it is then one bincount of |nu_i|^2 over that
side's rows.  The encoding's compressor reads the client side of nu_1.
When every index's server side is diagonal, as in trivial and
noisy-trivial, each trace distance is half the sum of the diagonals'
differences, under the eigensolver's floor, with no eigensolver.
Otherwise each marginal is t_i t_i^dagger, with t_i nu_i's server
factor (`PurifiedRun.server_factor`): scattered from the record on
one-hot runs, as index-in-clear's, whose client holds only x_i, and read
off the dense nu_i on the others.  When the n factors span fewer
dimensions than the server's registers, the marginals are written in
that span, which keeps every trace distance.
"""

from __future__ import annotations

import math
import urllib.parse
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import islice

import numpy as np

from .errors import LayoutError
from .linalg import (
    floored_distance,
    haar_unitary_matrix,
    helstrom_matrices,
    helstrom_spectrum,
    marginals_in_span,
    trace_distance_matrices,
)
from .registers import Register, RegisterLayout, concat, fresh_label
from .states import (
    BasisMap,
    IdentityKron,
    Isometry,
    KrausChannel,
    Matrix,
    Operation,
    StateVector,
    _chunk_columns,
    _distinct,
    dense,
    kraus_operators,
    matricize,
    matricized_rows,
)
from .protocol import (
    ProtocolSpec,
    _purified_ops,
    _steps,
    communication_complexity,
    purify_party,
)

#: How far a reference index's epsilon may sit above the smallest and still
#: tie with it: the round-off of trace distances between different pairs of
#: marginals, each a sum of eigenvalues good to a few ulps.  The lowest
#: tied index is the reference, so the pick does not hang on summation order.
REFERENCE_TIE_TOL = 1e-12


def bit_of(x: int, i: int, n: int) -> int:
    """Bit i (1-indexed, x_1 most significant) of the n-bit database x;
    elementwise for integer arrays x and i."""
    return (x >> (n - i)) & 1


@dataclass(frozen=True)
class QpirProtocol:
    """An n-bit QPIR protocol: the client's input space holds the n indices
    and the server's the 2^n databases, so n is the client's input
    dimension, and the server's must be 2^n."""

    spec: ProtocolSpec

    def __post_init__(self) -> None:
        da = self.spec.a_memory[0].total_dim
        if da != 2 ** self.n:
            raise LayoutError(f"server input dim {da} != 2^{self.n}, for the "
                              f"client's {self.n} indices")

    @property
    def n(self) -> int:
        return self.spec.b_memory[0].total_dim

    @property
    def communication(self) -> float:
        return communication_complexity(self.spec)


def qpir_input(qpir: QpirProtocol, x: int | None, i: int) -> StateVector:
    """Input |x>|i> (or the uniform database superposition for x=None)."""
    n = qpir.n
    if not 1 <= i <= n:
        raise LayoutError(f"index {i} outside 1..{n}")
    da = 2 ** n
    if x is None:
        amps_a = np.full(da, 1.0 / math.sqrt(da), dtype=np.complex128)
    else:
        if not 0 <= x < da:
            raise LayoutError(f"database value {x} outside 0..{da - 1}")
        amps_a = np.zeros(da, dtype=np.complex128)
        amps_a[x] = 1.0
    amps_b = np.zeros(n, dtype=np.complex128)
    amps_b[i - 1] = 1.0
    lay = concat(qpir.spec.a_memory[0], qpir.spec.b_memory[0])
    return StateVector(lay, np.kron(amps_a, amps_b))


# ---------------------------------------------------------------------------
# the purified run every audit reads
# ---------------------------------------------------------------------------

def _first_halves(n: int, i: int, half: int):
    """The databases with x_i = 0, in increasing order, in slices of the
    largest power of two of them that is at most `half`, and at least 1."""
    zeros = np.flatnonzero(bit_of(np.arange(2 ** n), i, n) == 0)
    size = 1 << (max(1, half).bit_length() - 1)
    for start in range(0, len(zeros), size):
        yield zeros[start:start + size]


def _through(schedule, lay: RegisterLayout,
             columns: np.ndarray) -> tuple[np.ndarray, RegisterLayout]:
    """`columns`, over `lay`, after every (step, isometry) of `schedule`,
    and the layout they end over, in `matricize`'s argument order."""
    cur = columns
    for _, lay, cur in _steps(schedule, lay, columns):
        pass
    return cur, lay


def _selected(q: BasisMap, d_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a matrix with d_in columns, its input starting with
    the memory that the basis map q's rows run over, that (Q (x) 1)
    selects, and the value of q that scales each."""
    d_rest = d_in // q.shape[0]
    xs = (q.rows[:, None] * d_rest + np.arange(d_rest)).reshape(-1)
    return xs, np.repeat(q.values, d_rest)


def _compose(matrix: Matrix, q: Matrix) -> np.ndarray:
    """matrix (Q (x) 1), dense, for a matrix whose input starts with the
    memory that the isometry q's rows run over.

    A basis map q, such as Q_0 = |i>, sends each of its columns to one
    value of that memory: the result is the matching blocks of matrix's
    columns, each scaled by q's value, gathered or scattered (`dense`).
    A dense q is one matmul with Q^T, since the rows of matrix^T run over
    the memory first."""
    if isinstance(q, BasisMap):
        xs, values = _selected(q, matrix.shape[1])
        return dense(matrix, xs) * values
    matrix = dense(matrix)
    return (q.T @ matrix.T.reshape(q.shape[0], -1)).reshape(-1, matrix.shape[0]).T


def _paired_operator(t: np.ndarray) -> np.ndarray:
    """2^n (rho_0 - rho_1) restricted to one chunk of basis runs: the
    factors t (d, d_rest, C) of `PurifiedRun._chunks`, rho_b the average
    of all 2^n runs over {x : x_i = b}.

    The halves M_0 and M_1 of t's last axis line each x with x_i = 0 up
    with its partner x + 2^(n-i).  G = (M_0 + M_1)(M_0 - M_1)^dagger has
    M_0 M_0^dagger - M_1 M_1^dagger as its Hermitian part (the cross terms
    are anti-Hermitian), so the chunk's share is G + G^dagger, one matmul
    over half its columns; the sum over chunks, divided by 2^(n+1), is
    rho_0/2 - rho_1/2.  t is a strided view of the run (`matricize`), and
    the sum and difference are formed C-ordered, so each reshape of them
    is a view, not one more copy of the chunk.
    """
    d = t.shape[0]
    m0, m1 = np.split(t, 2, axis=2)
    diff = np.subtract(m0, m1, order="C")
    np.conj(diff, out=diff)
    g = np.add(m0, m1, order="C").reshape(d, -1) @ diff.reshape(d, -1).T
    return g + g.conj().T


@dataclass(frozen=True)
class BasisRuns:
    """Index i's one-hot runs after steps 1..2s-1, each field one entry per
    database x, in the order of x (`PurifiedRun.basis_runs`).

    Every step is an isometry and a basis map, so the runs of distinct
    databases stay in distinct rows, and nu_i, the uniform database's run,
    is 2^(-n/2) times run x's value at row x: its entries are read here,
    never from the dense state, and so is each of its diagonal marginals
    (`marginal`) and, where a marginal is not diagonal, its server factor
    (`factor`).
    """

    layout: RegisterLayout   # what the runs end over, A_s first
    d_server: int            # the dimension of A_s
    client_layout: RegisterLayout  # the client's registers, all but A_s
    rows: np.ndarray         # each run's one row over `layout`
    values: np.ndarray       # its value there
    nu: np.ndarray           # nu_i's entry at that row
    pre: np.ndarray          # its row of the registers `pre`
    client: np.ndarray       # its row of the client's registers, all but A_s
    server: np.ndarray       # its column, over A_s

    def marginal(self, side: str) -> np.ndarray | None:
        """The diagonal of nu_i's marginal on the `side` registers,
        "client" (all but A_s) or "server" (A_s), or None when it is not
        diagonal.  Matricized with that side's registers as rows, nu_i has
        one entry per run, so when no two runs share a row of the other
        side, each column holds at most one nonzero and the marginal is
        diagonal: |nu|^2 of each run summed at its row, one bincount.  The
        rule reads the runs' integer rows, never a value or a tolerance."""
        rows, other = ((self.client, self.server) if side == "client"
                       else (self.server, self.client))
        if not _distinct(other):
            return None
        dim = self.client_layout.total_dim if side == "client" else self.d_server
        return np.bincount(rows, self.nu.real ** 2 + self.nu.imag ** 2, minlength=dim)

    def factor(self) -> np.ndarray:
        """nu_i matricized with A_s as rows, d_server x d_client, as
        `matricize` gives it from the dense nu_i: each run's entry
        scattered to its (server column, client row), zeros elsewhere."""
        t = np.zeros((self.d_server, self.client_layout.total_dim), dtype=np.complex128)
        t[self.server, self.client] = self.nu
        return t


class PurifiedRun:
    """The protocol run on the inputs every audit reads, up to the client's
    last op.

    `spec` is the protocol with its server purified; the client's ops
    1..s-1 are purified with it, each party once, and its last op is
    never dilated, since no run reaches it.  Every run starts with B_0
    fixed at i and goes through steps 1..2s-1 (`_schedule`), each index's
    built when it starts (`_reach`): each honest client memory B_k, k < s,
    is replaced by the r_k-dimensional span its op reaches, op k factored
    as V_k = (Q_k (x) 1) W_k, on integers when op k and Q_{k-1} are basis
    maps and by a QR otherwise.  That span is one register, under B_k's
    first label, or under a fresh one when B_k has no registers.  The
    purifier is kept whole.  The last op reads that span through Q_{s-1},
    which `_kraus_span`, or `_composed_kraus` on the basis path, composes
    into each of its Kraus operators; off the basis path, a last op of
    one Kraus operator is not read at all (`correctness_delta`).  All of
    an index's runs share one layout, A_s first, and every index's do
    when the client reaches as many dimensions of each memory with every
    index, as a QR's span always does.

    The runs come in one of two forms, picked once for the run by op
    types (`one_hot`).  The dense form:

    * `_chunks(i, front)`: index i's basis inputs |x>|i>, run in chunks
      of databases no wider than `CHUNK_BYTES` allows, each some databases
      with x_i = 0 and then their partners x + 2^(n-i), and matricized
      with the registers `front` first; every (i, x) column runs once per
      pass.
    * `nu(i)`: the uniform database with index i (the state nu_i), one
      column through the same steps, kept.
    * `helstrom_operator(i)`: Gamma_i^pre = rho_0/2 - rho_1/2 over index
      i's basis runs, on the registers `pre` that the last op reads,
      B_{s-1}'s held span and then X_s, everything else, purifiers
      included, traced out: one pass over index i's chunks, each adding
      its share.  Nothing of the pass is kept.

    Either form gives `server_factor(i)`.

    The one-hot form, when every index's runs stay one-hot up to the last
    op's inputs:

    * `basis_runs(i)`: index i's runs as one record (`BasisRuns`), the
      only reader of the runs' one-hot format, kept; the encoding and
      privacy read nu_i off it, its diagonal marginals and, where those
      are not diagonal, its server factor.
    * `helstrom_diagonal(i)`: Gamma_i^pre's diagonal.  Each run's
      marginal on `pre` is a diagonal projector, so Gamma_i^pre is
      diagonal: (-1)^(x_i) |value|^2 of each run at its `pre` row, one
      signed bincount over the databases, over 2^n, with no chunk and no
      matmul.
    """

    def __init__(self, qpir: QpirProtocol) -> None:
        self.qpir = qpir
        self.spec = purify_party(qpir.spec, "A")
        pairs = islice(_purified_ops(self.spec, "B"), qpir.spec.rounds - 1)
        self._client_ops = [op for op, _ in pairs]
        taken = self.spec.labels()
        self._held = [memory.labels()[0] if memory else fresh_label(f"B{k}", taken)
                      for k, memory in enumerate(qpir.spec.b_memory)]
        self.pre = (self._held[-2],) + qpir.spec.x_comm[-1].labels()
        self._reached: dict[int, tuple[list[Isometry], Matrix]] = {}
        self._basis: dict[int, BasisRuns] = {}
        self._nus: dict[int, StateVector] = {}

    def _span(self, k: int, dim: int) -> RegisterLayout:
        """The one register that holds a `dim`-dimensional span of B_k."""
        return RegisterLayout((Register(self._held[k], dim),))

    def _reach(self, i: int) -> tuple[list[Isometry], Matrix]:
        """Index i's purified client ops 1..s-1 on what they reach, and
        Q_{s-1}, each index's kept once built.

        B_0 is fixed at i, as the basis map Q_0 = |i>.  Each op k < s,
        with Q_{k-1} composed into its input, is factored as V_k = (Q_k
        (x) 1) W_k, with the honest memory B_k as V_k's rows and
        everything else, the purifier included, as its columns; W_k writes
        an r_k-dimensional register in place of B_k.  Types alone pick
        how, and no tolerance decides r_k:

        * Q_{k-1} and op k basis maps: V_k is the gather of op k's columns
          that Q_{k-1} selects (`_selected`), a basis map.  Q_k is the
          basis map onto the B_k rows it reaches, in increasing order,
          with values 1, and W_k is V_k with each row renumbered into
          them, so r_k counts the rows reached, all on integers.
        * Otherwise one thin QR of V_k: Q_k is its dense factor, r_k =
          min(d_{B_k}, d_rest d_in), with d_rest the dimension of Y_k and
          of any purifier, and d_in that of op k's restricted input.
        """
        if i not in self._reached:
            memory = self.qpir.spec.b_memory
            q = BasisMap((self.qpir.n, 1), [i - 1], [1.0])
            ops = []
            for k, op in enumerate(self._client_ops, start=1):
                lay = concat(self._span(k - 1, q.shape[1]),
                             op.input_layout.drop(memory[k - 1].labels()))
                d_other = op.output_layout.total_dim // memory[k].total_dim
                if isinstance(q, BasisMap) and isinstance(op.matrix, BasisMap):
                    xs, values = _selected(q, op.matrix.shape[1])
                    held, other = np.divmod(op.matrix.rows[xs], d_other)
                    reached, held = np.unique(held, return_inverse=True)
                    q = BasisMap((memory[k].total_dim, len(reached)), reached,
                                 np.ones(len(reached)))
                    w = BasisMap((len(reached) * d_other, len(xs)), held * d_other + other,
                                 op.matrix.values[xs] * values)
                else:
                    # v is kept until op k is built: freed before the QR's
                    # factors, it left the heap so that random n=6's reduce
                    # peaked 1.3 MB higher
                    v = _compose(op.matrix, q)
                    q, w = np.linalg.qr(v.reshape(memory[k].total_dim, -1))
                    w = w.reshape(q.shape[1] * d_other, -1)
                out = concat(self._span(k, q.shape[1]),
                             op.output_layout.drop(memory[k].labels()))
                ops.append(Isometry(lay, out, w))
            self._reached[i] = (ops, q)
        return self._reached[i]

    def _schedule(self, i: int) -> list[tuple]:
        """(step, isometry) for steps 1..2s-1, with index i's client ops."""
        ops, _ = self._reach(i)
        by_party = {"A": self.spec.a_ops, "B": ops}
        return [(step, by_party[step.party][step.round - 1])
                for step in self.spec.steps[:-1]]

    def _chunks(self, i: int, front: tuple[str, ...]):
        """Yield (xs, t): index i's basis runs after steps 1..2s-1, one
        chunk of databases xs at a time, matricized with the registers
        `front` first, so t is (d_front, d_rest, len(xs)), its columns in
        the order of xs.  xs is a slice of the databases with x_i = 0
        (`_first_halves`) followed by their partners x + 2^(n-i), so the
        halves of t's last axis line each x up with its partner.

        Step 1 on |x> is column x of the server's first op, so a chunk
        starts as those columns (`dense`), gathered from a dense op and
        scattered from a basis map.  Its size comes from the widest
        state a later step makes, which the layouts give before anything
        is allocated: a chunk holds at most half the columns of that
        width that fit in `CHUNK_BYTES` (`_chunk_columns`) with x_i = 0,
        and at least one, each with its partner.  A chunk is matricized
        as it is yielded, so this frame keeps no reference to it while
        the consumer works.
        """
        (_, first), *rest = self._schedule(i)
        lay = concat(first.output_layout, self._span(0, 1))
        width = widest = lay.total_dim
        for _, op in rest:
            width = width // op.input_layout.total_dim * op.output_layout.total_dim
            widest = max(widest, width)
        n = self.qpir.n
        for zeros in _first_halves(n, i, _chunk_columns(widest) // 2):
            xs = np.concatenate((zeros, zeros + 2 ** (n - i)))
            yield xs, matricize(*_through(rest, lay, dense(first.matrix, xs)), front)

    def nu(self, i: int) -> StateVector:
        if i not in self._nus:
            da = 2 ** self.qpir.n
            uniform = np.full((da, 1), 1.0 / math.sqrt(da), dtype=np.complex128)
            lay = concat(self.spec.a_memory[0], self._span(0, 1))
            cur, lay = _through(self._schedule(i), lay, uniform)
            self._nus[i] = StateVector(lay, cur[:, 0])
        return self._nus[i]

    def helstrom_operator(self, i: int) -> np.ndarray:
        total = None
        for _, t in self._chunks(i, self.pre):
            part = _paired_operator(t)
            total = part if total is None else np.add(total, part, out=total)
        return total / 2 ** (self.qpir.n + 1)

    @cached_property
    def one_hot(self) -> bool:
        """Whether every op of the schedule is a basis map.  The server's
        ops are every index's, and a client op before the last is the
        basis-map factor W_k exactly when Q_{k-1} and op k are basis maps
        (`_reach`), with Q_0 = |i> one for every i: types alone decide,
        so index 1's ops decide for every index, and Q_{s-1} is then a
        basis map too."""
        return all(isinstance(op.matrix, BasisMap) for _, op in self._schedule(1))

    def basis_runs(self, i: int) -> BasisRuns:
        """Index i's runs after steps 1..2s-1, when they are `one_hot`.

        Run x starts as column x of the server's first op, its one row
        and value, and each later step sends the row's input factors to
        the op's row for them, times the op's value, the untouched
        factors riding along: `_through` on integers, with no amplitude
        array.  nu_i's entry at run x's row is formed as `states.apply`
        forms it on the uniform column: the uniform amplitude 2^(-n/2)
        times the first op's value, then times each later op's value in
        turn, so the entries are nu_i's amplitudes bit for bit.  Each
        final row is split once, by `matricized_rows`, into its `pre`
        row and its (client row, server column).
        """
        if i not in self._basis:
            (_, first), *rest = self._schedule(i)
            lay = concat(first.output_layout, self._span(0, 1))
            rows, values = first.matrix.rows, first.matrix.values
            nu = first.matrix.values * complex(1.0 / math.sqrt(2 ** self.qpir.n))
            for _, op in rest:
                labels = op.input_layout.labels()
                front, back = matricized_rows(rows, lay, labels)
                d_back = lay.total_dim // op.input_layout.total_dim
                rows = op.matrix.rows[front] * d_back + back
                values = op.matrix.values[front] * values
                nu = op.matrix.values[front] * nu
                lay = concat(op.output_layout, lay.drop(labels))
            pre, _ = matricized_rows(rows, lay, self.pre)
            client = lay.drop(self.spec.a_memory[-1].labels())
            self._basis[i] = BasisRuns(lay, self.spec.a_memory[-1].total_dim, client, rows,
                                       values, nu, pre,
                                       *matricized_rows(rows, lay, client.labels()))
        return self._basis[i]

    def server_factor(self, i: int) -> tuple[RegisterLayout, np.ndarray]:
        """Index i's client registers, all but A_s, and nu_i matricized
        with A_s as rows, d_server x d_client, which privacy and the
        Uhlmann decoders read: scattered from the record on `one_hot`
        runs (`BasisRuns.factor`), off the dense nu_i otherwise.  One-hot
        runs read the dense nu_i only for an encoding whose nu_1 has no
        diagonal client marginal (`reduction.build_rae`)."""
        if self.one_hot:
            runs = self.basis_runs(i)
            return runs.client_layout, runs.factor()
        server = self.spec.a_memory[-1].labels()
        nu = self.nu(i)
        return nu.layout.drop(server), matricize(nu.amplitudes, nu.layout, server)

    def helstrom_diagonal(self, i: int) -> np.ndarray:
        runs = self.basis_runs(i)
        n = self.qpir.n
        signs = 1 - 2 * bit_of(np.arange(2 ** n), i, n)
        weights = signs * (runs.values.real ** 2 + runs.values.imag ** 2)
        d_pre = runs.layout.sub(self.pre).total_dim
        return np.bincount(runs.pre, weights, minlength=d_pre) / 2 ** n


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectnessReport:
    """Per-index correctness errors and the optimal measurements achieving them.

    The measurement for index i distinguishes the client's average final
    state over {x : x_i = 0} from the one over {x : x_i = 1}; it depends on
    i but never on x.  It is stored pulled back onto the inputs of the
    client's last op, K_k its Kraus operators and Pi_i its outcome-0
    projector, as W_i^dagger W_i = sum_k K_k^dagger Pi_i K_k.  The path
    `correctness_delta` takes picks W_i's form: on the basis path, where
    every op the runs and the last op meet is a basis map and each Kraus
    operator's rows are distinct, W_i is the d_pre x d_pre diagonal
    `BasisMap` of the square roots of the effect's weights, zeros
    included, d_pre values where a dense diagonal holds d_pre^2.  On the
    dense path it is an array: for a last op of one Kraus operator K,
    P_i^dagger, with P_i the orthonormal basis of Gamma_i^pre's kept
    eigenvectors, since K (Q_{s-1} (x) 1) is an isometry and pulls Pi_i
    back to P_i P_i^dagger; for more, an upper triangular array.
    """

    n: int
    deltas: tuple[float, ...]
    delta_max: float
    delta_avg: float
    measurements: tuple[Matrix, ...]       # W_i, at most d_pre x d_pre
    measured_labels: tuple[str, ...]       # what each W_i reads: held B_{s-1}, then X_s


def _kraus_span(op: Operation, q: Matrix) -> np.ndarray:
    """R of the reduced QR [K_1 ... K_m] = QR of `op`'s Kraus operators
    side by side, each composed with the isometry q on the memory its input
    starts with (`_compose`), one at a time, so at most one Kraus
    operator is dense at a time: r x m d_in, with d_in the composed input's
    dimension and r = min(d_out, m d_in).  Q is an isometry, so R keeps
    every product K_j^dagger K_k.  Only the dense path of
    `correctness_delta` reads it, the one taken when an op of index i's
    schedule, Q_{s-1} or a Kraus operator of `op` is not a basis map,
    and only when `op` has two or more Kraus operators: one K composed
    with Q is an isometry, and Gamma^pre's own eigensolve stands in for
    the span.  On the basis path no Kraus operator is made dense."""
    kraus = kraus_operators(op)
    d_in = q.shape[1] * op.input_layout.total_dim // q.shape[0]
    side = np.empty((op.output_layout.total_dim, len(kraus), d_in), dtype=np.complex128)
    for k, matrix in enumerate(kraus):
        side[:, k] = _compose(matrix, q)
    return np.linalg.qr(side.reshape(len(side), -1), mode="r")


def _pushed_through(gamma_pre: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """The Helstrom measurement of sum_k K_k Gamma^pre K_k^dagger, with
    [K_1 ... K_m] = QR.  The r x r middle factor sum_k R_k Gamma^pre
    R_k^dagger is diagonalized; with P its outcome-0 basis, the effect on
    the op's inputs is F^dagger F, F the blocks P^dagger R_k stacked, and
    W is the triangular factor of a QR of F, at most d_pre x d_pre."""
    d_pre = gamma_pre.shape[0]
    y = (r.reshape(-1, d_pre) @ gamma_pre).reshape(r.shape[0], -1)
    res = helstrom_matrices(y @ r.conj().T)
    f = (res.positive.conj().T @ r).reshape(-1, d_pre)
    return res.probability, np.linalg.qr(f, mode="r")


def _composed_kraus(kraus: tuple[BasisMap, ...], qs):
    """The basis-map Kraus operators `kraus`, each composed with each basis
    map q of `qs` as `_compose` composes one, as rows and values, each
    (m, d), row k of each K_k's, one pair per q in turn.  The operators
    are stacked once, and q selects the same columns of every K_k, so each
    q is one gather of those columns of the stack, into a C-ordered array
    as the stack is, and nothing is made dense."""
    rows = np.stack([k.rows for k in kraus])
    values = np.stack([k.values for k in kraus])
    for q in qs:
        xs, scale = _selected(q, rows.shape[1])
        yield np.take(rows, xs, axis=1), np.take(values, xs, axis=1) * scale


def _basis_pushed_through(gamma_pre: np.ndarray, d_out: int, rows: np.ndarray,
                          values: np.ndarray) -> tuple[float, BasisMap]:
    """The Helstrom measurement of sum_k K_k Gamma^pre K_k^dagger for a
    diagonal Gamma^pre, given as its diagonal, and d_out x d_pre basis
    maps K_k with distinct rows, stacked (`_composed_kraus`): column j of
    K_k is values[k, j] |rows[k, j]>.

    Each K_k Gamma^pre K_k^dagger is then diagonal, gamma_j |v_kj|^2 at
    row r_kj, and so is their sum, one weighted bincount: its entries are
    its eigenvalues, read under `helstrom_spectrum`'s rule.  With Pi the
    diagonal projector onto the rows kept, W^dagger W = sum_k (Pi
    K_k)^dagger (Pi K_k) is diagonal too, since no two columns of a K_k
    share a row: |v_kj|^2 summed over the k whose row r_kj is kept.  W is
    its square root, the d_pre x d_pre diagonal basis map."""
    d_pre = len(gamma_pre)
    weights = values.real ** 2 + values.imag ** 2
    gamma = np.bincount(rows.reshape(-1), (weights * gamma_pre).reshape(-1),
                        minlength=d_out)
    probability, kept = helstrom_spectrum(gamma)
    weight = np.where(kept[rows], weights, 0.0).sum(axis=0)
    return probability, BasisMap((d_pre, d_pre), np.arange(d_pre), np.sqrt(weight))


def correctness_delta(run: PurifiedRun) -> CorrectnessReport:
    """Max/average failure probability of the best x-independent measurement.

    delta_i = 1 - P_Helstrom(avg over x_i=0, avg over x_i=1) at priors 1/2,
    evaluated on the client's final registers with everything else traced
    out; the overall report carries both max_i and mean_i.  The client's
    last op acts on its registers alone, so Gamma_i = rho_0/2 - rho_1/2 is
    that op, as a channel, applied to Gamma_i^pre on its inputs: index i's
    runs stop before the last op, and each index's measurement is pulled
    back through that op's Kraus operators composed with its own Q_{s-1}.
    d_pre counts B_{s-1} only as far as the client reaches it with i fixed.

    Types, and distinct rows, pick one of two paths, once for every
    index.  When the runs are `PurifiedRun.one_hot` and every Kraus
    operator of the last op is a basis map whose rows are distinct (the
    op's `distinct_basis_maps`, the rule of its own Gram check, decided
    there once), Gamma_i^pre is diagonal
    (`PurifiedRun.helstrom_diagonal`), and so is Gamma_i: the Kraus
    operators, stacked once and composed with each index's Q_{s-1} in
    one gather (`_composed_kraus`), push it through as one weighted bincount, read
    off its entries with no eigensolver (`_basis_pushed_through`), and
    W_i is a diagonal basis map.  A channel whose basis-map Kraus
    operators share rows, which only the library builds, takes the dense
    path.  Otherwise Gamma_i^pre is summed dense
    (`PurifiedRun.helstrom_operator`).  A last op of one Kraus operator K,
    an `Isometry` or a one-operator channel, composed with Q_{s-1} is an
    isometry: Gamma_i = K Gamma_i^pre K^dagger has Gamma_i^pre's nonzero
    spectrum, with the same floor length d_pre, and K^dagger Pi_i K =
    P_i P_i^dagger, so delta_i and W_i = P_i^dagger come off one
    `helstrom_matrices` of Gamma_i^pre, with no Kraus span.  For two or
    more, Gamma_i is diagonalized in the span of the Kraus operators
    (`_kraus_span`), which is min(d_client, m d_pre)-dimensional, with W_i
    upper triangular (`_pushed_through`).
    """
    n = run.qpir.n
    deltas, measurements = [], []
    last = run.qpir.spec.b_ops[-1]
    basis = run.one_hot and last.distinct_basis_maps
    if basis:
        composed = _composed_kraus(kraus_operators(last),
                                   (run._reach(i)[1] for i in range(1, n + 1)))
    for i in range(1, n + 1):
        if basis:
            probability, w = _basis_pushed_through(
                run.helstrom_diagonal(i), last.output_layout.total_dim, *next(composed))
        elif len(kraus_operators(last)) == 1:
            res = helstrom_matrices(run.helstrom_operator(i))
            probability, w = res.probability, res.positive.conj().T
        else:
            probability, w = _pushed_through(run.helstrom_operator(i),
                                             _kraus_span(last, run._reach(i)[1]))
        deltas.append(max(0.0, 1.0 - probability))
        measurements.append(w)
    return CorrectnessReport(
        n=n,
        deltas=tuple(deltas),
        delta_max=max(deltas),
        delta_avg=float(np.mean(deltas)),
        measurements=tuple(measurements),
        measured_labels=run.pre,
    )


# ---------------------------------------------------------------------------
# privacy against the purified server
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrivacyReport:
    """Simulator-based privacy estimate against the purified server.

    epsilon_hat is achieved by the best replay simulator (hand the server
    the reference run's marginal); pairwise_lower is the triangle-inequality
    floor any simulator must respect.
    """

    n: int
    distance_matrix: np.ndarray          # Delta(server_i, server_j) on |xi>|i>
    epsilon_by_reference: tuple[float, ...]
    epsilon_hat: float                   # min over reference indices
    reference_index: int                 # 1-based, lowest tied with the min
    per_index_distances: tuple[float, ...]
    pairwise_lower: float                # max pairwise distance, halved

    def to_dict(self) -> dict:
        """The fields in order, the distance matrix as nested lists."""
        rows = [list(map(float, row)) for row in self.distance_matrix]
        return {**asdict(self), "distance_matrix": rows}


def server_marginals(run: PurifiedRun) -> list[np.ndarray]:
    """Purified server's reduced state per index input on the uniform
    database superposition: t_j t_j^dagger for the server factor t_j
    (d_server x d_rest) of each nu_j.

    When the runs are `PurifiedRun.one_hot` and every index's server
    marginal is diagonal (`BasisRuns.marginal`, no two databases of any
    index in one client row), each is given as its diagonal, one
    bincount over index j's record.  Otherwise each is the matrix of
    t_j (`PurifiedRun.server_factor`, off the record on one-hot runs),
    written in the span of all n factors (`marginals_in_span`).

    The nu_j stop before the client's last op.  The server's registers A_s
    are final after its last message, and that op acts on the client's
    registers alone, so it leaves every marginal as it is and need not be
    run, nor dilated.
    """
    n = run.qpir.n
    if run.one_hot:
        diagonals = [run.basis_runs(j).marginal("server") for j in range(1, n + 1)]
        if all(d is not None for d in diagonals):
            return diagonals
    return marginals_in_span([run.server_factor(j)[1] for j in range(1, n + 1)])


def _diagonal_distance(a: np.ndarray, b: np.ndarray, dim: int) -> float:
    """`trace_distance_matrices` of the diagonal marginals a and b as the
    dense path writes them, dim x dim: the eigenvalues of a - b are its
    entries, and the nonzero ones are summed in ascending order, as
    `eigvalsh` returns them, under the same floor (`floored_distance`)."""
    w = a - b
    return floored_distance(np.sort(w[w != 0.0]), dim, abs(a.sum()) + abs(b.sum()))


def privacy_epsilon_purified(run: PurifiedRun) -> PrivacyReport:
    """Estimate the ultimate privacy leak against the purified server.

    Compares the server-side marginals of the uniform-superposition runs
    across indices (`server_marginals`, before the client's last op), and
    reports the best replay-simulator epsilon together with the
    simulator-independent pairwise lower bound.  Each distance floors the
    eigensolver's round-off (`trace_distance_matrices`), so a private
    protocol's epsilon is exactly 0, not round-off that the guarantee's
    2 sqrt(eps (1 - eps)) would lift to about 1e-8.  Diagonal marginals
    are compared with no eigensolver (`_diagonal_distance`), under the
    floor of the dimension the dense path would diagonalize in,
    min(d_server, sum_j d_rest_j) (`marginals_in_span`).
    """
    n = run.qpir.n
    margs = server_marginals(run)
    distance = trace_distance_matrices
    if margs[0].ndim == 1:
        widths = sum(run.basis_runs(j).client_layout.total_dim for j in range(1, n + 1))
        distance = partial(_diagonal_distance, dim=min(len(margs[0]), widths))
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            dist[a, b] = dist[b, a] = distance(margs[a], margs[b])
    by_ref = tuple(float(np.max(dist[:, j])) for j in range(n))
    # the lowest index within round-off of the minimum, not float order's pick
    ref = next(j for j, e in enumerate(by_ref) if e <= min(by_ref) + REFERENCE_TIE_TOL)
    dist.setflags(write=False)
    return PrivacyReport(
        n=n,
        distance_matrix=dist,
        epsilon_by_reference=by_ref,
        epsilon_hat=by_ref[ref],
        reference_index=ref + 1,
        per_index_distances=tuple(float(d) for d in dist[:, ref]),
        pairwise_lower=float(np.max(dist)) / 2.0,
    )


# ---------------------------------------------------------------------------
# built-in protocols
# ---------------------------------------------------------------------------

def _copy_matrix(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u (x) v) after the basis copy |j> -> |j>|j>: column j is u_j (x) v_j."""
    return (u[:, None, :] * v[None, :, :]).reshape(-1, u.shape[1])


def _copy(d: int) -> BasisMap:
    """The basis copy |j> -> |j>|j> of a d-dimensional register."""
    return BasisMap((d * d, d), np.arange(d) * (d + 1), np.ones(d))


def build_trivial(n: int) -> QpirProtocol:
    """Server keeps a basis copy of x and ships |x> whole; client stores it.
    Both ops are basis maps."""
    da = 2 ** n
    a0, a1, x1, b0, b1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("X1", da), ("B0", n), ("B1", n * da)))
    a_op = Isometry(a0, concat(a1, x1), _copy(da))
    b_op = Isometry(concat(b0, x1), b1, BasisMap.identity(n * da))
    spec = ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (a_op,), (b_op,))
    return QpirProtocol(spec)


def build_index_in_clear(n: int) -> QpirProtocol:
    """Client announces i in the clear; server answers the one bit x_i.

    Sub-linear communication (log2 n + 1 qubits) bought by giving up
    privacy entirely: the server's memory ends up holding |i>.  Every op is
    a basis map.
    """
    da = 2 ** n
    a0, a1, a2, x1, x2, b0, b1, b2, y1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("A2", da * n), ("X1", 1), ("X2", 2),
        ("B0", n), ("B1", n), ("B2", 2 * n), ("Y1", n)))

    a1_op = Isometry(a0, concat(a1, x1), BasisMap.identity(da))
    b1_op = Isometry(concat(b0, x1), concat(b1, y1), _copy(n))
    x, i = np.divmod(np.arange(da * n), n)   # column x n + (i - 1)
    answer = BasisMap((da * n * 2, da * n),
                      2 * np.arange(da * n) + bit_of(x, i + 1, n), np.ones(da * n))
    a2_op = Isometry(concat(a1, y1), concat(a2, x2), answer)
    b2_op = Isometry(concat(b1, x2), b2, BasisMap.identity(2 * n))
    spec = ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                        (a1_op, a2_op), (b1_op, b2_op))
    return QpirProtocol(spec)


def build_noisy_trivial(n: int, delta: float | None = None) -> QpirProtocol:
    """Trivial protocol with client-side noise tuned to correctness error delta.

    Each stored database qubit passes through a bit-flip channel of
    strength delta, which makes every per-index Helstrom error exactly
    delta while keeping the purifying environment at 2^n dimensions.
    delta is required: None, for one not given, is an error.

    Kraus operator `mask` is 1_n (x) F_1 (x) ... (x) F_n, with F_j =
    sqrt(delta) X if bit j-1 of mask is set and sqrt(1 - delta) 1
    otherwise.  It is a basis map: it flips each bit x_j of the stored
    database that mask names and scales every column by one weight, the
    F_j's weights multiplied in the order F_1, F_2, ..., as the Kronecker
    product multiplies them, so its entries are that product's bit for
    bit.
    """
    if delta is None or not 0.0 <= delta <= 0.5:
        raise LayoutError(f"noisy-trivial needs a noise level delta in [0, 0.5], "
                          f"got {delta}")
    base = build_trivial(n)
    if delta == 0.0:
        return base
    d = n * 2 ** n
    kraus = []
    for mask in range(2 ** n):
        weight, flips = 1.0, 0
        for j in range(n):
            bit = (mask >> j) & 1
            weight *= math.sqrt(delta) if bit else math.sqrt(1.0 - delta)
            flips |= bit << (n - 1 - j)
        kraus.append(BasisMap((d, d), np.arange(d) ^ flips, np.full(d, weight)))
    spec = base.spec
    (store,) = spec.b_ops
    noisy = KrausChannel(store.input_layout, store.output_layout, tuple(kraus))
    return QpirProtocol(spec.with_party("B", spec.b_memory, (noisy,)))


def build_random_qpir(n: int, seed: int = 0) -> QpirProtocol:
    """Seeded 2-round fuzzing protocol with Haar-random unitary rounds.

    The server rotates and ships a basis copy of the database (keeping the
    copy), the client scrambles everything it holds and may send some
    qubits back, and the server scrambles whatever returns.  Keeping the
    copy pins the database branches to orthogonal server states, so the
    compression step of the encoding reduction stays well-posed.

    Every op is dense but the server's scramble of what returns, which
    leaves its memory A_1 alone: it is stored as its 2^l x 2^l block U,
    1 (x) U (`IdentityKron`), and applied to each slice of A_1 as one
    small matmul.  No op is a basis map, so the runs take the dense path.
    """
    if seed < 0:
        raise LayoutError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    da = 2 ** n
    ell = int(rng.integers(0, 2))       # qubits sent back by the client
    kq = int(rng.integers(0, ell + 1))  # qubits the server re-sends

    a0, a1, x1, b0, b1, y1, a2, x2 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("X1", da), ("B0", n), ("B1", n * da // (2 ** ell)),
        ("Y1", 2 ** ell), ("A2", da * 2 ** (ell - kq)), ("X2", 2 ** kq)))
    b2 = RegisterLayout.of(("B2", b1.total_dim * 2 ** kq))

    u_a = haar_unitary_matrix(da, rng)
    u_x = haar_unitary_matrix(da, rng)
    a1_op = Isometry(a0, concat(a1, x1), _copy_matrix(u_a, u_x))
    b1_op = Isometry(concat(b0, x1), concat(b1, y1),
                     haar_unitary_matrix(n * da, rng))
    a2_op = Isometry(concat(a1, y1), concat(a2, x2),
                     IdentityKron(da, haar_unitary_matrix(2 ** ell, rng)))
    b2_op = Isometry(concat(b1, x2), b2,
                     haar_unitary_matrix(b2.total_dim, rng))
    spec = ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                        (a1_op, a2_op), (b1_op, b2_op))
    return QpirProtocol(spec)


#: Builtin name -> (builder, each parameter it reads and the type an
#: address value of it parses to).  n comes first, as the builder's first
#: argument; a default or a required parameter lives in the builder.
_BUILTINS = {
    "trivial": (build_trivial, {"n": int}),
    "index-in-clear": (build_index_in_clear, {"n": int}),
    "noisy-trivial": (build_noisy_trivial, {"n": int, "delta": float}),
    "random": (build_random_qpir, {"n": int, "seed": int}),
}


def _entry(name: str) -> tuple:
    """Builtin `name`'s builder and the parameters it reads, with their types."""
    if name not in _BUILTINS:
        raise LayoutError(f"unknown builtin {name!r}; known: {sorted(_BUILTINS)}")
    return _BUILTINS[name]


def builtin(name: str, n: int, **params) -> QpirProtocol:
    """Construct a named built-in protocol on n-bit databases.

    `params` are the builtin's other parameters, by the names `_BUILTINS`
    gives; None stands for one not given, which the builder defaults or
    refuses.  A parameter the builtin does not read is an error, and so is
    an n below 1.
    """
    build, reads = _entry(name)
    given = {key: value for key, value in params.items() if value is not None}
    unread = [key for key in given if key not in reads]
    if unread:
        raise LayoutError(f"builtin {name!r} reads only {', '.join(reads)}, "
                          f"not {', '.join(unread)}")
    if n < 1:
        raise LayoutError(f"database size must be >= 1, got {n}")
    return build(n, **given)


def builtin_from_address(address: str, n: int | None = None,
                         seed: int | None = None) -> QpirProtocol:
    """The builtin that 'builtin:<name>?<key>=<value>&...' names.

    Each value is read as the type the builtin's `_BUILTINS` entry gives
    it, and `builtin` gets them all, so it refuses one the builtin does not
    read.  A repeated parameter and a value that does not parse are errors.
    `n` and `seed` fill in an address without them, and one that
    contradicts the address's is an error.
    """
    if not address.startswith("builtin:"):
        raise LayoutError(f"not a builtin address: {address!r}")
    name, _, query = address[len("builtin:"):].partition("?")
    _, reads = _entry(name)
    values = {}
    for key, text in urllib.parse.parse_qsl(query, keep_blank_values=True):
        if key in values:
            raise LayoutError(f"builtin address {address!r} repeats {key!r}")
        kind = reads.get(key, str)   # one the builtin does not read stays text
        try:
            values[key] = kind(text)
        except ValueError as exc:
            raise LayoutError(f"builtin parameter {key}={text!r} is not a "
                              f"valid {kind.__name__}") from exc
    for key, given in (("n", n), ("seed", seed)):
        value = values.setdefault(key, given)
        if given not in (None, value):
            raise LayoutError(f"{key}={given} contradicts the address's {key}={value}")
    if values["n"] is None:
        raise LayoutError(f"builtin address {address!r} needs an n parameter")
    return builtin(name, **values)
