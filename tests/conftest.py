"""Shared generators and independent oracles for the test suite.

The density-operator reference (`density_run`, `certify_oracle`) runs a
protocol with `apply_channel` on D x D matrices, channels and all.  The
library itself only runs pure states through dilations; these oracles are
what that pure engine is checked against.  `dense_builtin` builds the
builtins whose ops are basis maps with every op a dense array, as the
reference their basis maps are checked against.
"""

import dataclasses
import math

import numpy as np
import pytest

from qpirlab.adversary import install
from qpirlab.linalg import haar_unitary_matrix, trace_distance_matrices
from qpirlab.protocol import ProtocolSpec
from qpirlab.qpir import (
    QpirProtocol,
    _copy,
    _copy_matrix,
    bit_of,
    build_index_in_clear,
    builtin,
)
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    BasisMap,
    DensityOperator,
    Isometry,
    KrausChannel,
    StateVector,
    apply_channel,
    dense,
    matricize,
    pure_density,
)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None):
    """Wishart-style random density matrix of the given rank."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def identity_support(layout, labels) -> Isometry:
    """Identity on the `labels` factor: the Uhlmann support that yields the
    full purifier unitary."""
    sub = layout.sub(labels)
    return Isometry(sub, sub, np.eye(sub.total_dim))


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of a probability vector; the oracle for
    `binary_entropy`."""
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("distribution must be a nonempty vector")
    if np.min(arr) < 0.0:
        raise ValueError("distribution has negative entries")
    if abs(float(np.sum(arr)) - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {float(np.sum(arr))}, not 1")
    nz = arr[arr > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def purify(rho: DensityOperator, label: str) -> StateVector:
    """sum_k sqrt(w_k) |v_k>|k> over rho's layout plus a purifier register
    `label` of full dimension; its marginal on rho's layout is rho."""
    w, v = np.linalg.eigh(rho.matrix)
    amps = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)
    lay = concat(rho.layout, RegisterLayout.of((label, rho.layout.total_dim)))
    return StateVector(lay, amps / np.linalg.norm(amps))


def basis(layout, index: int) -> StateVector:
    """Computational basis vector |index> on the whole layout."""
    return StateVector(layout, np.eye(layout.total_dim, dtype=complex)[:, index])


def on_factor(matrix: np.ndarray, state: StateVector, labels) -> np.ndarray:
    """Amplitudes of `state` with `matrix` applied to its `labels` factor,
    over (labels, rest); compare with `on_factor(identity, ...)`."""
    return (matrix @ matricize(state.amplitudes, state.layout, labels)).reshape(-1)


def reorder(rho: DensityOperator, labels) -> DensityOperator:
    """`rho` with its factors in the order `labels` (a permutation)."""
    d = rho.layout.total_dim
    t = matricize(rho.matrix, rho.layout, labels, operator=True)
    return DensityOperator(rho.layout.reordered(labels), t.reshape(d, d))


def density_marginal(rho: DensityOperator, keep) -> np.ndarray:
    """Partial trace of a density operator onto `keep`, in that order."""
    return np.einsum("iaja->ij", matricize(rho.matrix, rho.layout, keep,
                                           operator=True))


def density_run(spec, rho: DensityOperator) -> list[DensityOperator]:
    """Density-operator reference run: the state after every step, over the
    step's `order` plus the input's spectator registers."""
    spectators = rho.layout.labels()[len(spec.a_memory[0]) + len(spec.b_memory[0]):]
    states = []
    for step in spec.steps:
        rho = apply_channel(spec.ops(step.party)[step.round - 1], rho)
        rho = reorder(rho, step.order + spectators)
        states.append(rho)
    return states


def certify_oracle(spec, adv, maps, inputs) -> list[tuple[int, str, float]]:
    """(step, input id, distance) rows of the density-operator definition of
    certification, in `certify_specious` row order; `maps` are F_1..F_2s,
    and the marginal on the honest registers traces out their environment."""
    adv_spec = install(spec, adv)
    rows = []
    for input_id, psi in inputs:
        honest = density_run(spec, pure_density(psi))
        tilde = density_run(adv_spec, pure_density(psi))
        for step, op in enumerate(maps, start=1):
            want = honest[step - 1]
            got = density_marginal(apply_channel(op, tilde[step - 1]),
                                   want.layout.labels())
            rows.append((step, input_id,
                         trace_distance_matrices(want.matrix, got)))
    return rows


def random_kraus_ops(rng: np.random.Generator, din: int, dout: int, num: int):
    """Trace-preserving Kraus set sliced out of a Haar isometry."""
    num = max(num, -(-din // dout))  # need dout*num >= din
    u = haar_unitary_matrix(dout * num, rng)[:, :din]
    return [u[j * dout:(j + 1) * dout, :] for j in range(num)]


def dephased(op: Isometry) -> KrausChannel:
    """`op` after a computational-basis measurement of its input: a channel
    with one Kraus operator per input basis state."""
    d = op.input_layout.total_dim
    return KrausChannel(op.input_layout, op.output_layout,
                        tuple(dense(op.matrix) * e for e in np.eye(d)))


# ---------------------------------------------------------------------------
# dense references for the builtins whose ops are basis maps: each op as
# the dense array the builders made before they stored basis maps
# ---------------------------------------------------------------------------

def dense_trivial(n: int) -> QpirProtocol:
    da = 2 ** n
    a0, a1, x1, b0, b1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("X1", da), ("B0", n), ("B1", n * da)))
    eye = np.eye(da, dtype=np.complex128)
    a_op = Isometry(a0, concat(a1, x1), _copy_matrix(eye, eye))
    b_op = Isometry(concat(b0, x1), b1, np.eye(n * da, dtype=np.complex128))
    spec = ProtocolSpec(1, (a0, a1), (b0, b1), (x1,), (), (a_op,), (b_op,))
    return QpirProtocol(spec)


def dense_index_in_clear(n: int) -> QpirProtocol:
    da = 2 ** n
    a0, a1, a2, x1, x2, b0, b1, b2, y1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("A2", da * n), ("X1", 1), ("X2", 2),
        ("B0", n), ("B1", n), ("B2", 2 * n), ("Y1", n)))

    a1_op = Isometry(a0, concat(a1, x1), np.eye(da, dtype=np.complex128))
    eye = np.eye(n, dtype=np.complex128)
    b1_op = Isometry(concat(b0, x1), concat(b1, y1), _copy_matrix(eye, eye))
    answer = np.zeros((da * n * 2, da * n), dtype=np.complex128)
    for x in range(da):
        for i in range(1, n + 1):
            col = x * n + (i - 1)
            answer[col * 2 + bit_of(x, i, n), col] = 1.0
    a2_op = Isometry(concat(a1, y1), concat(a2, x2), answer)
    b2_op = Isometry(concat(b1, x2), b2, np.eye(2 * n, dtype=np.complex128))
    spec = ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                        (a1_op, a2_op), (b1_op, b2_op))
    return QpirProtocol(spec)


def dense_noisy_trivial(n: int, delta: float) -> QpirProtocol:
    base = dense_trivial(n)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    eye2 = np.eye(2, dtype=np.complex128)
    kraus = []
    for mask in range(2 ** n):
        f = np.ones((1, 1), dtype=np.complex128)
        for j in range(n):
            factor = math.sqrt(delta) * flip if (mask >> j) & 1 else \
                math.sqrt(1.0 - delta) * eye2
            f = np.kron(f, factor)
        kraus.append(np.kron(np.eye(n, dtype=np.complex128), f))
    spec = base.spec
    (store,) = spec.b_ops
    noisy = KrausChannel(store.input_layout, store.output_layout, tuple(kraus))
    return QpirProtocol(spec.with_party("B", spec.b_memory, (noisy,)))


def dense_builtin(name: str, n: int, **params) -> QpirProtocol:
    """The dense reference of basis-map builtin `name`: trivial,
    index-in-clear or noisy-trivial."""
    build = {"trivial": dense_trivial, "index-in-clear": dense_index_in_clear,
             "noisy-trivial": dense_noisy_trivial}[name]
    return build(n, **params)


def half_leaky(n: int, form=lambda m: m) -> QpirProtocol:
    """Two rounds of basis maps, n >= 2, each op's matrix given as `form`
    makes the basis map.  The server keeps a copy of x and ships one.  The
    client keeps i and x, and sends its top index bit t, the top bit of
    i - 1 written in ceil(log2 n) bits.  The server keeps t in A_2 when
    x_1 = 1 and returns it in X_2 otherwise, and the client stores what
    returns.  So the server's marginals of two indices with different t
    differ on the half of the databases with x_1 = 1, where each puts
    its weight 2^-n on another row: epsilon = 1/2, by hand."""
    da = 2 ** n
    a0, a1, a2, x1, x2, b0, b1, b2, y1 = (RegisterLayout.of(reg) for reg in (
        ("A0", da), ("A1", da), ("A2", 2 * da), ("X1", da), ("X2", 2),
        ("B0", n), ("B1", n * da), ("B2", 2 * n * da), ("Y1", 2)))
    a1_op = Isometry(a0, concat(a1, x1), form(_copy(da)))
    column = np.arange(n * da)                        # (i - 1) 2^n + x
    top = (column // da) >> ((n - 1).bit_length() - 1)
    send = BasisMap((2 * n * da, n * da), 2 * column + top, np.ones(n * da))
    b1_op = Isometry(concat(b0, x1), concat(b1, y1), form(send))
    x, t = np.divmod(np.arange(2 * da), 2)            # column 2 x + t
    kept = bit_of(x, 1, n)
    answer = BasisMap((4 * da, 2 * da), 2 * (2 * x + kept * t) + (1 - kept) * t,
                      np.ones(2 * da))
    a2_op = Isometry(concat(a1, y1), concat(a2, x2), form(answer))
    b2_op = Isometry(concat(b1, x2), b2, form(BasisMap.identity(2 * n * da)))
    spec = ProtocolSpec(2, (a0, a1, a2), (b0, b1, b2), (x1, x2), (y1,),
                        (a1_op, a2_op), (b1_op, b2_op))
    return QpirProtocol(spec)


def bloch_grid_success(rho0: np.ndarray, rho1: np.ndarray,
                       grid: int = 100) -> float:
    """Brute-force best success probability over projective qubit
    measurements on a grid of 'grid**2' Bloch-sphere directions, priors 1/2.

    Swapped outcome assignments are covered because the grid contains every
    direction's antipode.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)], axis=-1)

    def expect(rho):
        return np.einsum("ijk,kl,ijl->ij", vecs.conj(), rho, vecs).real

    success = 0.5 * expect(rho0) + 0.5 * (1.0 - expect(rho1))
    return float(success.max())


def three_round_random(n: int, seed: int) -> QpirProtocol:
    """Seeded 3-round QPIR protocol whose client memories B_1 and B_2 are
    both larger than what the client can reach with its index fixed.

    The server keeps a rotated copy of x, ships another, and then rotates
    and returns each qubit the client sends.  The client's first two ops
    are Haar isometries into memories of n 2^n and 4 n 2^n dimensions,
    each sending one qubit back; with i fixed they reach 2 * 2^n and
    2 * 2 * 2 * 2^n dimensions.  Its last op applies one of two Haar
    unitaries, with probabilities 0.7 and 0.3, so delta is not 0.
    """
    rng = np.random.default_rng(seed)
    da = 2 ** n

    def lay(label, dim):
        return RegisterLayout.of((label, dim))

    a = [lay(f"A{k}", da) for k in range(4)]
    b = [lay("B0", n), lay("B1", n * da), lay("B2", 4 * n * da), lay("B3", 8 * n * da)]
    x = [lay("X1", da), lay("X2", 2), lay("X3", 2)]
    y = [lay("Y1", 2), lay("Y2", 2)]

    def iso(lin, lout):
        u = haar_unitary_matrix(lout.total_dim, rng)[:, :lin.total_dim]
        return Isometry(lin, lout, u)

    copy = np.kron(haar_unitary_matrix(da, rng), haar_unitary_matrix(da, rng))
    a_ops = [Isometry(a[0], concat(a[1], x[0]), copy[:, :: da + 1])]
    a_ops += [Isometry(concat(a[k], y[k - 1]), concat(a[k + 1], x[k]),
                       np.kron(np.eye(da), haar_unitary_matrix(2, rng)))
              for k in (1, 2)]
    b_ops = [iso(concat(b[0], x[0]), concat(b[1], y[0])),
             iso(concat(b[1], x[1]), concat(b[2], y[1])),
             KrausChannel(concat(b[2], x[2]), b[3],
                          (math.sqrt(0.7) * haar_unitary_matrix(b[3].total_dim, rng),
                           math.sqrt(0.3) * haar_unitary_matrix(b[3].total_dim, rng)))]
    return QpirProtocol(ProtocolSpec(3, tuple(a), tuple(b), tuple(x), tuple(y),
                                     tuple(a_ops), tuple(b_ops)))


def split_memory_random(n: int, seed: int) -> QpirProtocol:
    """The random builtin with the client's memory B_1 held as two
    registers, of n and 2^n dimensions, in place of one of n 2^n (seeds
    whose client sends nothing back, such as 1)."""
    spec = builtin("random", n, seed=seed).spec
    b1 = spec.b_memory[1]
    split = RegisterLayout.of(("B1a", n), ("B1b", b1.total_dim // n))
    op1, op2 = spec.b_ops
    op1 = Isometry(op1.input_layout,
                   concat(split, op1.output_layout.drop(b1.labels())), op1.matrix)
    op2 = Isometry(concat(split, op2.input_layout.drop(b1.labels())),
                   op2.output_layout, op2.matrix)
    return QpirProtocol(spec.with_party("B", (spec.b_memory[0], split, spec.b_memory[2]),
                                        (op1, op2)))


def mixing_client_random(n: int, seed: int) -> QpirProtocol:
    """random whose client applies, in both rounds, its Haar unitary with
    probability 0.7 and another one with probability 0.3.  Its purifier
    already exists before the last op and is traced out of Gamma_i^pre,
    and the last op has m = 2 Kraus operators."""
    spec = builtin("random", n, seed=seed).spec
    rng = np.random.default_rng(seed)

    def mixed(op: Isometry) -> KrausChannel:
        other = haar_unitary_matrix(op.input_layout.total_dim, rng)
        return KrausChannel(op.input_layout, op.output_layout,
                            (math.sqrt(0.7) * op.matrix, math.sqrt(0.3) * other))

    return QpirProtocol(spec.with_party("B", spec.b_memory,
                                        tuple(map(mixed, spec.b_ops))))


def scrambled_index_in_clear(n: int, seed: int) -> QpirProtocol:
    """index-in-clear whose client sends a Haar-random isometric image of
    i, entangled with its memory, in place of i itself.  The server's
    factors stay tall (n * 2n columns against d_server = 2^n n), as in
    index-in-clear, but its marginals now differ by distances below 1."""
    spec = build_index_in_clear(n).spec
    b1 = spec.b_ops[0]
    u = haar_unitary_matrix(n * n, np.random.default_rng(seed))[:, :n]
    scrambled = dataclasses.replace(b1, matrix=u)
    return QpirProtocol(dataclasses.replace(
        spec, b_ops=(scrambled,) + spec.b_ops[1:]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
