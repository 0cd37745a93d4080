"""Distances, binary entropy, Schmidt decompositions, and the Uhlmann and
Helstrom solvers, on raw matrices and state vectors.

Every Schmidt question (the coefficients, the rank, the compressor onto the
support) is one SVD of the state's amplitudes matricized across a validated
cut; ranks count the coefficients above a tolerance.  A state with one
nonzero per column across the cut has a diagonal marginal, and its
compressor is read off the rows' norms with no SVD (`one_hot_compressor`).

Conventions:
    trace distance   D(rho, sigma) = (1/2) ||rho - sigma||_1
    fidelity         F(rho, sigma) = ||rho^{1/2} sigma^{1/2}||_1
                     (square-root convention: F(|x>,|y>) = |<x|y>|)
    binary entropy   H_bin(p) = -p log2 p - (1-p) log2 (1-p)

State equality is always judged through distances, never amplitude-wise,
so global phases are irrelevant throughout.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    LayoutError,
    LayoutMismatch,
    NotPositiveSemidefinite,
    SupportViolation,
)
from .registers import Register, RegisterLayout
from .states import (
    BasisMap,
    Isometry,
    StateVector,
    _check_factor,
    matricize,
)

#: Singular values below this count as zero when ranks/supports are decided.
DEFAULT_RANK_TOL = 1e-10

#: Eigenvalues of nominally-PSD matrices below this are invalid input, not
#: round-off.
PSD_ERROR_TOL = 1e-9

#: How far a state that lies in a compression support may seem to leave
#: it: the round-off of compressing and decompressing it.  E's columns are
#: orthonormal to about d u, so a unit column in range(E) leaves it by
#: about sqrt(d) u, near 1e-14 at the sizes audited.  A Schmidt direction
#: that the rank tolerance cuts, or a server that keeps no copy of x,
#: leaves it by far more, and that state is refused.
SUPPORT_LEAK_TOL = 1e-8

#: An overlap of two unit vectors at most this large has no phase worth
#: aligning: it is round-off of orthogonal vectors, and their difference
#: has norm sqrt(2) to within it whatever phase is taken.
PHASE_FLOOR = 1e-12


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two unit-trace states given as raw arrays.

    The floor is d * eps * (|tr a| + |tr b|), the eigensolver's own error
    (the floor `psd_sqrt` applies).  Eigenvalues of a - b within it count
    as 0: states that differ by round-off alone, such as one mixture summed
    in two orders, are at distance exactly 0, and a distance of 1e-10 is
    kept.  A sum within the floor of 1, or above 1, reads as exactly 1:
    orthogonal states are at distance 1.0, not 1 - 2e-16, which
    2 sqrt(eps (1 - eps)) would lift to about 3e-8.
    """
    w = np.linalg.eigvalsh(a - b)
    return floored_distance(w, len(w), abs(np.trace(a)) + abs(np.trace(b)))


def floored_distance(w: np.ndarray, dim: int, traces: float) -> float:
    """Half the sum of |w| over the eigenvalues w of a - b, in the order
    given, under `trace_distance_matrices`' floor rule for a dim x dim
    eigensolve of states whose traces' magnitudes sum to `traces`: the
    floor is dim * eps * traces, eigenvalues within it count as 0, and a
    sum within it of 1, or above 1, reads as exactly 1."""
    floor = dim * np.finfo(float).eps * traces
    dist = float(0.5 * np.sum(np.abs(w[np.abs(w) > floor])))
    return 1.0 if dist >= 1.0 - floor else dist


def marginals_in_span(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The marginals t t^dagger of `factors`, each d x k_j (a pure state's
    amplitudes with the kept registers as rows), in the span of them all.

    With Q the reduced QR factor of [t_1 ... t_m], each marginal is written
    as (Q^dagger t_j)(Q^dagger t_j)^dagger: Q is an isometry onto every
    column, so these (sum_j k_j)-dimensional marginals keep every trace
    distance between the d x d ones (Watrous, The Theory of Quantum
    Information, chs. 1-3).  Equal factors give bitwise-equal marginals,
    which a split of R would not.  With at least d columns in all, the
    d x d marginals are kept, where a QR would cost more than it saves.
    """
    if sum(t.shape[1] for t in factors) < factors[0].shape[0]:
        q = np.linalg.qr(np.concatenate(factors, axis=1))[0].conj().T
        factors = [q @ t for t in factors]
    return [t @ t.conj().T for t in factors]


def pure_distance_amplitudes(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two pure states given as unit amplitude vectors.

    Evaluates sqrt(1 - |<a|b>|^2) through the phase-aligned difference
    vector, which stays accurate down to ~1e-15 where the overlap formula
    bottoms out at sqrt(machine epsilon).
    """
    ov = np.vdot(a, b)
    mag = abs(ov)
    phase = ov / mag if mag > PHASE_FLOOR else 1.0
    diff = float(np.linalg.norm(b - phase * a))  # ||diff||^2 = 2(1 - |ov|)
    return min(1.0, diff * math.sqrt(max(0.0, 1.0 + min(mag, 1.0)) / 2.0))


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root with round-off clamping.

    Eigenvalues in [-PSD_ERROR_TOL, 0) are treated as 0; anything lower is
    rejected as genuinely non-PSD input.  Eigenvalues below the eigensolver's
    own error, d * eps * max|w|, are also set to 0: on a rank-deficient
    matrix their square roots (~1e-8 for round-off ~1e-16) would otherwise
    add spurious singular values to a fidelity.
    """
    w, v = np.linalg.eigh(matrix)
    lo = float(np.min(w))
    if lo < -PSD_ERROR_TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {lo} below -{PSD_ERROR_TOL}")
    floor = len(w) * np.finfo(float).eps * float(np.max(np.abs(w)))
    w = np.where(w < floor, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_matrices(a: np.ndarray, b: np.ndarray) -> float:
    ra = psd_sqrt(a)
    rb = psd_sqrt(b)
    return float(np.sum(np.linalg.svd(ra @ rb, compute_uv=False)))


# ---------------------------------------------------------------------------
# Schmidt decomposition across a cut
# ---------------------------------------------------------------------------

def _across(state: StateVector,
            cut: Iterable[str]) -> tuple[RegisterLayout, np.ndarray]:
    """The `cut` sub-layout, in layout order, and the amplitudes as a
    (dim_cut, dim_rest) matrix; the cut must be a proper nonempty subset."""
    cut_lay = state.layout.sub(cut)
    if len(cut_lay) in (0, len(state.layout)):
        raise LayoutError("cut must be a proper nonempty subset of the registers")
    return cut_lay, matricize(state.amplitudes, state.layout, cut_lay.labels())


def schmidt_coefficients(state: StateVector, cut: Iterable[str]) -> np.ndarray:
    """Schmidt coefficients of a pure state across the `cut` labels:
    descending and nonnegative, with squares summing to 1."""
    return np.linalg.svd(_across(state, cut)[1], compute_uv=False)


def schmidt_rank(state: StateVector, cut: Iterable[str],
                 rank_tol: float = DEFAULT_RANK_TOL) -> int:
    return int(np.sum(schmidt_coefficients(state, cut) > rank_tol))


def schmidt_compressor(state: StateVector, cut: Iterable[str],
                       rank_tol: float = DEFAULT_RANK_TOL) -> Isometry:
    """Isometry embedding a rank-r space into the `cut` factor.

    The returned isometry maps the compressed register onto the support of
    the reduced state on `cut`: its columns are the left Schmidt vectors
    whose coefficients exceed `rank_tol`.  Compression applies the adjoint;
    applying adjoint-then-isometry acts as the identity on any vector whose
    `cut` marginal lives in that support, in particular on `state` itself
    and, by linearity, on every branch of a superposition it came from.
    """
    cut_lay, m = _across(state, cut)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    compressed = _compressed_register(cut_lay, s, rank_tol)
    return Isometry(compressed, cut_lay, u[:, :compressed.total_dim])


def one_hot_compressor(cut: RegisterLayout, rows: np.ndarray, amplitudes: np.ndarray,
                       rank_tol: float = DEFAULT_RANK_TOL) -> Isometry:
    """`schmidt_compressor` for a state whose amplitudes, matricized across
    the `cut` layout, have at most one nonzero per column: `amplitudes`,
    each in a column of its own, at the cut's rows `rows`.

    The marginal on the cut is then diagonal, so the Schmidt coefficients
    are the norms of those rows, and the support is spanned by the rows
    whose norm exceeds `rank_tol`.  The compressor is the basis map onto
    them, in increasing order, with no SVD; the rank rule and its error
    are `schmidt_compressor`'s.
    """
    held = np.flatnonzero(np.bincount(rows, minlength=cut.total_dim))
    s = np.sqrt(np.bincount(rows, amplitudes.real ** 2 + amplitudes.imag ** 2,
                            minlength=cut.total_dim)[held])
    compressed = _compressed_register(cut, s, rank_tol)
    kept = held[s > rank_tol]
    return Isometry(compressed, cut,
                    BasisMap((cut.total_dim, len(kept)), kept, np.ones(len(kept))))


def _compressed_register(cut: RegisterLayout, s: np.ndarray,
                         rank_tol: float) -> RegisterLayout:
    """The one register of a compressor onto the `cut` layout that keeps
    the Schmidt coefficients `s` above `rank_tol`; keeping none is a
    LayoutError that names the tolerance and the largest coefficient."""
    r = int(np.sum(s > rank_tol))
    if r == 0:
        raise LayoutError(
            f"rank tolerance {rank_tol} is at or above every Schmidt coefficient "
            f"across {cut.labels()} (largest {np.max(s):.6g}): "
            f"nothing is left to compress onto"
        )
    return RegisterLayout((Register("+".join(cut.labels()) + "'", r),))


# ---------------------------------------------------------------------------
# Uhlmann solver (Procrustes on the purifying factor, restricted to a support)
# ---------------------------------------------------------------------------

def uhlmann_unitary(phi: StateVector, psi: StateVector,
                    support: Isometry) -> Isometry:
    """Uhlmann unitary U on the purifier, kept only on the support of psi.

    `support` is an isometry E from a compressed register into the purifier
    factor (its output layout) whose range holds psi's purifier side, so
    psi = (1 x E)|c>.  The result is the partial isometry X = U E, with
    E's layouts, maximizing |<phi|(1 x X)|c>|; the non-purifier factor
    carries the reduced states whose fidelity that overlap attains.  X is
    the polar factor of the r x d_purifier cross-Gram operator
    K = c^T conj(phi), so the cost is O(r^2 d_purifier) and no
    d_purifier^2 array is formed.  Any maximizer is accepted under SVD
    degeneracy.  An identity support gives the full unitary U.

    If D(tr_purifier phi, tr_purifier psi) <= eps, the rotated psi lands
    within sqrt(eps (2 - eps)) of phi in trace distance.  Raises
    SupportViolation when psi's purifier side leaves range(E) by more
    than `SUPPORT_LEAK_TOL`.
    """
    if phi.layout != psi.layout:
        raise LayoutMismatch(
            f"layout mismatch: {phi.layout.labels()} vs {psi.layout.labels()}"
        )
    _check_factor(phi.layout, support.output_layout)
    purifier = support.output_layout.labels()
    if len(purifier) in (0, len(phi.layout)):
        raise LayoutError("purifier must be a proper nonempty subset")
    # matricize with the purifier (in the support's order) as rows
    mphi = matricize(phi.amplitudes, phi.layout, purifier)
    mpsi = matricize(psi.amplitudes, psi.layout, purifier)
    e = support.matrix
    ct = e.conj().T @ mpsi                    # c^T, (r, d_rest)
    leak = float(np.linalg.norm(mpsi - e @ ct))
    if leak > SUPPORT_LEAK_TOL:
        raise SupportViolation(
            f"psi leaves the Uhlmann support by {leak:.3e}"
        )
    k = ct @ mphi.conj().T                    # K[j, b] = sum_a c[a,j] conj(phi[a,b])
    v, _, wh = np.linalg.svd(k, full_matrices=False)
    x = wh.conj().T @ v.conj().T
    return Isometry(support.input_layout, support.output_layout, x)


# ---------------------------------------------------------------------------
# Helstrom discrimination
# ---------------------------------------------------------------------------

class HelstromResult(NamedTuple):
    probability: float
    positive: np.ndarray   # (d, k) orthonormal basis of the outcome-0 eigenspace


def helstrom_spectrum(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal two-outcome discrimination at priors 1/2 from the eigenvalues
    w of the Helstrom operator gamma = rho0/2 - rho1/2: the success
    probability 1/2 + (1/2)||gamma||_1, at most 1, and which eigenvalues
    the optimal measurement keeps, those above the floor len(w) * eps.

    That floor is the one `trace_distance_matrices` applies to rho0/2 and
    rho1/2, whose traces sum to 1.  Any split of gamma's kernel is
    optimal, but a rate read from the measurement should not hinge on the
    round-off sign of a kernel eigenvalue: within the floor, none is kept.
    """
    prob = 0.5 + 0.5 * float(np.sum(np.abs(w)))
    return min(1.0, prob), w > len(w) * np.finfo(float).eps


def helstrom_matrices(gamma: np.ndarray) -> HelstromResult:
    """`helstrom_spectrum` of a Helstrom operator given as a matrix, with an
    orthonormal basis of the eigenvectors it keeps: the optimal
    measurement projects onto their span, and outcome 0 fires when it
    clicks.  The caller forms gamma (`qpir` does so without either state,
    in the span of the client's last op)."""
    w, v = np.linalg.eigh(gamma)
    prob, kept = helstrom_spectrum(w)
    return HelstromResult(prob, v[:, kept])


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """H_bin(p) in bits, with 0 log 0 := 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


# ---------------------------------------------------------------------------
# Haar-random unitaries (deterministic per seed)
# ---------------------------------------------------------------------------

def haar_unitary_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian with phase-normalized R diagonal."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

