"""Distances, binary entropy, Schmidt decompositions, and the Uhlmann and
Helstrom solvers, on raw matrices and state vectors.

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
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    LayoutError,
    LayoutMismatch,
    NotPositiveSemidefinite,
    SupportViolation,
)
from .registers import Register, RegisterLayout
from .states import (
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


def _require_same_layout(a, b) -> None:
    if a.layout != b.layout:
        raise LayoutMismatch(
            f"layout mismatch: {a.layout.labels()} vs {b.layout.labels()}"
        )


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two Hermitian matrices given as raw arrays."""
    eig = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(eig)))


def pure_distance_amplitudes(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two pure states given as unit amplitude vectors.

    Evaluates sqrt(1 - |<a|b>|^2) through the phase-aligned difference
    vector, which stays accurate down to ~1e-15 where the overlap formula
    bottoms out at sqrt(machine epsilon).
    """
    ov = np.vdot(a, b)
    mag = abs(ov)
    phase = ov / mag if mag > 1e-12 else 1.0
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
# Schmidt machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bipartite decomposition sum_i lambda_i |a_i>|b_i> across a label cut."""

    cut_labels: tuple[str, ...]
    rest_labels: tuple[str, ...]
    coefficients: np.ndarray     # descending, nonnegative, sum of squares 1
    left_basis: np.ndarray       # (dim_cut, k) orthonormal columns
    right_basis: np.ndarray      # (dim_rest, k) orthonormal columns
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Amplitudes over (cut ++ rest) register order."""
        m = (self.left_basis * self.coefficients) @ self.right_basis.T
        return m.reshape(-1)


def _split_cut(layout: RegisterLayout, cut: Iterable[str]) -> tuple[RegisterLayout, RegisterLayout]:
    cut_lay = layout.sub(cut)
    if len(cut_lay) == 0 or len(cut_lay) == len(layout):
        raise LayoutError("cut must be a proper nonempty subset of the registers")
    rest_lay = layout.drop(cut_lay.labels())
    return cut_lay, rest_lay


def state_matricization(state: StateVector, cut: Iterable[str]) -> np.ndarray:
    """Amplitudes as a (dim_cut, dim_rest) matrix, cut labels in layout order."""
    cut_lay, _ = _split_cut(state.layout, cut)
    return matricize(state.amplitudes, state.layout, cut_lay.labels())


def schmidt_decompose(state: StateVector, cut: Iterable[str],
                      rank_tol: float = DEFAULT_RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure state across the `cut` labels."""
    cut_lay, rest_lay = _split_cut(state.layout, cut)
    m = state_matricization(state, cut)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > rank_tol))
    coeffs = s.copy()
    coeffs.setflags(write=False)
    left = u.copy()
    left.setflags(write=False)
    right = vh.T.copy()  # columns are the right Schmidt vectors (no conjugate)
    right.setflags(write=False)
    return SchmidtDecomposition(
        cut_labels=cut_lay.labels(),
        rest_labels=rest_lay.labels(),
        coefficients=coeffs,
        left_basis=left,
        right_basis=right,
        rank=rank,
    )


def schmidt_rank(state: StateVector, cut: Iterable[str],
                 rank_tol: float = DEFAULT_RANK_TOL) -> int:
    m = state_matricization(state, cut)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rank_tol))


def schmidt_compressor(state: StateVector, cut: Iterable[str],
                       rank_tol: float = DEFAULT_RANK_TOL,
                       compressed_label: str | None = None) -> Isometry:
    """Isometry embedding a rank-r space into the `cut` factor.

    The returned isometry maps the compressed register onto the support of
    the reduced state on `cut`.  Compression applies the adjoint; applying
    adjoint-then-isometry acts as the identity on any vector whose `cut`
    marginal lives in that support, in particular on `state` itself and, by
    linearity, on every branch of a superposition it came from.
    """
    dec = schmidt_decompose(state, cut, rank_tol=rank_tol)
    r = dec.rank
    if r == 0:
        raise LayoutError(
            f"rank tolerance {rank_tol} is at or above every Schmidt coefficient "
            f"across {dec.cut_labels} (largest {dec.coefficients[0]:.6g}): "
            f"nothing is left to compress onto"
        )
    cut_lay = state.layout.sub(cut)
    label = compressed_label or ("+".join(dec.cut_labels) + "'")
    compressed = RegisterLayout((Register(label, r),))
    return Isometry(compressed, cut_lay, dec.left_basis[:, :r])


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
    than 1e-8.
    """
    _require_same_layout(phi, psi)
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
    if leak > 1e-8:
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
    projector: np.ndarray  # optimal outcome-0 projector (positive eigenspace)


def helstrom_matrices(rho0: np.ndarray, rho1: np.ndarray, prior0: float) -> HelstromResult:
    """Optimal two-outcome discrimination: 1/2 + (1/2)||p0 rho0 - p1 rho1||_1.

    Returns the success probability together with the optimal projector
    (onto the positive eigenspace; outcome 0 fires when it clicks).
    """
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError(f"prior0 must lie in [0, 1], got {prior0}")
    m = prior0 * rho0 - (1.0 - prior0) * rho1
    w, v = np.linalg.eigh(m)
    prob = 0.5 + 0.5 * float(np.sum(np.abs(w)))
    pos = v[:, w > 0.0]
    proj = pos @ pos.conj().T
    return HelstromResult(min(1.0, prob), proj)


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

