"""Adversary strategies and certification of speciousness.

An adversary replaces one party's operations, using whatever memory spaces
it likes but the host protocol's communication spaces.  It is certified
gamma-specious *on a finite input suite* against supplied recovery maps:
the existential over all recovery maps and all inputs is not searched.
A recovery map is an isometry from the adversary's view into the honest
registers plus any environment registers, which are traced out when states
are compared; a Kraus channel enters through `states.stinespring`.  The
maps are a plain tuple F_1..F_2s, one per step.  `trace_out_recovery`
builds the identity on each view, with every register the honest party
lacks as environment.

Certification runs pure: the honest protocol and the protocol with the
adversary installed are each run with both parties purified.  Every state
compared is a marginal of one of those runs, so a purified adversary
certifies at exactly 0 (both marginals come from the same vector); the
density-operator reference that this equals is checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .registers import Register, RegisterLayout, concat, fresh_label
from .states import (
    Isometry,
    Operation,
    StateVector,
    apply_isometry,
    reduced_density_matrix,
)
from .linalg import trace_distance_matrices
from .protocol import ProtocolSpec, execute, purify_both, purify_party


@dataclass(frozen=True)
class AdversaryStrategy:
    """One party's replacement operations with private memory spaces.

    memory[0] must equal the host's input space for that party; memory[k]
    is the adversary's state space after its k-th operation.  gamma is a
    claimed speciousness level, carried as metadata only.
    """

    party: str
    memory: tuple[RegisterLayout, ...]
    operations: tuple[Operation, ...]
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.party not in ("A", "B"):
            raise ShapeMismatch(f"party must be 'A' or 'B', got {self.party!r}")
        if len(self.memory) != len(self.operations) + 1:
            raise ShapeMismatch("need one memory layout per operation plus the input")
        if self.gamma is not None and self.gamma < 0:
            raise ShapeMismatch(f"gamma must be >= 0, got {self.gamma}")


def install(spec: ProtocolSpec, adv: AdversaryStrategy) -> ProtocolSpec:
    """Substitute the adversary's operations into the protocol.

    The honest party is untouched; shape problems surface with the
    offending round index via the spec's own validation.
    """
    if len(adv.operations) != spec.rounds:
        raise ShapeMismatch(
            f"adversary has {len(adv.operations)} operations, protocol has "
            f"{spec.rounds} rounds"
        )
    host_input = spec.memory(adv.party)[0]
    if adv.memory[0] != host_input:
        raise ShapeMismatch(
            f"adversary input space {adv.memory[0].registers} != host "
            f"{host_input.registers}"
        )
    return spec.with_party(adv.party, adv.memory, adv.operations)


def honest_adversary(spec: ProtocolSpec, party: str) -> AdversaryStrategy:
    return AdversaryStrategy(party, spec.memory(party), spec.ops(party), gamma=0.0)


def purified_adversary(spec: ProtocolSpec, party: str) -> AdversaryStrategy:
    """The canonical purification of one party, a 0-specious adversary."""
    pure = purify_party(spec, party)
    return AdversaryStrategy(party, pure.memory(party), pure.ops(party), gamma=0.0)


# ---------------------------------------------------------------------------
# recovery maps
# ---------------------------------------------------------------------------

def recovery_shapes(spec: ProtocolSpec, adv: AdversaryStrategy,
                    step: int) -> tuple[RegisterLayout, RegisterLayout]:
    """Required (input, output) layouts of the step-`step` recovery map.

    The map sends the adversary's memory to the honest memory; on steps
    where the adversary has just emitted a message, the still-in-flight
    communication register rides along untouched in the type.
    """
    if not 1 <= step <= len(spec.steps):
        raise ShapeMismatch(f"step {step} outside 1..{len(spec.steps)}")
    current = spec.steps[step - 1]
    k = [st.party for st in spec.steps[:step]].count(adv.party)  # its ops so far
    sent = current.message_out if current.party == adv.party else RegisterLayout(())
    return (concat(adv.memory[k], sent),
            concat(spec.memory(adv.party)[k], sent))


def trace_out_recovery(spec: ProtocolSpec,
                       adv: AdversaryStrategy) -> tuple[Isometry, ...]:
    """Recovery maps F_1..F_2s: the identity on each step's adversary view.

    Every register of the view that the honest party lacks (a purifier, or
    a deviating adversary's private memory) is environment, traced out when
    states are compared.  The honest adversary certifies at 0 under these
    maps, and so does a purified one.
    """
    views = (recovery_shapes(spec, adv, t)[0] for t in range(1, 2 * spec.rounds + 1))
    return tuple(Isometry(lay, lay, np.eye(lay.total_dim, dtype=np.complex128))
                 for lay in views)


def _check_map(spec: ProtocolSpec, adv: AdversaryStrategy, step: int,
               op: Operation, taken: set[str]) -> None:
    """F_step must be an isometry from the step's view onto the honest
    registers plus environment labels that are not in `taken`."""
    what = f"recovery map {step}"
    if not isinstance(op, Isometry):
        raise ShapeMismatch(
            f"{what}: a {type(op).__name__} is not an Isometry; pass its "
            f"Stinespring dilation (states.stinespring) with the Kraus index "
            f"as an environment register"
        )
    view, wanted = recovery_shapes(spec, adv, step)
    if (op.input_layout != view
            or not set(wanted.registers) <= set(op.output_layout.registers)):
        raise ShapeMismatch(
            f"{what}: ({op.input_layout.registers} -> "
            f"{op.output_layout.registers}) != expected "
            f"({view.registers} -> {wanted.registers} + environment)"
        )
    for label in op.output_layout.labels():
        if label in taken and label not in view and label not in wanted:
            raise ShapeMismatch(
                f"{what}: environment label {label!r} names a register of "
                f"the purified adversarial run or an input's spectator"
            )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationRow:
    step: int
    input_id: str
    distance: float


@dataclass(frozen=True)
class CertificationReport:
    rows: tuple[CertificationRow, ...]
    epsilon_hat: float
    gamma: float | None
    certified: bool | None  # epsilon_hat <= gamma, when gamma was claimed

    def worst_by_step(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for row in self.rows:
            out[row.step] = max(out.get(row.step, 0.0), row.distance)
        return out


def certify_specious(spec: ProtocolSpec, adv: AdversaryStrategy,
                     maps: tuple[Isometry, ...],
                     inputs: Sequence[tuple[str, StateVector]]) -> CertificationReport:
    """Worst-case recovered-state distance over every step and input.

    `maps` are F_1..F_2s and `inputs` are (name, state) pairs.  The map
    count, an empty suite and every map are checked before any protocol
    runs.  At step t the honest state
    is the marginal of the purified honest run on the step's registers plus
    the input's spectators; the recovered state is the marginal, on the
    same labels, of the purified adversarial run after F_t.  The marginal
    traces out F_t's environment and both runs' purifiers, so these are the
    states the density-operator definition compares.

    The adversary is certified gamma-specious on this test suite iff the
    returned epsilon_hat is at most gamma; a finite suite can only
    under-approximate the quantifier over all input states.
    """
    if len(maps) != 2 * spec.rounds:
        raise ShapeMismatch(f"need {2 * spec.rounds} recovery maps, got {len(maps)}")
    if not inputs:
        raise ShapeMismatch("the input suite is empty: certification needs "
                            "at least one input")
    honest_spec = purify_both(spec)
    adv_spec = purify_both(install(spec, adv))
    n_front = len(spec.a_memory[0]) + len(spec.b_memory[0])
    taken = adv_spec.labels().union(
        *(psi.layout.labels()[n_front:] for _, psi in inputs))
    for step, recovery_map in enumerate(maps, start=1):
        _check_map(spec, adv, step, recovery_map, taken)
    rows: list[CertificationRow] = []
    for input_id, psi in inputs:
        honest = execute(honest_spec, psi)
        tilde = execute(adv_spec, psi)
        spectators = psi.layout.labels()[n_front:]
        for step, recovery_map in enumerate(maps, start=1):
            labels = spec.steps[step - 1].order + spectators
            recovered = apply_isometry(recovery_map, tilde.state(step))
            dist = trace_distance_matrices(
                reduced_density_matrix(honest.state(step), labels),
                reduced_density_matrix(recovered, labels))
            rows.append(CertificationRow(step, input_id, dist))
    eps = max(row.distance for row in rows)
    gamma = adv.gamma
    return CertificationReport(tuple(rows), eps, gamma,
                               None if gamma is None else eps <= gamma + 1e-8)


# ---------------------------------------------------------------------------
# default input suite
# ---------------------------------------------------------------------------

def default_input_suite(spec: ProtocolSpec) -> list[tuple[str, StateVector]]:
    """Basis products, uniform-database inputs per index, and one input
    maximally entangled with a reference register whose label ("R", or a
    fresh variant of it) no protocol register takes."""
    a0 = spec.a_memory[0]
    b0 = spec.b_memory[0]
    lay = concat(a0, b0)
    da, db = a0.total_dim, b0.total_dim
    suite: list[tuple[str, StateVector]] = []
    for a in range(da):
        for b in range(db):
            amps = np.zeros(lay.total_dim, dtype=np.complex128)
            amps[a * db + b] = 1.0
            suite.append((f"basis-a{a}-b{b}", StateVector(lay, amps)))
    for b in range(db):
        amps = np.zeros(lay.total_dim, dtype=np.complex128)
        amps[b::db] = 1.0 / np.sqrt(da)
        suite.append((f"uniform-i{b + 1}", StateVector(lay, amps)))
    d = da * db
    ref = Register(fresh_label("R", spec.labels()), d)
    ref_lay = concat(lay, RegisterLayout((ref,)))
    amps = (np.eye(d, dtype=np.complex128) / np.sqrt(d)).reshape(-1)
    suite.append(("entangled-ref", StateVector(ref_lay, amps)))
    return suite
