"""Adversary strategies and certification of (ultimate) speciousness.

An adversary replaces one party's operations, using whatever memory spaces
it likes but the host protocol's communication spaces.  It is certified
gamma-specious *on a finite input suite* against supplied recovery maps:
the existential over all recovery maps and all inputs is not searched.
A recovery map is an isometry from the adversary's view into the honest
registers plus any environment registers, which are traced out when states
are compared; a Kraus channel enters through `states.stinespring`.  A
purified adversary's map is the identity, its purifier the environment.
Ultimate speciousness is the same loop restricted to the final step.

Certification runs pure: the honest protocol and the protocol with the
adversary installed are each run with both parties purified.  Every state
compared is a marginal of one of those runs, so a purified adversary
certifies at exactly 0 (both marginals come from the same vector); the
density-operator reference that this equals is checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .registers import Register, RegisterLayout, concat
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


def _check_map(spec: ProtocolSpec, adv: AdversaryStrategy, step: int,
               op: Operation, what: str) -> None:
    if not isinstance(op, Isometry):
        raise ShapeMismatch(
            f"{what}: a {type(op).__name__} is not an Isometry; pass its "
            f"Stinespring dilation (states.stinespring) with the Kraus index "
            f"as an environment register"
        )
    expect_in, expect_out = recovery_shapes(spec, adv, step)
    if (op.input_layout != expect_in
            or not set(expect_out.registers) <= set(op.output_layout.registers)):
        raise ShapeMismatch(
            f"{what}: ({op.input_layout.registers} -> "
            f"{op.output_layout.registers}) != expected "
            f"({expect_in.registers} -> {expect_out.registers} + environment)"
        )


@dataclass(frozen=True)
class RecoveryMapSet:
    """Per-step maps F_1..F_2s taking the adversary's view to the honest one.

    F_t is an isometry from the view `recovery_shapes(...)[0]` onto every
    register of `recovery_shapes(...)[1]` plus environment registers.  An
    environment label must not name a register of the purified adversarial
    run outside the view, nor an input's spectator; certification checks
    this before it runs anything.
    """

    maps: tuple[Isometry, ...]

    def validate(self, spec: ProtocolSpec, adv: AdversaryStrategy) -> None:
        if len(self.maps) != 2 * spec.rounds:
            raise ShapeMismatch(
                f"need {2 * spec.rounds} recovery maps, got {len(self.maps)}"
            )
        for i, op in enumerate(self.maps, start=1):
            _check_map(spec, adv, i, op, f"recovery map {i}")


def _identity_maps(spec: ProtocolSpec, adv: AdversaryStrategy) -> RecoveryMapSet:
    """The identity on each step's adversary view; any registers of the view
    that the honest party lacks are environment."""
    views = (recovery_shapes(spec, adv, i)[0] for i in range(1, 2 * spec.rounds + 1))
    return RecoveryMapSet(tuple(
        Isometry(lay, lay, np.eye(lay.total_dim, dtype=np.complex128))
        for lay in views))


def identity_recovery(spec: ProtocolSpec, party: str) -> RecoveryMapSet:
    """Identity maps; certifies the honest strategy at epsilon 0."""
    return _identity_maps(spec, honest_adversary(spec, party))


def trace_out_recovery(spec: ProtocolSpec, adv: AdversaryStrategy) -> RecoveryMapSet:
    """Recovery maps for a purified adversary: the identity, with its
    purifier register as the environment that is traced out."""
    extra = [lb for lb in adv.memory[-1].labels()
             if lb not in spec.memory(adv.party)[-1]]
    if len(extra) != 1:
        raise ShapeMismatch(
            f"expected exactly one purifier register, found {extra}"
        )
    return _identity_maps(spec, adv)


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


InputSuite = Sequence[tuple[str, StateVector]]


def _named(inputs: Iterable) -> list[tuple[str, StateVector]]:
    named = []
    for k, item in enumerate(inputs):
        if isinstance(item, tuple):
            named.append(item)
        else:
            named.append((f"input-{k}", item))
    return named


def _certify(spec: ProtocolSpec, adv: AdversaryStrategy,
             maps: dict[int, Isometry], inputs: Iterable) -> CertificationReport:
    """Recovered-state distance at every step of `maps`, for every input.

    At step t the honest state is the marginal of the purified honest run on
    the step's registers plus the input's spectators; the recovered state is
    the marginal, on the same labels, of the purified adversarial run after
    F_t.  The marginal traces out F_t's environment and both runs'
    purifiers, so these are the states the density-operator definition
    compares.
    """
    named = _named(inputs)
    if not named:
        raise ShapeMismatch("the input suite is empty: certification needs "
                            "at least one input")
    honest_spec = purify_both(spec)
    adv_spec = purify_both(install(spec, adv))
    n_front = len(spec.a_memory[0]) + len(spec.b_memory[0])
    taken = adv_spec.labels().union(
        *(psi.layout.labels()[n_front:] for _, psi in named))
    for step, recovery_map in maps.items():
        view, wanted = recovery_shapes(spec, adv, step)
        for label in recovery_map.output_layout.labels():
            if label in taken and label not in view and label not in wanted:
                raise ShapeMismatch(
                    f"recovery map {step}: environment label {label!r} names "
                    f"a register of the purified adversarial run or an "
                    f"input's spectator"
                )
    rows: list[CertificationRow] = []
    for input_id, psi in named:
        honest = execute(honest_spec, psi)
        tilde = execute(adv_spec, psi)
        spectators = psi.layout.labels()[n_front:]
        for step, recovery_map in maps.items():
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


def certify_specious(spec: ProtocolSpec, adv: AdversaryStrategy,
                     recovery: RecoveryMapSet,
                     inputs: Iterable) -> CertificationReport:
    """Worst-case recovered-state distance over every step and input.

    The adversary is certified gamma-specious on this test suite iff the
    returned epsilon_hat is at most gamma; a finite suite can only
    under-approximate the quantifier over all input states.
    """
    recovery.validate(spec, adv)
    return _certify(spec, adv, dict(enumerate(recovery.maps, start=1)), inputs)


def certify_ultimately_specious(spec: ProtocolSpec, adv: AdversaryStrategy,
                                recovery_map: Isometry,
                                inputs: Iterable) -> CertificationReport:
    """Like certify_specious, restricted to the final state and a single map."""
    last = 2 * spec.rounds
    _check_map(spec, adv, last, recovery_map, "ultimate recovery map")
    return _certify(spec, adv, {last: recovery_map}, inputs)


# ---------------------------------------------------------------------------
# default input suite
# ---------------------------------------------------------------------------

def default_input_suite(spec: ProtocolSpec) -> list[tuple[str, StateVector]]:
    """Basis products, uniform-database inputs per index, and one input
    maximally entangled with the reference register."""
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
    ref_lay = concat(lay, RegisterLayout((Register("R", d),)))
    amps = (np.eye(d, dtype=np.complex128) / np.sqrt(d)).reshape(-1)
    suite.append(("entangled-ref", StateVector(ref_lay, amps)))
    return suite
