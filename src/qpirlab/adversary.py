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
lacks as environment, each a basis map, so no identity is stored dense.

Certification runs pure, on the engine the audits use: the honest protocol
and the protocol with the adversary installed, each with both parties
purified, run once each through `protocol._steps` on one batch of every
input, and F_t runs on the adversarial batch as a one-op schedule.  Both
states keep only the host protocol's registers at that step, so every
purifier, the honest party's as well as the adversary's, is traced out,
as in the density-operator definition.  Each pair of marginals is
compared in the span of its two factors (`linalg.marginals_in_span`), so
no step forms a matrix on the kept registers and a reference register.
A purified adversary certifies at exactly 0: both factors are equal, and
so are their marginals, bit for bit.  The density-operator reference
that this equals is checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .registers import Register, RegisterLayout, concat, fresh_label
from .states import BasisMap, Isometry, Operation, StateVector, matricize
from .linalg import marginals_in_span, trace_distance_matrices
from .protocol import (ProtocolSpec, _inputs, _isometries, _spectator_layout,
                       _steps, purify_both, purify_party)

#: How far the certified distance may exceed the claimed gamma and still
#: certify: the round-off of a trace distance between two marginals, an
#: eigenvalue sum good to a few ulps of the marginals' size.
SPECIOUS_SLACK = 1e-8


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
    return honest_adversary(purify_party(spec, party), party)


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
    return tuple(Isometry(lay, lay, BasisMap.identity(lay.total_dim)) for lay in views)


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


def _factors(lay, cur, order, widths):
    """Yield each input's amplitudes after a step, with `order` and then
    the input's spectator (its `widths` batch columns, in turn) as rows."""
    m = matricize(cur, lay, order)
    for end, w in zip(np.cumsum(widths), widths):
        yield m[:, :, end - w:end].transpose(0, 2, 1).reshape(-1, m.shape[1])


def certify_specious(spec: ProtocolSpec, adv: AdversaryStrategy,
                     maps: tuple[Isometry, ...],
                     inputs: Sequence[tuple[str, StateVector]]) -> CertificationReport:
    """Worst-case recovered-state distance over every step and input.

    `maps` are F_1..F_2s and `inputs` are (name, state) pairs.  The map
    count, an empty suite, every map and every input's layout are checked
    before any protocol runs.  Then the purified honest protocol and the
    same protocol with the purified adversary installed in place of its
    party (so the honest party is dilated once) each run once, through
    `protocol._steps`, on one batch that holds every input side by side, a
    reference register as batch columns.  After step t, F_t is applied to
    the adversarial batch as a one-op run.  For each input, the honest
    state is the marginal on the registers of `spec`'s step t (its
    `order`, which holds no purifier) plus the input's spectator, and the
    recovered state is the marginal on the same labels after F_t; F_t's
    environment and both parties' purifiers, the honest one's included,
    are traced out, so these are the states the density-operator
    definition compares.
    Each pair is compared in the span of its two factors
    (`marginals_in_span`).  Rows run input by input, each step in turn.

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
    adv_spec = purify_party(install(honest_spec, adv), adv.party)
    n_front = len(spec.a_memory[0]) + len(spec.b_memory[0])
    taken = adv_spec.labels().union(
        *(psi.layout.labels()[n_front:] for _, psi in inputs))
    for step, recovery_map in enumerate(maps, start=1):
        _check_map(spec, adv, step, recovery_map, taken)
    for _, psi in inputs:   # each input's layout, as both runs read it
        _spectator_layout(honest_spec, psi.layout)
    widths = [_spectator_layout(adv_spec, psi.layout).total_dim for _, psi in inputs]
    batch = np.hstack([psi.amplitudes.reshape(-1, w)
                       for (_, psi), w in zip(inputs, widths)])
    runs = zip(spec.steps, _steps(_isometries(honest_spec), _inputs(spec), batch),
               _steps(_isometries(adv_spec), _inputs(spec), batch), maps)
    dist = np.empty((len(inputs), len(maps)))
    for step, (_, lay, cur), (_, lay_adv, cur_adv), recovery_map in runs:
        (_, lay_adv, cur_adv), = _steps([(step, recovery_map)], lay_adv, cur_adv)
        pairs = zip(_factors(lay, cur, step.order, widths),
                    _factors(lay_adv, cur_adv, step.order, widths))
        dist[:, step.number - 1] = [trace_distance_matrices(*marginals_in_span(pair))
                                    for pair in pairs]
    rows = tuple(CertificationRow(t, input_id, float(d)) for (input_id, _), by_step
                 in zip(inputs, dist) for t, d in enumerate(by_step, start=1))
    eps = max(row.distance for row in rows)
    return CertificationReport(rows, eps, adv.gamma,
                               None if adv.gamma is None else eps <= adv.gamma + SPECIOUS_SLACK)


# ---------------------------------------------------------------------------
# default input suite
# ---------------------------------------------------------------------------

def default_input_suite(spec: ProtocolSpec) -> list[tuple[str, StateVector]]:
    """Basis products, uniform-database inputs per index, and one input
    maximally entangled with a reference register whose label ("R", or a
    fresh variant of it) no protocol register takes."""
    lay = _inputs(spec)
    da, db = spec.a_memory[0].total_dim, spec.b_memory[0].total_dim
    eye = np.eye(da * db, dtype=np.complex128)
    suite = [(f"basis-a{a}-b{b}", StateVector(lay, eye[a * db + b]))
             for a in range(da) for b in range(db)]
    suite += [(f"uniform-i{b + 1}",
               StateVector(lay, eye[b::db].sum(axis=0) / np.sqrt(da)))
              for b in range(db)]
    ref = Register(fresh_label("R", spec.labels()), da * db)
    suite.append(("entangled-ref", StateVector(concat(lay, RegisterLayout((ref,))),
                                               (eye / np.sqrt(da * db)).reshape(-1))))
    return suite
