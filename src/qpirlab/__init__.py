"""qpirlab: a desk-scale laboratory for two-party quantum protocols.

Simulates s-round protocols between a server and a client, measures QPIR
correctness and privacy against purified servers, reduces any such protocol
to a random access encoding via Schmidt compression and purifier-side
rotations, and audits the resulting communication lower bound numerically.
"""

from .errors import (
    CliInputError,
    DimensionGuardExceeded,
    LayoutError,
    LayoutMismatch,
    NotPositiveSemidefinite,
    QpirlabError,
    ShapeMismatch,
    SupportViolation,
)
from .registers import Register, RegisterLayout, concat, dim_guard, set_dim_guard
from .states import (
    BasisMap,
    DensityOperator,
    IdentityKron,
    Isometry,
    KrausChannel,
    StateVector,
    apply_channel,
    apply_isometry,
    pure_density,
    reduced_density_matrix,
    stinespring,
)
from .linalg import (
    HelstromResult,
    binary_entropy,
    fidelity_matrices,
    helstrom_matrices,
    schmidt_coefficients,
    schmidt_compressor,
    schmidt_rank,
    trace_distance_matrices,
    uhlmann_unitary,
)
from .protocol import (
    ProtocolSpec,
    communication_complexity,
    execute,
    product_input,
    purify_both,
    purify_party,
    random_protocol,
    rank_trace,
)
from .adversary import (
    AdversaryStrategy,
    CertificationReport,
    certify_specious,
    default_input_suite,
    honest_adversary,
    install,
    purified_adversary,
    trace_out_recovery,
)
from .qpir import (
    CorrectnessReport,
    PrivacyReport,
    PurifiedRun,
    QpirProtocol,
    builtin,
    builtin_from_address,
    correctness_delta,
    privacy_epsilon_purified,
    qpir_input,
)
from .reduction import (
    AttackReport,
    BoundReport,
    NayakVerdict,
    RandomAccessEncoding,
    bound_report,
    build_rae,
    guarantee_value,
    lower_bound,
    nayak_check,
    recovery_rates,
    superposition_attack,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
