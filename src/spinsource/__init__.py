"""Desk-scale toolkit for quantum spin-chain sources.

Dense operator algebra, Kraus channels and their Heisenberg duals,
finite-alphabet classical processes with an exact ergodicity
classifier, consistent source families with dense and transfer
correlation backends, finite-horizon ergodic-mean and mixing tests,
conditional expectation onto a product basis, and a deterministic
config-driven experiment runner.
"""

import types as _types

from ._version import __version__
from .errors import (
    AlignmentError,
    AlphabetError,
    BackendError,
    CapExceededError,
    ConfigError,
    ShapeMismatchError,
)
from .operators import (
    DensityOperator,
    DensityReport,
    Operator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_operator,
    dense_cap,
    density_operator,
    embed_observable,
    haar_unitary,
    identity_operator,
    random_density,
    random_observable,
    tensor_product,
    trace_pairing,
    validate_density,
    word_projector,
)
from .channels import (
    KrausChannel,
    KrausReport,
    amplitude_damping_channel,
    apply_channel,
    apply_dual,
    depolarizing_channel,
    dual_channel,
    embedding_channel,
    identity_channel,
    kraus_channel,
    make_standard_channel,
    phase_damping_channel,
    random_unitary_channel,
    unitary_channel,
    validate_alphabet,
    validate_kraus,
)
from .classical import (
    ClassicalProcess,
    ClassificationReport,
    IIDProcess,
    MarkovProcess,
    MixtureProcess,
    classical_correlation_sweep,
    classify_process,
    marginal_table,
    stationary_distribution,
)
from .sources import (
    AlphabetSpec,
    ChannelTransformedSource,
    ClassicallyCorrelatedSource,
    IIDSource,
    QuantumSource,
    SourceCheckReport,
    channel_transform_source,
    check_consistency,
    check_stationarity,
    computational_alphabet,
    construct_classically_correlated,
    source_block_mean,
    source_correlation,
)
from .pinching import (
    PinchingBasis,
    PinchingPropertyReport,
    computational_basis,
    conditional_expectation,
    diagonal_observable,
    measure_to_state,
    pinching_channel,
    state_to_measure,
    verify_expectation_properties,
)
from .ergodicity import (
    DecayFit,
    ErgodicityReport,
    PairReport,
    SourceSweepReport,
    fit_decay,
    pair_report,
    projector_pairs,
    random_pairs,
    sweep_report,
)
from .runner import (
    ExperimentConfig,
    RunReport,
    build_source,
    emit_report,
    run_config_file,
    run_experiment,
)

# the public functions, classes and constants; submodules stay reachable as
# attributes (ss.runner) but a star import binds none of them
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
