"""The public surface of the package, pinned name by name."""

import types

import spinsource as ss

# every public name; a removal or addition shows here and is listed in CHANGES.md
PUBLIC_NAMES = [
    "AlignmentError", "AlphabetError", "AlphabetSpec", "BackendError", "CapExceededError",
    "ChannelTransformedSource", "ClassicalProcess", "ClassicallyCorrelatedSource",
    "ClassificationReport", "ConfigError", "DecayFit", "DensityOperator", "DensityReport",
    "ErgodicityReport", "ExperimentConfig", "IIDProcess", "IIDSource", "KrausChannel",
    "KrausReport", "MarkovProcess", "MixtureProcess", "Operator", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "PairReport", "PinchingBasis", "PinchingPropertyReport", "QuantumSource", "RunReport",
    "ShapeMismatchError", "SourceCheckReport", "SourceSweepReport", "amplitude_damping_channel",
    "apply_channel", "apply_dual", "as_operator", "build_source", "channel_transform_source",
    "check_consistency", "check_stationarity", "classical_correlation_sweep", "classify_process",
    "computational_alphabet", "computational_basis", "conditional_expectation",
    "construct_classically_correlated", "dense_cap", "density_operator", "depolarizing_channel",
    "diagonal_observable", "dual_channel", "embed_observable", "embedding_channel", "emit_report",
    "fit_decay", "haar_unitary", "identity_channel", "identity_operator", "kraus_channel",
    "make_standard_channel", "marginal_table", "measure_to_state", "pair_report",
    "phase_damping_channel", "pinching_channel", "projector_pairs", "random_density",
    "random_observable", "random_pairs", "random_unitary_channel", "run_config_file",
    "run_experiment", "source_block_mean", "source_correlation", "state_to_measure",
    "stationary_distribution", "sweep_report", "tensor_product", "trace_pairing", "unitary_channel",
    "validate_alphabet", "validate_density", "validate_kraus", "verify_expectation_properties",
    "word_projector",
]


def test_public_names_pinned():
    assert sorted(ss.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_module():
    namespace = {}
    exec("from spinsource import *", namespace)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    # submodules stay reachable as attributes
    assert ss.runner.build_source is ss.build_source


def test_pair_report_is_the_only_test_entry_point():
    removed = ("correlation_sequence", "ergodic_mean_test", "weak_mixing_test", "strong_mixing_test")
    assert not [n for n in removed if hasattr(ss, n) or hasattr(ss.ergodicity, n)]
