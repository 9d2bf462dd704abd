import circmax as cm

# the package's public names; a name added or removed here is an API change
PUBLIC_NAMES = [
    "BlockCirculant", "CircmaxError", "ConvergenceError", "CovBand", "Dataset",
    "DegenerateDataError", "DegenerateProcessError", "DimensionError",
    "ExtensionResult", "FeasibilityCertificate", "HorizonExhaustedError",
    "IdentifyResult", "InfeasibleBandError", "InfeasibleExtensionError",
    "InvalidModelError", "ModelResidualReport", "NotPositiveDefiniteError",
    "NotReciprocalError", "ReciprocalModel", "ReconstructionError",
    "SolveDiagnostics", "SpectralForm", "ar_extend", "assemble_banded",
    "assemble_circulant", "band_residual", "block_levinson",
    "build_yule_walker_system", "covariance_of_model", "dft_block_diagonalize",
    "dual_gradient", "dual_objective", "entropy", "feasibility_certificate",
    "identify", "idft_reconstruct", "inverse", "is_positive_definite",
    "is_strictly_positive", "log_likelihood", "logdet", "model_from_covariance",
    "project_circulant", "sample", "solve", "spectral_bounds",
    "sufficient_statistics", "toeplitz_gram", "verify_model", "wrap_sequence",
    "yule_walker",
]


def test_public_names_are_pinned():
    assert sorted(cm.__all__) == PUBLIC_NAMES
