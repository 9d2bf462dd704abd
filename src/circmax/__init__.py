"""Maximum-entropy band extension for block-circulant covariances.

Covariances of stationary processes on the discrete circle Z_N are
symmetric block-circulant matrices.  Given the first n+1 covariance
lags, this package completes them to the positive definite circulant
covariance of maximum Gaussian entropy, whose inverse is banded of
bandwidth n; the band of that inverse is the reciprocal AR model of
order n, and the completion solves maximum-likelihood identification
of such models from sample data.
"""

import types

from .blockcirc import (BlockCirculant, CovBand, SpectralForm,
                        assemble_banded, assemble_circulant, band_residual,
                        dft_block_diagonalize, idft_reconstruct, inverse,
                        is_positive_definite, is_strictly_positive, logdet,
                        project_circulant, spectral_bounds, toeplitz_gram)
from .errors import (CircmaxError, ConvergenceError, DegenerateDataError,
                     DegenerateProcessError, DimensionError,
                     HorizonExhaustedError, InfeasibleBandError,
                     InfeasibleExtensionError, InvalidModelError,
                     NotPositiveDefiniteError, NotReciprocalError,
                     ReconstructionError)
from .feasibility import (FeasibilityCertificate, ar_extend, block_levinson,
                          feasibility_certificate, wrap_sequence)
from .identify import (IdentifyResult, identify, log_likelihood,
                       sufficient_statistics)
from .maxent import (ExtensionResult, SolveDiagnostics, dual_gradient,
                     dual_objective, entropy, solve)
from .reciprocal import (Dataset, ModelResidualReport, ReciprocalModel,
                         build_yule_walker_system, covariance_of_model,
                         model_from_covariance, sample, verify_model,
                         yule_walker)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
