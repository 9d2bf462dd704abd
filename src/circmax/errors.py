"""Exception types shared across the package."""


class CircmaxError(Exception):
    """Base class for all library errors."""


class DimensionError(CircmaxError, ValueError):
    """Incompatible sizes, e.g. a band too wide for the requested circle."""


class NotPositiveDefiniteError(CircmaxError):
    """A matrix required to be symmetric positive definite is not."""


class ReconstructionError(CircmaxError):
    """Inverse transform of a spectrum that violates conjugate symmetry."""


class InfeasibleBandError(CircmaxError):
    """The block-Toeplitz matrix of the given lags is not positive definite."""


class HorizonExhaustedError(CircmaxError):
    """No circle size up to the search horizon yields a positive wrap.

    Carries ``min_eig_trace``, a dict mapping each scanned N to the smallest
    frequency-block eigenvalue of its wrap.
    """

    def __init__(self, message, min_eig_trace=None):
        super().__init__(message)
        self.min_eig_trace = dict(min_eig_trace or {})


class DegenerateProcessError(CircmaxError):
    """Singular normal equations: the process is not full rank."""


class DegenerateDataError(CircmaxError):
    """Sample statistics too poor to identify a model (T_n not PD)."""


class NotReciprocalError(CircmaxError):
    """Covariance whose inverse carries mass outside the requested band.

    Carries ``residual``, the off-band fraction found.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidModelError(CircmaxError):
    """Model coefficients whose assembled matrix is not positive definite."""


class ConvergenceError(CircmaxError):
    """Solver stopped unproven: neither converged nor certified infeasible.

    Raised when a damped Newton step fails the PD guard, the Newton system
    is singular or gives no descent, or the iteration limit is hit, before
    an infeasibility certificate appears; near the PD rule's tolerance
    neither outcome can be proven.  Carries the diagnostics record.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InfeasibleExtensionError(CircmaxError):
    """No positive completion exists at the requested circle size: proven.

    ``certificate`` holds the proof, a PD banded circulant M whose pairing
    with the band is <= 0: ``dual_blocks`` (M's lag blocks B_0..B_n, one
    flat row each) and ``pairing`` = N(<B_0,S_0> + 2 sum_k <B_k,S_k>).
    Every completion Sigma has <M, Sigma> = pairing, which a PD Sigma
    would make positive.  It also holds ``smallest_feasible_N`` (the first N whose AR
    wrap is PD, a witness and not the minimum), ``min_eig_trace`` and
    ``wrap_min_eig`` from that scan, and ``wrap_feasible``: always False,
    since a PD wrap at N would be a PD completion.
    """

    def __init__(self, message, certificate=None, diagnostics=None):
        super().__init__(message)
        self.certificate = certificate
        self.diagnostics = diagnostics
