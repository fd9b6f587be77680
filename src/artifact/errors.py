"""Error taxonomy for the radial Kahler laboratory.

Every failure mode that carries numerical meaning gets its own class so
callers can distinguish "your input is bad" from "the discretization is
too coarse" from "the iteration did not settle".
"""


class ArtifactError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ArtifactError):
    """Invalid experiment configuration; message carries the field path."""

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"config field {field_path}: {message}")


class NonPositiveMetric(ArtifactError):
    """An eigenvalue profile of omega_phi is <= 0 somewhere."""

    def __init__(self, node, value, sector="radial"):
        self.node = float(node)
        self.value = float(value)
        self.sector = sector
        super().__init__(
            f"metric not positive: {sector} eigenvalue {value:.6e} at s={node:.6f}"
        )


class ResolutionTooLow(ArtifactError):
    """Quadrature order insufficient for the requested tensor power k."""

    def __init__(self, k, order, required):
        self.k = k
        self.order = order
        self.required = required
        super().__init__(
            f"quadrature order {order} below required {required} for k={k}"
        )


class TailTooLarge(ArtifactError):
    """Spectral (Chebyshev) tail of a profile exceeds tolerance."""

    def __init__(self, tail, tol):
        self.tail = float(tail)
        self.tol = float(tol)
        super().__init__(f"spectral tail {tail:.3e} exceeds tolerance {tol:.1e}")


class SpreadTooLarge(ArtifactError):
    """Weights spread beyond what a sum against a fixed kernel keeps: log-weights
    past the range of doubles, or degree shares whose variance cancels."""

    def __init__(self, spread, bound):
        self.spread = float(spread)
        self.bound = float(bound)
        super().__init__(f"weights spread {spread:.4g} beyond the kernel bound {bound:.4g}")


class PathLeavesCone(ArtifactError):
    """An interpolated potential loses positivity along a path."""

    def __init__(self, t, cause=None):
        self.t = float(t)
        self.cause = cause
        super().__init__(f"interpolated metric not positive at path time t={t:.6f}")


class NotConverged(ArtifactError):
    """Fixed-point iteration hit its iteration cap; carries the trace."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            f"iteration did not converge within {trace.iterations} steps "
            f"(last defect {trace.defects[-1]:.3e})"
        )


class UnsupportedCoefficient(ArtifactError):
    """Density expansion coefficient of unsupported order requested."""

    def __init__(self, j):
        self.j = j
        super().__init__(f"expansion coefficient a_{j} is not available (j must be <= 2)")


class IllConditioned(ArtifactError):
    """Least-squares design matrix too ill-conditioned to trust."""

    def __init__(self, cond, threshold):
        self.cond = float(cond)
        self.threshold = float(threshold)
        super().__init__(
            f"design condition number {cond:.3e} exceeds {threshold:.1e}; "
            "consider widening the k window"
        )


class NonPositiveNorm(ArtifactError):
    """A Gram diagonal entry came out non-positive."""

    def __init__(self, degree, value):
        self.degree = degree
        self.value = float(value)
        super().__init__(f"section norm at degree {degree} is {value:.3e} <= 0")
