"""Exception hierarchy.

Every failure mode raised by the library derives from PilotWaveError so
callers can tell library failures from their own and sort them by kind.
"""


class PilotWaveError(Exception):
    """Base class for all library errors."""


class ConfigurationError(PilotWaveError):
    """Invalid construction arguments (unknown kind, bad parameter)."""


class DomainError(PilotWaveError):
    """Evaluation outside the state's validity region."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class ShapeError(PilotWaveError):
    """Mismatched array shapes, spin dimensions or grids."""


class PhysicsError(PilotWaveError):
    """Physically inconsistent input (off-shell momentum, non-causal vector)."""


class StabilityError(PilotWaveError):
    """Propagator time step violates a stability guard."""


class UnsupportedFamilyError(PilotWaveError):
    """Operation not available for this parametric family."""


class SamplerFailureError(PilotWaveError):
    """Rejection sampler acceptance rate collapsed; envelope needs retuning."""


class NodeError(PilotWaveError):
    """Evaluation at a node of the wavefunction (density below floor)."""


class NoFluxError(PilotWaveError):
    """Arrival-time statistics requested where the integrated flux vanishes."""


class NotSeparatedError(PilotWaveError):
    """Measurement channels are not resolved at read-out: n (leak +
    misread) >= 1, i.e. at least one of the n beables is expected in the
    wrong channel (see `guide.measurement_branching`)."""


class CausalityViolationError(PilotWaveError):
    """A Dirac or DKP flow has a particle with |v|^2 > 1 + 1e-10."""


class InvariantViolationError(PilotWaveError):
    """A positivity/constraint invariant failed on supposedly valid input."""


class DegenerateObserverError(PilotWaveError):
    """Total energy-momentum vector is not timelike within quadrature error."""
