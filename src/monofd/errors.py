"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so new failure modes should
subclass the closest existing category rather than raising bare ValueError.
"""


class MonofdError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MonofdError):
    """Invalid run configuration (bad expression, missing key, bad grid size)."""


class GridError(ConfigError):
    """Grid cannot be built (too few intervals)."""


class FieldValidationError(MonofdError):
    """Diffusion tensor failed the positive-definiteness probe."""


class PlanningError(MonofdError):
    """No admissible stencil exists for some node under the given cap."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class PlanError(PlanningError):
    """A requested direction lies outside its admissible slope interval."""


class AssemblyError(MonofdError):
    """Plan and coefficients disagree at assembly time (negative weight source)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class AuditError(MonofdError):
    """Assembled matrix failed the sign/dominance/connectivity audit."""


class SolverError(MonofdError):
    """Linear solve did not reach the requested residual tolerance."""
