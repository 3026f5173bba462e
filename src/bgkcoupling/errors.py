"""Exception types shared across the package."""


class AdmissibilityError(ValueError):
    """Distribution values violate the 0 <= sign(xi) f <= 1 bounds."""


class GridMismatchError(ValueError):
    """Two objects live on incompatible grids."""


class CflError(ValueError):
    """Time step too large for the advection speeds on this grid."""


class ConeError(ValueError):
    """Half-space layer data lies outside the admissible cone."""


class BlnError(ValueError):
    """Boundary state fails the scalar admissibility condition."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValueError):
    """Invalid run configuration; carries one message per offending key."""

    def __init__(self, items: list[str]):
        super().__init__("; ".join(items))
        self.items = list(items)


# Failures of a numerical step, as opposed to bad configuration.
SOLVER_ERRORS = (
    ConvergenceError,
    ConeError,
    BlnError,
    CflError,
    AdmissibilityError,
    GridMismatchError,
)
