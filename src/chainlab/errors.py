"""Exception types shared across chainlab modules."""


class ChainlabError(Exception):
    """Base class for all chainlab errors."""


class NonHermitianInput(ChainlabError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class DimensionMismatch(ChainlabError):
    """Operands have incompatible shapes."""


class SiteOutOfRange(ChainlabError):
    """Site index outside the chain."""


class LengthMismatch(ChainlabError):
    """Per-site data has the wrong length for the chain."""


class NoRevivalFound(ChainlabError):
    """Barrier population never returned above threshold in the window."""


class ExcessiveLeakage(ChainlabError):
    """Too much probability left the encoded subspace to call it a gate."""


class NotUnitary(ChainlabError):
    """Matrix expected to be unitary is not, beyond tolerance."""


class SynthesisFailed(ChainlabError):
    """Numerical gate synthesis did not reach the required fidelity."""

    def __init__(self, message: str, best_fidelity: float = 0.0):
        super().__init__(message)
        self.best_fidelity = best_fidelity


class NotDiagonalizableLocally(ChainlabError):
    """Gate is not diagonal enough for local phase corrections."""


class InvalidGrouping(ChainlabError):
    """Chain does not have the layout a scheme needs."""


class ConfigInvalid(ChainlabError):
    """Run configuration failed validation."""


class IoFailure(ChainlabError):
    """Could not read or write a requested artifact."""
