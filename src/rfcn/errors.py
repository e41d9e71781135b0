"""Error classes shared across the library."""


class RfcnError(Exception):
    """Base class for all library errors."""


class ShapeError(RfcnError):
    """Tensor shapes, dtypes or memory layouts are incompatible with the
    requested operation."""


class NumericsError(RfcnError):
    """A non-finite value (NaN/Inf) was produced."""


class ConfigError(RfcnError):
    """An architecture or training configuration is invalid."""


class DataError(RfcnError):
    """Dataset files are missing, malformed, or inconsistent."""


class CheckpointError(RfcnError):
    """A checkpoint file is corrupt or does not match its config."""


class DivergenceError(RfcnError):
    """Training produced a non-finite loss.

    Carries the model parameters at the point of failure so the caller can
    dump a debug checkpoint.
    """

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model
