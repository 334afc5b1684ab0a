"""Exception types shared across the toolkit."""


class VqekitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(VqekitError):
    """Operands act on different numbers of qubits or modes."""


class CapacityError(VqekitError):
    """A request exceeds a size limit: dense matrices past the qubit limit,
    or an estimate past its preparation limit."""


class ValidationError(VqekitError):
    """Malformed input: bad file contents, bad config, broken symmetry."""


class NonCommutingGroupError(VqekitError):
    """A measurement group contains a non-commuting pair."""


class BoundInapplicableError(VqekitError):
    """A spectral bound was requested outside its region of validity."""


class ParameterError(VqekitError):
    """Parameter vector does not match the ansatz layout."""
