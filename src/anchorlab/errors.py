"""Exception types shared across the package."""


class AnchorlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(AnchorlabError, ValueError):
    """Tensor or image extents do not line up."""


class DegenerateInputError(AnchorlabError, ValueError):
    """An input is degenerate (zero norm, empty mask, antipodal sum, ...)."""


class ContractError(AnchorlabError, ValueError):
    """A caller violated an operation's contract (non-scalar loss, NaN grad, ...)."""


class ConfigError(AnchorlabError, ValueError):
    """A configuration value is inconsistent or unsatisfiable."""


class DegenerateMaskError(AnchorlabError, ValueError):
    """A mask degradation emptied the mask support."""


class ManifestError(AnchorlabError, ValueError):
    """A dataset/anchor manifest is missing a required entry."""
