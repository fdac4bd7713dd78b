"""Error classes shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
data problems exit 3, numeric problems exit 4.
"""

from contextlib import contextmanager


class EsgRiskError(Exception):
    """Base class for all package errors."""


class ConfigError(EsgRiskError):
    """Bad configuration value or unusable invocation."""


class DataError(EsgRiskError):
    """Input data is malformed beyond what row-skipping can absorb."""


class NumericError(EsgRiskError):
    """A numeric invariant failed where silent continuation would be wrong."""


@contextmanager
def config_errors(what: str):
    """Raise an OS or decoding failure in the block as ConfigError("cannot <what>: ...").

    For the paths a run is configured with (the config file, the output
    location), where the path itself, not the data behind it, is at fault.
    """
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot {what}: {exc}") from exc
