"""Exception types shared across the package."""

from __future__ import annotations


class HbsError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(HbsError, ValueError):
    """Matrix and block dimensions are incompatible."""


class ConfigError(HbsError, ValueError):
    """A pruning configuration or level spec is invalid."""


class ValidationError(HbsError):
    """A hierarchical block sparse matrix failed invariant validation.

    Raised by the :class:`~hbs.core.HBSMatrix` constructor, so by every
    function that builds one, :func:`~hbs.io.read_hbsf` among them.
    Carries the full :class:`~hbs.core.ValidationReport` on ``report``; the
    message names the first violated invariant.
    """

    def __init__(self, report):
        self.report = report
        failure = report.first_failure
        if failure is None:
            msg = "invalid HBS matrix"
        else:
            msg = f"{failure.name} check failed"
            if failure.detail:
                msg += f": {failure.detail}"
        super().__init__(msg)


class FormatError(HbsError):
    """A file does not conform to its on-disk format."""


class MagicError(FormatError):
    """The file magic does not identify the expected format."""


class VersionError(FormatError):
    """The file format version is not supported."""


class TruncatedError(FormatError):
    """The file ends before its declared payload is complete."""


class IrfLookupError(HbsError, LookupError):
    """The requested block shape has no entry in an irf table."""


class CalibrationError(HbsError, RuntimeError):
    """Microbenchmark timing cannot produce a reliable measurement."""
