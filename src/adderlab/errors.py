"""Exception types shared across the package.

Grouping them here keeps the CLI's exit-code mapping in one place:
anything that is a usage or configuration problem derives from
AdderLabError, while functional verification failures are reported
through return values rather than exceptions.
"""

from __future__ import annotations


class AdderLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWidth(AdderLabError):
    """Adder width outside the supported range (width >= 1)."""


class ArityMismatch(AdderLabError):
    """Gate instantiated with the wrong number of inputs."""


class DanglingInput(AdderLabError):
    """A net id outside the net table (negative or past its end): read by a
    gate, placed as an input, or asked for by a caller."""


class InvalidNetlist(AdderLabError):
    """Finalize-time structural validation failed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class InvalidBlockWidth(AdderLabError):
    """Block width unsupported for the requested block kind."""


class UnknownPreset(AdderLabError):
    """Preset name not in the bundled catalogue."""


class ParseError(AdderLabError):
    """Malformed textual input (architecture string, netlist file, library file).

    ``line`` is 1-based when the source has lines, otherwise None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# far above any width that can be built, far below the 4300 digits past
# which int() refuses a decimal string
_MAX_DIGITS = 18


def parse_int(digits: str, what: str, line: int | None = None) -> int:
    """A decimal string the caller has matched, as an int; ParseError when
    it is longer than ``_MAX_DIGITS``, checked before ``int()`` runs."""
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"{what} has {len(digits)} digits, more than {_MAX_DIGITS}", line=line)
    return int(digits)


class IncompleteLibrary(AdderLabError):
    """Cell library is missing a model for a required cell kind."""


class InvalidCellValue(AdderLabError):
    """Cell model parameter outside its legal range."""


class InsufficientVectors(AdderLabError):
    """Too few vectors: toggle collection needs at least two, random
    verification at least one, and no vector count may be negative."""


class InvalidMetric(AdderLabError):
    """Figure-of-merit inputs and result must all be finite and positive."""


class NothingToCompare(AdderLabError):
    """Comparison requires at least two analysis reports."""
