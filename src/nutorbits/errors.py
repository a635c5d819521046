"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes; see cli.EXIT_* constants.
"""


class SpecificationError(ValueError):
    """A graph specification violates its invariants (bad offset, connection
    set not closed under negation, ...)."""


class HypothesisError(ValueError):
    """Construction parameters violate the hypotheses of the underlying
    result (wrong parity, prime too small, ...)."""


class NotRealizable(ValueError):
    """No graph with the requested orbit counts exists."""


class NotCoveredByThisPaper(ValueError):
    """The requested parameters are realizable, but only by a construction
    from prior work that this library does not implement (even vertex-orbit
    counts)."""


class VerificationError(RuntimeError):
    """A construction failed its own verification.  This always indicates a
    bug, never a valid outcome, so it carries full diagnostics."""


class ResourceCapError(RuntimeError):
    """A size cap was exceeded; the request was refused."""


class InputError(ValueError):
    """Input from outside the program that cannot be used: a malformed or
    unusable graph."""


class Graph6ParseError(InputError):
    """Malformed graph6 input.  ``offset`` is the byte offset of the first
    offending character in the original text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
