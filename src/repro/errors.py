"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type. Subclasses separate the compile-time analysis
failures (program validation, labeling) from configuration and run-time
simulation failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ProgramError(ReproError):
    """A program or message declaration is malformed.

    Examples: a write operation issued by a cell that is not the message's
    sender, mismatched write/read counts for a message, an operation naming
    an undeclared message.
    """


class TopologyError(ReproError):
    """A topology or routing request is invalid (unknown cell, no route)."""


class ConfigError(ReproError):
    """An array configuration cannot support the requested execution.

    Raised, for instance, when static queue assignment is requested but an
    interval has more competing messages than queues, or when the ordered
    dynamic policy would violate Theorem 1's assumption (ii) because a
    same-label group exceeds the number of queues on a link.
    """


class LabelingError(ReproError):
    """A message labeling is inconsistent or could not be constructed."""


class DeadlockedProgramError(ReproError):
    """An analysis that requires a deadlock-free program received one that
    the crossing-off procedure classifies as deadlocked."""


class SimulationError(ReproError):
    """The simulator reached an internal inconsistency (a bug guard, not an
    expected outcome; run-time deadlock is reported in results, not raised)."""


class CheckpointError(ReproError):
    """A sweep checkpoint cannot be used, or could not be written.

    Raised when a checkpoint's grid fingerprint or job count does not
    match the sweep being resumed — resuming the wrong sweep would
    silently merge unrelated aggregates — and when the *final* snapshot
    of a checkpointed stream cannot be published (full disk, vanished
    directory): the sweep's rows are intact, but the checkpoint on disk
    is stale and a later ``resume`` would silently redo (or, with
    non-idempotent reducers, double-count) work, so the failure must
    not pass silently. A *corrupt* checkpoint (truncated, bit-flipped)
    is never an error on read: it reads as absent and the sweep
    restarts cleanly.
    """


class ParseError(ReproError):
    """The textual program format could not be parsed."""
