"""Error types shared across the TLT stack.

Every failure surfaced by the library is a subclass of TltError, so callers
(and the CLI) can report the error class name as a stable code.
"""

from __future__ import annotations


class TltError(Exception):
    """Base class for all TLT errors."""


class EntropyUnavailable(TltError):
    """The secure randomness source failed."""


class InvalidKey(TltError):
    """Key material is malformed or does not match its counterpart."""


class MalformedDocument(TltError):
    """Bytes or fields do not form a canonical document or device state file."""


class ChainInvalid(TltError):
    """A document does not verify against the chain of trust."""


class ConstraintViolation(TltError):
    """An identity-binding or admission constraint failed."""


class ImageMismatch(TltError):
    """A firmware image does not match the digest in its signed document."""


class NotOperational(TltError):
    """The device has no verified firmware installed (or failed boot checks)."""


class StaleSequence(TltError):
    """A configuration sequence number did not strictly increase."""


class DuplicateUuid(TltError):
    """A device record with this UUID is already registered."""


class UnknownIssuer(TltError):
    """A referenced manufacturer or device is not registered."""


class NotFound(TltError):
    """No record matches the lookup key."""


class FileUnreadable(TltError):
    """An input file (store log, document, device state, key, image or payload) cannot be read."""


class FileUnwritable(TltError):
    """An output file (store log, document, device state or key) cannot be written."""


class StoreUnavailable(TltError):
    """A store could not be locked, served or reached, or its connection failed or timed out."""


class CorruptLog(TltError):
    """A persisted store record failed revalidation on load."""

    def __init__(self, message: str, seq: int):
        super().__init__(message)
        self.seq = seq


class ParseError(TltError):
    """A transport frame is malformed."""


class PayloadTooLarge(TltError):
    """A payload exceeds what the framing layer can carry."""


class MissingFragment(TltError):
    """A fragment set is incomplete."""


class InconsistentSet(TltError):
    """Fragments disagree on message type or fragment count."""


class NoSuchSession(TltError):
    """A response arrived without an outstanding challenge."""


class UsageError(TltError):
    """Bad command-line invocation."""


class ScenarioError(TltError):
    """Threat-scenario harness failed to set up (not an assertion failure)."""
