"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from storage errors, and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retriable`` is the wire-level taxonomy bit: ``True`` marks
    transient failures a client may retry (overload, a tripped
    dependency, a dropped connection); ``False`` marks terminal ones
    (malformed queries, exhausted deadlines) where a retry would only
    repeat the failure. Subclasses override the class attribute.
    """

    retriable = False


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Carries the byte/character ``position`` in the input where the error
    was detected, when known.
    """

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TreeError(ReproError):
    """Raised on invalid document-tree operations (bad node ids, cycles)."""


class QueryParseError(ReproError):
    """Raised when a twig-query string cannot be parsed."""


class AccessControlError(ReproError):
    """Raised on invalid access control specifications or lookups."""


class UnknownSubjectError(AccessControlError):
    """Raised when a subject id is not registered with the matrix."""


class CodebookError(ReproError):
    """Raised on codebook misuse (unknown code, capacity exceeded)."""


class StorageError(ReproError):
    """Raised on page/buffer-pool failures (bad page id, page overflow)."""


class PageFormatError(StorageError):
    """Raised when a page's on-disk bytes fail validation."""


class PageCorruptionError(PageFormatError):
    """Raised when a page fails checksum verification.

    Carries the ``page_id`` and, when the failure came from a CRC
    mismatch, the ``expected`` (stored) and ``actual`` (recomputed)
    digests so fsck output and logs can show exactly what was read.
    """

    #: a fresh read may succeed (transient bit rot is quarantined and the
    #: service degrades around it), so clients may retry
    retriable = True

    def __init__(
        self,
        page_id: int,
        expected: "int | None" = None,
        actual: "int | None" = None,
        detail: str = "",
    ):
        message = f"page {page_id} failed verification"
        if expected is not None and actual is not None:
            message += f": checksum expected {expected:#010x}, got {actual:#010x}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.page_id = page_id
        self.expected = expected
        self.actual = actual


class WALError(StorageError):
    """Raised on write-ahead-log misuse or an unrecoverable log file."""


class UpdateError(ReproError):
    """Raised when a DOL update operation is invalid (bad target, etc.)."""


class ServiceError(ReproError):
    """Raised on query-service failures (the concurrent serving layer)."""


class BadRequest(ServiceError):
    """Raised on a malformed wire request: not JSON, not an object, an
    oversized frame, or arguments of the wrong shape. Terminal — the
    same bytes will fail the same way."""


class ServiceOverloaded(ServiceError):
    """Raised when the service sheds a request: every worker is busy and
    the admission queue is at its depth limit. Carries the limit so
    clients can log/back off meaningfully."""

    retriable = True

    def __init__(self, inflight: int, limit: int):
        super().__init__(
            f"service overloaded: {inflight} requests in flight "
            f"(admission limit {limit})"
        )
        self.inflight = inflight
        self.limit = limit


class ServiceTimeout(ServiceError):
    """Raised when a request exceeds the service's per-request timeout.

    Terminal by taxonomy: the deadline is spent — retrying against the
    same deadline can only time out again. ``waited`` carries the queue
    wait when the deadline was burned before the request ever ran.
    """

    def __init__(self, seconds: "float | None", waited: "float | None" = None):
        message = (
            f"request exceeded the {seconds:g}s timeout"
            if seconds is not None
            else "request exceeded its timeout"
        )
        if waited is not None:
            message += f" ({waited:.3f}s of it waiting for a worker)"
        super().__init__(message)
        self.seconds = seconds
        self.waited = waited


class ServiceUnavailable(ServiceError):
    """Raised when the service is temporarily unable to serve — snapshot
    acquisition failed, the store is mid-recovery, or chaos injection
    simulated either. Retriable: the condition is expected to clear."""

    retriable = True

    def __init__(self, reason: str = "service temporarily unavailable"):
        super().__init__(reason)


class ClientError(ReproError):
    """Base class for failures raised by the resilient client itself
    (as opposed to errors decoded off the wire)."""


class ConnectionFailed(ClientError):
    """Raised when the transport failed mid-request: connect refused,
    connection reset, the server closed the stream, or a torn/garbled
    response frame. Retriable after a reconnect — but only for
    idempotent requests when ``request_sent`` is True, since a request
    that reached the wire may have executed server-side."""

    retriable = True

    def __init__(self, message: str, request_sent: bool = False):
        super().__init__(message)
        self.request_sent = request_sent


class RetryBudgetExhausted(ClientError):
    """Raised when the client gives up retrying: the attempt cap or the
    retry budget ran out. Terminal; chains the last underlying error."""

    def __init__(self, budget: "float | None" = None):
        message = "retry budget exhausted"
        if budget is not None:
            message += f" (budget {budget:g})"
        super().__init__(message)
        self.budget = budget
