"""Exception hierarchy for the TELEPORT reproduction.

All library-raised errors derive from :class:`ReproError` so applications can
catch simulation-level failures separately from programming errors.
"""


class ReproError(Exception):  # lint: disable=LNT105  (the hierarchy root)
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AllocationError(ReproError):
    """A virtual-memory allocation could not be satisfied."""


class AccessError(ReproError):
    """A memory access fell outside any allocated region."""


class PushdownError(ReproError):
    """Base class for failures of a ``pushdown`` call."""


class PushdownTimeout(PushdownError):
    """The pushed function did not complete within the caller's timeout.

    Mirrors Section 3.2 of the paper: on timeout the caller may issue
    ``try_cancel`` and, if cancellation succeeds, run the function locally.
    """

    def __init__(self, message, cancelled):
        super().__init__(message)
        #: True if try_cancel discarded the function's work: the request
        #: left the queue before it started, or the function was killed
        #: mid-run. Either way it is safe to re-run the function locally.
        self.cancelled = cancelled


class PushdownAborted(PushdownError):
    """Buggy pushdown code was killed by the memory pool's watchdog."""


class PushdownRetryExhausted(PushdownError):
    """Bounded retransmission gave up: the request (or its response) kept
    getting lost on the fabric.

    The request IDs of the retry layer guarantee at-most-once execution:
    when the *response* is lost the function has run exactly once and its
    result is gone; when the *request* is lost it never ran at all.
    """


class RemotePushdownFault(PushdownError):
    """The pushed function raised; the exception is rethrown at the caller.

    General protection faults (here: any exception escaping ``fn``) are
    caught by the stub in the temporary user context and shipped back.
    """

    def __init__(self, original):
        super().__init__(f"pushdown function raised {type(original).__name__}: {original}")
        self.original = original


class PushdownUserError(RemotePushdownFault):
    """The pushed function itself raised — a *user* bug, not infrastructure.

    Raised with the user exception as ``__cause__`` so callers can follow
    the original traceback. The circuit breaker counts only infrastructure
    failures (timeouts, retry exhaustion, watchdog aborts); a user error
    never trips it, because re-routing a buggy function to the compute pool
    would not make it any less buggy.
    """


class PushdownVerificationError(PushdownError):
    """Static analysis rejected a function passed to ``pushdown(verify=True)``.

    ``diagnostics`` holds the :class:`~repro.analysis.diagnostics.Diagnostic`
    records explaining every non-pushdownable construct found.
    """

    def __init__(self, fn_name, diagnostics):
        rules = ", ".join(sorted({d.rule for d in diagnostics}))
        super().__init__(
            f"function {fn_name!r} is not pushdownable "
            f"({len(diagnostics)} finding(s): {rules})"
        )
        self.fn_name = fn_name
        self.diagnostics = tuple(diagnostics)


class KernelPanic(ReproError):
    """The memory pool became unreachable: main memory is lost.

    The paper's TELEPORT triggers a kernel panic in this case; partial
    failure handling is left to future work.
    """


class CoherenceViolation(ReproError):
    """The Single-Writer-Multiple-Reader invariant was broken.

    Raised only by internal assertions / property tests; a correct protocol
    never triggers it.
    """


class SanitizerViolation(ReproError):
    """A runtime sanitizer caught an invariant violation.

    Raised by the :mod:`repro.analysis.sanitizers` suite — per-transition
    SWMR checks, clock-monotonicity checks, and session-end leak checks.
    A correct simulation never triggers it; tripping one is always a bug
    in the library (or a deliberately corrupted state in a test).
    """
