"""The rule catalog and shared AST pattern helpers.

Everything the :mod:`repro.analysis` subsystem enforces is defined here
once: what counts as a wall-clock read, an unseeded RNG, forbidden I/O,
and so on. The pushdown verifier (``PD1xx`` rules) and the repo-wide lint
pass (``LNT1xx`` rules) both match against these sets, so "deterministic"
means the same thing everywhere.

Rule IDs are stable: tests, suppression comments and CI reference them by
ID, so existing IDs must never be renumbered or reused.
"""

import ast
from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One enforceable rule: stable ID, short slug, one-line summary."""

    id: str
    slug: str
    summary: str


#: The full catalog, keyed by stable rule ID.
RULES = {}


def _rule(rule_id, slug, summary):
    rule = Rule(rule_id, slug, summary)
    RULES[rule_id] = rule
    return rule


# ----------------------------------------------------------------------
# Pushdown verifier rules (repro.analysis.verifier)
# ----------------------------------------------------------------------
PD_WALL_CLOCK = _rule(
    "PD101", "wall-clock",
    "pushed function reads the host clock (time.*/datetime.now) or sleeps",
)
PD_UNSEEDED_RNG = _rule(
    "PD102", "unseeded-rng",
    "pushed function draws from an unseeded random number generator",
)
PD_IO = _rule(
    "PD103", "io",
    "pushed function performs file, socket, or process I/O",
)
PD_CONCURRENCY = _rule(
    "PD104", "concurrency",
    "pushed function uses threading/multiprocessing/asyncio primitives",
)
PD_GLOBAL_MUTATION = _rule(
    "PD105", "global-mutation",
    "pushed function mutates module globals (global statement / globals())",
)
PD_LOCAL_CAPTURE = _rule(
    "PD106", "compute-local-capture",
    "pushed function captures a compute-local object (cache, kernel, platform)",
)
PD_UNVERIFIABLE = _rule(
    "PD107", "unverifiable",
    "function source is unavailable; the verifier cannot analyse it",
)

# ----------------------------------------------------------------------
# Repo-wide lint rules (repro.analysis.lint)
# ----------------------------------------------------------------------
LNT_WALL_CLOCK = _rule(
    "LNT101", "wall-clock",
    "host clock read outside the allowlisted bench wall-timing helper",
)
LNT_UNSEEDED_RNG = _rule(
    "LNT102", "unseeded-rng",
    "unseeded random number generator in simulation code",
)
LNT_DISCARDED_COST = _rule(
    "LNT103", "discarded-cost",
    "network/cost-model result discarded instead of charged to a virtual clock",
)
LNT_FROZEN_MUTATION = _rule(
    "LNT104", "frozen-mutation",
    "mutation of a frozen dataclass instance",
)
LNT_EXC_HIERARCHY = _rule(
    "LNT105", "exception-hierarchy",
    "exception class does not derive from the repro.errors hierarchy",
)
LNT_UNUSED_SUPPRESSION = _rule(
    "LNT900", "unused-suppression",
    "a '# lint: disable=...' comment suppresses nothing (stale suppression)",
)
LNT_SYNTAX = _rule(
    "LNT001", "syntax-error",
    "file does not parse; nothing else can be checked",
)


# ----------------------------------------------------------------------
# Name sets the rules match against
# ----------------------------------------------------------------------
#: Dotted call names that read the host clock or block on wall time.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})

#: numpy.random attribute names that are *not* legacy unseeded globals.
SEEDED_NUMPY_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator",
})

#: Dotted call names that perform file/socket/process I/O.
IO_CALLS = frozenset({
    "open", "input", "print",
    "os.open", "os.read", "os.write", "os.remove", "os.unlink",
    "os.rename", "os.mkdir", "os.makedirs", "os.rmdir", "os.system",
    "os.popen", "os.fork",
})

#: Module roots whose any call is I/O or host-environment access.
IO_MODULE_ROOTS = frozenset({
    "socket", "subprocess", "shutil", "urllib", "requests", "http",
})

#: Module roots providing host concurrency (invalid inside a pushdown:
#: the simulation models parallelism with virtual clocks, and the paper's
#: temporary user context is single-threaded per instance).
CONCURRENCY_ROOTS = frozenset({
    "threading", "multiprocessing", "concurrent", "asyncio",
})

#: Methods of the cost model (Network / DdcConfig / SwapDevice) that
#: *return* a virtual-time cost. Discarding the return value means the
#: work happened for free — a determinism/accounting bug (LNT103).
COST_RETURNING_METHODS = frozenset({
    "message_ps", "pages_in_ps", "pages_out_ps",
    "coherence_message_ps", "net_message_ps", "net_roundtrip_ps",
    "remote_fault_ps", "page_writeback_ps", "ssd_fault_ps", "cpu_ps", "transfer_ps",
    "boundary_sync", "memory_touch", "compute_upgrade",
})

#: Builtin exception names that library code must not subclass directly
#: (everything raised by src/repro derives from repro.errors, LNT105).
BUILTIN_EXCEPTION_BASES = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "RuntimeError", "OSError", "IOError", "ArithmeticError",
    "LookupError", "AttributeError", "NotImplementedError",
})

#: Class names whose *instances* are compute-local: capturing one inside a
#: pushed-down function means the "remote" function would touch
#: compute-pool state directly, bypassing the fabric (PD106). Matched by
#: isinstance against the live objects, using the class names to avoid
#: importing half the library here.
COMPUTE_LOCAL_TYPE_NAMES = (
    ("repro.ddc.platform", ("Platform",)),
    ("repro.ddc.kernels", ("ComputeKernel",)),
    ("repro.mem.cache", ("PageCache",)),
    ("repro.mem.storage", ("SwapDevice",)),
    ("repro.teleport.rpc", ("RpcServer",)),
    ("repro.sim.network", ("Network",)),
    ("repro.faults.injector", ("FaultInjector",)),
    ("repro.faults.breaker", ("CircuitBreaker",)),
    ("repro.faults.detector", ("HeartbeatDetector",)),
)


def compute_local_types():
    """Resolve :data:`COMPUTE_LOCAL_TYPE_NAMES` to live classes.

    Imported lazily so ``repro.analysis`` stays importable without pulling
    in the whole runtime (and without import cycles: the runtime imports
    the verifier lazily too).
    """
    import importlib

    classes = []
    for module_name, class_names in COMPUTE_LOCAL_TYPE_NAMES:
        module = importlib.import_module(module_name)
        for class_name in class_names:
            classes.append(getattr(module, class_name))
    return tuple(classes)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def dotted_name(node):
    """Dotted source name of an expression, e.g. ``np.random.random``.

    Returns None for anything that is not a plain Name/Attribute chain
    (subscripts, calls, literals).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_name(call):
    """Dotted name of a Call's target (None when not a name chain)."""
    return dotted_name(call.func)


def name_root(dotted):
    """First component of a dotted name (``'np.random.rand'`` -> ``'np'``)."""
    return dotted.split(".", 1)[0] if dotted else None


def is_wall_clock_call(dotted):
    """True when a dotted call name reads the host clock."""
    return dotted in WALL_CLOCK_CALLS


def is_unseeded_rng_call(call):
    """True when a Call draws from an unseeded RNG.

    Covers the stdlib ``random`` module's global generator, numpy's legacy
    ``np.random.<dist>`` globals, and ``default_rng()`` with no seed.
    """
    dotted = call_name(call)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if parts[0] == "random" and len(parts) > 1:
        # random.Random(seed) builds a *seeded* private generator.
        if parts[-1] == "Random" and (call.args or call.keywords):
            return False
        return True
    if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
        attr = parts[2]
        if attr == "default_rng":
            return not call.args and not call.keywords
        return attr not in SEEDED_NUMPY_RANDOM
    if parts[-1] == "default_rng":
        return not call.args and not call.keywords
    return False


def is_io_call(dotted):
    """True when a dotted call name performs forbidden I/O."""
    if dotted is None:
        return False
    return dotted in IO_CALLS or name_root(dotted) in IO_MODULE_ROOTS


def is_concurrency_name(dotted):
    """True when a dotted name references a host-concurrency module."""
    return dotted is not None and name_root(dotted) in CONCURRENCY_ROOTS
