"""Root pytest configuration: the ``--sanitize`` switch.

``pytest --sanitize`` enables the process-wide runtime sanitizer suite
(:mod:`repro.analysis.sanitizers`) for the whole run: every platform any
test constructs checks SWMR after each coherence transition and verifies
pushdown sessions leave no temporary context behind. The CI ``sanitize`` lane runs the full tier-1
suite this way.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="enable repro.analysis runtime sanitizers for the whole run",
    )


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_session(request):
    if not request.config.getoption("--sanitize"):
        yield
        return
    from repro.analysis import sanitizers

    import warnings

    suite = sanitizers.enable()
    yield
    # Surface runs where the option silently did nothing (import skew,
    # hooks disconnected): zero checks means the sanitizers never fired.
    checks = suite.swmr_checks + suite.leak_checks
    sanitizers.disable()
    if checks == 0:
        warnings.warn(
            "--sanitize was set but no sanitizer checks ran; "
            "the runtime hooks appear disconnected",
            RuntimeWarning,
            stacklevel=1,
        )
