import os
import re

# One BLAS thread in this process and in every child it starts, set before
# anything loads numpy: criterion 7 reruns the toy pipeline in a child beside
# the in-process run, and on a two-core machine a multi-threaded BLAS in
# either slows both.  A value set in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Pass/fail summary for the acceptance criteria, printed after the run.
_ACCEPTANCE_OUTCOMES = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    key = (int(match.group(1)), match.group(2))
    if report.when == "call":
        _ACCEPTANCE_OUTCOMES[key] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_OUTCOMES[key] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for (number, name) in sorted(_ACCEPTANCE_OUTCOMES):
        outcome = _ACCEPTANCE_OUTCOMES[(number, name)]
        label = name.replace("_", " ")
        terminalreporter.write_line(
            f"criterion {number} ({label}): {'PASS' if outcome == 'passed' else outcome.upper()}")
