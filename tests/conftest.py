import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "thorough", max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports gsfv from src/."""
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


# acceptance tests append their verdict lines here; the summary hook
# re-prints them after the run so they survive pytest's output capture
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
