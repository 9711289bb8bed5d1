"""Shared pytest wiring: collects acceptance-criterion verdict lines and
prints them in the terminal summary, where output capture cannot hide them,
and builds Hypothesis' character tables before any test runs."""

import pytest
from hypothesis import strategies as st

_criterion_lines = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


@pytest.fixture(autouse=True, scope="session")
def _hypothesis_unicode_tables():
    # The first text strategy validated builds Hypothesis' unicode tables
    # (seconds, cached under .hypothesis/ afterwards).  Built inside a
    # property, that time is charged to its first input and can fail the
    # too_slow health check in a fresh checkout.
    st.text().validate()


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
