"""Shared pytest wiring: collect acceptance-criterion verdict lines and
echo them in the terminal summary so every run shows one pass/fail line
per criterion, whether or not output capture is active; and the
environment under which tests start child interpreters.
"""

import os
from pathlib import Path

# Child interpreters import this checkout's package, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
