import sys
from pathlib import Path

import pytest

from risecure.galois import SystematicCode

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_RESULTS = []


def record_acceptance(num, name, passed, detail=""):
    """Collect one acceptance verdict for the end-of-run summary."""
    ACCEPTANCE_RESULTS.append((num, name, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  -- {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def corrupted_decoder(monkeypatch):
    """Patch the code family's decoder to flip one message bit of its output."""
    correct = SystematicCode._correct

    def corrupted(code, rx):
        msg = correct(code, rx)
        if msg is not None:
            msg[0] ^= 1
        return msg

    monkeypatch.setattr(SystematicCode, "_correct", corrupted)
