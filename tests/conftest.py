import numpy as np

acceptance_lines: list[str] = []


def record(criterion: int, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the run summary."""
    acceptance_lines.append(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def kron_excluding(mats, k):
    """kron(A_K, ..., A_{k+1}, A_{k-1}, ..., A_1): the materialized mode-k
    projection factor, an oracle for the package's slice-wise contractions."""
    out = np.ones((1, 1))
    for j in reversed(range(len(mats))):
        if j != k:
            out = np.kron(out, np.asarray(mats[j], dtype=float))
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)
