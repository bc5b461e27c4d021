import pytest

from latinsq.core import ImproperCell, cube_from_grid
from latinsq.oracle import build_state_graph

# Order-4 improper square used as the shared fixture; the grid value at the
# improper cell is the placeholder min(positive_pair).
EX_IMPROPER_GRID = [
    [2, 1, 3, 0],
    [1, 3, 0, 2],
    [3, 0, 1, 1],
    [0, 1, 2, 3],
]
EX_IMPROPER_CELL = ImproperCell(2, 1, (0, 2), 1)

# The proper square one move away from it.
EX_PROPER_GRID = [
    [2, 0, 3, 1],
    [1, 3, 0, 2],
    [3, 2, 1, 0],
    [0, 1, 2, 3],
]


@pytest.fixture(scope="session")
def ex_improper():
    return cube_from_grid(EX_IMPROPER_GRID, EX_IMPROPER_CELL)


@pytest.fixture(scope="session")
def ex_proper():
    return cube_from_grid(EX_PROPER_GRID)


@pytest.fixture(scope="session")
def graph3():
    return build_state_graph(3)


@pytest.fixture(scope="session")
def graph4():
    return build_state_graph(4)


# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion in the summary

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_record():
    def record(criterion: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f" - {detail}" if detail else ""
        _ACCEPTANCE_LINES.append(f"{status} {criterion}{suffix}")

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
