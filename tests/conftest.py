import pytest

from carlab.boolcube import Subcube
from carlab.core import LearningSample, LearningSet

# Acceptance tests append their PASS/FAIL lines here; the summary hook
# replays them so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cube(word: str) -> Subcube:
    """The subcube a ternary word like "0*1" names; ``*`` frees a coordinate."""
    mask = int(word.replace("0", "1").replace("*", "0"), 2)
    return Subcube(len(word), mask, int(word.replace("*", "0"), 2))


@pytest.fixture
def two_band_set() -> LearningSet:
    """1-D set with class 0 at {2, 4} and class 1 at {7}."""
    return LearningSet.build(
        [
            LearningSample("a", (2.0,), 0),
            LearningSample("b", (4.0,), 0),
            LearningSample("c", (7.0,), 1),
        ],
        mode="real",
    )


@pytest.fixture
def corner_set() -> LearningSet:
    """2-D set with class 0 at the origin and class 1 at (1, 1)."""
    return LearningSet.build(
        [
            LearningSample("a", (0.0, 0.0), 0),
            LearningSample("b", (1.0, 1.0), 1),
        ],
        mode="real",
    )
