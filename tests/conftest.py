import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from moment_angle import construct_p28_8, random_complexes  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def p28():
    return construct_p28_8()


@pytest.fixture(scope="session")
def corpus():
    """The seeded cross-validation corpus; fixed seed, fixed contents."""
    return random_complexes(100)


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """A slice used by the slower property checks."""
    return corpus[:30]


@pytest.fixture()
def no_elimination(monkeypatch):
    """Fail any chain complex whose reduction pass leaves elements over."""
    from moment_angle import homology

    def refuse(entries):
        raise AssertionError(f"eliminated {entries}")

    monkeypatch.setattr(homology, "invariant_factors_sparse", refuse)
