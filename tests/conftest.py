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


def oracle_groups(cc):
    """``(homology, cohomology)`` of a ``ChainComplexZ``, each map reduced on its own.

    f_d, the invariant factors of the map out of C_d, come from the
    local-index entries of that one map, with no reduction pass across
    degrees.  The free rank at d is n_d - |f_d| - |f_{d+1}|; the torsion is
    the non-units of f_{d+1} in homology and of f_d in cohomology.  The
    groups in every degree fix every map's rank, from the top down, so they
    fix every factor list too.
    """
    from moment_angle.homology import Abelian
    from moment_angle.snf import invariant_factors_sparse

    factors = {d: invariant_factors_sparse(cc.boundary_entries(d)) for d in range(cc.bottom, cc.top + 2)}
    return tuple(
        {
            d: Abelian(
                cc.n_faces(d) - len(factors[d]) - len(factors[d + 1]),
                tuple(t for t in factors[d + shift] if t > 1),
            )
            for d in cc.degrees
        }
        for shift in (1, 0)
    )
