"""Correctness checks raise library errors, also under ``python -O``.

The tests that feed in broken data use only ``pytest.raises``, so the last
test can run this file again under ``python -O`` (which strips ``assert``)
and still see every check fire.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from moment_angle import HochsterClass, boundary_simplex, mask_of, polygon, ring_presentation
from moment_angle import resolutions
from moment_angle.errors import BasisMismatch, NotAChainComplex, NotACocycle
from moment_angle.ring import _check_cocycle


def test_broken_differential_is_refused():
    # d(a) = b, d(b) = c, so d o d (a) = c
    with pytest.raises(NotAChainComplex):
        resolutions._check_square({"a": {"b": 1}, "b": {"c": 1}, "c": {}}, "test")


def test_column_naming_an_unknown_key_is_refused():
    # d(a) = b, but b has no column of its own
    with pytest.raises(NotAChainComplex, match="'b'"):
        resolutions._check_square({"a": {"b": 1}}, "test")


def test_koszul_with_unsigned_differential_is_refused(monkeypatch):
    # without the Koszul signs the two paths u_12 -> v_12 add up instead of cancelling
    signed = resolutions._koszul_columns

    def unsigned(*args):
        return {
            mono: {key: abs(c) for key, c in column.items()}
            for mono, column in signed(*args).items()
        }

    monkeypatch.setattr(resolutions, "_koszul_columns", unsigned)
    with pytest.raises(NotAChainComplex):
        resolutions.koszul_bigraded(boundary_simplex(2))


def test_broken_cochain_is_refused():
    path = polygon(4)  # the full subcomplex on {1, 2, 3} is the path 1-2-3
    not_a_cocycle = HochsterClass(mask_of((1, 2, 3)), 0, {mask_of((1,)): 1})
    with pytest.raises(NotACocycle):
        _check_cocycle(not_a_cocycle, path)


def test_class_on_a_block_with_missing_generators_is_refused():
    presentation = ring_presentation(polygon(5))
    generator = presentation.generators[0]
    presentation.generators = presentation.generators[1:]
    with pytest.raises(BasisMismatch):
        presentation.express_class(generator.cls)


@pytest.mark.skipif(sys.flags.optimize > 0, reason="this run is the python -O run")
def test_checks_fire_under_python_O():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    # the skip of this very test shows the run really was optimised
    assert "5 passed, 1 skipped" in result.stdout, result.stdout
