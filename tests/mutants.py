"""The standing mutant table: every entry must make its test selection fail.

Each entry of ``MUTANTS`` is ``(file under src/, text, replacement, pytest
selection)``: a fault that once went unnoticed, or that a change claimed its
tests would catch, and the tests that now must catch it.  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory and
first runs every selection on the unmutated copy, where each must pass.  Then,
one entry at a time, it replaces the text (which must occur exactly once in
its file), runs the entry's selection, and restores the file.  A mutant is
killed when pytest reports a failing test (exit code 1); any other outcome,
a pass or an error, is a survivor.

Run from the repository root, with pytest installed::

    python tests/mutants.py

It exits 0 when the unmutated selections pass and every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = "tests/test_homology.py::TestPlantedComplexes"

MUTANTS = [
    (
        "moment_angle/homology.py",
        "                if c != 1 and c != -1:\n                    continue\n                removed = (f, g)\n            elif free:",
        "                removed = (f, g)\n            elif free:",
        [PLANTED],
    ),
    (
        "moment_angle/homology.py",
        "                c = columns[g][f]\n                if c != 1 and c != -1:\n                    continue\n",
        "                c = columns[g][f]\n",
        [PLANTED],
    ),
    (
        "moment_angle/homology.py",
        "                if c != 1 and c != -1:\n                    continue\n                removed = (f, g)\n            elif free:",
        "                if c != 1:\n                    continue\n                removed = (f, g)\n            elif free:",
        ["tests/test_homology.py::TestSubsetAssembly"],
    ),
    (
        "moment_angle/homology.py",
        "row = {g: c for g, c in columns[f].items() if g in alive}",
        "row = {g: abs(c) for g, c in columns[f].items() if g in alive}",
        [PLANTED],
    ),
    (
        "moment_angle/homology.py",
        "        if d == 0:\n            free += critical\n",
        "",
        ["tests/test_homology.py::TestCoreduction"],
    ),
    (
        "moment_angle/hochster.py",
        "shift = face.bit_count() - 1",
        "shift = face.bit_count() - 2",
        ["tests/test_hochster.py::TestBigraded::test_prune_matches_unpruned"],
    ),
    (
        "moment_angle/resolutions.py",
        "if not (tau | up[tau]) & subset & -subset:",
        "if not up[tau] & subset & -subset:",
        ["tests/test_resolutions.py::TestOffLowestStar"],
    ),
    (
        "moment_angle/resolutions.py",
        "if not (tau | up[tau]) & subset & -subset:",
        "if not tau & subset & -subset and up[tau] & subset & -subset:",
        ["tests/test_resolutions.py::TestOffLowestStar"],
    ),
    (
        "moment_angle/complexes.py",
        "            out[d] = kept\n        return out\n",
        "            out[d] = kept\n        top = out[max(out)]\n        if len(top) > 1:\n            top[0] = top[1]\n        return out\n",
        ["tests/test_oracles.py::test_every_group_matches_sympy"],
    ),
    (
        "moment_angle/ring.py",
        "_coboundary_check(target, cochain, columns)\n",
        "pass\n",
        ["tests/test_checks.py::test_corrupted_representative_is_refused_in_the_pair_loop"],
    ),
    (
        "moment_angle/ring.py",
        "cochain[face] = a * b * shuffle_sign(left, right)",
        "cochain[face] = a * b",
        ["tests/test_ring.py::TestSupportProducts"],
    ),
    (
        "moment_angle/ring.py",
        "flip = d1 % 2 == 0 and d2 % 2 == 0",
        "flip = not (d1 % 2 == 0 and d2 % 2 == 0)",
        ["tests/test_ring.py::TestBlockProducts::test_skipped_pairs_are_zero"],
    ),
    (
        "moment_angle/homology.py",
        '        if len(vec) != basis.n:\n            raise NotACocycle(f"cochain has length {len(vec)}, expected {basis.n}")\n',
        "",
        ["tests/test_homology.py::TestCohomologyBasis::test_degrees_without_faces"],
    ),
    (
        "moment_angle/ring.py",
        "support = _positions(cls.cochain, store.index(cls.subset, cls.degree))",
        "support = _positions(cls.cochain, store.index(cls.subset, cls.degree - 1))",
        ["tests/test_ring.py::TestGeneratorClasses"],
    ),
    (
        "moment_angle/ring.py",
        '        if basis.group != group:\n            raise BasisMismatch(\n'
        '                f"block ({vertices_of(subset)}, {degree}) has basis group "\n'
        '                f"{basis.group}, the table {group}"\n            )\n',
        "",
        ["tests/test_ring.py::TestPairedBases::test_a_paired_block_off_the_table_is_refused"],
    ),
    (
        "moment_angle/ring.py",
        "key = self.complex.shape_key(subset)",
        "key = subset.bit_count()",
        ["tests/test_ring.py::TestSharedBases::test_every_shared_degree_matches_a_fresh_basis"],
    ),
    (
        "moment_angle/resolutions.py",
        "first.setdefault(complex_.shape_key(s), s)",
        "first.setdefault(s.bit_count(), s)",
        ["tests/test_resolutions.py::TestSharedStrata"],
    ),
    (
        "moment_angle/complexes.py",
        "key = (ids[rest], ids[subset ^ second])",
        "key = (ids[rest], ids[rest])",
        ["tests/test_complexes.py::TestSubsetShape::test_table_matches_a_direct_scan"],
    ),
    (
        "moment_angle/complexes.py",
        "key += (both,)",
        "key += ()",
        ["tests/test_complexes.py::TestSubsetShape::test_table_matches_a_direct_scan"],
    ),
]


def pytest(copy: Path, selection: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        selections = sorted({test for *_, selection in MUTANTS for test in selection})
        start = time.perf_counter()
        status = pytest(copy, selections)
        print(f"unmutated: exit {status} in {time.perf_counter() - start:.1f} s")
        if status:
            return 1
        survivors = 0
        for number, (name, text, replacement, selection) in enumerate(MUTANTS, 1):
            path = copy / "src" / name
            source = path.read_text()
            if source.count(text) != 1:
                print(f"mutant {number}: its text occurs {source.count(text)} times in {name}")
                return 1
            path.write_text(source.replace(text, replacement))
            start = time.perf_counter()
            status = pytest(copy, selection)
            path.write_text(source)
            verdict = "killed" if status == 1 else f"SURVIVED (exit {status})"
            print(f"mutant {number} in {name}: {verdict} in {time.perf_counter() - start:.1f} s")
            survivors += status != 1
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
