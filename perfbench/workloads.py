"""The four benchmark workloads: inputs, the calls made on them, and their oracles.

A workload is a list of items, one per input.  An item runs a chain of
steps; each step is one call into the library's public API on that input
(one "operation") and may use the results of the steps before it.  Every
step's result is reduced to a SHA-256 digest of a canonical JSON payload and
compared with ``golden.json``; some steps also carry an oracle that needs no
golden (three-method agreement, the paper checklist, the p28 test table).

Nothing here is timed: ``run.py`` times the steps and ``tracing.py`` splits
that time by module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("sweep", "ring", "tor", "corpus")
CORPUS_SIZE = 100
# Random complexes with more missing faces cost up to 2^12 Taylor monomials
# each; the few that do would decide the whole pass time.
CORPUS_MAX_MISSING = 10
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Step:
    name: str
    call: Callable  # (complex, results of earlier steps by name) -> result
    payload: Callable  # result -> JSON-able object whose digest is golden
    oracle: Callable | None = None  # (complex, result) -> failure reason or None


@dataclass
class Item:
    name: str
    complex: object
    steps: list
    golden_prefix: str
    needs_golden: bool = True


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- payloads -----------------------------------------------------------------


def table_payload(table) -> dict:
    return table.to_json_obj()


def ring_payload(presentation) -> dict:
    """The ``ring --json`` payload, built without sorting all G^2 products.

    ``ring_json_obj`` lists only nonzero products, so handing it a view
    that holds just those gives the same payload without the transient
    G^2-sized list that would otherwise dominate the workload's peak RSS.
    """
    from moment_angle.ring import ring_json_obj

    view = SimpleNamespace(
        complex=presentation.complex,
        generators=presentation.generators,
        products={key: terms for key, terms in presentation.products.items() if terms},
        has_torsion=presentation.has_torsion,
        fundamental_id=presentation.fundamental_id,
    )
    return ring_json_obj(view)


def crosscheck_payload(report) -> dict:
    return {
        "ok": report.ok,
        "bidegrees": [[i, j, g.rank, list(g.torsion)] for (i, j), g in sorted(report.bidegrees.items())],
        "strata_checked": report.strata_checked,
    }


def verification_payload(result) -> dict:
    return {
        "consistent": result.consistent,
        "model": result.model.describe(),
        "additive_ok": result.additive_ok,
        "pairing_ok": result.pairing_ok,
        "product_rank_ok": result.product_rank_ok,
        "top_products_ok": result.top_products_ok,
        "mismatches": [list(map(str, m)) for m in result.mismatches],
        "degree_contributions": {
            str(p): [[list(dims), sub, times] for dims, sub, times in rows]
            for p, rows in sorted(result.degree_contributions.items())
        },
    }


def checklist_payload(items) -> dict:
    from moment_angle.reproduction import checklist_json_obj

    return checklist_json_obj(items)


# -- oracles that need no golden ----------------------------------------------


def _must_verify(_complex, result):
    return None if result.consistent else f"model mismatch: {result.mismatches[:2]}"


def _must_pass(_complex, items):
    failed = [item.name for item in items if not item.passed]
    return f"checklist items failed: {failed}" if failed else None


def _must_agree(_complex, report):
    return None if report.ok else "three methods disagree"


def _p28_matches_test_data(root: Path):
    """The agreed Tor table of p28 against the repository's p28_zk.json."""
    data = json.loads((root / "tests" / "data" / "p28_zk.json").read_text())
    want: dict = {}
    for entry in data["bigraded"]:
        size = len(entry["J"])
        key = (size - entry["d"] - 1, size)
        want[key] = want.get(key, 0) + entry["rank"]
    want = {key: rank for key, rank in want.items() if rank}

    def oracle(_complex, report):
        if not report.ok:
            return "three methods disagree"
        got = {key: g.rank for key, g in report.bidegrees.items() if g.rank}
        torsion = [key for key, g in report.bidegrees.items() if g.torsion]
        if got != want or torsion:
            return "p28 Tor table differs from tests/data/p28_zk.json"
        return None

    return oracle


def _generators_match_table(_complex, presentation):
    """Generators are exactly the free ranks of the positive-degree blocks."""
    want = sum(
        group.rank
        for (subset, d), group in presentation.table.entries.items()
        if subset.bit_count() + d + 1 > 0
    )
    got = len(presentation.generators)
    return None if got == want else f"{got} generators for {want} free classes"


# -- inputs -------------------------------------------------------------------


def cycle_with_chords():
    """The 7-cycle plus the crossing chords {1, 4} and {2, 6}.

    12 missing faces and no triangles: 4096 Taylor monomials against a
    Koszul basis of 864, so the Taylor complex dominates.
    """
    from moment_angle import SimplicialComplex

    edges = [(i, i % 7 + 1) for i in range(1, 8)] + [(1, 4), (2, 6)]
    return SimplicialComplex(7, edges)


def rp2_6():
    """The 6-vertex real projective plane: H_1 = Z/2, so the dense SNF core runs."""
    from moment_angle import SimplicialComplex

    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return SimplicialComplex(6, facets)


def build_inputs(workload: str, corpus_seed: int) -> list:
    """(name, complex) pairs; building them is the workload's set-up cost."""
    import moment_angle as ma

    if workload == "sweep":
        return [
            ("polygon(14)", ma.polygon(14)),
            ("truncated_simplex(4,8)", ma.truncated_simplex(4, 8)),
            ("cross_polytope(5)", ma.cross_polytope(5)),
        ]
    if workload == "ring":
        return [("polygon(9)", ma.polygon(9)), ("polygon(8)", ma.polygon(8))]
    if workload == "tor":
        return [
            ("p28", ma.construct_p28_8()),
            ("truncated_simplex(5,2)", ma.truncated_simplex(5, 2)),
            ("7-cycle+chords{1,4}{2,6}", cycle_with_chords()),
            ("rp2_6", rp2_6()),
        ]
    if workload == "corpus":
        complexes = ma.random_complexes(CORPUS_SIZE, seed=corpus_seed, max_missing=CORPUS_MAX_MISSING)
        return [("checklist", None)] + [(f"#{i}", c) for i, c in enumerate(complexes)]
    raise ValueError(f"unknown workload {workload!r}")


def build_items(workload: str, inputs: list, corpus_seed: int, root: Path) -> list:
    # calls look the library up when they run, so a tracer installed later sees them
    import moment_angle as ma
    from moment_angle import reproduction

    betti = Step("bigraded_betti", lambda c, _r: ma.bigraded_betti(c, threads=1), table_payload)
    items = []
    for name, complex_ in inputs:
        prefix = f"{workload}/{name}"
        if workload == "sweep":
            steps = [betti]
        elif workload == "ring" and name == "polygon(9)":
            steps = [Step("ring_presentation", lambda c, _r: ma.ring_presentation(c, threads=1), ring_payload)]
        elif workload == "ring":
            model = reproduction.mcgavran_model(2, 5)  # polygon(8) is truncated_simplex(2, 5)
            steps = [
                Step(
                    "verify_csp_model",
                    lambda c, _r, model=model: ma.verify_csp_model(c, model, threads=1),
                    verification_payload,
                    _must_verify,
                )
            ]
        elif workload == "tor":
            oracle = _p28_matches_test_data(root) if name == "p28" else _must_agree
            steps = [Step("cross_check", lambda c, _r: ma.cross_check(c, threads=1), crosscheck_payload, oracle)]
        elif name == "checklist":
            steps = [Step("run_checklist", lambda _c, _r: reproduction.run_checklist(threads=1), checklist_payload, _must_pass)]
            prefix = "corpus/checklist"
        else:
            steps = [
                betti,
                Step(
                    "cross_check",
                    lambda c, r: ma.cross_check(c, table=r["bigraded_betti"]),
                    crosscheck_payload,
                    _must_agree,
                ),
                Step(
                    "ring_presentation",
                    lambda c, r: ma.ring_presentation(c, table=r["bigraded_betti"]),
                    ring_payload,
                    _generators_match_table,
                ),
            ]
            prefix = f"corpus/{corpus_seed}/{name}"
        # corpus seeds without goldens fall back on the oracles
        items.append(Item(name, complex_, steps, prefix, needs_golden=workload != "corpus" or name == "checklist"))
    return items


def ordered(items: list, seed: int) -> list:
    """The run order of the inputs, drawn from the benchmark seed."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
