"""Per-module tracing of the library from outside it.

``Tracer.install`` replaces the entry points of each module (and the
internal stages the ROADMAP names, which have no public entry point) with
timing wrappers, wherever callers look them up: a function imported into
several modules is replaced under every name that refers to it.
``Tracer.uninstall`` puts the originals back.

Each wrapped call is a span.  Spans nest through a stack, so a span's self
time is its duration minus the time of the spans it caused.  Hot inner
calls (``star_product`` alone runs millions of times) are kept only as
per-parent aggregates: calls, total and self time keyed by (name, parent
name).  The per-input entry points marked ``record`` also keep one span
record per call, written out at the end of a traced run.

Tracing runs in-process only: use ``threads=1``, since pool workers return
no spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "item"

# Which end-to-end metric each layer should move, and on which workload.
MOVES = {
    "complexes.subset_faces": "sweep wall_s",
    "hochster": "sweep wall_s; peak_rss_mb through the entries held",
    "homology.chain": "sweep wall_s",
    "homology.cocycle_basis": "ring wall_s",
    "homology.express": "ring wall_s",
    "snf.sparse": "wall_s on sweep, tor and corpus, not on ring",
    "snf.unit_elim": "wall_s on sweep, tor and corpus, not on ring",
    "snf.dense_core": "wall_s on sweep, tor and corpus, not on ring",
    "snf.tracked": "ring wall_s",
    "resolutions": "tor wall_s; corpus wall_s and item_p90_s",
    "ring": "ring wall_s and peak_rss_mb; neither sweep nor tor",
    "classify.verify": "corpus wall_s; ring wall_s",
    "classify": "corpus wall_s",
    "reproduction": "corpus wall_s",
    "trace": "none: the cost of tracing itself",
}

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def moves(metric: str) -> str:
    """The MOVES entry with the longest prefix of the metric's name."""
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        prefix = ".".join(parts[:n])
        if prefix in MOVES:
            return MOVES[prefix]
    raise KeyError(metric)


# -- counters taken from each call's arguments and result ---------------------


def _faces_out(counts, args, result):
    counts["faces_out"] += sum(len(faces) for faces in result.values())


def _prune(counts, args, result):
    counts["subsets_kept"] += bool(result)


def _sweep(counts, args, result):
    counts["nonzero_entries"] += len(result.entries)


def _boundary(counts, args, result):
    counts["boundary_nnz"] += sum(len(row) for row in result.values())


def _sparse(counts, args, result):
    rows = [row for row in args[0].values() if row]
    counts["sparse_nnz_in"] += sum(len(row) for row in rows)
    if len(rows) > counts["unit_elim_max_rows"]:
        counts["unit_elim_max_rows"] = len(rows)


def _pivots(counts, args, result):
    counts["pivots"] += result


def _dense_cells(counts, args, result):
    d = args[0]
    counts["dense_cells"] += len(d) * (len(d[0]) if d else 0)


def _tracked_cells(counts, args, result):
    counts["tracked_cells"] += result.rows * result.cols


def _koszul(counts, args, result):
    from moment_angle.resolutions import koszul_basis_size

    counts["koszul_basis"] += koszul_basis_size(args[0])


def _taylor(counts, args, result):
    counts["taylor_monomials"] += 1 << len(result.missing)
    counts["taylor_strata"] += len(result.strata)


def _presentation(counts, args, result):
    gens = len(result.generators)
    counts["generators"] += gens
    counts["pairs"] += gens * gens
    counts["products_stored"] += len(result.products)


def _star(counts, args, result):
    counts["star_nonzero"] += not result.is_zero


# (module, attribute path, span name, counter, keep one record per call)
PATCHES = (
    ("complexes", "SimplicialComplex.subset_faces_by_dim", "complexes.subset_faces", _faces_out, False),
    ("hochster", "_covered_by_missing", "hochster.prune", _prune, False),
    ("hochster", "bigraded_betti", "hochster.sweep", _sweep, True),
    ("homology", "ChainComplexZ.of_subset", "homology.chain", None, False),
    ("homology", "ChainComplexZ.boundary_entries", "homology.boundary_entries", _boundary, False),
    ("homology", "_DegreeBasis.__init__", "homology.cocycle_basis", None, False),
    ("homology", "_DegreeBasis.express", "homology.express", None, False),
    ("snf", "invariant_factors_sparse", "snf.sparse", _sparse, False),
    ("snf", "_sparse_unit_reduction", "snf.unit_elim", _pivots, False),
    ("snf", "_diag_snf", "snf.dense_core", _dense_cells, False),
    ("snf", "smith_normal_form", "snf.tracked", _tracked_cells, False),
    ("resolutions", "koszul_bigraded", "resolutions.koszul", _koszul, True),
    ("resolutions", "taylor_bigraded", "resolutions.taylor", _taylor, True),
    ("resolutions", "cross_check", "resolutions.cross_check", None, True),
    ("ring", "ring_presentation", "ring.presentation", _presentation, True),
    ("ring", "star_product", "ring.star_product", _star, False),
    ("ring", "RingPresentation.block_generators", "ring.block_generators", None, False),
    ("ring", "RingPresentation.express_class", "ring.express_class", None, False),
    ("ring", "RingPresentation.product_class", "ring.product_class", None, False),
    ("ring", "product_span_rank", "ring.span_rank", None, True),
    ("classify", "verify_csp_model", "classify.verify", None, True),
    ("classify", "csp_obstructions", "classify.obstructions", None, True),
    ("classify", "induced_cycles", "classify.induced_cycles", None, False),
    ("reproduction", "run_checklist", "reproduction.checklist", None, True),
)


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.agg: dict = {}  # (name, parent name) -> [calls, total s, self s]
        self.spans: list = []  # (id, parent id, name, start, end) of recorded spans
        self._stack = [[0.0, ROOT_SPAN, None]]  # [child time, name, span id]
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, counter, record):
        stack, agg, counts, spans = self._stack, self.agg, self.counts, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, len(spans) if record else None]
            if record:
                spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - start
            key = (name, parent[1])
            entry = agg.get(key)
            if entry is None:
                entry = agg[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]
            if record:
                spans[frame[2]] = (frame[2], parent[2], name, start, end)
            if counter is not None:
                counter(counts, args, result)
            # the parent's self time excludes this call and its bookkeeping
            parent[0] += clock() - start
            return result

        return traced

    @contextmanager
    def item(self, name: str):
        """One benchmark input: the root of the spans it causes."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, ROOT_SPAN, span_id])
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id] = (span_id, None, f"{ROOT_SPAN}:{name}", start, time.perf_counter())

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for module_name, *_ in PATCHES:
            importlib.import_module(f"moment_angle.{module_name}")
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "moment_angle" and m]
        for module_name, path, span, counter, record in PATCHES:
            owner = sys.modules[f"moment_angle.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: patch the class attribute itself
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span, counter, record))
                else:
                    new = self._wrap(raw, span, counter, record)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            new = self._wrap(original, span, counter, record)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, new)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def by_name(self) -> dict:
        """Span name -> [calls, total s, self s], summed over parents."""
        out: dict = {}
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def layer_metrics(self) -> dict:
        spans = self.by_name()
        counts = self.counts

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(*names):
            return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

        def total(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        visited = calls("hochster.prune")
        stars = calls("ring.star_product")
        tuples = self.agg.get(("ring.product_class", "ring.span_rank"), [0])[0]
        return {
            "complexes.subset_faces.calls": calls("complexes.subset_faces"),
            "complexes.subset_faces.self_s": self_s("complexes.subset_faces"),
            "complexes.subset_faces.faces_out": counts["faces_out"],
            "hochster.subsets_visited": visited,
            "hochster.subsets_kept": counts["subsets_kept"],
            "hochster.keep_ratio": ratio(counts["subsets_kept"], visited),
            "hochster.nonzero_entries": counts["nonzero_entries"],
            "hochster.prune.self_s": self_s("hochster.prune"),
            "hochster.sweep.self_s": self_s("hochster.sweep"),
            "homology.chain.calls": calls("homology.chain"),
            "homology.chain.self_s": self_s("homology.chain", "homology.boundary_entries"),
            "homology.chain.boundary_nnz": counts["boundary_nnz"],
            "homology.cocycle_basis.calls": calls("homology.cocycle_basis"),
            "homology.cocycle_basis.self_s": self_s("homology.cocycle_basis"),
            "homology.express.self_s": self_s("homology.express"),
            "snf.sparse.calls": calls("snf.sparse"),
            "snf.sparse.nnz_in": counts["sparse_nnz_in"],
            "snf.sparse.self_s": self_s("snf.sparse"),
            "snf.unit_elim.self_s": self_s("snf.unit_elim"),
            "snf.unit_elim.pivots": counts["pivots"],
            "snf.unit_elim.max_rows": counts["unit_elim_max_rows"],
            "snf.dense_core.calls": calls("snf.dense_core"),
            "snf.dense_core.cells": counts["dense_cells"],
            "snf.dense_core.self_s": self_s("snf.dense_core"),
            "snf.tracked.calls": calls("snf.tracked"),
            "snf.tracked.cells": counts["tracked_cells"],
            "snf.tracked.self_s": self_s("snf.tracked"),
            "resolutions.koszul.calls": calls("resolutions.koszul"),
            "resolutions.koszul.basis": counts["koszul_basis"],
            "resolutions.koszul.self_s": self_s("resolutions.koszul"),
            "resolutions.taylor.monomials": counts["taylor_monomials"],
            "resolutions.taylor.strata": counts["taylor_strata"],
            "resolutions.taylor.self_s": self_s("resolutions.taylor"),
            "ring.generators": counts["generators"],
            "ring.pairs": counts["pairs"],
            "ring.products_stored": counts["products_stored"],
            "ring.star_product.calls": stars,
            "ring.star_product.nonzero": counts["star_nonzero"],
            "ring.star_product.useful_ratio": ratio(counts["star_nonzero"], stars),
            "ring.star_product.self_s": self_s("ring.star_product"),
            "ring.block_generators.self_s": self_s("ring.block_generators"),
            "ring.express_class.self_s": self_s("ring.express_class"),
            "ring.span_rank.calls": calls("ring.span_rank"),
            "ring.span_rank.tuples": tuples,
            "ring.span_rank.self_s": self_s("ring.span_rank"),
            "classify.verify.self_s": self_s("classify.verify"),
            "classify.obstructions.self_s": self_s("classify.obstructions"),
            "classify.induced_cycles.self_s": self_s("classify.induced_cycles"),
            "reproduction.checklist_s": total("reproduction.checklist"),
        }

