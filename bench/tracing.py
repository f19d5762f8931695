"""Spans at the program's public boundaries, recorded from outside.

``Tracer.install`` replaces each boundary function with a timing wrapper in
every ``skewarm`` namespace that holds it (``deciders.forall_sandwich_zero``
as well as ``skewpoly.forall_sandwich_zero``), and the ``__mul__`` of the
three coefficient-sequence classes on the class, so calls made inside the
program are seen too.  Nothing under ``src/`` changes; ``uninstall`` puts the
originals back.  Spans stay in memory until ``write`` is called.

A span records its group (the layer metric it feeds), the function name, the
op it belongs to, its parent span and its start and end.  A group's self time
is the sum over its spans of the duration minus the time covered by child
spans; its call count is the number of its spans whose parent is not in the
same group (calls into the layer, not calls within it).
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# group -> (module, function names); "skewpoly.mul" names are class methods
BOUNDARIES = {
    "rings.build": (
        "rings",
        (
            "make_table_ring",
            "make_zmod",
            "make_direct_product",
            "make_trivial_extension",
            "make_galois_field",
            "make_quotient",
            "make_ideal",
            "make_bimodule",
        ),
    ),
    "rings.relabel": (
        "rings",
        ("random_relabeling", "relabel_ring", "make_isomorphism", "transport"),
    ),
    "rings.endo": ("rings", ("table_endomorphism", "frobenius", "product_endomorphism")),
    "deciders.element": (
        "deciders",
        (
            "is_reduced",
            "is_domain",
            "is_commutative",
            "is_semicommutative",
            "is_reversible",
            "is_symmetric",
            "is_rigid",
        ),
    ),
    "deciders.plain": ("deciders", ("check_armendariz_family",)),
    "deciders.laurent": ("deciders", ("check_laurent_q_alpha_skew",)),
    "deciders.series": ("deciders", ("check_powerseries_q_alpha_skew",)),
    "deciders.replay": ("deciders", ("replay_witness",)),
    "skewpoly.sandwich": (
        "skewpoly",
        ("forall_sandwich_zero", "forall_sandwich_zero_laurent", "forall_sandwich_zero_series"),
    ),
    "skewpoly.mul": (
        "skewpoly",
        ("SkewPoly.__mul__", "LaurentSkewPoly.__mul__", "TruncatedSkewSeries.__mul__"),
    ),
    "formats.definition": ("formats", ("load_ring_definition", "parse_ring_definition")),
    "formats.record": ("formats", ("verdict_to_record", "record_to_json")),
    "formats.record_parse": ("formats", ("parse_verdict_record", "witness_text_consistent")),
    "formats.manifest": ("formats", ("load_manifest",)),
    "corpus.expectations": ("corpus", ("run_expectations",)),
    "corpus.implication": ("corpus", ("run_implication_matrix",)),
    "corpus.transport": ("corpus", ("run_transport_consistency",)),
    "corpus.consistency": ("corpus", ("run_laurent_consistency", "run_series_consistency")),
    "cli": ("cli", ("main",)),
}

SEARCH_GROUPS = ("deciders.plain", "deciders.laurent", "deciders.series")
VERDICT_GROUPS = SEARCH_GROUPS + ("deciders.element",)

# per-layer metric -> the group whose self time (or calls into it) it reports
SELF_TIME = {
    "rings.build_s": "rings.build",
    "rings.relabel_s": "rings.relabel",
    "rings.endo_s": "rings.endo",
    "deciders.element_s": "deciders.element",
    "deciders.plain_s": "deciders.plain",
    "deciders.laurent_s": "deciders.laurent",
    "deciders.series_s": "deciders.series",
    "deciders.replay_s": "deciders.replay",
    "skewpoly.sandwich_s": "skewpoly.sandwich",
    "skewpoly.mul_s": "skewpoly.mul",
    "formats.definition_s": "formats.definition",
    "formats.record_s": "formats.record",
    "formats.record_parse_s": "formats.record_parse",
    "formats.manifest_s": "formats.manifest",
    "corpus.expectations_s": "corpus.expectations",
    "corpus.implication_s": "corpus.implication",
    "corpus.transport_s": "corpus.transport",
    "corpus.consistency_s": "corpus.consistency",
    "cli.self_s": "cli",
}
CALLS = {
    "rings.build_calls": "rings.build",
    "deciders.element_calls": "deciders.element",
    "deciders.plain_calls": "deciders.plain",
    "deciders.laurent_calls": "deciders.laurent",
    "deciders.series_calls": "deciders.series",
    "deciders.replay_calls": "deciders.replay",
    "skewpoly.sandwich_calls": "skewpoly.sandwich",
    "skewpoly.mul_calls": "skewpoly.mul",
    "cli.calls": "cli",
}
# counts derived from decider outcomes, not from span timing
COUNTS = (
    "deciders.repeat_calls",
    "deciders.blocked",
    "deciders.holds",
    "deciders.fails",
    "deciders.nominal_tuples",
)


def _search_request(group: str, args: dict) -> tuple[tuple, int]:
    """The repeat key (ring_id, images, property, envelope) of a search call
    and the nominal number of (p, q) coefficient tuples its budget guard
    counts."""
    ring = args["ring"]
    alpha = args.get("alpha")
    n = ring.size
    if group == "deciders.plain":
        degree = args["degree"]
        request = (args["variant"].value, "degree", degree)
        nominal = n ** (2 * (degree + 1))
    elif group == "deciders.laurent":
        window = tuple(args["window"])
        request = ("laurent", "window", window)
        nominal = n ** (sum(window) + 2)
    else:
        laurent = args["laurent"]
        lo = (-1 if args["min_exp"] is None else args["min_exp"]) if laurent else 0
        trunc = args["truncation"]
        request = ("series", "truncation", trunc, laurent, lo)
        nominal = n ** (2 * (trunc - lo))
    images = None if alpha is None else alpha.images
    return (ring.ring_id, images) + request, nominal


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self, prog):
        self.prog = prog
        self.op = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._seen_requests: set = set()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "skewarm"]
        for group, (modname, names) in BOUNDARIES.items():
            module = getattr(self.prog, modname)
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        self.missing.append(f"{modname}.{name}")
                        continue
                    original = vars(cls)[meth]
                    self._replace(cls, meth, self._wrap(group, name, original))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(group, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, group: str, name: str, fn):
        spans, stack = self.spans, self._stack
        search = group in SEARCH_GROUPS
        verdict = group in VERDICT_GROUPS
        signature = inspect.signature(fn) if search else None
        budget_error = self.prog.deciders.BudgetExceededError
        counts = self.counts
        seen = self._seen_requests

        def traced(*args, **kwargs):
            if search:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, nominal = _search_request(group, bound.arguments)
                if key in seen:
                    counts["deciders.repeat_calls"] += 1
                seen.add(key)
                counts["deciders.nominal_tuples"] += nominal
            index = len(spans)
            span = {
                "id": index,
                "parent": stack[-1] if stack else None,
                "op": self.op,
                "group": group,
                "name": name,
                "start": 0.0,
                "end": 0.0,
            }
            spans.append(span)
            stack.append(index)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if verdict:
                    counts["deciders.blocked"] += 1
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if verdict:
                counts["deciders.holds" if result.holds else "deciders.fails"] += 1
            return result

        return traced

    # ---------------------------------------------------------------- report

    def layer_metrics(self) -> dict[str, float]:
        """Self times, calls into each group and the decider counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, covered in zip(spans, child_time):
            group = span["group"]
            self_time[group] = self_time.get(group, 0.0) + span["end"] - span["start"] - covered
            parent = span["parent"]
            if parent is None or spans[parent]["group"] != group:
                calls[group] = calls.get(group, 0) + 1
        out: dict[str, float] = {}
        for metric, group in SELF_TIME.items():
            out[metric] = self_time.get(group, 0.0)
        for metric, group in CALLS.items():
            out[metric] = calls.get(group, 0)
        out.update(self.counts)
        searches = sum(calls.get(g, 0) for g in SEARCH_GROUPS)
        repeats = self.counts["deciders.repeat_calls"]
        out["deciders.repeat_ratio"] = repeats / searches if searches else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
