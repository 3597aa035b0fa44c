"""Tracing of the mospaces layers from outside the program.

``Tracer.install`` replaces each layer's public functions with span-recording
wrappers in every module namespace that binds them (``classify`` and ``cli``
import ``luxemburg_norm`` and friends by name, so patching only the defining
module would miss their calls).  Curve evaluation, ``inverse_upper`` and
``StepFunction`` construction are too frequent for spans; they are counters,
attributed to the innermost open span.

Spans are kept in memory as columns (name, parent, op, start, end) and
written out when the run ends.  ``reduce_spans`` turns them into the
per-layer metrics; it is a pure function so it can be checked on a
hand-built span tree.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# counter slots, attributed to the innermost open span's name
VALUE_SLOTS = ("value.power", "value.linear", "value.indicator", "value.piecewise")
SLOTS = VALUE_SLOTS + ("inverse_upper", "stepfunctions", "stepfunction_ns")
_INV, _SF, _SF_NS = (SLOTS.index(s) for s in ("inverse_upper", "stepfunctions", "stepfunction_ns"))

ROOT = "cli.op"  # one per CLI invocation, opened by the benchmark around main()

# defining module -> public functions wrapped as spans named "<module>.<function>"
SPAN_FUNCTIONS = {
    "curves": ("conjugate",),
    "musielak": (
        "modular",
        "luxemburg_norm",
        "unit_sphere_point",
        "amemiya_norm",
        "partition",
        "weights",
        "modular_of_bounds",
        "decomposition_norm",
        "conjugate_field",
    ),
    "interpolation": (
        "wsum_norm",
        "wint_norm",
        "sum_dual_norm",
        "int_dual_norm",
        "witness_sum",
        "witness_int",
        "verify_sum_certificate",
        "verify_int_certificate",
        "classify_sum",
        "classify_int",
        "order_continuity_check",
    ),
    "classify": (
        "classify",
        "classify_orlicz",
        "find_nonsquare_setup",
        "build_nonsquare_witness",
        "verify_nonsquare",
    ),
    "probes": ("roughness_probe", "slice_diameter_lb", "daugavet_condition_probe"),
    "cli": ("parse_space", "parse_x", "make_report", "jsonify"),
}

# functions returning a VerificationRecord; its sample counts feed the ratios
_RECORD_SPANS = (
    "interpolation.verify_sum_certificate",
    "interpolation.verify_int_certificate",
    "classify.verify_nonsquare",
)

# span groups the per-layer metrics are built from
STRUCTURE = (
    "musielak.partition",
    "musielak.weights",
    "musielak.modular_of_bounds",
    "musielak.decomposition_norm",
)
INTERP_NORMS = (
    "interpolation.wsum_norm",
    "interpolation.wint_norm",
    "interpolation.sum_dual_norm",
    "interpolation.int_dual_norm",
)
INTERP_WITNESS = ("interpolation.witness_sum", "interpolation.witness_int")
INTERP_VERIFY = ("interpolation.verify_sum_certificate", "interpolation.verify_int_certificate")
DECIDE = (
    "classify.classify",
    "classify.classify_orlicz",
    "interpolation.classify_sum",
    "interpolation.classify_int",
    "interpolation.order_continuity_check",
)
NONSQUARE_WITNESS = ("classify.build_nonsquare_witness", "classify.find_nonsquare_setup")
PROBES = ("probes.roughness_probe", "probes.slice_diameter_lb", "probes.daugavet_condition_probe")
ORACLES = ("musielak.luxemburg_norm", "musielak.amemiya_norm") + INTERP_NORMS
PARSE = ("cli.json.load", "cli.parse_space", "cli.parse_x")
REPORT = ("cli.make_report", "cli.jsonify", "cli.json.dumps", "cli.write")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.totals: list[list[int]] = []  # per span name, one entry per slot
        self.records: dict[str, list[int]] = {}  # span name -> [calls, requested, accepted]
        self.op = -1
        self._stack = [-1]
        self._outside = [0] * len(SLOTS)
        self._cur = self._outside  # totals of the innermost open span's name
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0] * len(SLOTS))
        return nid

    def span(self, name: str, fn, outermost_only: bool = False, on_result=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self.name_id(name)
        totals = self.totals[nid]
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        now = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            if outermost_only and parent >= 0 and names[parent] == nid:
                return fn(*args, **kwargs)  # recursion: one span for the whole call
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            prev, self._cur = self._cur, totals
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
                self._cur = prev
            if on_result is not None:
                on_result(result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, slot: int, fn):
        def wrapped(obj, arg):
            self._cur[slot] += 1
            return fn(obj, arg)

        return wrapped

    def _timed_init(self, fn):
        now = time.perf_counter_ns

        def wrapped(obj, *args, **kwargs):
            t0 = now()
            fn(obj, *args, **kwargs)
            cur = self._cur
            cur[_SF] += 1
            cur[_SF_NS] += now() - t0

        return wrapped

    def _record_hook(self, name: str):
        acc = self.records.setdefault(name, [0, 0, 0])

        def hook(record):
            acc[0] += 1
            acc[1] += record.samples_requested
            acc[2] += record.samples_accepted

        return hook

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, orig, repl):
        """Rebind ``orig`` to ``repl`` in every mospaces module namespace."""
        for modname, mod in list(sys.modules.items()):
            if modname != "mospaces" and not modname.startswith("mospaces."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, repl)
                    self._patches.append((mod, key, orig))

    def _replace_attr(self, owner, key, repl):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, repl)

    def install(self):
        curves = importlib.import_module("mospaces.curves")
        grid = importlib.import_module("mospaces.grid")
        for layer, functions in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"mospaces.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                orig = getattr(mod, fname)
                hook = self._record_hook(name) if name in _RECORD_SPANS else None
                repl = self.span(name, orig, outermost_only=(fname == "jsonify"), on_result=hook)
                self._replace_everywhere(orig, repl)
        for slot, cls in zip(
            VALUE_SLOTS, (curves.Power, curves.Linear, curves.Indicator, curves.PiecewiseLinear)
        ):
            self._replace_attr(cls, "value", self._counter(SLOTS.index(slot), cls.__dict__["value"]))
            self._replace_attr(cls, "inverse_upper", self._counter(_INV, cls.__dict__["inverse_upper"]))
        self._replace_attr(grid.StepFunction, "__init__", self._timed_init(grid.StepFunction.__init__))
        cli = sys.modules["mospaces.cli"]
        self._replace_attr(cli, "json", _JsonProxy(cli.json, self))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- output -----------------------------------------------------------

    def spans(self):
        """Spans as (name, parent, op, start_ns, end_ns) tuples."""
        names = self.names
        return [
            (names[n], p, o, s, e)
            for n, p, o, s, e in zip(
                self.name_col, self.parent_col, self.op_col, self.start_col, self.end_col
            )
        ]

    @property
    def counts_outside_spans(self) -> int:
        """Counter events with no open span; the root span makes this 0."""
        return sum(self._outside)

    def counts(self) -> dict:
        return {name: dict(zip(SLOTS, self.totals[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Spans (one JSON array per line) and the counter totals, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            header = {"names": self.names, "slots": list(SLOTS), "counts": self.totals}
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name_col, self.parent_col, self.op_col, self.start_col, self.end_col):
                fh.write("%d,%d,%d,%d,%d\n" % row)


class _JsonProxy:
    """Stands in for ``json`` inside ``mospaces.cli``: load and dumps become spans."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self.load = tracer.span("cli.json.load", real.load)
        self.dumps = tracer.span("cli.json.dumps", real.dumps)

    def __getattr__(self, key):
        return getattr(self._real, key)


# --------------------------------------------------------------------------
# reduction


def unit(metric: str) -> str:
    if metric.endswith("ops_per_s"):
        return "op/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", "_per_call")):
        return "ratio"
    return "count"


def self_times(spans) -> list[int]:
    """Per span: duration minus the time its child spans cover."""
    child = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(spans)]


def _outermost(spans, i, group) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] in group:
            return False
        parent = spans[parent][1]
    return True


def reduce_spans(spans, counts: dict, records: dict, op_cells: dict) -> dict:
    """Per-layer metrics from spans, counter totals and verification records.

    ``spans`` holds (name, parent index, op id, start_ns, end_ns) tuples,
    ``counts`` maps span name -> counter slot -> total, ``records`` maps a
    verifier span name -> [calls, samples requested, samples accepted], and
    ``op_cells`` maps op id -> grid size n.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    cells: dict[str, int] = {}  # sum of n over calls, for evals per call
    for i, (name, _, op, start, end) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        total_ns[name] = total_ns.get(name, 0) + end - start
        cells[name] = cells.get(name, 0) + op_cells.get(op, 0)

    def s(ns):
        return ns / 1e9

    def self_s(group):
        return s(sum(self_ns.get(n, 0) for n in group))

    def outer_s(group):
        return s(
            sum(
                end - start
                for i, (name, _, _, start, end) in enumerate(spans)
                if name in group and _outermost(spans, i, group)
            )
        )

    def slot(name, key):
        return counts.get(name, {}).get(key, 0)

    def value_calls(name=None):
        names = counts if name is None else (name,)
        return sum(slot(n, k) for n in names for k in VALUE_SLOTS)

    def per_call(name):
        den = cells.get(name, 0)
        return value_calls(name) / den if den else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    children_of = {}
    for name, parent, _, _, _ in spans:
        if parent >= 0:
            key = (spans[parent][0], name)
            children_of[key] = children_of.get(key, 0) + 1

    interp_rec = [sum(records.get(n, [0, 0, 0])[k] for n in INTERP_VERIFY) for k in range(3)]
    nonsq_rec = records.get("classify.verify_nonsquare", [0, 0, 0])
    lux = "musielak.luxemburg_norm"
    usp = "musielak.unit_sphere_point"
    ame = "musielak.amemiya_norm"
    return {
        "curves.value_calls": value_calls(),
        "curves.conjugate_calls": calls.get("curves.conjugate", 0),
        "curves.conjugate_s": s(total_ns.get("curves.conjugate", 0)),
        "curves.inverse_upper_calls": sum(slot(n, "inverse_upper") for n in counts),
        "grid.stepfunctions_built": sum(slot(n, "stepfunctions") for n in counts),
        "grid.stepfunction_s": s(sum(slot(n, "stepfunction_ns") for n in counts)),
        "musielak.modular_calls": calls.get("musielak.modular", 0),
        "musielak.modular_s": s(total_ns.get("musielak.modular", 0)),
        "musielak.luxemburg_calls": calls.get(lux, 0),
        "musielak.luxemburg_self_s": self_s((lux,)),
        "musielak.luxemburg_evals_per_call": per_call(lux),
        "musielak.unit_sphere_calls": calls.get(usp, 0),
        "musielak.unit_sphere_self_s": self_s((usp,)),
        "musielak.unit_sphere_evals_per_call": per_call(usp),
        "musielak.amemiya_calls": calls.get(ame, 0),
        "musielak.amemiya_self_s": self_s((ame,)),
        "musielak.amemiya_evals_per_call": per_call(ame),
        "musielak.structure_s": outer_s(STRUCTURE),
        "musielak.conjugate_field_s": s(total_ns.get("musielak.conjugate_field", 0)),
        "interpolation.norm_calls": sum(
            1
            for i, (name, _, _, _, _) in enumerate(spans)
            if name in INTERP_NORMS and _outermost(spans, i, INTERP_NORMS)
        ),
        "interpolation.norm_self_s": self_s(INTERP_NORMS),
        "interpolation.witness_s": self_s(INTERP_WITNESS),
        "interpolation.verify_self_s": self_s(INTERP_VERIFY),
        "interpolation.verify_accept_ratio": ratio(interp_rec[2], interp_rec[1]),
        "classify.decide_self_s": self_s(DECIDE),
        "classify.witness_self_s": self_s(NONSQUARE_WITNESS),
        "classify.verify_self_s": self_s(("classify.verify_nonsquare",)),
        "classify.verify_exact_share": ratio(
            children_of.get(("classify.verify_nonsquare", lux), 0), 2 * nonsq_rec[1]
        ),
        "probes.roughness_self_s": self_s(("probes.roughness_probe",)),
        "probes.slice_diameter_self_s": self_s(("probes.slice_diameter_lb",)),
        "probes.condition_self_s": self_s(("probes.daugavet_condition_probe",)),
        "probes.oracle_calls": sum(children_of.get((p, o), 0) for p in PROBES for o in ORACLES),
        "cli.parse_s": outer_s(PARSE),
        "cli.report_s": outer_s(REPORT),
        "cli.self_s": self_s((ROOT,)),
    }
