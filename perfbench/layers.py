"""What the traced run times and counts, and the per-layer metrics it yields.

The layers are the library's modules.  A span is recorded around every
call of the functions in SPANNED, a plain call counter sits on the hot
methods in COUNTED, and a few observers turn a call's arguments or result
into a work count (monics sieved, classes built, bytes tabled).  Nothing
here edits the library: the wrappers are installed from outside, into
every module namespace that holds the original function.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from ffcount.exactcount import slot_bits

SPANNED = (
    ("cli", "main"),
    ("algebra", "enumerate_irreducibles"),
    ("characters", "unit_group"),
    ("characters", "UnitGroup.irreducible_classes"),
    ("characters", "twisted_series"),
    ("characters", "l_polynomial"),
    ("characters", "weil_check"),
    ("apinterval", "ap_series"),
    ("apinterval", "pi_k_ap_chars"),
    ("apinterval", "pi_k_ap_exact"),
    ("apinterval", "pi_k_interval_exact"),
    ("exactcount", "euler_product_squarefree"),
    ("exactcount", "euler_product_allfactors"),
    ("exactcount", "omega_moments"),
    ("exactcount", "omega_mean_exact"),
    ("asym", "main_term_thm1"),
    ("asym", "main_term_thm2"),
    ("asym", "main_term_thm3"),
    ("asym", "thm1_normalized_error"),
)

COUNTED = (
    ("characters", "UnitGroup.mul"),
    ("apinterval", "GroupSeries.count"),
)

# (metric, unit, better); BENCHMARK.json's per_layer list is this table
PER_LAYER = (
    ("algebra.enumerate_irreducibles.self_s", "s", "lower"),
    ("algebra.enumerate_irreducibles.calls", "count", "lower"),
    ("algebra.enumerate_irreducibles.monics_sieved", "count", "lower"),
    ("algebra.enumerate_irreducibles.useful_ratio", "ratio", "higher"),
    ("characters.unit_group.self_s", "s", "lower"),
    ("characters.unit_group.calls", "count", "lower"),
    ("characters.unit_group.order_sum", "count", "lower"),
    ("characters.UnitGroup.mul.calls", "count", "lower"),
    ("characters.UnitGroup.irreducible_classes.self_s", "s", "lower"),
    ("characters.UnitGroup.irreducible_classes.calls", "count", "lower"),
    ("characters.twisted_series.self_s", "s", "lower"),
    ("characters.twisted_series.calls", "count", "lower"),
    ("characters.chars_swept", "count", "lower"),
    ("characters.l_polynomial.self_s", "s", "lower"),
    ("characters.l_polynomial.calls", "count", "lower"),
    ("characters.weil_check.self_s", "s", "lower"),
    ("apinterval.ap_series.self_s", "s", "lower"),
    ("apinterval.ap_series.calls", "count", "lower"),
    ("apinterval.ap_series.classes_built", "count", "lower"),
    ("apinterval.ap_series.table_bytes", "bytes", "lower"),
    ("apinterval.useful_ratio", "ratio", "higher"),
    ("apinterval.pi_k_ap_chars.self_s", "s", "lower"),
    ("apinterval.pi_k_ap_chars.calls", "count", "lower"),
    ("apinterval.pi_k_ap_exact.self_s", "s", "lower"),
    ("apinterval.pi_k_interval_exact.self_s", "s", "lower"),
    ("exactcount.euler_product_squarefree.self_s", "s", "lower"),
    ("exactcount.euler_product_squarefree.calls", "count", "lower"),
    ("exactcount.euler_product_squarefree.cells", "count", "lower"),
    ("exactcount.euler_product_squarefree.packed_bytes", "bytes", "lower"),
    ("exactcount.euler_product_allfactors.self_s", "s", "lower"),
    ("exactcount.omega_moments.self_s", "s", "lower"),
    ("exactcount.omega_mean_exact.self_s", "s", "lower"),
    ("asym.main_term_thm1.self_s", "s", "lower"),
    ("asym.main_term_thm1.calls", "count", "lower"),
    ("asym.main_term_thm2.self_s", "s", "lower"),
    ("asym.main_term_thm2.calls", "count", "lower"),
    ("asym.main_term_thm3.self_s", "s", "lower"),
    ("asym.main_term_thm3.calls", "count", "lower"),
    ("asym.thm1_normalized_error.self_s", "s", "lower"),
    ("asym.thm1_normalized_error.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, cid: str):
        self.cid = cid
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sieved: dict[tuple, tuple[int, int]] = {}
        self.unit_group = None  # the unwrapped, cached unit_group
        self.built_groups = 0

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every ffcount namespace holding it."""
        self.unit_group = sys.modules["ffcount.characters"].unit_group
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            self._patch(module, attr, lambda fn, n=name: self.span(n, fn, _OBSERVERS.get(n)))
        for module, attr in COUNTED:
            name = f"{module}.{attr}.calls"
            self._patch(module, attr, lambda fn, n=name: self.counter(n, fn))

    @staticmethod
    def _patch(module: str, attr: str, make) -> None:
        mod = sys.modules[f"ffcount.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "ffcount" or name.startswith("ffcount."):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["algebra.enumerate_irreducibles.monics_sieved"] = sum(
            s for s, _ in self.sieved.values())
        counts["algebra.enumerate_irreducibles.returned"] = sum(
            r for _, r in self.sieved.values())
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:  # still open: the process is exiting inside it
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"cmd": self.cid, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"cmd": self.cid, "counters": counts}) + "\n")


def _obs_irreducibles(tr, args, kwargs, result):
    fld, n = args[0], args[1]
    if result is not None:
        tr.sieved[(fld.key, n)] = (fld.q ** n, len(result))


def _obs_unit_group(tr, args, kwargs, result):
    # sum the orders of groups actually built, not of cache hits
    misses = tr.unit_group.cache_info().misses
    if result is not None and misses != tr.built_groups:
        tr.built_groups = misses
        tr.counts["characters.unit_group.order_sum"] += result.order


def _obs_chars(tr, args, kwargs, result):
    qy = args[0] if args else kwargs["qy"]
    tr.counts["characters.chars_swept"] += tr.unit_group(qy.d).order


def _obs_ap_series(tr, args, kwargs, result):
    if result is not None:
        order, N, K = result.group.order, result.N, result.K
        tr.counts["apinterval.ap_series.classes_built"] += order
        tr.counts["apinterval.ap_series.table_bytes"] += (
            order * (N + 1) * (K + 1) * slot_bits(result.group.q, N) // 8)


def _obs_squarefree(tr, args, kwargs, result):
    if result is not None:
        cells = (result.N + 1) * (result.K + 1)
        tr.counts["exactcount.euler_product_squarefree.cells"] += cells
        tr.counts["exactcount.euler_product_squarefree.packed_bytes"] += (
            cells * slot_bits(result.q, result.N) // 8)


_OBSERVERS = {
    "algebra.enumerate_irreducibles": _obs_irreducibles,
    "characters.unit_group": _obs_unit_group,
    "apinterval.pi_k_ap_chars": _obs_chars,
    "apinterval.ap_series": _obs_ap_series,
    "exactcount.euler_product_squarefree": _obs_squarefree,
}


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the part its children cover.

    spans: dicts with id, name, start, end and parent (an id or None).
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(out)


def layer_metrics(records, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    records: every JSON line the repetition's traced processes wrote.
    """
    spans_by_cmd = defaultdict(list)
    counts: Counter = Counter()
    for r in records:
        if "counters" in r:
            counts.update(r["counters"])
        else:
            spans_by_cmd[r["cmd"]].append(r)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for spans in spans_by_cmd.values():
        for name, t in self_times(spans).items():
            self_s[name] += t
        calls.update(s["name"] for s in spans)
    sieved = counts["algebra.enumerate_irreducibles.monics_sieved"]
    built = counts["apinterval.ap_series.classes_built"]
    derived = {
        "algebra.enumerate_irreducibles.useful_ratio":
            counts["algebra.enumerate_irreducibles.returned"] / sieved if sieved else 0.0,
        "apinterval.useful_ratio":
            counts["apinterval.GroupSeries.count.calls"] / built if built else 0.0,
        "cli.report_bytes": report_bytes,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls") and metric[: -len(".calls")] in calls:
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric != "trace_overhead_frac":
            out[metric] = counts.get(metric, 0)
    return out
