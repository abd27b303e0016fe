"""Span recorder for the traced run.

The program is left as it is: each layer function is wrapped where its
caller looks it up (a module global, a module attribute, or the worker's own
call table), and the wrapper records a span (name, start, end, parent,
query id).  Spans stay in memory and are written once, at the end.  A
function that has been renamed or moved is not wrapped, and shows up as a
missing span instead of a crash.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# span name -> per-layer time metric it feeds (self time, summed)
SPAN_METRICS = {
    "process.import": "process.import_s",
    "cli.ingest": "cli.ingest_s",
    "cli.run": "cli.emit_s",
    "searcher.plan": "searcher.plan_s",
    "qgramindex.build_index": "qgramindex.build_s",
    "searcher.search": "searcher.scan_self_s",
    "verifier.verify_block": "verifier.verify_s",
    "verifier.dedup_occurrences": "verifier.dedup_s",
    "bitparallel.min_start_distances": "bitparallel.screen_s",
    "_vectordp.min_prefix_distances": "vectordp.band_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = -1
        self.missing: list[str] = []

    def record(self, name: str, start: int, end: int) -> None:
        """A span measured by the caller, outside any wrapper."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.query))

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append((name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.query))
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx] = self.spans[idx][:2] + (time.perf_counter_ns(),) + self.spans[idx][3:]
            if after is not None:
                after(out, args)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a traced wrapper."""
        table = owner if isinstance(owner, dict) else vars(owner)
        if attr not in table:
            self.missing.append(name)
            return
        table[attr] = self.wrap(name, table[attr], after)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        table = vars(owner)
        if attr not in table:
            self.missing.append(counter)
            return
        fn = table[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        table[attr] = counted

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}, fh)


def instrument(tracer: Tracer, calls) -> None:
    """Wrap the layer functions below `calls`, the caller's table of
    plan / build_index / search: the CLI module or the worker's own dict."""
    from circmatch import bitparallel, searcher, verifier

    c = tracer.counts

    def planned(pln, _):
        c["searcher.plan_filter_queries"] += pln.mode == "filter"

    def built(idx, _):
        c["qgramindex.entries"] += len(idx.entries)

    def searched(result, args):
        _, st = result
        c["searcher.letters"] += len(args[0])
        c["searcher.windows_examined"] += st.windows_examined
        c["searcher.windows_verified"] += st.windows_verified
        c["searcher.qgrams_read"] += st.qgrams_read
        c["searcher.chars_inspected"] += st.chars_inspected

    def verified(occs, _):
        c["verifier.blocks"] += 1
        c["verifier.hit_blocks"] += bool(occs)

    def merged(occs, args):
        c["verifier.rows_in"] += len(args[0])
        c["verifier.rows_out"] += len(occs)

    def screened(_, __):
        c["bitparallel.screen_passes"] += 1

    def banded(_, __):
        c["vectordp.band_calls"] += 1

    tracer.patch(calls, "plan", "searcher.plan", planned)
    tracer.patch(calls, "build_index", "qgramindex.build_index", built)
    tracer.patch(calls, "search", "searcher.search", searched)
    tracer.count_calls(searcher, "filter_window", "searcher.filter_calls")
    tracer.patch(searcher, "verify_block", "verifier.verify_block", verified)
    tracer.patch(searcher, "dedup_occurrences", "verifier.dedup_occurrences", merged)
    tracer.patch(verifier, "dedup_occurrences", "verifier.dedup_occurrences")
    tracer.patch(verifier, "min_prefix_distances", "_vectordp.min_prefix_distances", banded)
    tracer.patch(bitparallel, "min_start_distances", "bitparallel.min_start_distances", screened)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child[i]) / 1e9
    return out
