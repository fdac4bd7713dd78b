"""In-process tracing for the benchmark's traced run.

Nothing here touches esgrisk's source. `install()` patches names in the
namespaces the pipeline calls them through (for example
`esgrisk.pipeline.tokenize` or `esgrisk.study.fit_market_model`) with
wrappers that record time and counts, and `restore()` puts the originals
back.

Stage-level calls are kept as spans (name, start, end, parent, run id).
Per-message calls are too many to keep one by one, so they fold into
per-name call counts and totals. Either way every finished call adds its
duration to the child time of the frame that encloses it, so a layer's
self time is its total minus the time of its traced children. Time spent
inside `next()` of a wrapped iterator is charged to the producer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: int


@dataclass
class _Frame:
    name: str
    start: float
    span: int | None  # index of the recorded span, None when folded
    child: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass
class Tracer:
    run_id: int = 0
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    stats: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[_Frame] = field(default_factory=list)

    def enter(self, name: str, record: bool = False) -> None:
        span = None
        if record:
            span = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, self._parent_span(), self.run_id))
        self._stack.append(_Frame(name, self.clock(), span))

    def exit(self) -> None:
        end = self.clock()
        frame = self._stack.pop()
        duration = end - frame.start
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.total += duration
        stat.child += frame.child
        if frame.span is not None:
            span = self.spans[frame.span]
            span.start, span.end = frame.start, end
        if self._stack:
            self._stack[-1].child += duration

    def current(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def call(self, name: str, fn, args, kwargs, record: bool = False):
        self.enter(name, record)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def iterate(self, name: str, items: Iterable) -> Iterator:
        """Yield from items, charging the time spent producing each one to `name`."""
        it = iter(items)
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item


OnResult = Callable[["Tracer", object, tuple], None]


class Patches:
    """Replaces attributes with traced wrappers and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def timed(self, owner, attr: str, name: str, record: bool = False,
              on_result: OnResult | None = None) -> None:
        tracer, fn = self.tracer, getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, record)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        self._swap(owner, attr, wrapper)

    def counted(self, owner, attr: str, on_result: OnResult) -> None:
        """Count-only wrapper for the hottest leaf calls, adding no clock reads."""
        tracer, fn = self.tracer, getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(tracer, result, args)
            return result

        self._swap(owner, attr, wrapper)

    def producer(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function so next() time is charged to `name`."""
        tracer, fn = self.tracer, getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return tracer.iterate(name, fn(*args, **kwargs))

        self._swap(owner, attr, wrapper)

    def consumer(self, owner, attr: str, name: str, records: str,
                 on_result: OnResult | None = None) -> None:
        """Wrap a function whose first argument is a record iterator: the
        call is a span and the iterator's next() time is charged to `records`."""
        tracer, fn = self.tracer, getattr(owner, attr)

        def wrapper(items, *args, **kwargs):
            result = tracer.call(name, fn, (tracer.iterate(records, items), *args), kwargs, True)
            if on_result is not None:
                on_result(tracer, result, (items, *args))
            return result

        self._swap(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _add(key: str, amount=1):
    def on_result(tracer: Tracer, result, args) -> None:
        tracer.counts[key] += amount(result) if callable(amount) else amount
    return on_result


def install(tracer: Tracer) -> Patches:
    """Patch every layer boundary the per-layer metrics are read from."""
    import esgrisk.aggregate as aggregate
    import esgrisk.ingest as ingest
    import esgrisk.lexicon as lexicon
    import esgrisk.pipeline as pipeline
    import esgrisk.sentiment as sentiment
    import esgrisk.study as study
    import esgrisk.synth as synth

    p = Patches(tracer)

    # stages
    def classified(t, out, args):
        t.counts["ingest.rows"] += out.report.total_rows
        t.counts["ingest.skipped"] += out.report.skips_total

    def detected(t, out, args):
        t.counts["trading.outside_calendar"] += out.dropped_messages
        t.counts["detect.kept"] += len(out.kept)

    def studied(t, out, args):
        while out is not None:
            t.counts["study.studied"] += sum(r.n for r in out.results)
            t.counts["study.dropped"] += len(out.drops)
            out = out.robustness

    p.timed(pipeline, "run_classify", "pipeline.classify", True, classified)
    p.timed(pipeline, "run_detect", "pipeline.detect", True, detected)
    p.timed(pipeline, "run_study", "pipeline.study", True, studied)
    p.timed(synth, "generate", "synth.generate", True)

    # ingest
    p.producer(pipeline, "iter_messages", "ingest.messages")
    p.timed(ingest, "parse_timestamp", "ingest.parse_timestamp")
    p.timed(pipeline, "read_prices", "ingest.read_prices", True)
    p.timed(pipeline, "read_market_index", "ingest.read_market_index", True)
    p.timed(pipeline, "read_calendar_events", "ingest.read_calendar", True)

    # lexicon and sentiment
    def matched(t, hits, args):
        t.counts["lexicon.find.calls"] += 1
        if hits and t.current() == "sentiment.score":
            t.counts["sentiment.matched"] += 1

    p.timed(pipeline, "tokenize", "lexicon.tokenize", on_result=_add("lexicon.tokens", len))
    p.counted(lexicon.TokenMatcher, "find", matched)
    p.timed(lexicon.EsgClassifier, "classify_tokens", "lexicon.classify",
            on_result=_add("lexicon.labeled", lambda r: 1 if r.nodes else 0))
    p.timed(sentiment.SentimentScorer, "score_tokens", "sentiment.score")

    # detect side
    def merged(t, events, args):
        t.counts["detect.events"] += len(events)
        t.counts["detect.passing"] += sum(len(e.merged_outlier_days) for e in events)

    p.timed(pipeline, "assign_trading_index", "trading.assign")
    p.timed(pipeline, "parse_node", "taxonomy.parse_node")
    p.timed(pipeline, "expand_to_ancestors", "taxonomy.expand")
    p.timed(aggregate, "expand_to_ancestors", "taxonomy.expand")
    p.consumer(pipeline, "build_series", "aggregate.build_series", "pipeline.detect.read",
               _add("aggregate.series", lambda agg: sum(1 for _ in agg)))
    p.timed(pipeline, "esd_outliers", "detect.esd", on_result=_add("detect.outlier_days", len))
    p.timed(pipeline, "filter_and_merge", "detect.filter_merge", on_result=merged)
    p.timed(pipeline, "exclude_confounded", "detect.confound",
            on_result=_add("detect.confounded", lambda r: len(r[1])))

    # study side
    p.timed(pipeline, "load_kept_events", "pipeline.study.load_events", True)
    p.timed(pipeline, "align_firm_returns", "study.align", True)
    p.timed(pipeline, "align_market_returns", "study.align", True)
    p.timed(pipeline, "study_events", "pipeline.study_events", True)
    p.timed(pipeline, "compute_event_abnormals", "study.abnormals")
    p.timed(study, "fit_market_model", "study.fit")
    p.timed(pipeline, "aggregate_node", "study.aggregate")
    for name in ("render_results_csv", "render_results_text", "render_scaar_curve_csv",
                 "render_event_counts_csv", "render_removal_histogram_csv"):
        p.timed(pipeline, name, "report.render", on_result=_add("report.bytes", len))
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced operation (units in PER_LAYER)."""
    s, c = tracer.stats, tracer.counts

    def total(name):
        return s[name].total if name in s else 0.0

    def self_time(name):
        return s[name].self_time if name in s else 0.0

    def calls(name):
        return s[name].calls if name in s else 0

    return {
        "ingest.messages.s": total("ingest.messages"),
        "ingest.parse_timestamp.s": total("ingest.parse_timestamp"),
        "ingest.rows": c["ingest.rows"],
        "ingest.skipped": c["ingest.skipped"],
        "ingest.read_prices.s": total("ingest.read_prices"),
        "ingest.read_market_index.s": total("ingest.read_market_index"),
        "ingest.read_calendar.s": total("ingest.read_calendar"),
        "lexicon.tokenize.s": total("lexicon.tokenize"),
        "lexicon.tokenize.calls": calls("lexicon.tokenize"),
        "lexicon.tokens": c["lexicon.tokens"],
        "lexicon.find.calls": c["lexicon.find.calls"],
        "lexicon.classify.s": total("lexicon.classify"),
        "lexicon.labeled_ratio": _ratio(c["lexicon.labeled"], calls("lexicon.classify")),
        "sentiment.score.s": total("sentiment.score"),
        "sentiment.matched_ratio": _ratio(c["sentiment.matched"], calls("sentiment.score")),
        "pipeline.classify.self_s": self_time("pipeline.classify"),
        "pipeline.detect.read_s": self_time("pipeline.detect.read"),
        "pipeline.detect.self_s": self_time("pipeline.detect"),
        "pipeline.study.load_events_s": total("pipeline.study.load_events"),
        "pipeline.study_events.self_s": self_time("pipeline.study_events"),
        "trading.assign.s": total("trading.assign"),
        "trading.assign.calls": calls("trading.assign"),
        "trading.outside_calendar": c["trading.outside_calendar"],
        "taxonomy.parse_node.calls": calls("taxonomy.parse_node"),
        "taxonomy.parse_node.s": total("taxonomy.parse_node"),
        "taxonomy.expand.calls": calls("taxonomy.expand"),
        "taxonomy.expand.s": total("taxonomy.expand"),
        "aggregate.build_series.self_s": self_time("aggregate.build_series"),
        "aggregate.series": c["aggregate.series"],
        "detect.esd.s": total("detect.esd"),
        "detect.esd.calls": calls("detect.esd"),
        "detect.outlier_days": c["detect.outlier_days"],
        "detect.filter_merge.s": total("detect.filter_merge"),
        "detect.events": c["detect.events"],
        "detect.merge_ratio": _ratio(c["detect.events"], c["detect.passing"]),
        "detect.confound.s": total("detect.confound"),
        "detect.confounded": c["detect.confounded"],
        "detect.kept": c["detect.kept"],
        "study.align.s": total("study.align"),
        "study.abnormals.s": total("study.abnormals"),
        "study.abnormals.calls": calls("study.abnormals"),
        "study.fit.s": total("study.fit"),
        "study.fit.calls": calls("study.fit"),
        "study.aggregate.s": total("study.aggregate"),
        "study.dropped": c["study.dropped"],
        "study.studied_ratio": _ratio(c["study.studied"], c["study.studied"] + c["study.dropped"]),
        "report.render.s": total("report.render"),
        "report.bytes": c["report.bytes"],
        "synth.generate.s": total("synth.generate"),
        "synth.messages": c["synth.messages"],
    }
