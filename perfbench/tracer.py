"""Run one `citepipe` command with spans around the calls into each layer.

Usage: python tracer.py SPANS_OUT -- <citepipe arguments>

Wraps, from outside the package, the public functions `citepipe.cli`
calls, the scorers `citepipe.metrics` calls per pair (`tokenize`, `meteor`,
`rouge_n`, `rouge_l`, `stem`) and `requests.post`. Each call records a span
(name, start, end, parent); `stream_corpus` records one span per record it
yields, so its time is charged to the caller that pulls it. Counters are
taken at the same boundaries. Spans and counters are kept in memory and
written to SPANS_OUT as JSON when the command returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import requests

import citepipe.cli as cli
import citepipe.metrics as metrics

CLI_LAYERS = {
    "corpus_files": "corpus.corpus_files",
    "build_lookup": "dataset.build_lookup",
    "extract_samples": "dataset.extract_samples",
    "write_dataset": "dataset.write_dataset",
    "read_dataset": "dataset.read_dataset",
    "split_dataset": "dataset.split_dataset",
    "load_triplets": "kg.load_triplets",
    "attach_triplets": "kg.attach_triplets",
    "write_enriched": "kg.write_enriched",
    "read_enriched": "kg.read_enriched",
    "render_baseline": "prompts.render_baseline",
    "render_kg": "prompts.render_kg",
    "emit_finetune_file": "prompts.emit_finetune_file",
    "read_prompt_file": "prompts.read_prompt_file",
    "generate_batch": "client.generate_batch",
    "evaluate_corpus": "metrics.evaluate_corpus",
    "report_to_dict": "metrics.report_to_dict",
    "render_report_table": "metrics.render_report_table",
    "write_run_manifest": "config.write_run_manifest",
}
METRIC_LAYERS = {
    "tokenize": "metrics.tokenize",
    "meteor": "metrics.meteor",
    "rouge_n": "metrics.rouge_n",
    "rouge_l": "metrics.rouge_l",
    "stem": "stemmer.stem",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counters: dict[str, float] = {}
        self.stem_words: set[str] = set()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._reserve = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # worker threads hang their spans under whatever the main thread is in
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def record(self, name: str, start: float, stack: list[int]) -> None:
        with self._reserve:
            self.spans.append((name, start, time.perf_counter(), self._parent(stack)))

    def count(self, name: str, amount: float = 1) -> None:
        with self._reserve:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Span around each call; `after(args, kwargs, result)` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._reserve:  # workers of generate_batch record spans too
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserved so children can point at it
            parent = tracer._parent(stack)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_stream(self, name: str, fn):
        """A generator function whose every yielded item is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.record(name, start, stack)
                    return
                tracer.record(name, start, stack)
                tracer.count("corpus.records")
                yield item

        return traced


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer) -> None:
    count = tracer.count

    def sized(counter: str, *suffixes: str):
        def after(args, kwargs, result):
            path = str(args[1] if len(args) > 1 else kwargs["path"])
            count(counter, sum(_size(path + s) for s in ("", *suffixes)))
        return after

    def on_meteor(args, kwargs, result):
        n, m = len(metrics._tokens(args[0])), len(metrics._tokens(args[1]))
        count("metrics.pairs")
        count("metrics.pairs_le16_tokens", n <= 16 and m <= 16)
        count("metrics.pairs_gt10k_cells", n * m > 10_000)

    def on_render(args, kwargs, result):
        count("prompts.rendered")
        count("prompts.truncated", bool(result.truncations))

    def on_manifest(args, kwargs, result):
        inputs = args[2] if len(args) > 2 else kwargs["inputs"]
        count("config.digested_bytes", sum(_size(p) + _size(str(p) + ".run.json") for p in inputs))

    def on_stem(args, kwargs, result):
        tracer.stem_words.add(args[0])

    after = {
        "extract_samples": lambda a, k, r: count("dataset.samples", len(r)),
        "read_dataset": lambda a, k, r: count("dataset.rows_read", len(r)),
        "write_dataset": sized("dataset.bytes", ".manifest.json"),
        "write_enriched": sized("kg.bytes"),
        "emit_finetune_file": sized("prompts.bytes", ".manifest.json"),
        "render_baseline": on_render,
        "render_kg": on_render,
        "generate_batch": lambda a, k, r: count("client.reused", sum(1 for x in r if x.attempt == 0)),
        "write_run_manifest": on_manifest,
    }
    cli.stream_corpus = tracer.wrap_stream("corpus.stream_corpus", cli.stream_corpus)
    for attr, name in CLI_LAYERS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), after.get(attr)))
    metric_after = {"meteor": on_meteor, "stem": on_stem}
    for attr, name in METRIC_LAYERS.items():
        setattr(metrics, attr, tracer.wrap(name, getattr(metrics, attr), metric_after.get(attr)))
    requests.post = tracer.wrap("client.post", requests.post, lambda a, k, r: count("client.requests"))


def main(argv: list[str]) -> int:
    spans_out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- <citepipe arguments>")
    tracer = Tracer()
    install(tracer)
    code = cli.main(args)
    tracer.counters["stemmer.distinct_words"] = len(tracer.stem_words)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
