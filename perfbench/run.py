"""Whole-chain benchmark for citepipe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round generates the workload's inputs
from the seed, starts the mock endpoint, then runs the command chain
build -> split -> kg-merge -> prompts -> generate -> evaluate, each command
in a fresh interpreter as a user runs it, and checks every output outside
the timed spans. Rounds repeat until S seconds have passed; each metric is
the median over the rounds. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 each
round runs the chain twice, once plain and once with every command under
tracer.py, and the metrics are the per-layer ones from the traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gen import Answer, Spec, Truth, answers, generate  # noqa: E402
from mock import MockEndpoint  # noqa: E402
from spawn import Launcher  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SERVICE_S = 0.001
MIB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    spec: Spec
    prompt_args: tuple[str, ...]
    test_only: bool = False  # generate and evaluate the test split only
    resume: bool = False  # generate resumes from a pre-written half; adds resume-torn
    fits: bool = True  # every prompt fits its budget uncut


WORKLOADS = {
    "dense-corpus": Workload(
        Spec(papers=200, sections=3, sentences=20, sentence_words=(9, 12), cite_share=0.3,
             run_length=(1, 1), abstract_sentences=5, intro_sentences=14, conclusion_sentences=10,
             triplets_per_section=5, verbatim_share=0.3),
        ("--mode", "kg", "--include-introductions", "--include-conclusions"),
        test_only=True,
        fits=False,
    ),
    "long-passages": Workload(
        Spec(papers=30, sections=2, sentences=40, sentence_words=(12, 15), cite_share=0.5,
             run_length=(3, 12), abstract_sentences=4, intro_sentences=0, conclusion_sentences=0,
             triplets_per_section=3, verbatim_share=0.2),
        ("--mode", "kg"),
    ),
    "generate-resume": Workload(
        Spec(papers=300, sections=1, sentences=14, sentence_words=(6, 9), cite_share=0.4,
             run_length=(1, 1), abstract_sentences=1, intro_sentences=0, conclusion_sentences=0,
             triplets_per_section=2, verbatim_share=0.8),
        ("--mode", "baseline"),
        resume=True,
    ),
}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}
COMMANDS = ("build", "split", "kg_merge", "prompts", "generate", "evaluate")
PER_LAYER = {
    **{f"cli.{c}_{m}": u for c in COMMANDS for m, u in (("s", "s"), ("rss_mb", "MB"))},
    "corpus.stream_s": "s", "corpus.records": "count",
    "dataset.build_lookup_s": "s", "dataset.extract_s": "s", "dataset.write_s": "s",
    "dataset.read_s": "s", "dataset.rows_read": "count", "dataset.samples": "count", "dataset.mb": "MB",
    "kg.load_s": "s", "kg.attach_s": "s", "kg.write_s": "s", "kg.read_s": "s", "kg.mb": "MB",
    "prompts.render_s": "s", "prompts.emit_s": "s", "prompts.rendered": "count",
    "prompts.truncated": "count", "prompts.mb": "MB",
    "client.generate_batch_s": "s", "client.requests": "count", "client.reused": "count",
    "client.post_ms_p50": "ms", "client.post_ms_p99": "ms", "client.mock_busy_s": "s",
    "metrics.evaluate_corpus_s": "s", "metrics.meteor_s": "s", "metrics.rouge_s": "s",
    "metrics.tokenize_s": "s", "metrics.pairs": "count", "metrics.pairs_le16_tokens": "count",
    "metrics.pairs_gt10k_cells": "count",
    "stemmer.calls": "count", "stemmer.distinct_words": "count", "stemmer.stem_s": "s",
    "config.manifest_s": "s", "config.digested_mb": "MB",
    "trace.overhead_s": "s",
}

# resume-torn: fixed inputs, the same for every seed
TORN_TABLE = {
    (f"t{k}0", (f"t{k}1", f"t{k}2")): Answer(f"torn:{k}", f"fixed answer number {k}", False) for k in range(4)
}


@dataclass
class Op:
    name: str  # the command, or resume-torn
    args: list[str]
    out_prefix: str  # outputs are the chain files whose relative path starts with this
    code: int | None = None  # None: not run because an earlier command failed
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    requested: list[str | None] = field(default_factory=list)  # sample ids the mock saw during the op
    busy_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    spans: dict | None = None


@dataclass
class Inputs:
    dir: Path
    truth: Truth
    table: dict  # prompt key -> Answer, the mock's answers
    prewritten: list[str]  # sample ids already in the output file generate resumes from


def sample_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["sample_id"] for line in fh if line.strip()]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def row(sample_id: str, text: str) -> str:
    return json.dumps({"sample_id": sample_id, "text": text}, ensure_ascii=False, sort_keys=True)


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, trace: bool, work: Path, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.reference: dict[str, dict[str, str]] = {}  # op -> output digests of the first chain

    # -- set-up -----------------------------------------------------------

    def make_inputs(self, round_dir: Path) -> Inputs:
        spec = self.workload.spec
        corpus, triplets, truth = generate(spec, self.seed)
        table = answers(truth, spec, self.seed)
        in_dir = round_dir / "in"
        in_dir.mkdir(parents=True)
        write_lines(in_dir / "corpus.jsonl", corpus)
        write_lines(in_dir / "triplets.jsonl", triplets)
        prewritten: list[str] = []
        if self.workload.resume:
            by_id = {a.sample_id: a for a in table.values()}
            prewritten = random.Random(self.seed).sample(sorted(by_id), len(by_id) // 2)
            write_lines(in_dir / "prewritten.jsonl", [row(i, by_id[i].text) for i in prewritten])
            prompts = [
                json.dumps({"sample_id": a.sample_id, "prompt": (
                    f"Source abstract: [[{src}]] fixed.\n\n"
                    + "\n\n".join(f"Target paper {k} abstract: [[{t}]] fixed." for k, t in enumerate(tgts, 1))
                )}) for (src, tgts), a in TORN_TABLE.items()
            ]
            write_lines(in_dir / "torn-prompts.jsonl", prompts)
            done = [row(a.sample_id, a.text) for a in TORN_TABLE.values()]
            # two finished rows, then the half line a run killed mid-append leaves
            (in_dir / "torn.jsonl").write_text(done[0] + "\n" + done[1] + "\n" + done[2][: len(done[2]) // 2],
                                               encoding="utf-8")
        return Inputs(in_dir, truth, {**table, **TORN_TABLE}, prewritten)

    # -- one pass of the chain ------------------------------------------

    def chain(self, inputs: Inputs, out: Path, mock: MockEndpoint, traced: bool) -> list[Op]:
        w = self.workload
        out.mkdir()
        spans_dir = out.parent / f"{out.name}-spans"
        spans_dir.mkdir()
        ds, enriched, prompts = out / "dataset.jsonl", out / "enriched.jsonl", out / "prompts.jsonl"
        generated, report = out / "generated.jsonl", out / "report.json"
        # the test-split prompts are the benchmark's own file, so they sit with the inputs
        gen_prompts = inputs.dir / out.name / "test-prompts.jsonl" if w.test_only else prompts
        eval_ds = out / "splits" / "test.jsonl" if w.test_only else ds
        endpoint = ["--endpoint", mock.url, "--max-parallel", str(NPROC)]
        ops = [
            Op("build", ["build", "--corpus", str(inputs.dir / "corpus.jsonl"), "--out", str(ds)], "dataset.jsonl"),
            Op("split", ["split", "--dataset", str(ds), "--out-dir", str(out / "splits"), "--seed", str(self.seed)], "splits"),
            Op("kg_merge", ["kg-merge", "--dataset", str(ds), "--triplets", str(inputs.dir / "triplets.jsonl"),
                            "--out", str(enriched)], "enriched.jsonl"),
            Op("prompts", ["prompts", *w.prompt_args, "--enriched" if "kg" in w.prompt_args else "--dataset",
                           str(enriched if "kg" in w.prompt_args else ds), "--out", str(prompts)], "prompts.jsonl"),
            Op("generate", ["generate", "--prompts", str(gen_prompts), "--out", str(generated), *endpoint],
               "generated.jsonl"),
            Op("evaluate", ["evaluate", "--generated", str(generated), "--dataset", str(eval_ds), "--out", str(report)],
               "report.json"),
        ]
        torn_out = out.parent / f"{out.name}-torn.jsonl"
        if w.resume:
            ops.append(Op("resume-torn", ["generate", "--prompts", str(inputs.dir / "torn-prompts.jsonl"),
                                          "--out", str(torn_out), *endpoint], ""))

        failed = False
        for op in ops:
            if failed and op.name != "resume-torn":
                continue
            # untimed preparation that stands in for a user's own file handling
            if op.name == "generate":
                if w.test_only:
                    gen_prompts.parent.mkdir(exist_ok=True)
                    test_ids = set(sample_ids(eval_ds))
                    with prompts.open(encoding="utf-8") as fh:
                        write_lines(gen_prompts, [line.rstrip("\n") for line in fh
                                                  if json.loads(line)["sample_id"] in test_ids])
                if w.resume:
                    shutil.copyfile(inputs.dir / "prewritten.jsonl", generated)
            if op.name == "resume-torn":
                shutil.copyfile(inputs.dir / "torn.jsonl", torn_out)
            argv = [sys.executable, "-m", "citepipe.cli", *op.args]
            spans_path = spans_dir / f"{op.name}.json"
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *op.args]
            seen = len(mock.log)
            op.code, op.wall, op.cpu, op.rss_mb = self.launcher.run(argv, spans_dir / f"{op.name}.log")
            log = mock.log[seen:]
            op.requested = [r.sample_id for r in log]
            op.busy_s = sum(r.end - r.start for r in log)
            if op.code != 0:
                failed = failed or op.name != "resume-torn"
                continue
            if traced:
                with spans_path.open(encoding="utf-8") as fh:
                    op.spans = json.load(fh)
        self.check(ops, inputs, out, gen_prompts, torn_out)
        return ops

    # -- checks, outside every timed span ---------------------------------

    def digests(self, out: Path, prefix: str) -> dict[str, str]:
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and str(p.relative_to(out)).startswith(prefix)
        }

    def check(self, ops: list[Op], inputs: Inputs, out: Path, gen_prompts: Path, torn_out: Path) -> None:
        for op in ops:
            if op.code != 0:
                continue
            try:
                if op.name == "resume-torn":
                    op.problems = checks.check_generated(
                        torn_out, {a.sample_id: a.text for a in TORN_TABLE.values()}, op.requested,
                        {"torn:0", "torn:1"})
                    continue
                digests = self.digests(out, op.out_prefix)
                if op.name not in self.reference:
                    op.problems += self.first_check(op, inputs, out, gen_prompts)
                    self.reference[op.name] = digests
                    continue
                # later passes run on the same inputs, so their outputs must repeat the first's
                if digests != self.reference[op.name]:
                    op.problems.append("output differs from the first pass on the same inputs")
                if op.name == "generate":
                    if sorted(op.requested) != sorted(set(sample_ids(gen_prompts)) - set(inputs.prewritten)):
                        op.problems.append("the mock did not see exactly one request per missing row")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.problems.append(f"output unreadable: {exc!r}")

    def first_check(self, op: Op, inputs: Inputs, out: Path, gen_prompts: Path) -> list[str]:
        truth = inputs.truth
        by_id = {a.sample_id: a for a in inputs.table.values()}
        if op.name == "build":
            return checks.check_build(out / "dataset.jsonl", truth)
        if op.name == "split":
            return checks.check_split(out / "splits", sample_ids(out / "dataset.jsonl"))
        if op.name == "kg_merge":
            return checks.check_kg(out / "enriched.jsonl", truth)
        if op.name == "prompts":
            return checks.check_prompts(out / "prompts.jsonl", truth, self.workload.fits)
        if op.name == "generate":
            return checks.check_generated(out / "generated.jsonl", {i: by_id[i].text for i in sample_ids(gen_prompts)},
                                          op.requested, set(inputs.prewritten))
        if op.name == "evaluate":
            gold = {s.sample_id: s.passage for s in truth.samples}
            ids = sample_ids(out / "generated.jsonl")
            verbatim = {i for i in ids if by_id[i].verbatim}
            return checks.check_report(out / "report.json", {i: (by_id[i].text, gold[i]) for i in ids}, verbatim)
        return []

    # -- rounds -------------------------------------------------------------

    def round(self, index: int) -> dict:
        start = time.perf_counter()
        round_dir = self.work / f"r{index}"
        inputs = self.make_inputs(round_dir)
        with MockEndpoint(inputs.table, SERVICE_S, NPROC) as mock:
            code, *_ = self.launcher.run([sys.executable, "-c", "import citepipe.cli"], round_dir / "import.log")
            if code != 0:
                raise SystemExit(f"cannot import citepipe.cli from {SRC}; see {round_dir / 'import.log'}")
            setup_s = time.perf_counter() - start
            plain = self.chain(inputs, round_dir / "plain", mock, traced=False)
            traced = self.chain(inputs, round_dir / "traced", mock, traced=True) if self.trace else None
        result = {"setup_s": setup_s, "plain": plain, "traced": traced}
        result["artifact_bytes"] = sum(p.stat().st_size for p in (round_dir / "plain").rglob("*") if p.is_file())
        shutil.rmtree(round_dir)
        totals = chain_totals(plain)
        print(f"round {index}: setup_s {setup_s:.3f} pipeline_s {totals['pipeline_s']:.3f} "
              f"cpu_s {totals['cpu_s']:.3f}", file=sys.stderr)
        return result

    def run(self, seconds: float) -> dict:
        started = time.perf_counter()
        rounds = [self.round(0)]
        # start another round only if it should end less than half a round past the deadline
        while (elapsed := time.perf_counter() - started) + 0.5 * elapsed / len(rounds) < seconds:
            rounds.append(self.round(len(rounds)))
        ops = [op for r in rounds for chain in (r["plain"], r["traced"]) if chain for op in chain]
        failed = [op for op in ops if op.code != 0 or op.problems]
        for op in failed:
            print(f"{op.name}: exit {op.code}; {'; '.join(op.problems) or 'no output check ran'}", file=sys.stderr)
        correct = not any(op.problems for op in ops) and all(
            op.name == "resume-torn" or op.code == 0 for op in ops)
        metrics = layer_metrics(rounds) if self.trace else end_to_end_metrics(rounds)
        print(f"{self.name}: {len(rounds)} round(s)", file=sys.stderr)
        return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def chain_totals(chain: list[Op]) -> dict[str, float]:
    timed = [op for op in chain if op.name != "resume-torn"]
    return {
        "pipeline_s": sum(op.wall for op in timed),
        "cpu_s": sum(op.cpu for op in timed),
        "peak_rss_mb": max(op.rss_mb for op in timed),
    }


def _metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def end_to_end_metrics(rounds: list[dict]) -> dict:
    per_round = [
        {"setup_s": r["setup_s"], **chain_totals(r["plain"]), "artifact_mb": r["artifact_bytes"] / MIB}
        for r in rounds
    ]
    return {name: _metric([values[name] for values in per_round], unit) for name, unit in END_TO_END.items()}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return totals


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def traced_layers(chain: list[Op]) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    posts: list[float] = []
    stem_calls = 0
    for op in chain:
        if op.name == "resume-torn" or op.spans is None:
            continue
        for name, value in self_times(op.spans["spans"]).items():
            self_s[name] += value
        for name, value in op.spans["counters"].items():
            counters[name] += value
        posts += [(end - start) * 1000 for name, start, end, _ in op.spans["spans"] if name == "client.post"]
        stem_calls += sum(1 for span in op.spans["spans"] if span[0] == "stemmer.stem")
        if op.name == "generate":
            counters["client.mock_busy_s"] += op.busy_s
    s = self_s
    return {
        "corpus.stream_s": s["corpus.stream_corpus"],
        "corpus.records": counters["corpus.records"],
        "dataset.build_lookup_s": s["dataset.build_lookup"],
        "dataset.extract_s": s["dataset.extract_samples"],
        "dataset.write_s": s["dataset.write_dataset"],
        "dataset.read_s": s["dataset.read_dataset"],
        "dataset.rows_read": counters["dataset.rows_read"],
        "dataset.samples": counters["dataset.samples"],
        "dataset.mb": counters["dataset.bytes"] / MIB,
        "kg.load_s": s["kg.load_triplets"],
        "kg.attach_s": s["kg.attach_triplets"],
        "kg.write_s": s["kg.write_enriched"],
        "kg.read_s": s["kg.read_enriched"],
        "kg.mb": counters["kg.bytes"] / MIB,
        "prompts.render_s": s["prompts.render_baseline"] + s["prompts.render_kg"],
        "prompts.emit_s": s["prompts.emit_finetune_file"],
        "prompts.rendered": counters["prompts.rendered"],
        "prompts.truncated": counters["prompts.truncated"],
        "prompts.mb": counters["prompts.bytes"] / MIB,
        "client.generate_batch_s": s["client.generate_batch"],
        "client.requests": counters["client.requests"],
        "client.reused": counters["client.reused"],
        "client.post_ms_p50": _percentile(posts, 0.5),
        "client.post_ms_p99": _percentile(posts, 0.99),
        "client.mock_busy_s": counters["client.mock_busy_s"],
        "metrics.evaluate_corpus_s": s["metrics.evaluate_corpus"],
        "metrics.meteor_s": s["metrics.meteor"],
        "metrics.rouge_s": s["metrics.rouge_n"] + s["metrics.rouge_l"],
        "metrics.tokenize_s": s["metrics.tokenize"],
        "metrics.pairs": counters["metrics.pairs"],
        "metrics.pairs_le16_tokens": counters["metrics.pairs_le16_tokens"],
        "metrics.pairs_gt10k_cells": counters["metrics.pairs_gt10k_cells"],
        "stemmer.calls": stem_calls,
        "stemmer.distinct_words": counters["stemmer.distinct_words"],
        "stemmer.stem_s": s["stemmer.stem"],
        "config.manifest_s": s["config.write_run_manifest"],
        "config.digested_mb": counters["config.digested_bytes"] / MIB,
    }


def layer_metrics(rounds: list[dict]) -> dict:
    per_round = []
    for r in rounds:
        values = traced_layers(r["traced"])
        for op in r["plain"]:
            if op.name in COMMANDS:
                values[f"cli.{op.name}_s"] = op.wall
                values[f"cli.{op.name}_rss_mb"] = op.rss_mb
        values["trace.overhead_s"] = chain_totals(r["traced"])["pipeline_s"] - chain_totals(r["plain"])["pipeline_s"]
        per_round.append(values)
    return {name: _metric([v.get(name, 0.0) for v in per_round], unit) for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (tests use a tiny scale)")
    args = parser.parse_args(argv)
    if not (SRC / "citepipe" / "cli.py").is_file():
        print(f"error: no citepipe sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.scale != 1.0:
        workload = replace(workload, spec=replace(workload.spec, papers=max(12, round(workload.spec.papers * args.scale))))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    launcher = Launcher(env, str(ROOT))
    try:
        result = Bench(args.workload, workload, args.seed, bool(args.trace), work, launcher).run(args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
