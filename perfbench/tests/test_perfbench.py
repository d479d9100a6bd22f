"""Tests of the benchmark itself: run with `PYTHONPATH=src python3 -m pytest perfbench/tests`.

No test asserts anything about timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from gen import FAMILIES, FUNCTION_WORDS, SUFFIXES, answers, generate, word_class  # noqa: E402

from citepipe.metrics import evaluate_corpus, report_to_dict  # noqa: E402
from citepipe.stemmer import stem  # noqa: E402

TINY = replace(run.WORKLOADS["long-passages"].spec, papers=8)


def test_word_classes_are_the_stemmers_classes():
    words = [base + s for base in FAMILIES for s in SUFFIXES] + list(FUNCTION_WORDS)
    by_stem: dict[str, set[str]] = {}
    for word in words:
        by_stem.setdefault(stem(word), set()).add(word_class(word))
    assert all(len(classes) == 1 for classes in by_stem.values())
    assert len(by_stem) == len(FAMILIES) + len(FUNCTION_WORDS)


def test_same_seed_same_inputs():
    assert generate(TINY, 7) == generate(TINY, 7)
    assert generate(TINY, 7)[0] != generate(TINY, 8)[0]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.03"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    torn = 1 if workload == "generate-resume" else 0
    assert result["failed"] == torn * (1 + trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_names_the_workloads_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def scored(tmp_path):
    _, _, truth = generate(TINY, 5)
    table = {a.sample_id: a for a in answers(truth, TINY, 5).values()}
    gold = {s.sample_id: s.passage for s in truth.samples}
    ids = sorted(gold)
    report = evaluate_corpus([(table[i].text, gold[i]) for i in ids], sample_ids=ids)
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"label": "model", **report_to_dict(report)}))
    pairs = {i: (table[i].text, gold[i]) for i in ids}
    verbatim = {i for i in ids if table[i].verbatim}
    return path, pairs, verbatim, table


def test_report_check_passes_the_programs_report(scored):
    path, pairs, verbatim, _ = scored
    assert verbatim and checks.check_report(path, pairs, verbatim) == []


@pytest.mark.parametrize("field", ["Rouge-L", "METEOR", "corpus"])
def test_report_check_rejects_a_corrupted_report(scored, field):
    path, pairs, verbatim, _ = scored
    payload = json.loads(path.read_text())
    if field == "corpus":
        payload["corpus"]["Rouge-1"] += 0.01
    else:
        payload["per_sample"][0][field]["precision"] *= 0.9
    path.write_text(json.dumps(payload))
    assert checks.check_report(path, pairs, verbatim) != []


def test_generated_check_rejects_a_missing_row(scored, tmp_path):
    _, pairs, _, table = scored
    expected = {i: table[i].text for i in pairs}
    path = tmp_path / "generated.jsonl"
    rows = [run.row(i, expected[i]) for i in sorted(expected)]
    run.write_lines(path, rows)
    assert checks.check_generated(path, expected, sorted(expected), set()) == []
    run.write_lines(path, rows[:3] + rows[4:])
    assert checks.check_generated(path, expected, sorted(expected), set()) != []
