"""CLI behavior: precedence, exit codes, run manifests, and output shapes.

Commands run in-process through main(argv) so exit codes and both output
streams can be asserted directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citepipe
import citepipe.config

from citepipe import __version__
from citepipe.cli import AUTH_TOKEN_ENV, main
from citepipe.config import read_run_manifest, run_manifest_path
from citepipe.dataset import (
    SCHEMA_VERSION,
    CitationSample,
    TargetPaper,
    compute_stats,
    read_dataset,
    write_dataset,
)
from citepipe.jsonl import dump_row, file_digest, json_digest

STATS_ROWS = [
    "# citations",
    "# unique papers",
    "CITATIONS  Avg # characters",
    "CITATIONS  Max # characters",
    "SOURCE ABSTRACTS  Avg # characters",
    "SOURCE ABSTRACTS  Max # characters",
    "TARGET ABSTRACTS  Avg # characters",
    "TARGET ABSTRACTS  Max # characters",
    "Avg # of Targets per sample",
]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def dataset(hand_corpus, tmp_path, capsys):
    path = tmp_path / "dataset.jsonl"
    code, out, _ = run(capsys, "build", "--corpus", str(hand_corpus), "--out", str(path))
    assert code == 0, out
    return path


@pytest.fixture
def triplets_file(tmp_path):
    path = tmp_path / "triplets.jsonl"
    row = {
        "paper_id": "t1",
        "section": "abstract",
        "triplets": [{"head": "parser", "relation": "used-for", "tail": "trees"}],
    }
    path.write_text(dump_row(row) + "\n", encoding="utf-8")
    return path


class TestBuild:
    def test_reports_counts_and_writes_manifest(self, hand_corpus, tmp_path, capsys):
        out_path = tmp_path / "ds.jsonl"
        code, out, err = run(capsys, "build", "--corpus", str(hand_corpus), "--out", str(out_path))
        assert code == 0
        assert "record(s) from 1 file(s)" in out
        assert f"wrote 3 sample(s) to {out_path}" in out
        manifest = read_run_manifest(out_path)
        assert manifest["stage"] == "build"
        assert manifest["counts"]["samples"] == 3
        assert manifest["inputs"][0]["path"] == "corpus.jsonl"
        assert manifest["inputs"][0]["sha256"] == file_digest(hand_corpus)
        assert manifest["config_sha256"]

    def test_field_filter_flag(self, hand_corpus, tmp_path, capsys):
        out_path = tmp_path / "bio.jsonl"
        code, out, _ = run(
            capsys, "build", "--corpus", str(hand_corpus), "--out", str(out_path),
            "--field", "Biology",
        )
        assert code == 0
        assert "wrote 0 sample(s)" in out

    def test_missing_corpus_is_an_environment_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o.jsonl")
        )
        assert code == 2
        assert "error:" in err


class TestStats:
    def test_table_rows(self, dataset, capsys):
        code, out, _ = run(capsys, "stats", "--dataset", str(dataset))
        assert code == 0
        for label in STATS_ROWS:
            assert label in out
        first = out.splitlines()[0]
        assert first.startswith("# citations")
        assert first.endswith("3")

    def test_json_mode(self, dataset, capsys):
        code, out, _ = run(capsys, "stats", "--dataset", str(dataset), "--json")
        assert code == 0
        assert json.loads(out)["n_samples"] == 3

    def test_corrupt_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--dataset", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--dataset", str(tmp_path / "gone.jsonl"))
        assert code == 1


class TestSplit:
    def test_partition_files_and_chained_manifests(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "splits"
        code, out, _ = run(
            capsys, "split", "--dataset", str(dataset), "--out-dir", str(out_dir), "--seed", "0"
        )
        assert code == 0
        assert "split 3 sample(s) into" in out
        assert "(seed 0)" in out
        parts = [out_dir / f"{name}.jsonl" for name in ("train", "validation", "test")]
        assert all(p.exists() for p in parts)

        manifest = read_run_manifest(parts[0])
        assert manifest["stage"] == "split:train"
        entry = manifest["inputs"][0]
        assert entry["sha256"] == file_digest(dataset)
        assert entry["run_manifest_sha256"] == file_digest(run_manifest_path(dataset))

    def test_each_input_is_hashed_once(self, dataset, tmp_path, capsys, monkeypatch):
        hashed = []

        def counting_digest(path):
            hashed.append(path.name)
            return file_digest(path)

        monkeypatch.setattr(citepipe.config, "file_digest", counting_digest)
        out_dir = tmp_path / "splits"
        code, _, _ = run(capsys, "split", "--dataset", str(dataset), "--out-dir", str(out_dir))
        assert code == 0
        assert sorted(hashed) == ["dataset.jsonl", "dataset.jsonl.run.json"]
        parts = ("train", "validation", "test")
        inputs = [read_run_manifest(out_dir / f"{n}.jsonl")["inputs"] for n in parts]
        assert inputs[0] == inputs[1] == inputs[2]

    def test_seed_comes_from_config_unless_flagged(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("split:\n  seed: 9\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "a"),
        )
        assert code == 0 and "(seed 9)" in out
        code, out, _ = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "b"), "--seed", "3",
        )
        assert code == 0 and "(seed 3)" in out


class TestConfig:
    def test_unknown_top_level_key(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("splits:\n  seed: 1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
        )
        assert code == 1
        assert "unknown key(s) in config: splits" in err

    def test_unknown_section_key(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("split:\n  sedd: 1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
        )
        assert code == 1
        assert "unknown key(s) in split: sedd" in err

    def test_empty_config_file_uses_defaults(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("", encoding="utf-8")
        code, out, _ = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
        )
        assert code == 0 and "(seed 0)" in out

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "gone.yaml"), "stats", "--dataset", "x")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "build", "--nope")
        assert code == 1
        assert "No such option" in err


class TestKgMerge:
    def test_merge_and_counts(self, dataset, triplets_file, tmp_path, capsys):
        out_path = tmp_path / "enriched.jsonl"
        code, out, _ = run(
            capsys, "kg-merge", "--dataset", str(dataset),
            "--triplets", str(triplets_file), "--out", str(out_path),
        )
        assert code == 0
        assert "enriched 3 sample(s); 0 without target relations; 0 orphan paper(s)" in out
        manifest = read_run_manifest(out_path)
        assert manifest["stage"] == "kg-merge"
        assert len(manifest["inputs"]) == 2

    def test_triplets_required(self, dataset, tmp_path, capsys):
        code, _, err = run(
            capsys, "kg-merge", "--dataset", str(dataset), "--out", str(tmp_path / "e.jsonl")
        )
        assert code == 1
        assert "no triplet file given" in err


class TestPrompts:
    def test_baseline_prompts(self, dataset, tmp_path, capsys):
        out_path = tmp_path / "prompts.jsonl"
        code, out, _ = run(
            capsys, "prompts", "--mode", "baseline",
            "--dataset", str(dataset), "--out", str(out_path),
        )
        assert code == 0
        assert f"wrote 3 prompt(s) to {out_path}; 0 truncated to fit 2048 tokens" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert {"sample_id", "prompt", "response"} <= set(rows[0])
        manifest = read_run_manifest(out_path)
        assert manifest["counts"] == {
            "prompts": 3,
            "truncated": 0,
            "mode": "baseline",
            "templates": ["instruct-baseline"],
            "with_responses": True,
        }

    def test_kg_prompts(self, dataset, triplets_file, tmp_path, capsys):
        enriched = tmp_path / "enriched.jsonl"
        run(capsys, "kg-merge", "--dataset", str(dataset),
            "--triplets", str(triplets_file), "--out", str(enriched))
        out_path = tmp_path / "prompts.jsonl"
        code, out, _ = run(
            capsys, "prompts", "--mode", "kg", "--enriched", str(enriched),
            "--out", str(out_path), "--no-responses",
        )
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert "(parser | used-for | trees)" in rows[0]["prompt"]
        assert "response" not in rows[0]

    def test_budget_exhausted_mid_stream_keeps_the_previous_file(self, tmp_path, capsys):
        targets = [TargetPaper("t1", abstract="One."), TargetPaper("t2", abstract="Two.")]
        fits = CitationSample("a:0:0", "a", "Short.", targets, "Cited.")
        too_long = CitationSample("b:0:0", "b", "word " * 400, targets, "Cited.")
        dataset = tmp_path / "dataset.jsonl"
        write_dataset([fits, too_long], dataset)
        out_path = tmp_path / "prompts.jsonl"
        argv = ["prompts", "--mode", "baseline", "--dataset", str(dataset), "--out", str(out_path)]
        assert run(capsys, *argv)[0] == 0
        before = out_path.read_bytes()
        # the first sample fits 250 tokens; the second cannot keep its 200-token source floor
        code, _, err = run(capsys, *argv, "--max-tokens", "250", "--reserve", "0")
        assert code == 1 and "sample b:0:0 cannot fit a 250-token budget" in err
        assert out_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dataset.jsonl", "prompts.jsonl", "prompts.jsonl.run.json"
        ]

    def test_mode_input_mismatch(self, dataset, tmp_path, capsys):
        code, _, err = run(capsys, "prompts", "--mode", "kg", "--out", str(tmp_path / "p"))
        assert code == 1 and "--mode kg needs --enriched" in err
        code, _, err = run(capsys, "prompts", "--mode", "baseline", "--out", str(tmp_path / "p"))
        assert code == 1 and "--mode baseline needs --dataset" in err

    def test_budget_precedence(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("budget:\n  max_tokens: 900\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "--config", str(cfg), "prompts", "--mode", "baseline",
            "--dataset", str(dataset), "--out", str(tmp_path / "p1.jsonl"),
        )
        assert code == 0 and "to fit 900 tokens" in out
        code, out, _ = run(
            capsys, "--config", str(cfg), "prompts", "--mode", "baseline",
            "--dataset", str(dataset), "--out", str(tmp_path / "p2.jsonl"),
            "--max-tokens", "950",
        )
        assert code == 0 and "to fit 950 tokens" in out


class TestGenerateEvaluate:
    def make_prompts(self, dataset, tmp_path, capsys):
        path = tmp_path / "prompts.jsonl"
        code, _, _ = run(
            capsys, "prompts", "--mode", "baseline", "--dataset", str(dataset),
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_generate_resume_and_evaluate(self, dataset, tmp_path, capsys, mock_endpoint, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        prompts = self.make_prompts(dataset, tmp_path, capsys)
        generated = tmp_path / "generated.jsonl"
        code, out, _ = run(
            capsys, "generate", "--prompts", str(prompts), "--out", str(generated),
            "--endpoint", mock_endpoint.url, "--backoff-seconds", "0",
        )
        assert code == 0
        assert f"generated 3 completion(s) to {generated} (0 reused from a previous run)" in out

        mock_endpoint.requests.clear()
        code, out, _ = run(
            capsys, "generate", "--prompts", str(prompts), "--out", str(generated),
            "--endpoint", mock_endpoint.url, "--backoff-seconds", "0",
        )
        assert code == 0
        assert "(3 reused from a previous run)" in out
        assert mock_endpoint.requests == []

        report_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--generated", str(generated), "--dataset", str(dataset),
            "--out", str(report_file), "--label", "demo",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["Model", "METEOR", "Rouge-1", "Rouge-2", "Rouge-L"]
        assert lines[1].split()[0] == "demo"
        payload = json.loads(report_file.read_text())
        assert payload["label"] == "demo"
        assert payload["n"] == 3

        code, out, _ = run(capsys, "report", "--report", str(report_file), "--label", "other")
        assert code == 0
        assert out.splitlines()[1].split()[0] == "other"

    def test_generate_sends_token_from_env(self, dataset, tmp_path, capsys, mock_endpoint, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "tok123")
        prompts = self.make_prompts(dataset, tmp_path, capsys)
        code, _, _ = run(
            capsys, "generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl"),
            "--endpoint", mock_endpoint.url, "--backoff-seconds", "0",
        )
        assert code == 0
        assert {entry["auth"] for entry in mock_endpoint.requests} == {"Bearer tok123"}

    def test_generate_prints_request_summary_to_stderr(self, dataset, tmp_path, capsys, mock_endpoint, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        mock_endpoint.fail_remaining = 1
        prompts = self.make_prompts(dataset, tmp_path, capsys)
        generated = tmp_path / "g.jsonl"
        argv = ["generate", "--prompts", str(prompts), "--out", str(generated),
                "--endpoint", mock_endpoint.url, "--backoff-seconds", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "requests:" not in out
        [line] = [line for line in err.splitlines() if line.startswith("requests:")]
        assert line.startswith("requests: 4 sent for 3 new row(s); latency_ms p50 ")
        assert line.endswith("; attempts 1:2 2:1")
        assert "latency" not in run_manifest_path(generated).read_text()

        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err.splitlines() == ["requests: 0 sent for 0 new row(s)"]

    def test_endpoint_failure_exits_2(self, dataset, tmp_path, capsys, mock_endpoint, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        mock_endpoint.status_override = 500
        prompts = self.make_prompts(dataset, tmp_path, capsys)
        code, _, err = run(
            capsys, "generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl"),
            "--endpoint", mock_endpoint.url, "--max-attempts", "1", "--backoff-seconds", "0",
        )
        assert code == 2
        assert "request(s) failed" in err

    def test_bad_prompt_rows_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "prompts.jsonl"
        bad.write_text('{"sample_id": "a"}\n', encoding="utf-8")
        code, _, err = run(
            capsys, "generate", "--prompts", str(bad), "--out", str(tmp_path / "g.jsonl")
        )
        assert code == 1
        assert "need sample_id and prompt" in err

    def test_evaluate_rejects_unknown_ids(self, dataset, tmp_path, capsys):
        generated = tmp_path / "generated.jsonl"
        generated.write_text(dump_row({"sample_id": "ghost", "text": "hi"}) + "\n")
        code, _, err = run(
            capsys, "evaluate", "--generated", str(generated), "--dataset", str(dataset),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "missing from the dataset: ghost" in err


class TestProvenance:
    def test_each_output_gets_exactly_one_run_manifest(
        self, hand_corpus, triplets_file, tmp_path, capsys, mock_endpoint, monkeypatch
    ):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        work = tmp_path / "run"
        work.mkdir()
        dataset = work / "dataset.jsonl"
        enriched = work / "enriched.jsonl"
        prompts = work / "prompts.jsonl"
        generated = work / "generated.jsonl"
        report_file = work / "report.json"
        steps = [
            ("build", "--corpus", str(hand_corpus), "--out", str(dataset)),
            ("split", "--dataset", str(dataset), "--out-dir", str(work)),
            ("kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file),
             "--out", str(enriched)),
            ("prompts", "--mode", "kg", "--enriched", str(enriched), "--out", str(prompts)),
            ("generate", "--prompts", str(prompts), "--out", str(generated),
             "--endpoint", mock_endpoint.url, "--backoff-seconds", "0"),
            ("evaluate", "--generated", str(generated), "--dataset", str(dataset),
             "--out", str(report_file)),
        ]
        for argv in steps:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv[0], out, err)

        outputs = ["dataset.jsonl", "train.jsonl", "validation.jsonl", "test.jsonl",
                   "enriched.jsonl", "prompts.jsonl", "generated.jsonl", "report.json"]
        expected = sorted(outputs + [name + ".run.json" for name in outputs])
        assert sorted(p.name for p in work.iterdir()) == expected

        counts = read_run_manifest(dataset)["counts"]
        assert counts["samples"] == 3
        assert counts["stats_digest"] == json_digest(compute_stats(read_dataset(dataset)).to_dict())
        assert counts["builder_version"] == __version__
        assert counts["schema_version"] == SCHEMA_VERSION
        train = work / "train.jsonl"
        assert read_run_manifest(train)["counts"]["stats_digest"] == json_digest(
            compute_stats(read_dataset(train)).to_dict()
        )
        counts = read_run_manifest(prompts)["counts"]
        assert counts["templates"] == ["instruct-kg"]
        assert counts["with_responses"] is True


def test_importing_the_cli_loads_neither_numerics_nor_the_thread_pool():
    # each command starts a fresh interpreter, so every module the cli imports
    # up front is paid by every command
    probe = (
        "import sys, citepipe.cli; "
        "print(sorted(m for m in ('citepipe.numerics', 'concurrent.futures') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(citepipe.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestNumericsCommands:
    def test_quantile_map_output(self, capsys):
        code, out, _ = run(capsys, "numerics", "quantile-map", "--bits", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_bits=2 symmetric=True normalization=absmax"
        assert len(lines) == 5
        assert lines[1].split() == ["0", "-1.0"]
        assert lines[3].split() == ["2", "0.0"]

    def test_quantile_map_asymmetric_flag(self, capsys):
        code, out, _ = run(capsys, "numerics", "quantile-map", "--bits", "4", "--asymmetric")
        assert code == 0
        assert "symmetric=False" in out.splitlines()[0]

    def test_quantile_map_bits_range(self, capsys):
        code, _, err = run(capsys, "numerics", "quantile-map", "--bits", "9")
        assert code == 1
        assert "n_bits must be between 1 and 8" in err

    def test_optimize_csv(self, capsys):
        code, out, _ = run(
            capsys, "numerics", "optimize", "--curvatures", "1.0,2.0", "--steps", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,value,w0,w1"
        assert lines[1] == "0,3,1,1"
        assert len(lines) == 5

    def test_optimize_schedule_holds_the_first_step(self, capsys):
        code, out, _ = run(
            capsys, "numerics", "optimize", "--curvatures", "1.0", "--steps", "2",
            "--warmup", "1", "--total", "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split(",")[2] == lines[2].split(",")[2]

    def test_optimize_usage_errors(self, capsys):
        code, _, err = run(
            capsys, "numerics", "optimize", "--curvatures", "1.0,2.0", "--x0", "1.0"
        )
        assert code == 1 and "dimension must match" in err
        code, _, err = run(capsys, "numerics", "optimize", "--warmup", "5")
        assert code == 1 and "--warmup needs --total" in err
