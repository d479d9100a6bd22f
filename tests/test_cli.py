"""CLI behavior: precedence, exit codes, run manifests, and output shapes.

Commands run in-process through main(argv) so exit codes and both output
streams can be asserted directly.
"""

import dataclasses
import gc
import inspect
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
import yaml

import citepipe
import citepipe.cli
import citepipe.config
import citepipe.jsonl

from citepipe import __version__
from citepipe.cli import AUTH_TOKEN_ENV, main
from citepipe.client import ClientPolicy
from citepipe.config import DEFAULTS, read_run_manifest, run_manifest_path
from citepipe.corpus import stream_corpus
from citepipe.dataset import (
    SCHEMA_VERSION,
    CitationSample,
    SplitSpec,
    TargetPaper,
    compute_stats,
    read_dataset,
    sample_to_dict,
    split_dataset,
    write_dataset,
)
from citepipe.jsonl import dump_row, file_digest, json_digest
from citepipe.kg import SECTIONS, enriched_to_dict, read_enriched
from citepipe.prompts import TokenBudget

from conftest import make_record

# `config_sha256` of the built-in configuration; a run with no --config records it
DEFAULT_CONFIG_SHA256 = "160b0eef91c417bb320d836155333ffbea61d7e33260c8f8a3e7923f8315764a"

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

    def test_a_malformed_cite_spans_is_counted_and_skipped(self, hand_corpus, tmp_path, capsys):
        bad = [
            make_record("bad1", "A.", [{"section_name": "A", "sentences": ["Short."], "cite_spans": 5}]),
            make_record("bad2", "A.", [{"section_name": "A", "text": "Short [1].", "cite_spans": ["oops", None]}]),
        ]
        with open(hand_corpus, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in bad)
        out_path = tmp_path / "ds.jsonl"
        code, out, err = run(capsys, "build", "--corpus", str(hand_corpus), "--out", str(out_path))
        assert (code, err) == (0, "")
        assert f"wrote 3 sample(s) to {out_path}" in out
        assert read_run_manifest(out_path)["counts"]["ingest"]["validation_errors"] == 2

    def test_a_negative_cap_is_bad_usage_and_zero_keeps_none(self, hand_corpus, tmp_path, capsys):
        out_path = tmp_path / "ds.jsonl"
        argv = ["build", "--corpus", str(hand_corpus), "--out", str(out_path), "--max-samples-per-source"]
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out) == (1, "")
        assert err == "error: max_per_source must not be negative: -1\n"
        assert not out_path.exists()
        code, out, _ = run(capsys, *argv, "0")
        assert code == 0 and "wrote 0 sample(s)" in out

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

    def test_corrupt_dataset_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--dataset", str(bad))
        assert code == 1
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

    def test_a_nan_fraction_is_not_positive(self, dataset, tmp_path, capsys):
        code, out, err = run(
            capsys, "split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
            "--train", "nan", "--validation", "0.5", "--test", "0.5",
        )
        assert (code, out) == (1, "")
        assert err == "error: split fractions must be positive\n"
        assert not (tmp_path / "s").exists()

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


class TestSplitReferences:
    """A split part writes a paper's text once and names it by its bare id
    afterwards, each part on its own; dataset.jsonl stays all inline."""

    NAMES = ("train", "validation", "test")
    SPEC = SplitSpec(0.5, 0.25, 0.25, seed=3)

    @pytest.fixture
    def shared(self, tmp_path):
        """A dataset of 40 samples citing five papers, so each part repeats them."""
        papers = [
            TargetPaper(pid, f"Title {pid}", f"The abstract of paper {pid}. " * 8, f"Intro {pid}.", None)
            for pid in "abcde"
        ]
        samples = [
            CitationSample(
                f"s{i % 7}:0:{i}", f"s{i % 7}", f"Source {i % 7}.",
                [papers[i % 5], papers[(i + 1) % 5], papers[(i + 3) % 5]][: 2 + i % 2], f"Passage {i} cites them.",
            )
            for i in range(40)
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        return path

    def split(self, dataset, out_dir, capsys) -> list[Path]:
        spec = self.SPEC
        code, _, err = run(
            capsys, "split", "--dataset", str(dataset), "--out-dir", str(out_dir), "--seed", str(spec.seed),
            "--train", str(spec.train_fraction), "--validation", str(spec.val_fraction),
            "--test", str(spec.test_fraction),
        )
        assert code == 0, err
        return [out_dir / f"{name}.jsonl" for name in self.NAMES]

    @staticmethod
    def targets(path) -> list:
        return [t for line in path.read_text(encoding="utf-8").splitlines() for t in json.loads(line)["targets"]]

    def referenced(self, part) -> Path:
        assert any(type(t) is str for t in self.targets(part)), f"{part.name} names no paper by its id"
        return part

    def test_each_part_reads_back_as_its_share_of_the_dataset(self, shared, tmp_path, capsys):
        parts = self.split(shared, tmp_path / "parts", capsys)
        expected = split_dataset(read_dataset(shared), self.SPEC)
        for part, want in zip(parts, expected):
            assert read_dataset(self.referenced(part)) == want

    def test_a_paper_is_written_in_full_once_per_part_then_named_by_id(self, shared, tmp_path, capsys):
        for part in self.split(shared, tmp_path / "parts", capsys):
            seen: set[str] = set()
            for target in self.targets(self.referenced(part)):
                if type(target) is dict:
                    assert target["paper_id"] not in seen, f"{part.name}: {target['paper_id']} written twice"
                    seen.add(target["paper_id"])
                else:
                    assert target in seen, f"{part.name}: {target} named before its full entry"

    def test_a_source_abstract_is_written_once_per_part(self, shared, tmp_path, capsys):
        for part in self.split(shared, tmp_path / "parts", capsys):
            rows = [json.loads(line) for line in part.read_text(encoding="utf-8").splitlines()]
            firsts = {row["source_paper_id"]: row["sample_id"] for row in reversed(rows)}
            for row in rows:
                first = firsts[row["source_paper_id"]] == row["sample_id"]
                assert ("source_abstract" in row) == first, f"{part.name}: {row['sample_id']}"
            assert len(firsts) < len(rows)  # some source has more than one row

    def test_a_part_whose_first_row_lost_its_source_abstract_is_a_corrupt_line(self, shared, tmp_path, capsys):
        _, _, test = self.split(shared, tmp_path / "parts", capsys)
        lines = test.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        del row["source_abstract"]
        lines[0] = dump_row(row)
        test.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code, out, err = run(capsys, "stats", "--dataset", str(test))
        assert (code, out) == (1, "")
        source = row["source_paper_id"]
        assert err == f"error: {test}: line 1: source {source!r} has no source_abstract in this row or an earlier one\n"

    def test_a_part_copied_alone_still_reads(self, shared, tmp_path, capsys):
        _, validation, _ = self.split(shared, tmp_path / "parts", capsys)
        alone = tmp_path / "elsewhere" / "validation.jsonl"
        alone.parent.mkdir()
        alone.write_bytes(self.referenced(validation).read_bytes())
        assert read_dataset(alone) == split_dataset(read_dataset(shared), self.SPEC)[1]

    def test_evaluate_scores_a_referenced_part_as_its_inline_copy(self, shared, tmp_path, capsys):
        test = self.referenced(self.split(shared, tmp_path / "parts", capsys)[2])
        samples = read_dataset(test)
        inline = tmp_path / "inline.jsonl"
        inline.write_text("".join(dump_row(sample_to_dict(s)) + "\n" for s in samples), encoding="utf-8")
        assert test.stat().st_size < inline.stat().st_size
        generated = tmp_path / "generated.jsonl"
        generated.write_text(
            "".join(dump_row({"sample_id": s.sample_id, "text": f"Generated {i}."}) + "\n"
                    for i, s in enumerate(samples)),
            encoding="utf-8",
        )
        reports = []
        for name, gold in (("referenced", test), ("inline", inline)):
            report = tmp_path / f"{name}.json"
            code, _, err = run(capsys, "evaluate", "--generated", str(generated), "--dataset", str(gold),
                               "--out", str(report))
            assert code == 0, err
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_stats_of_a_part_are_those_of_its_samples(self, shared, tmp_path, capsys):
        parts = self.split(shared, tmp_path / "parts", capsys)
        for part, want in zip(parts, split_dataset(read_dataset(shared), self.SPEC)):
            code, out, _ = run(capsys, "stats", "--dataset", str(self.referenced(part)), "--json")
            assert code == 0
            assert json.loads(out) == compute_stats(want).to_dict()

    def test_the_parts_together_are_smaller_than_the_dataset(self, shared, tmp_path, capsys):
        parts = self.split(shared, tmp_path / "parts", capsys)
        # each part still writes every paper it cites once, so a small share of the total
        assert sum(p.stat().st_size for p in parts) < shared.stat().st_size / 2

    def test_build_writes_every_target_inline(self, dataset):
        # the benchmark's check_build reads each row's target abstracts inline
        targets = self.targets(dataset)
        assert all(type(t) is dict for t in targets)
        ids = [t["paper_id"] for t in targets]
        assert len(set(ids)) < len(ids)  # a repeated paper is written in full again


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

    @pytest.mark.parametrize("text, message", [
        pytest.param("split: 5\n", "section 'split' must be a mapping", id="section-not-a-mapping"),
        pytest.param("filter:\n  fields_of_study: Biology\n", "filter.fields_of_study must be a list",
                     id="fields-not-a-list"),
        pytest.param("- split\n", "top level must be a mapping", id="top-level-list"),
    ])
    def test_a_config_of_the_wrong_shape_exits_1(self, text, message, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1, err

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
        assert "unrecognized arguments" in err

    def test_default_config_digest_is_pinned(self, dataset):
        assert read_run_manifest(dataset)["config_sha256"] == DEFAULT_CONFIG_SHA256

    def test_readme_configuration_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block) == citepipe.config.DEFAULTS

    def test_layer_defaults_are_the_config_defaults(self):
        split, budget, endpoint = DEFAULTS["split"], DEFAULTS["budget"], DEFAULTS["endpoint"]
        assert SplitSpec() == SplitSpec(split["train"], split["validation"], split["test"], split["seed"])
        assert TokenBudget() == TokenBudget(budget["max_tokens"], budget["reserve_for_response"])
        settings = {key: value for key, value in endpoint.items() if key != "url"}
        assert [f.name for f in dataclasses.fields(ClientPolicy)] == list(settings)
        assert ClientPolicy() == ClientPolicy(**settings)
        fields = inspect.signature(stream_corpus).parameters["fields_of_study"].default
        assert fields == frozenset(DEFAULTS["filter"]["fields_of_study"])

    def test_config_value_is_converted_like_its_flag(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text('split:\n  seed: "9"\n', encoding="utf-8")
        code, _, _ = run(
            capsys, "--config", str(cfg), "split",
            "--dataset", str(dataset), "--out-dir", str(tmp_path / "a"),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "b"), "--seed", "9",
        )
        assert code == 0
        for name in ("train", "validation", "test"):
            part = f"{name}.jsonl"
            assert (tmp_path / "a" / part).read_bytes() == (tmp_path / "b" / part).read_bytes()
        assert read_run_manifest(tmp_path / "a" / "train.jsonl")["counts"]["seed"] == 9

    def test_config_value_its_flag_rejects_is_a_usage_error(self, tmp_path, capsys):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n", encoding="utf-8")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("endpoint:\n  max_parallel: four\n", encoding="utf-8")
        code, _, err = run(
            capsys, "--config", str(cfg), "generate",
            "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl"),
        )
        assert code == 1
        assert "--max-parallel" in err and "Traceback" not in err

    @pytest.mark.parametrize(("config", "command", "message"), [
        pytest.param("split:\n  seed: true\n", "split", "argument --seed: invalid int value in the config: True",
                     id="bool-seed"),
        pytest.param("split:\n  seed: 2.7\n", "split", "argument --seed: invalid int value in the config: 2.7",
                     id="float-seed"),
        pytest.param("budget:\n  max_tokens: 2048.9\n", "prompts",
                     "argument --max-tokens: invalid int value in the config: 2048.9", id="float-max-tokens"),
        pytest.param("endpoint:\n  backoff_multiplier: true\n", "generate",
                     "endpoint.backoff_multiplier: invalid float value in the config: True", id="bool-backoff-multiplier"),
    ])
    def test_config_value_of_a_type_its_flag_refuses_is_a_usage_error(
        self, config, command, message, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(citepipe.cli, "generate_batch", lambda *args, **kwargs: [])
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n", encoding="utf-8")
        argv = {
            "split": ["split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "s")],
            "prompts": ["prompts", "--dataset", str(dataset), "--out", str(tmp_path / "p.jsonl")],
            "generate": ["generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl")],
        }[command]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config, encoding="utf-8")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (1, "")
        assert err == f"citepipe {command}: error: {message}\n"

    def test_an_int_config_value_is_taken_by_a_float_flag(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("split:\n  train: 1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "--config", str(cfg), "split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "s"),
        )
        # the value reaches the split, whose fractions no longer sum to 1
        assert code == 1 and err.startswith("error: split fractions sum to 1.199"), err

    def test_flags_beat_the_config_for_paths_and_filter(self, hand_corpus, triplets_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"paths:\n  corpus: {tmp_path / 'no-corpus'}\n  triplets: {tmp_path / 'no-triplets.jsonl'}\n"
            "filter:\n  fields_of_study: [Biology]\n",
            encoding="utf-8",
        )
        dataset = tmp_path / "ds.jsonl"
        code, _, _ = run(capsys, "--config", str(cfg), "build", "--out", str(dataset))
        assert code == 2  # the configured corpus is missing
        code, out, _ = run(
            capsys, "--config", str(cfg), "build", "--out", str(dataset), "--corpus", str(hand_corpus),
        )
        assert code == 0 and "wrote 0 sample(s)" in out  # the configured field filters all out
        code, out, _ = run(
            capsys, "--config", str(cfg), "build", "--out", str(dataset),
            "--corpus", str(hand_corpus), "--field", "Computer Science",
        )
        assert code == 0 and "wrote 3 sample(s)" in out
        enriched = tmp_path / "enriched.jsonl"
        argv = ["--config", str(cfg), "kg-merge", "--dataset", str(dataset), "--out", str(enriched)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "no-triplets.jsonl" in err
        code, _, _ = run(capsys, *argv, "--triplets", str(triplets_file))
        assert code == 0
        assert read_run_manifest(enriched)["inputs"][1]["path"] == "triplets.jsonl"

    def test_endpoint_settings_reach_the_client(self, tmp_path, capsys, monkeypatch):
        calls = []

        def fake_generate_batch(batch, endpoint, policy, **kwargs):
            calls.append((list(batch), endpoint, policy))
            return []

        monkeypatch.setattr(citepipe.cli, "generate_batch", fake_generate_batch)
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n", encoding="utf-8")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "endpoint:\n  url: http://config.invalid/generate\n  backoff_multiplier: 3.5\n"
            "  temperature: 0\n",
            encoding="utf-8",
        )
        argv = ["--config", str(cfg), "generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl")]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--endpoint", "http://flag.invalid/generate")[0] == 0
        (batch, from_config, policy), (_, from_flag, _) = calls
        assert policy.backoff_multiplier == 3.5
        assert (from_config, from_flag) == ("http://config.invalid/generate", "http://flag.invalid/generate")
        assert type(policy.temperature) is float


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

    def test_corrupt_last_line_keeps_the_previous_file(self, dataset, triplets_file, tmp_path, capsys):
        # the dataset streams into the write, so the bad line is met mid-write
        out_path = tmp_path / "out" / "enriched.jsonl"
        out_path.parent.mkdir()
        argv = ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file), "--out", str(out_path)]
        assert run(capsys, *argv)[0] == 0
        before = {p.name: p.read_bytes() for p in out_path.parent.iterdir()}
        with open(dataset, "a", encoding="utf-8") as fh:
            fh.write('{"sample_id": "torn"\n')
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"{dataset}: line 4: " in err
        assert {p.name: p.read_bytes() for p in out_path.parent.iterdir()} == before


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


class TestDatasetTextFields:
    """A dataset row with a text field that is not a string is a corrupt line
    for every command that reads it, named by file and line."""

    @staticmethod
    def corrupt_line_2(path, sample=None, target=None, key=None):
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        inner = row[key] if key else row
        inner.update(sample or {})
        inner["targets"][0].update(target or {})
        lines[1] = dump_row(row)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def argv(self, command, dataset, tmp_path, triplets_file):
        out = str(tmp_path / "out.jsonl")
        if command == "evaluate":
            generated = tmp_path / "generated.jsonl"
            ids = [json.loads(line)["sample_id"] for line in dataset.read_text().splitlines()]
            generated.write_text("".join(dump_row({"sample_id": i, "text": "a guess"}) + "\n" for i in ids))
            return ["evaluate", "--generated", str(generated), "--dataset", str(dataset), "--out", out]
        return {
            "stats": ["stats", "--dataset", str(dataset)],
            "split": ["split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "parts")],
            "kg-merge": ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file), "--out", out],
            "prompts": ["prompts", "--mode", "baseline", "--dataset", str(dataset), "--out", out],
        }[command]

    @pytest.mark.parametrize(("command", "sample", "target"), [
        pytest.param("stats", {"citation_text": 7}, None, id="stats-int-citation"),
        pytest.param("stats", None, {"abstract": None}, id="stats-null-target-abstract"),
        pytest.param("split", {"source_abstract": 2.5}, None, id="split-float-source-abstract"),
        pytest.param("split", None, {"introduction": 1}, id="split-int-introduction"),
        pytest.param("prompts", {"source_abstract": None}, None, id="prompts-null-source-abstract"),
        pytest.param("prompts", {"source_abstract": 3}, None, id="prompts-int-source-abstract"),
        pytest.param("prompts", None, {"title": 5}, id="prompts-int-title"),
        pytest.param("evaluate", {"citation_text": 7}, None, id="evaluate-int-citation"),
        pytest.param("kg-merge", {"section_name": None}, None, id="kg-merge-null-section"),
        pytest.param("kg-merge", None, {"paper_id": True}, id="kg-merge-bool-paper-id"),
        pytest.param("kg-merge", None, {"conclusion": 0}, id="kg-merge-int-conclusion"),
    ])
    def test_a_field_that_is_not_text_is_a_corrupt_line(
        self, command, sample, target, dataset, triplets_file, tmp_path, capsys
    ):
        self.corrupt_line_2(dataset, sample, target)
        code, out, err = run(capsys, *self.argv(command, dataset, tmp_path, triplets_file))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {dataset}: line 2: ") and "not a string" in err, err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(("sample", "target"), [
        pytest.param({"source_abstract": None}, None, id="null-source-abstract"),
        pytest.param(None, {"abstract": 4}, id="int-target-abstract"),
    ])
    def test_kg_prompts_reject_an_enriched_row_that_is_not_text(
        self, sample, target, dataset, triplets_file, tmp_path, capsys
    ):
        enriched = tmp_path / "enriched.jsonl"
        merge = ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file), "--out", str(enriched)]
        assert run(capsys, *merge)[0] == 0
        self.corrupt_line_2(enriched, sample, target, key="sample")
        code, out, err = run(
            capsys, "prompts", "--mode", "kg", "--enriched", str(enriched), "--out", str(tmp_path / "p.jsonl")
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {enriched}: line 2: ") and "not a string" in err, err

    @pytest.mark.parametrize(("edit", "message"), [
        pytest.param(lambda row: row["source_triplets"]["triplets"].append({"head": 5, "relation": "r", "tail": "t"}),
                     "head is int, not a string", id="int-triplet-head"),
        pytest.param(lambda row: row["source_triplets"]["triplets"].append({"head": "h", "relation": "r", "tail": None}),
                     "tail is null, not a string", id="null-triplet-tail"),
        pytest.param(lambda row: row["target_triplets"][0].update(paper_id=7),
                     "paper_id is int, not a string", id="int-target-paper-id"),
        pytest.param(lambda row: row["sample"].update(targets=[{"paper_id": ["t1"]}]),
                     "paper_id is list, not a string", id="list-sample-target-paper-id"),
        pytest.param(lambda row: row["source_triplets"].update(section={}),
                     "section is dict, not a string", id="object-block-section"),
        pytest.param(lambda row: row.update(missing_target_triplets="yes"),
                     "missing_target_triplets is str, not a boolean", id="str-missing-target-triplets"),
    ])
    def test_kg_prompts_reject_an_enriched_field_of_the_wrong_type(
        self, edit, message, dataset, triplets_file, tmp_path, capsys
    ):
        enriched = tmp_path / "enriched.jsonl"
        merge = ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file), "--out", str(enriched)]
        assert run(capsys, *merge)[0] == 0
        lines = enriched.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        edit(row)
        lines[1] = dump_row(row)
        enriched.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code, out, err = run(
            capsys, "prompts", "--mode", "kg", "--enriched", str(enriched), "--out", str(tmp_path / "p.jsonl")
        )
        assert (code, out) == (1, "")
        assert err == f"error: {enriched}: line 2: {message}\n"


class TestEnrichedReferences:
    """An enriched file writes a target's text once and names it by its bare
    id afterwards; a reader resolves the id to the last full entry before it."""

    def merged(self, dataset, triplets_file, tmp_path, capsys):
        enriched = tmp_path / "enriched.jsonl"
        merge = ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file), "--out", str(enriched)]
        assert run(capsys, *merge)[0] == 0
        return enriched

    def prompts(self, enriched, out, capsys):
        return run(
            capsys, "prompts", "--mode", "kg", "--include-introductions", "--include-conclusions",
            "--enriched", str(enriched), "--out", str(out),
        )

    def test_a_file_with_every_target_inline_reads_the_same(self, dataset, triplets_file, tmp_path, capsys):
        # legacy files: every target and source abstract inline, and every
        # triplet type written, null or not
        enriched = self.merged(dataset, triplets_file, tmp_path, capsys)
        rows = [enriched_to_dict(es) for es in read_enriched(enriched)]
        for row in rows:
            blocks = [row["source_triplets"], *(tt[section] for tt in row["target_triplets"] for section in SECTIONS)]
            for block in filter(None, blocks):
                for triplet in block["triplets"]:
                    triplet.setdefault("head_type", None)
                    triplet.setdefault("tail_type", None)
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("".join(dump_row(row) + "\n" for row in rows), encoding="utf-8")
        assert '"head_type": null' in legacy.read_text(encoding="utf-8")
        assert "head_type" not in enriched.read_text(encoding="utf-8")
        assert enriched.stat().st_size < legacy.stat().st_size
        assert read_enriched(legacy) == read_enriched(enriched)
        assert self.prompts(enriched, tmp_path / "p.jsonl", capsys)[0] == 0
        assert self.prompts(legacy, tmp_path / "p-legacy.jsonl", capsys)[0] == 0
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "p-legacy.jsonl").read_bytes()

        assert run(capsys, "split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "parts"))[0] == 0
        part = tmp_path / "parts" / "train.jsonl"
        legacy_part = tmp_path / "legacy-train.jsonl"
        legacy_part.write_text(
            "".join(dump_row(sample_to_dict(s)) + "\n" for s in read_dataset(part)), encoding="utf-8"
        )
        assert part.stat().st_size < legacy_part.stat().st_size
        assert read_dataset(legacy_part) == read_dataset(part)
        for name, path in (("p-part.jsonl", part), ("p-legacy-part.jsonl", legacy_part)):
            argv = ["prompts", "--mode", "baseline", "--dataset", str(path), "--out", str(tmp_path / name)]
            assert run(capsys, *argv)[0] == 0
        assert (tmp_path / "p-part.jsonl").read_bytes() == (tmp_path / "p-legacy-part.jsonl").read_bytes()

    def test_a_first_row_naming_a_target_by_id_is_a_corrupt_line(self, dataset, triplets_file, tmp_path, capsys):
        enriched = self.merged(dataset, triplets_file, tmp_path, capsys)
        lines = enriched.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row["sample"]["targets"][0] = row["sample"]["targets"][0]["paper_id"]
        lines[0] = dump_row(row)
        enriched.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code, out, err = self.prompts(enriched, tmp_path / "p.jsonl", capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {enriched}: line 1: target 't1' is a bare id with no earlier full entry\n"

    def test_a_first_row_without_its_source_abstract_is_a_corrupt_line(self, dataset, triplets_file, tmp_path, capsys):
        enriched = self.merged(dataset, triplets_file, tmp_path, capsys)
        lines = enriched.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        del row["sample"]["source_abstract"]
        lines[0] = dump_row(row)
        enriched.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code, out, err = self.prompts(enriched, tmp_path / "p.jsonl", capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {enriched}: line 1: source 's1' has no source_abstract in this row or an earlier one\n"

    def test_a_filtered_file_that_lost_a_full_entry_is_a_corrupt_line(self, triplets_file, tmp_path, capsys):
        a, b, c, d = (TargetPaper(pid, abstract=f"Abstract {pid}.") for pid in "abcd")
        dataset = tmp_path / "dataset.jsonl"
        rows = [[a, b], [c, d], [a, c]]
        # a source of its own per row, so each row holds its source abstract
        samples = [CitationSample(f"s{i}:0:0", f"s{i}", "Source.", ts, "Cited.") for i, ts in enumerate(rows)]
        write_dataset(samples, dataset)
        enriched = self.merged(dataset, triplets_file, tmp_path, capsys)
        # as `grep -v '"sample_id": "s0:0:0"'` leaves it: the full entry of a goes
        kept = [line for line in enriched.read_text(encoding="utf-8").splitlines(True) if '"s0:0:0"' not in line]
        filtered = tmp_path / "filtered.jsonl"
        filtered.write_text("".join(kept), encoding="utf-8")
        code, out, err = self.prompts(filtered, tmp_path / "p.jsonl", capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {filtered}: line 2: target 'a' is a bare id with no earlier full entry\n"


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
        # the head is indented, and each per-sample row is one line
        lines = report_file.read_text().splitlines()
        assert lines[:2] == ["{", '  "corpus": {'] and lines[-2:] == ["  ]", "}"]
        assert lines[-5:-2] == [f"    {dump_row(row)}," for row in payload["per_sample"][:2]] + [
            f"    {dump_row(payload['per_sample'][2])}"
        ]

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
        assert f"{bad}: line 1: " in err

    def test_evaluate_scores_a_partial_generation_and_counts_the_rest(self, dataset, tmp_path, capsys):
        samples = read_dataset(dataset)
        generated = tmp_path / "generated.jsonl"
        generated.write_text(dump_row({"sample_id": samples[1].sample_id, "text": "a guess"}) + "\n")
        report_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "evaluate", "--generated", str(generated), "--dataset", str(dataset),
            "--out", str(report_file),
        )
        assert (code, err) == (0, "")
        per_sample = json.loads(report_file.read_text())["per_sample"]
        assert [row["sample_id"] for row in per_sample] == [samples[1].sample_id]
        missing = sorted(s.sample_id for s in samples if s is not samples[1])
        assert read_run_manifest(report_file)["counts"] == {
            "gold": 3, "missing": 2, "missing_ids": missing, "scored": 1,
        }

    def test_evaluate_rejects_unknown_ids(self, dataset, tmp_path, capsys):
        generated = tmp_path / "generated.jsonl"
        generated.write_text(dump_row({"sample_id": "ghost", "text": "hi"}) + "\n")
        code, _, err = run(
            capsys, "evaluate", "--generated", str(generated), "--dataset", str(dataset),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "missing from the dataset: ghost" in err

    NOT_STRINGS = [
        pytest.param({"sample_id": 7}, id="int-id"),
        pytest.param({"sample_id": None}, id="null-id"),
        pytest.param({"text": 5}, id="int-text"),
        pytest.param({"text": ["a"]}, id="list-text"),
    ]

    @pytest.mark.parametrize("bad", NOT_STRINGS)
    def test_evaluate_rejects_a_generation_row_that_is_not_strings(self, bad, dataset, tmp_path, capsys):
        sample_id = read_dataset(dataset)[0].sample_id
        generated = tmp_path / "generated.jsonl"
        rows = [{"sample_id": sample_id, "text": "fine"}, {"sample_id": "zz", "text": "x", **bad}]
        generated.write_text("".join(dump_row(row) + "\n" for row in rows))
        code, out, err = run(
            capsys, "evaluate", "--generated", str(generated), "--dataset", str(dataset),
            "--out", str(tmp_path / "r.json"),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {generated}: line 2: not a generation row") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("bad", NOT_STRINGS)
    def test_generate_resume_rejects_a_generation_row_that_is_not_strings(self, bad, tmp_path, capsys):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n")
        generated = tmp_path / "generated.jsonl"
        generated.write_text(dump_row({"sample_id": "a", "text": "x", **bad}) + "\n")
        # no endpoint is reached: the output file is read before any request
        code, out, err = run(capsys, "generate", "--prompts", str(prompts), "--out", str(generated))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {generated}: line 1: not a generation row") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("bad", [
        pytest.param({"sample_id": 7}, id="int-id"),
        pytest.param({"prompt": 5}, id="int-prompt"),
        pytest.param({"prompt": None}, id="null-prompt"),
    ])
    def test_generate_rejects_a_prompt_row_that_is_not_strings(self, bad, tmp_path, capsys):
        prompts = tmp_path / "prompts.jsonl"
        rows = [{"sample_id": "a", "prompt": "p"}, {"sample_id": "b", "prompt": "q", **bad}]
        prompts.write_text("".join(dump_row(row) + "\n" for row in rows))
        code, out, err = run(capsys, "generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl"))
        assert (code, out) == (1, "")
        assert f"{prompts}: line 2: " in err and "need sample_id and prompt" in err
        assert len(err.splitlines()) == 1

    def test_a_malformed_endpoint_exits_1_at_once(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n")
        done = fresh("-m", "citepipe.cli", "generate", "--prompts", str(prompts), "--out", str(tmp_path / "g.jsonl"),
                     "--endpoint", "http://[::1/x", timeout=30)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1, done.stderr
        assert not (tmp_path / "g.jsonl").exists()

    @pytest.mark.parametrize("setting, message", [
        pytest.param(("--endpoint", "localhost:8080/generate"), "not an http:// or https:// URL", id="no-scheme"),
        pytest.param(("--endpoint", "ftp://127.0.0.1:9/x"), "not an http:// or https:// URL", id="ftp"),
        pytest.param(("--endpoint", "http:///x"), "not an http:// or https:// URL", id="no-host"),
        pytest.param(("--endpoint", "http://user:pw@127.0.0.1:9/x"),
                     "'http://***@127.0.0.1:9/x' is not an http:// or https:// URL with a host and no credentials",
                     id="credentials"),
        pytest.param(("--temperature", "nan"), "temperature must be finite", id="nan-temperature"),
        pytest.param(("--timeout-seconds", "0"), "timeout_seconds must be positive", id="zero-timeout"),
        pytest.param(("--timeout-seconds", "-1"), "timeout_seconds must be positive", id="negative-timeout"),
        pytest.param(("--timeout-seconds", "1e300"), "timeout_seconds must be positive and at most",
                     id="overflowing-timeout"),
        pytest.param(("--max-attempts", "2", "--backoff-seconds", "inf"), "backoff_seconds must be non-negative",
                     id="inf-backoff"),
        pytest.param(("--max-attempts", "2", "--backoff-seconds", "nan"), "backoff_seconds must be non-negative",
                     id="nan-backoff"),
        pytest.param(("--max-attempts", "2", "--backoff-seconds", "-1"), "backoff_seconds must be non-negative",
                     id="negative-backoff"),
        pytest.param(("--config", "endpoint:\n  backoff_multiplier: .inf\n"), "backoff_multiplier must be non-negative",
                     id="inf-config-multiplier"),
    ])
    def test_a_bad_endpoint_setting_exits_1_at_once_and_writes_nothing(self, setting, message, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n")
        out = tmp_path / "g.jsonl"
        before = ()  # --config comes before the command
        if setting[0] == "--config":
            config = tmp_path / "citepipe.yaml"
            config.write_text(setting[1])
            before, setting = ("--config", str(config)), ()
        done = fresh("-m", "citepipe.cli", *before, "generate", "--prompts", str(prompts), "--out", str(out),
                     *setting, timeout=30)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1, done.stderr
        assert message in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("endpoint, token", [
        pytest.param("ftp://nowhere/x", None, id="ftp"),
        pytest.param("http://user:pw@127.0.0.1:9/x", None, id="credentials"),
        pytest.param("http://127.0.0.1:9/a b", None, id="space"),
        pytest.param("http://127.0.0.1:9/x", "a\r\nX-Injected: 1", id="token"),
    ])
    def test_a_bad_endpoint_exits_1_when_every_row_is_done_too(self, endpoint, token, tmp_path, capsys, monkeypatch):
        if token is None:
            monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        else:
            monkeypatch.setenv(AUTH_TOKEN_ENV, token)
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(dump_row({"sample_id": "a", "prompt": "p"}) + "\n")
        out = tmp_path / "g.jsonl"
        out.write_text(dump_row({"sample_id": "a", "text": "done"}) + "\n")
        before = out.read_bytes()
        code, stdout, err = run(capsys, "generate", "--prompts", str(prompts), "--out", str(out), "--endpoint", endpoint)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert out.read_bytes() == before
        assert not run_manifest_path(out).exists()

    NOT_REPORTS = [
        pytest.param("{}", id="empty-object"),
        pytest.param("[1]", id="list"),
        pytest.param('{"n": 1, "per_sample": [], "corpus": {"METEOR": 1, "Rouge-1": 2, "Rouge-2": 3}}',
                     id="missing-column"),
        pytest.param('{"n": 1, "per_sample": [1], "corpus": {}}', id="bad-per-sample"),
        pytest.param("{oops", id="not-json"),
    ]

    @pytest.mark.parametrize("text", NOT_REPORTS)
    def test_report_rejects_json_that_is_not_a_report(self, text, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not an evaluation report") and len(err.splitlines()) == 1, err


def test_each_layer_error_is_the_builtin_of_its_exit_code():
    # `main` maps an error to its exit code by these bases alone
    from citepipe.client import EndpointError
    from citepipe.prompts import BudgetExhausted

    assert issubclass(BudgetExhausted, ValueError)  # exit 1: bad data
    assert issubclass(EndpointError, OSError)  # exit 2: environment
    assert not issubclass(EndpointError, ValueError)


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


def fresh(*argv: str, cwd=None, timeout=None) -> subprocess.CompletedProcess:
    """Run the interpreter on `argv` with the package importable, as a user does."""
    env = {**os.environ, "PYTHONPATH": str(Path(citepipe.__file__).parents[1])}
    env.pop(AUTH_TOKEN_ENV, None)
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


CLI_MODULES = ["citepipe", "citepipe.cli", "citepipe.config", "citepipe.jsonl"]


def test_importing_the_cli_loads_neither_numerics_nor_the_thread_pool():
    # each command starts a fresh interpreter, so every module the cli imports
    # up front is paid by every command
    probe = (
        "import sys, citepipe.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'citepipe')); "
        "print('concurrent.futures' in sys.modules)"
    )
    done = fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [repr(CLI_MODULES), "False"]


# the layers each command adds to CLI_MODULES
COMMAND_LAYERS = {
    "build": ["corpus", "dataset"],
    "split": ["dataset"],
    "kg-merge": ["dataset", "kg"],
    "prompts": ["dataset", "kg", "prompts"],
    "generate": ["client"],
    "evaluate": ["dataset", "metrics", "stemmer"],
}


@pytest.fixture
def chain(hand_corpus, triplets_file, tmp_path, capsys, mock_endpoint):
    """The arguments of each command of the chain, with its inputs made in-process."""
    dataset = tmp_path / "dataset.jsonl"
    enriched = tmp_path / "enriched.jsonl"
    prompts = tmp_path / "prompts.jsonl"
    generated = tmp_path / "generated.jsonl"
    steps = {
        "build": ["build", "--corpus", str(hand_corpus), "--out", str(dataset)],
        "split": ["split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "splits")],
        "kg-merge": ["kg-merge", "--dataset", str(dataset), "--triplets", str(triplets_file),
                     "--out", str(enriched)],
        "prompts": ["prompts", "--mode", "kg", "--enriched", str(enriched), "--out", str(prompts)],
        "generate": ["generate", "--prompts", str(prompts), "--out", str(generated),
                     "--endpoint", mock_endpoint.url, "--backoff-seconds", "0"],
        "evaluate": ["evaluate", "--generated", str(generated), "--dataset", str(dataset),
                     "--out", str(tmp_path / "report.json")],
    }
    for name in ("build", "kg-merge", "prompts"):
        code, out, err = run(capsys, *steps[name])
        assert code == 0, (name, out, err)
    rows = [{"sample_id": s.sample_id, "text": s.citation_text} for s in read_dataset(dataset)]
    generated.write_text("".join(dump_row(row) + "\n" for row in rows), encoding="utf-8")
    return steps


# standard-library modules no command needs: the thread pool, and the HTTP
# library, which brings in the email parser and ssl (generate speaks HTTP/1.1
# on a plain socket, and imports ssl only for an https:// endpoint)
UNNEEDED = ("concurrent.futures", "email.parser", "http.client", "ssl")


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_each_command_imports_only_its_layers(chain, command):
    probe = (
        "import sys, citepipe.cli; code = citepipe.cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'citepipe')); "
        f"print([m for m in {UNNEEDED!r} if m in sys.modules]); sys.exit(code)"
    )
    if command == "generate":  # no row to reuse, so the workers start and send every request
        argv = chain[command]
        Path(argv[argv.index("--out") + 1]).unlink()
        assert argv[argv.index("--endpoint") + 1].startswith("http://")
    done = fresh("-c", probe, *chain[command])
    assert done.returncode == 0, done.stderr
    want = sorted(CLI_MODULES + [f"citepipe.{layer}" for layer in COMMAND_LAYERS[command]])
    assert done.stdout.splitlines()[-2:] == [repr(want), "[]"]


# prints the loaded modules that are neither the standard library's nor citepipe's
THIRD_PARTY = (
    "import sys; own = sys.stdlib_module_names | {'citepipe'}; "
    "print(sorted(m for m in sys.modules if m.partition('.')[0] not in own))"
)


@pytest.mark.parametrize("command", [None, *sorted(COMMAND_LAYERS)])
def test_the_cli_runs_on_the_standard_library_alone(chain, command):
    bare = fresh("-c", THIRD_PARTY)  # what site loads before any code of ours
    assert bare.returncode == 0, bare.stderr
    if command is None:
        done = fresh("-c", "import citepipe.cli; " + THIRD_PARTY)
    else:
        run_it = "import sys, citepipe.cli; code = citepipe.cli.main(sys.argv[1:]); "
        done = fresh("-c", run_it + THIRD_PARTY + "; sys.exit(code)", *chain[command])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == bare.stdout.strip()


# one argv per usage error, with the text the message must name; {dataset} is
# an existing file, {dir} an existing directory, {missing} a path to nothing
USAGE_ERRORS = [
    pytest.param([], "COMMAND", id="no-command"),
    pytest.param(["nope"], "'nope'", id="unknown-command"),
    pytest.param(["numerics"], "COMMAND", id="no-numerics-command"),
    pytest.param(["build", "--nope"], "unrecognized arguments: --nope", id="unknown-flag"),
    pytest.param(["split", "--datas", "{dataset}", "--out-dir", "{dir}"], "--datas", id="abbreviated-flag"),
    pytest.param(["build", "--corpus", "{dataset}"], "--out", id="missing-option"),
    pytest.param(["build", "--out"], "--out", id="missing-value"),
    pytest.param(["split", "--dataset", "{dataset}", "--out-dir", "{dir}", "--seed", "x"], "--seed",
                 id="value-its-type-rejects"),
    pytest.param(["prompts", "--mode", "neither", "--out", "{missing}"], "--mode", id="unknown-choice"),
    pytest.param(["stats", "--dataset", "{missing}"], "does not exist", id="missing-input-file"),
    pytest.param(["stats", "--dataset", "{dir}"], "is a directory", id="input-directory"),
    pytest.param(["--config", "{missing}", "stats", "--dataset", "{dataset}"], "--config", id="missing-config"),
    pytest.param(["build", "--out", "{dir}"], "--out", id="out-directory"),
    pytest.param(["split", "--dataset", "{dataset}", "--out-dir", "{dataset}"], "--out-dir", id="out-dir-file"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS)
def test_usage_errors_exit_1_with_one_line(argv, named, dataset, tmp_path, capsys):
    paths = {"dataset": dataset, "dir": tmp_path, "missing": tmp_path / "gone.jsonl"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "error:" in err and named in err, err


@pytest.mark.parametrize(
    "command",
    [[], *([name] for name in ("build", "stats", "split", "kg-merge", "prompts", "generate", "evaluate",
                               "report", "numerics")),
     ["numerics", "quantile-map"], ["numerics", "optimize"]],
    ids=lambda command: " ".join(command) or "citepipe",
)
def test_help_exits_0(command, capsys):
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: citepipe", *command]))


# every name perfbench/tracer.py reads and replaces on citepipe.cli before a command runs
TRACED_NAMES = [
    "corpus_files", "stream_corpus", "build_lookup", "extract_samples", "write_dataset",
    "read_dataset", "split_dataset", "load_triplets", "attach_triplets", "write_enriched",
    "read_enriched", "render_baseline", "render_kg", "emit_finetune_file", "read_prompt_file",
    "generate_batch", "evaluate_corpus", "report_to_dict", "render_report_table",
    "write_run_manifest",
]


def test_a_wrapper_set_before_the_command_is_the_one_it_calls(dataset, tmp_path):
    # in a fresh interpreter, so the other dataset names are still unbound when
    # the wrapper is set and the command has to bind them around it
    probe = (
        "import sys, citepipe.cli as cli\n"
        "from citepipe.dataset import read_dataset\n"
        "calls = []\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return read_dataset(*args, **kwargs)\n"
        "cli.read_dataset = counting\n"
        "code = cli.main(sys.argv[2:])\n"
        "names = sys.argv[1].split(',')\n"
        "print(code, len(calls), [n for n in names if not callable(getattr(cli, n))], cli.read_dataset is counting)\n"
    )
    argv = ["split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "splits")]
    done = fresh("-c", probe, ",".join(TRACED_NAMES), *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1 [] True"


def test_the_chain_runs_as_python_m(chain, tmp_path):
    # under -m the module is __main__, which no in-process test reaches
    for name in ("build", "split", "kg-merge", "prompts", "generate", "evaluate"):
        done = fresh("-m", "citepipe.cli", *chain[name], cwd=tmp_path)
        assert done.returncode == 0, (name, done.stdout, done.stderr)
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 3

    # a corrupt line is bad data, and an error class of a layer loaded on first
    # use still maps to its exit code
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n", encoding="utf-8")
    done = fresh("-m", "citepipe.cli", "split", "--dataset", str(bad), "--out-dir", str(tmp_path / "x"))
    assert (done.returncode, done.stderr.startswith("error: ")) == (1, True), done.stderr
    done = fresh(
        "-m", "citepipe.cli", "generate", "--prompts", chain["generate"][2], "--out", str(tmp_path / "g.jsonl"),
        "--endpoint", "http://127.0.0.1:9/generate", "--max-attempts", "1", "--backoff-seconds", "0",
    )
    assert (done.returncode, done.stderr.startswith("error: ")) == (2, True), done.stderr
    done = fresh(
        "-m", "citepipe.cli", "prompts", "--dataset", chain["build"][-1], "--out", str(tmp_path / "p.jsonl"),
        "--max-tokens", "20", "--reserve", "0",
    )
    assert done.returncode == 1, done.stderr
    assert "cannot fit a 20-token budget" in done.stderr


def tree(root: Path) -> dict[str, bytes]:
    """The bytes of every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def restore(root: Path, files: dict[str, bytes]) -> None:
    """Put `root` back to `files`, a `tree` of it: other files and the
    directories they leave empty go."""
    for p in sorted(root.rglob("*"), reverse=True):  # a directory's files before the directory
        if p.is_file() and str(p.relative_to(root)) not in files:
            p.unlink()
        elif p.is_dir() and not any(p.iterdir()):
            p.rmdir()
    for name, data in files.items():
        (root / name).write_bytes(data)


@pytest.mark.parametrize("command", ["build", "split", "kg-merge", "prompts", "generate", "evaluate"])
def test_a_rerun_after_a_kill_at_any_write_gives_the_clean_run_bytes(command, chain, tmp_path, capsys, monkeypatch):
    # For every k, an interrupt at the k-th write (a chunk through
    # jsonl.write_text, or an os.replace) then a plain rerun must leave what
    # a clean run leaves, and no temp file. `generate` appends the rows it
    # receives through its own handle, which this leaves out: here every row
    # is present, out of order, so its one write is the canonical rewrite.
    argv = chain[command]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if command == "generate":
        rows = sorted(out.read_text(encoding="utf-8").splitlines(), reverse=True)
        out.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    elif out is not None:  # the chain made the inputs of every command, and so some outputs
        out.unlink(missing_ok=True)
        run_manifest_path(out).unlink(missing_ok=True)
    before = tree(tmp_path)
    assert main(argv) == 0
    clean = tree(tmp_path)
    assert clean != before
    real_write_text, real_replace = citepipe.jsonl.write_text, os.replace
    # every module of the package that the clean run loaded and that calls the writer by name
    writers = [m for name, m in sys.modules.items()
               if name.startswith("citepipe.") and getattr(m, "write_text", None) is real_write_text]
    k = 0
    while True:
        k += 1
        restore(tmp_path, before)
        writes = 0

        def write():
            nonlocal writes
            writes += 1
            if writes == k:
                raise KeyboardInterrupt

        def write_text(path, chunks):
            def counted():
                for chunk in chunks:
                    write()
                    yield chunk
            return real_write_text(path, counted())

        def replace(src, dst):
            write()
            return real_replace(src, dst)

        with monkeypatch.context() as patched:
            for module in writers:
                patched.setattr(module, "write_text", write_text)
            patched.setattr(os, "replace", replace)
            try:
                code = main(argv)
            except KeyboardInterrupt:
                code = None
        if code is not None:  # k is past the run's last write
            assert (code, tree(tmp_path)) == (0, clean)
            break
        assert list(tmp_path.rglob("*.tmp")) == [], k
        assert main(argv) == 0, k
        assert tree(tmp_path) == clean, k
    capsys.readouterr()
    assert k > 2  # at least the output's chunk and its replace, and the sidecar's


def test_an_interrupt_keeps_every_answered_row(tmp_path, mock_endpoint):
    ids = [f"s{i:02d}" for i in range(40)]
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("".join(dump_row({"sample_id": i, "prompt": f"prompt for {i}"}) + "\n" for i in ids))
    generated = tmp_path / "generated.jsonl"
    max_parallel = 2
    argv = ["-m", "citepipe.cli", "generate", "--prompts", str(prompts), "--out", str(generated),
            "--endpoint", mock_endpoint.url, "--max-parallel", str(max_parallel), "--backoff-seconds", "0"]
    env = {**os.environ, "PYTHONPATH": str(Path(citepipe.__file__).parents[1])}
    env.pop(AUTH_TOKEN_ENV, None)

    def sent() -> list[tuple[str, float]]:
        with mock_endpoint.lock:
            return [(e["payload"]["prompt"].removeprefix("prompt for "), e["arrived"]) for e in mock_endpoint.requests]

    def kept() -> set[str]:
        return {json.loads(line)["sample_id"] for line in generated.read_text(encoding="utf-8").splitlines()}

    # the replies after the 4th wait until the signal is sent, so the batch
    # cannot finish first however slow the machine is
    mock_endpoint.delay_seconds = 0.05
    mock_endpoint.hold_after = 4
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 30
        while not (generated.exists() and len(kept()) >= 4):
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.005)
        signalled = time.monotonic()
        proc.send_signal(signal.SIGINT)
        mock_endpoint.release.set()
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGINT, (out, err)
    # one traceback, the main thread's; none from a worker
    assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err
    answered = sent()
    assert {sample_id for sample_id, _ in answered} == kept()
    assert len(kept()) < len(ids)
    assert sum(arrived > signalled for _, arrived in answered) <= max_parallel

    missing = set(ids) - kept()
    mock_endpoint.delay_seconds = 0.0
    mock_endpoint.hold_after = None
    mock_endpoint.requests.clear()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert sorted(sample_id for sample_id, _ in sent()) == sorted(missing)
    assert kept() == set(ids)


class TestMemoryFollowsPapersNotRows:
    """The streaming commands hold the triplet store and one object per
    distinct paper and triplet block, so four times the samples over the same
    papers must not cost four times the memory."""

    N = 150
    SOURCES = [f"src{k}" for k in range(3)]
    TARGETS = [TargetPaper(f"tgt{k}", f"Title {k}", f"target {k} abstract " * 60, f"intro {k} " * 40)
               for k in range(4)]

    def write_inputs(self, base: Path, n: int) -> dict[str, Path]:
        base.mkdir()
        samples = [
            CitationSample(
                sample_id=f"{self.SOURCES[i % 3]}:0:{i:05d}",
                source_paper_id=self.SOURCES[i % 3],
                source_abstract=f"source abstract of {self.SOURCES[i % 3]} " * 30,
                targets=[self.TARGETS[i % 4], self.TARGETS[(i + 1) % 4]],
                citation_text=f"passage {i} cites both papers and compares them at length. " * 5,
                section_name="Introduction",
            )
            for i in range(n)
        ]
        write_dataset(samples, base / "dataset.jsonl")
        # blocks for the targets only, so each source paper gets the empty set
        blocks = [{"paper_id": t.paper_id, "section": "abstract",
                   "triplets": [{"head": f"method {t.paper_id}", "relation": "Used-For", "tail": "task"}]}
                  for t in self.TARGETS]
        (base / "triplets.jsonl").write_text("".join(dump_row(b) + "\n" for b in blocks))
        # the same generations at every size: the dataset grows, the scored set does not
        (base / "generated.jsonl").write_text(
            "".join(dump_row({"sample_id": s.sample_id, "text": f"generated text {k}"}) + "\n"
                    for k, s in enumerate(samples[: self.N]))
        )
        paths = {name: base / f"{name}.jsonl" for name in ("dataset", "triplets", "generated", "enriched", "prompts")}
        return {**paths, "report": base / "report.json"}

    def argv(self, command: str, paths: dict[str, Path]) -> list[str]:
        return {
            "kg-merge": ["kg-merge", "--dataset", str(paths["dataset"]), "--triplets", str(paths["triplets"]),
                         "--out", str(paths["enriched"])],
            "prompts": ["prompts", "--mode", "kg", "--enriched", str(paths["enriched"]),
                        "--out", str(paths["prompts"])],
            "evaluate": ["evaluate", "--generated", str(paths["generated"]), "--dataset", str(paths["dataset"]),
                         "--out", str(paths["report"])],
        }[command]

    def peak(self, capsys, argv: list[str]) -> int:
        # garbage left by earlier work is collected first, so that neither
        # peak depends on when the collector last ran
        gc.collect()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr()
        capsys.readouterr()
        return peak

    @pytest.mark.parametrize("command", ["kg-merge", "prompts", "evaluate"])
    def test_peak_memory_follows_papers_not_rows(self, command, tmp_path, capsys):
        small = self.write_inputs(tmp_path / "small", self.N)
        large = self.write_inputs(tmp_path / "large", 4 * self.N)
        for paths in (small, large):  # each command's input, and a warm-up run of each
            for step in ("kg-merge", "prompts", "evaluate"):
                assert main(self.argv(step, paths)) == 0
        capsys.readouterr()
        small_peak = self.peak(capsys, self.argv(command, small))
        large_peak = self.peak(capsys, self.argv(command, large))
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)


def test_evaluate_holds_about_one_encoded_row_per_sample(tmp_path, capsys):
    """`evaluate` keeps each generated text, gold passage and encoded report
    row, and four f scores per sample. Its heap grew by 2.3-2.8 KB a pair when
    it kept four score objects per sample and built a row dict for each before
    writing, and by about 1.2 KB with the encoded rows (CPython 3.10, 3.11 and
    3.13, 2,000 pairs of 12 words), so the bound sits between the two."""
    words = "the model cites prior work on attention graphs and triplets for citation text generation".split()
    target = {"paper_id": "t1", "title": "T", "abstract": "a", "introduction": None, "conclusion": None}

    def write_inputs(base: Path, n: int) -> list[str]:
        base.mkdir()
        passage = lambda i, k: " ".join(words[(i * 7 + j * k) % len(words)] for j in range(12))  # noqa: E731
        (base / "dataset.jsonl").write_text("".join(
            dump_row({"sample_id": f"s{i:05d}", "source_paper_id": "s", "source_abstract": "abstract",
                      "citation_text": passage(i, 3), "targets": [target, {**target, "paper_id": "t2"}]}) + "\n"
            for i in range(n)
        ))
        (base / "generated.jsonl").write_text(
            "".join(dump_row({"sample_id": f"s{i:05d}", "text": passage(i, 5)}) + "\n" for i in range(n))
        )
        return ["evaluate", "--generated", str(base / "generated.jsonl"), "--dataset", str(base / "dataset.jsonl"),
                "--out", str(base / "report.json")]

    n = 2000
    warm, measured = write_inputs(tmp_path / "warm", 20), write_inputs(tmp_path / "measured", n)
    assert main(warm) == 0  # imports the layers and stems the vocabulary
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        code = main(measured)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr()
    assert json.loads((tmp_path / "measured" / "report.json").read_text())["n"] == n
    assert (peak - before) / n < 1600, (peak - before) / n


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
