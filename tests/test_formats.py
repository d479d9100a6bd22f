"""Every file format a writer ever produced still reads to the same samples
and renders to the same prompts, today's writers write the newest, and
`evaluate` writes the same report and table. The fixtures never change with
the code: their digests are pinned here."""

import hashlib
import json
from pathlib import Path

import pytest

from citepipe.cli import main
from citepipe.dataset import PaperReferencer, read_dataset, write_dataset
from citepipe.jsonl import dump_row
from citepipe.kg import read_enriched, write_enriched

FIXTURES = Path(__file__).parent / "fixtures"
FORMATS = ("inline", "referenced")

# sha256 of every format fixture, as commit 54393fa wrote them, and of the
# report fixtures, as commit 3290322 wrote them
DIGESTS = {
    "inline/dataset.jsonl": "13ca12855a865448b9608ed845bdae954ca71f00c96c5abf2da73f9da1424093",
    "inline/enriched.jsonl": "89aebc526600a27f07416ad032bb5d91efda70133bc8acee1a51591d7f1af263",
    "inline/train.jsonl": "0fde5e6de4bfe6419bc55ef8c27837e1d28df5051f6c5ef5c9a25fdf5829d618",
    "referenced/dataset.jsonl": "13ca12855a865448b9608ed845bdae954ca71f00c96c5abf2da73f9da1424093",
    "referenced/enriched.jsonl": "5b22f62386ef396d66cfc0005c09b1f8d91cddaa6102b34d268965e94cece2b7",
    "referenced/train.jsonl": "9d8a23f39a4a3827859cb650b873076d0123fd9e1b72b8a90d27ee37edfd8177",
    "prompts/dataset.baseline.jsonl": "3641a9d473b62f710f8386b733f65ca0c4e55b6d2cdf05222cc9d044c6b2f45d",
    "prompts/enriched.kg.jsonl": "8f91704a2d6c71086ab27e0d5fd6d75c8624168973df77e9bac2e77ffa1bb306",
    "prompts/train.baseline.jsonl": "da79e2d52f775a0c304c86a9cc1ad410f432922ec987f8c929f23ae36e257d88",
    "report/generated.jsonl": "618f37525cf1851cda91a1ea8ff464a3cd33764d4de42132dee807733e692a1b",
    "report/report.json": "8848a5b8c0c528a3abb9bc560a1104a75408bc7d565e860f8c40358e6f7ab23a",
    "report/table.txt": "4950fa0c8e6180d1d138d7027a8bca45d88cd4d39944eef9e95add04528c9cf6",
}


def test_the_fixtures_are_the_pinned_files():
    found = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for directory in (*FORMATS, "prompts", "report")
        for path in sorted((FIXTURES / directory).iterdir())
    }
    assert found == DIGESTS


@pytest.fixture(scope="module")
def dataset():
    return read_dataset(FIXTURES / "inline" / "dataset.jsonl")


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_format_reads_to_the_same_samples(fmt, dataset):
    by_id = {s.sample_id: s for s in dataset}
    assert len(by_id) == 8
    assert read_dataset(FIXTURES / fmt / "dataset.jsonl") == dataset
    train = read_dataset(FIXTURES / fmt / "train.jsonl")
    assert len(train) == 6
    assert train == [by_id[s.sample_id] for s in train]
    enriched = read_enriched(FIXTURES / fmt / "enriched.jsonl")
    assert [es.sample for es in enriched] == dataset
    assert enriched == read_enriched(FIXTURES / "inline" / "enriched.jsonl")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "name, mode, flag",
    [("dataset", "baseline", "--dataset"), ("train", "baseline", "--dataset"), ("enriched", "kg", "--enriched")],
)
def test_each_format_renders_the_same_prompts(fmt, name, mode, flag, tmp_path, capsys):
    out = tmp_path / "prompts.jsonl"
    argv = ["prompts", "--mode", mode, flag, str(FIXTURES / fmt / f"{name}.jsonl"), "--out", str(out)]
    assert main([*argv, "--include-introductions", "--include-conclusions"]) == 0, capsys.readouterr()
    assert out.read_bytes() == (FIXTURES / "prompts" / f"{name}.{mode}.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["dataset", "train", "enriched"])
def test_the_writers_write_the_inline_samples_as_the_referenced_files(name, tmp_path):
    source, out = FIXTURES / "inline" / f"{name}.jsonl", tmp_path / f"{name}.jsonl"
    if name == "enriched":
        write_enriched(read_enriched(source), out)
    else:  # `build` writes every row standalone, `split` each part through a referencer
        write_dataset(read_dataset(source), out, PaperReferencer() if name == "train" else None)
    assert out.read_bytes() == (FIXTURES / "referenced" / f"{name}.jsonl").read_bytes()


def with_version(source: Path, out: Path, lineno: int, version) -> Path:
    """`source` with the schema_version of one row, or of its sample, set to
    `version`, or removed from every row when `version` is None."""
    lines = source.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines, start=1):
        row = json.loads(line)
        sample = row.get("sample", row)  # an enriched row holds its sample
        if version is None:
            del sample["schema_version"]
        elif k == lineno:
            sample["schema_version"] = version
        lines[k - 1] = dump_row(row)
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return out


def read_samples(path: Path) -> list:
    return read_enriched(path) if path.name == "enriched.jsonl" else read_dataset(path)


# a dataset row, a split part's row with bare-id targets, an enriched row's sample
VERSIONED = [("inline", "dataset", 3), ("referenced", "train", 2), ("referenced", "enriched", 2)]


@pytest.mark.parametrize("fmt, name, lineno", VERSIONED)
def test_a_row_without_schema_version_or_with_1_reads_as_today(fmt, name, lineno, tmp_path):
    source = FIXTURES / fmt / f"{name}.jsonl"
    assert read_samples(with_version(source, tmp_path / f"{name}.jsonl", lineno, None)) == read_samples(source)
    assert read_samples(with_version(source, tmp_path / f"{name}.jsonl", lineno, 1)) == read_samples(source)


@pytest.mark.parametrize("version, shown", [(3, "3"), ("1", '"1"'), (True, "true")])
@pytest.mark.parametrize("fmt, name, lineno", VERSIONED)
def test_a_row_of_any_other_schema_version_is_a_corrupt_line(fmt, name, lineno, version, shown, tmp_path, capsys):
    path = with_version(FIXTURES / fmt / f"{name}.jsonl", tmp_path / f"{name}.jsonl", lineno, version)
    if name == "enriched":
        argv = ["prompts", "--mode", "kg", "--enriched", str(path), "--out", str(tmp_path / "prompts.jsonl")]
    else:
        argv = ["stats", "--dataset", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line {lineno}: schema_version is {shown}; this reader takes 1\n"


def test_evaluate_writes_the_frozen_report_and_table(tmp_path, capsys):
    report = FIXTURES / "report"
    out = tmp_path / "report.json"
    argv = ["evaluate", "--generated", str(report / "generated.jsonl"),
            "--dataset", str(FIXTURES / "inline" / "dataset.jsonl"), "--out", str(out), "--label", "demo"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (report / "table.txt").read_text(encoding="utf-8")
    assert out.read_bytes() == (report / "report.json").read_bytes()
