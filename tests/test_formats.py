"""Every file format a writer ever produced still reads to the same samples
and renders to the same prompts. The fixtures never change with the code."""

from pathlib import Path

import pytest

from citepipe.cli import main
from citepipe.dataset import read_dataset
from citepipe.kg import read_enriched

FIXTURES = Path(__file__).parent / "fixtures"
FORMATS = ("inline", "referenced")


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
