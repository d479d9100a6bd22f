"""Every file format a writer ever produced still reads to the same samples
and renders to the same prompts, today's writers write the newest, and
`evaluate` writes the same report and table. The fixtures never change with
the code: their digests are pinned here. They were written with a space after
each `,` and `:`, so a writer's bytes are compared with a fixture re-encoded
by the tests' own compact rule (`conftest.compacted`)."""

import hashlib
import json
from pathlib import Path

import pytest

from citepipe.cli import main
from citepipe.dataset import read_dataset, write_dataset
from citepipe.jsonl import dump_row
from citepipe.kg import SECTIONS, read_enriched, write_enriched

from conftest import compacted, inline_enriched_row, inline_sample_row

FIXTURES = Path(__file__).parent / "fixtures"
FORMATS = ("inline", "referenced", "v2")

# sha256 of every format fixture, as commit 54393fa wrote the inline and
# referenced ones, of the schema version 2 ones, and of the report fixtures,
# as commit 3290322 wrote them
DIGESTS = {
    "inline/dataset.jsonl": "13ca12855a865448b9608ed845bdae954ca71f00c96c5abf2da73f9da1424093",
    "inline/enriched.jsonl": "89aebc526600a27f07416ad032bb5d91efda70133bc8acee1a51591d7f1af263",
    "inline/train.jsonl": "0fde5e6de4bfe6419bc55ef8c27837e1d28df5051f6c5ef5c9a25fdf5829d618",
    "referenced/dataset.jsonl": "13ca12855a865448b9608ed845bdae954ca71f00c96c5abf2da73f9da1424093",
    "referenced/enriched.jsonl": "5b22f62386ef396d66cfc0005c09b1f8d91cddaa6102b34d268965e94cece2b7",
    "referenced/train.jsonl": "9d8a23f39a4a3827859cb650b873076d0123fd9e1b72b8a90d27ee37edfd8177",
    "v2/dataset.jsonl": "a918d3573715bb1c780ff7fe8373e21372952da71fe24fac9744247681c65bd2",
    "v2/enriched.jsonl": "90438d0e4d77d46a6a343ed97a8eb43ece857bda769f2218a4ed566fc6b54665",
    "v2/train.jsonl": "7100357ae7e81e959748244064dc7bbef34a6f34c6332048345c13b88bd7fcd8",
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
    assert out.read_bytes() == compacted(FIXTURES / "prompts" / f"{name}.{mode}.jsonl")


@pytest.mark.parametrize("name", ["dataset", "train", "enriched"])
def test_the_writers_write_the_inline_samples_as_the_referenced_files(name, tmp_path):
    source, out = FIXTURES / "inline" / f"{name}.jsonl", tmp_path / f"{name}.jsonl"
    if name == "enriched":
        write_enriched(read_enriched(source), out)
    else:  # `build` writes every row standalone, `split` each part referencing
        write_dataset(read_dataset(source), out, referencing=name == "train")
    assert out.read_bytes() == compacted(FIXTURES / "v2" / f"{name}.jsonl")


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


def spaced_row(row) -> str:
    """A row as the writers of the frozen fixtures encoded it, with a space
    after each `,` and `:`."""
    return json.dumps(row, ensure_ascii=False, sort_keys=True)


@pytest.mark.parametrize("name", ["dataset", "train", "enriched"])
def test_the_tests_reference_encoder_writes_the_inline_files(name):
    path = FIXTURES / "inline" / f"{name}.jsonl"
    encode = inline_enriched_row if name == "enriched" else inline_sample_row
    assert "".join(spaced_row(encode(s)) + "\n" for s in read_samples(path)).encode("utf-8") == path.read_bytes()


# a dataset row, a split part's row with bare-id targets, an enriched row's
# sample, and the same of version 2, whose enriched blocks leave out their keys
VERSIONED = [
    ("inline", "dataset", 3), ("referenced", "train", 2), ("referenced", "enriched", 2),
    ("v2", "dataset", 3), ("v2", "train", 2), ("v2", "enriched", 2),
]


@pytest.mark.parametrize("fmt, name, lineno", VERSIONED)
def test_a_row_without_schema_version_or_with_1_reads_as_today(fmt, name, lineno, tmp_path):
    source = FIXTURES / fmt / f"{name}.jsonl"
    for version in (None, 1, 2):  # the reader takes any of them, whatever the writer
        assert read_samples(with_version(source, tmp_path / f"{name}.jsonl", lineno, version)) == read_samples(source)


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
    assert captured.err == f"error: {path}: line {lineno}: schema_version is {shown}; this reader takes 1, 2\n"


def test_an_enriched_row_of_another_version_is_refused_before_its_blocks_are_read(tmp_path):
    # a later writer may lay blocks out otherwise; the row names its version, not a block's fault
    lines = (FIXTURES / "v2" / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["sample"]["schema_version"] = 3
    row["source_triplets"] = {"relations": []}
    row["target_triplets"][0]["abstract"] = {"section": 7, "triplets": "none"}
    lines[1] = dump_row(row)
    path = tmp_path / "enriched.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: line 2: schema_version is 3; this reader takes 1, 2$"):
        read_enriched(path)


def refused(argv, path, message, capsys):
    """`main(argv)` fails on `path`'s row with `message` alone and writes no `--out`."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert out is None or not out.exists()


def test_a_row_of_a_later_version_is_refused_by_its_number_before_its_fields(tmp_path, capsys):
    # a later version may lay its fields out otherwise; the row names its version, not a missing field
    path = tmp_path / "dataset.jsonl"
    row = {"schema_version": 3, "sample_id": "x", "source_paper_id": "s", "citation_text": "c", "rows": []}
    path.write_text(dump_row(row) + "\n", encoding="utf-8")
    refused(["stats", "--dataset", str(path)], path, "line 1: schema_version is 3; this reader takes 1, 2", capsys)


def test_an_enriched_row_of_a_later_version_is_refused_by_its_number_before_its_fields(tmp_path, capsys):
    row = json.loads((FIXTURES / "v2" / "enriched.jsonl").read_text(encoding="utf-8").splitlines()[0])
    del row["sample"]["targets"], row["target_triplets"]
    row["sample"]["schema_version"] = 3
    path = tmp_path / "enriched.jsonl"
    path.write_text(dump_row(row) + "\n", encoding="utf-8")
    argv = ["prompts", "--mode", "kg", "--enriched", str(path), "--out", str(tmp_path / "prompts.jsonl")]
    refused(argv, path, "line 1: schema_version is 3; this reader takes 1, 2", capsys)


def name_papers(row, names):
    for tt, name in zip(row["target_triplets"], names):
        tt["paper_id"] = name


@pytest.mark.parametrize(
    "edit, message",
    [
        # one entry for two targets
        (lambda row: row["target_triplets"].pop(), "target_triplets has length 1, the sample's targets 2"),
        (lambda row: name_papers(row, ["zzz", "yyy"]), "target_triplets names 'zzz' where the sample cites 't1'"),
        (lambda row: name_papers(row, ["t2", "t1"]), "target_triplets names 't2' where the sample cites 't1'"),
        # a block under t1's abstract that names t2
        (lambda row: row["target_triplets"][0]["abstract"].update(paper_id="t2"),
         "the block at ('t1', 'abstract') names ('t2', 'abstract')"),
        (lambda row: row["source_triplets"].update(section="conclusion"),
         "the block at ('s1', 'abstract') names ('s1', 'conclusion')"),
        # the flag kg-merge sets from the blocks, flipped
        (lambda row: row.update(missing_target_triplets=True),
         "missing_target_triplets is true, but a target has triplets"),
        (lambda row: [tt.update(dict.fromkeys(SECTIONS)) for tt in row["target_triplets"]],
         "missing_target_triplets is false, but no target has triplets"),
    ],
    ids=["fewer-entries", "other-papers", "swapped-papers", "block-names-another-paper", "block-names-another-section",
         "flag-without-its-blocks", "blocks-without-their-flag"],
)
def test_prompts_refuses_an_enriched_row_whose_triplets_are_not_at_their_place(edit, message, tmp_path, capsys):
    # every block is read by its place in the row, so a row that says otherwise is corrupt
    lines = (FIXTURES / "v2" / "enriched.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    edit(row)
    lines[0] = dump_row(row)
    path = tmp_path / "enriched.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = ["prompts", "--mode", "kg", "--enriched", str(path), "--out", str(tmp_path / "prompts.jsonl")]
    refused(argv, path, f"line 1: {message}", capsys)


def test_evaluate_writes_the_frozen_report_and_table(tmp_path, capsys):
    report = FIXTURES / "report"
    out = tmp_path / "report.json"
    argv = ["evaluate", "--generated", str(report / "generated.jsonl"),
            "--dataset", str(FIXTURES / "inline" / "dataset.jsonl"), "--out", str(out), "--label", "demo"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (report / "table.txt").read_text(encoding="utf-8")
    assert out.read_bytes() == compacted(report / "report.json")
