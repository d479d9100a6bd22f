"""The whole command chain writes the committed bytes.

Each configuration runs build → split → kg-merge → prompts → generate →
evaluate in-process through `cli.main`, on a small committed corpus and
triplet file, against the mock endpoint. Every file the chain writes must
have the sha256 that `tests/fixtures/chain/digests.json` gives it, so a
change that alters any artifact's bytes fails here and names the files. A
change that alters bytes on purpose updates the digests in the same commit.
Every row of every JSONL file and of the report must also be in the one
canonical encoding, by the tests' own rule (`conftest.compact_row`), so a
writer that assembles a row by hand cannot drift from `dump_row`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from citepipe.cli import main
from citepipe.jsonl import dump_row

from conftest import compacted

CHAIN = Path(__file__).parent / "fixtures" / "chain"

# the prompts flags of each configuration, and whether generate resumes
CONFIGS = {
    # the KG prompt path with introductions and conclusions, under a budget that cuts
    "kg-truncated": (["--mode", "kg", "--include-introductions", "--include-conclusions", "--max-tokens", "600",
                      "--reserve", "100"], False),
    "kg": (["--mode", "kg"], False),
    # baseline prompts, generated into an output file that already holds every other row
    "baseline-resume": (["--mode", "baseline"], True),
}


def run_chain(inputs: Path, out: Path, prompt_args: list[str], resume: bool, url: str) -> dict[str, str]:
    """Run the chain on `inputs` into `out`; the sha256 of every file it wrote."""
    ds, enriched, prompts = out / "dataset.jsonl", out / "enriched.jsonl", out / "prompts.jsonl"
    generated = out / "generated.jsonl"
    source = ["--enriched", str(enriched)] if "kg" in prompt_args else ["--dataset", str(ds)]
    steps = [
        ["build", "--corpus", str(inputs / "corpus.jsonl"), "--out", str(ds)],
        ["split", "--dataset", str(ds), "--out-dir", str(out / "splits"), "--seed", "3"],
        ["kg-merge", "--dataset", str(ds), "--triplets", str(inputs / "triplets.jsonl"), "--out", str(enriched)],
        ["prompts", *prompt_args, *source, "--out", str(prompts)],
        ["generate", "--prompts", str(prompts), "--out", str(generated), "--endpoint", url, "--max-parallel", "2"],
        ["evaluate", "--generated", str(generated), "--dataset", str(ds), "--out", str(out / "report.json")],
    ]
    out.mkdir()
    for argv in steps:
        if argv[0] == "generate" and resume:
            ids = [json.loads(line)["sample_id"] for line in prompts.read_text(encoding="utf-8").splitlines()]
            generated.write_text(
                "".join(dump_row({"sample_id": i, "text": f"Prewritten answer {k}."}) + "\n"
                        for k, i in enumerate(ids[::2])),
                encoding="utf-8",
            )
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("name", CONFIGS)
def test_the_chain_writes_the_committed_bytes(name, mock_endpoint, tmp_path, capsys):
    prompt_args, resume = CONFIGS[name]
    out = tmp_path / name
    found = run_chain(CHAIN / name, out, prompt_args, resume, mock_endpoint.url)
    capsys.readouterr()
    # each configuration runs the path it names
    prompted = json.loads((out / "prompts.jsonl.run.json").read_text(encoding="utf-8"))["counts"]
    assert (prompted["truncated"] > 0) == (name == "kg-truncated")
    generated = json.loads((out / "generated.jsonl.run.json").read_text(encoding="utf-8"))["counts"]
    assert (generated["reused"] > 0) == resume
    for path in [*sorted(out.rglob("*.jsonl")), out / "report.json"]:
        assert path.read_bytes() == compacted(path), f"{name}: {path.relative_to(out)} has a row not in canonical form"
    expected = json.loads((CHAIN / "digests.json").read_text(encoding="utf-8")).get(name, {})
    differ = sorted(path for path in expected.keys() | found.keys() if expected.get(path) != found.get(path))
    assert not differ, f"{name}: {', '.join(differ)} differ from digests.json; found {json.dumps(found, indent=2)}"
