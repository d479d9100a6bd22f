"""Pipeline configuration and run provenance.

`DEFAULTS` is the one table of settings, in fixed sections, with their
built-in values. A YAML file overrides any of its keys; unknown keys are
rejected at every level so typos fail loudly instead of silently falling
back to defaults. The CLI gives each command its settings as option
defaults, so a flag still wins. Every CLI stage writes a run manifest next
to its output (`<output>.run.json`) recording input digests, the digest of
each input's own run manifest when present, the settings that can change
the output (each flag's resolved value, paths and transport left out) and
the stage's counts (for datasets also the stats digest and builder/schema
versions), so a finished artifact can be traced back through the stages
that produced it. Manifests carry no timestamps: a stage re-run on
identical inputs with identical settings writes an identical manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .jsonl import file_digest, write_json

# every setting and its built-in value; the README's Configuration block
# shows this table, and a test keeps the two equal
DEFAULTS: dict[str, dict] = {
    "paths": {"corpus": "corpus", "triplets": ""},
    "filter": {"fields_of_study": ["Computer Science"]},
    "split": {"train": 0.8006, "validation": 0.0997, "test": 0.0997, "seed": 0},
    "budget": {"max_tokens": 2048, "reserve_for_response": 256, "triplet_budget": None},
    "endpoint": {
        "url": "http://localhost:8080/generate",
        "max_parallel": 4,
        "max_attempts": 3,
        "backoff_seconds": 0.5,
        "backoff_multiplier": 2.0,
        "timeout_seconds": 60.0,
        "temperature": 0.0,
    },
}


class ConfigError(ValueError):
    pass


def _check_keys(section: str, data: dict, allowed: dict) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


def config_from_dict(data: dict) -> dict:
    """`DEFAULTS` with the values `data` gives, as fresh dicts per section."""
    _check_keys("config", data, DEFAULTS)
    config = {}
    for section, defaults in DEFAULTS.items():
        given = data.get(section, {})
        _check_keys(section, given, defaults)
        config[section] = {**defaults, **given}
    fields = config["filter"]["fields_of_study"]
    if not isinstance(fields, (list, tuple)):
        raise ConfigError("filter.fields_of_study must be a list")
    config["filter"]["fields_of_study"] = list(fields)
    return config


def load_config(path: str | Path) -> dict:
    """The configuration a YAML file gives (see `config_from_dict`)."""
    import yaml  # only a --config run needs it

    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)


def run_manifest_path(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".run.json")


def write_run_manifest(
    out_path: str | Path,
    stage: str,
    inputs: list[str | Path],
    settings: dict,
    counts: dict | None = None,
    *,
    digests: dict[Path, str] | None = None,
) -> dict:
    """Record how `out_path` was produced from `inputs` under `settings`;
    returns the manifest written.

    `digests` maps a file to its sha256 and gains every file this call
    hashes; a command writing several manifests over the same inputs passes
    one dict to all of them so each input is hashed once."""
    if digests is None:
        digests = {}

    def digest(path: Path) -> str:
        if path not in digests:
            digests[path] = file_digest(path)
        return digests[path]

    described = []
    for input_path in inputs:
        input_path = Path(input_path)
        entry: dict = {"path": input_path.name, "sha256": digest(input_path)}
        upstream = run_manifest_path(input_path)
        if upstream.exists():
            entry["run_manifest_sha256"] = digest(upstream)
        described.append(entry)
    manifest = {
        "stage": stage,
        "inputs": described,
        "settings": settings,
        "counts": counts or {},
    }
    write_json(run_manifest_path(out_path), manifest)
    return manifest


def read_run_manifest(out_path: str | Path) -> dict:
    with open(run_manifest_path(out_path), encoding="utf-8") as fh:
        return json.load(fh)
