"""Pipeline configuration and run provenance.

Configuration lives in one YAML file with fixed sections; unknown keys are
rejected at every level so typos fail loudly instead of silently falling
back to defaults. Every CLI stage writes a run manifest next to its output
(`<output>.run.json`) recording input digests, the digest of each input's
own run manifest when present, the configuration digest and the stage's
counts (for datasets also the stats digest and builder/schema versions),
so a finished artifact can be traced back through the stages that produced
it. Manifests carry no timestamps: re-running a stage on identical inputs
yields an identical manifest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .jsonl import file_digest, json_digest, write_json


class ConfigError(ValueError):
    pass


def _check_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


@dataclass(frozen=True)
class PathsConfig:
    corpus: str = "corpus"
    triplets: str = ""

    _KEYS = ("corpus", "triplets")

    @classmethod
    def from_dict(cls, data: dict) -> "PathsConfig":
        _check_keys("paths", data, cls._KEYS)
        return cls(**data)


@dataclass(frozen=True)
class FilterConfig:
    fields_of_study: tuple[str, ...] = ("Computer Science",)

    _KEYS = ("fields_of_study",)

    @classmethod
    def from_dict(cls, data: dict) -> "FilterConfig":
        _check_keys("filter", data, cls._KEYS)
        fields = data.get("fields_of_study", cls().fields_of_study)
        if not isinstance(fields, (list, tuple)):
            raise ConfigError("filter.fields_of_study must be a list")
        return cls(fields_of_study=tuple(fields))


@dataclass(frozen=True)
class SplitConfig:
    train: float = 0.8006
    validation: float = 0.0997
    test: float = 0.0997
    seed: int = 0

    _KEYS = ("train", "validation", "test", "seed")

    @classmethod
    def from_dict(cls, data: dict) -> "SplitConfig":
        _check_keys("split", data, cls._KEYS)
        return cls(**data)


@dataclass(frozen=True)
class BudgetConfig:
    max_tokens: int = 2048
    reserve_for_response: int = 256
    triplet_budget: int | None = None

    _KEYS = ("max_tokens", "reserve_for_response", "triplet_budget")

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetConfig":
        _check_keys("budget", data, cls._KEYS)
        return cls(**data)


@dataclass(frozen=True)
class EndpointConfig:
    url: str = "http://localhost:8080/generate"
    max_parallel: int = 4
    max_attempts: int = 3
    backoff_seconds: float = 0.5
    backoff_multiplier: float = 2.0
    timeout_seconds: float = 60.0
    max_new_tokens: int = 512
    temperature: float = 0.0

    _KEYS = (
        "url",
        "max_parallel",
        "max_attempts",
        "backoff_seconds",
        "backoff_multiplier",
        "timeout_seconds",
        "max_new_tokens",
        "temperature",
    )

    @classmethod
    def from_dict(cls, data: dict) -> "EndpointConfig":
        _check_keys("endpoint", data, cls._KEYS)
        return cls(**data)


@dataclass(frozen=True)
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)

    _SECTIONS = ("paths", "filter", "split", "budget", "endpoint")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        _check_keys("config", data, cls._SECTIONS)
        return cls(
            paths=PathsConfig.from_dict(data.get("paths", {})),
            filter=FilterConfig.from_dict(data.get("filter", {})),
            split=SplitConfig.from_dict(data.get("split", {})),
            budget=BudgetConfig.from_dict(data.get("budget", {})),
            endpoint=EndpointConfig.from_dict(data.get("endpoint", {})),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        import yaml  # only a --config run needs it

        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["filter"]["fields_of_study"] = list(self.filter.fields_of_study)
        return data


def config_digest(config: PipelineConfig) -> str:
    return json_digest(config.to_dict())


def run_manifest_path(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".run.json")


def write_run_manifest(
    out_path: str | Path,
    stage: str,
    inputs: list[str | Path],
    config: PipelineConfig | None = None,
    counts: dict | None = None,
    *,
    digests: dict[Path, str] | None = None,
) -> dict:
    """Record how `out_path` was produced; returns the manifest written.

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
        "output": Path(out_path).name,
        "inputs": described,
        "config_sha256": config_digest(config) if config is not None else None,
        "counts": counts or {},
    }
    write_json(run_manifest_path(out_path), manifest)
    return manifest


def read_run_manifest(out_path: str | Path) -> dict:
    with open(run_manifest_path(out_path), encoding="utf-8") as fh:
        return json.load(fh)
