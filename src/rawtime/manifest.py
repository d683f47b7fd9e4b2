"""Reproducibility sidecars: every output file gets a manifest of exact inputs."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .params import ModelParams, SlotDurations

#: Physical parameters that must agree for two outputs to be comparable.
_MATCH_KEYS = ("n_stations", "cw_min", "cw_max", "retry_limit")

#: The ``source`` each command's manifests record.
SOURCES = {"model": "model", "simulate": "simulation", "plan": "planner", "groups": "planner"}


@dataclass(frozen=True)
class RunManifest:
    command: str
    artifact: str  # e.g. "pa", "pb", "groups"
    source: str  # "model" | "simulation" | "planner"
    params: dict
    durations: dict
    outputs: tuple[str, ...]
    wall_clock_s: float
    version: str = __version__
    seed: int | None = None
    runs: int | None = None
    extra: dict = field(default_factory=dict)

    def write_for(self, data_path: Path | str) -> Path:
        path = manifest_path(data_path)
        payload = asdict(self)
        payload["created_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


def write_manifests(
    command: str,
    paths: dict[str, Path],
    extras: dict[str, dict],
    params: ModelParams,
    durations: SlotDurations,
    wall_clock_s: float,
    seed: int | None = None,
    runs: int | None = None,
) -> None:
    """Write the manifest sidecar of each output of one command (artifact
    name -> path) with that artifact's ``extras``; each lists all the outputs
    and records the command's entry in ``SOURCES``."""
    outputs = tuple(str(p) for p in paths.values())
    for artifact, path in paths.items():
        RunManifest(
            command=command, artifact=artifact, source=SOURCES[command], params=asdict(params),
            durations=asdict(durations), outputs=outputs, wall_clock_s=wall_clock_s,
            seed=seed, runs=runs, extra=extras[artifact],
        ).write_for(path)


def manifest_path(data_path: Path | str) -> Path:
    return Path(str(data_path) + ".manifest.json")


def load_manifest(data_path: Path | str) -> dict:
    path = manifest_path(data_path)
    if not path.exists():
        raise FileNotFoundError(f"no manifest next to {data_path} (expected {path})")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not (isinstance(payload, dict) and isinstance(payload.get("artifact"), str)
            and all(isinstance(payload.get(key), dict) for key in ("params", "durations"))):
        raise ValueError(f"{path}: not a manifest (needs an 'artifact' string and "
                         f"'params' and 'durations' objects)")
    return payload


def check_comparable(model_manifest: dict, sim_manifest: dict) -> list[str]:
    """Reasons the two outputs must not be compared; empty when comparable.
    Both manifests come from ``load_manifest``."""
    problems: list[str] = []
    if model_manifest["artifact"] != sim_manifest["artifact"]:
        problems.append(
            f"artifact kinds differ: {model_manifest['artifact']!r} "
            f"vs {sim_manifest['artifact']!r}"
        )
    for key in _MATCH_KEYS:
        a = model_manifest["params"].get(key)
        b = sim_manifest["params"].get(key)
        if a != b:
            problems.append(f"params.{key} differ: {a!r} vs {b!r}")
    if model_manifest["durations"] != sim_manifest["durations"]:
        problems.append(
            f"slot durations differ: {model_manifest['durations']!r} "
            f"vs {sim_manifest['durations']!r}"
        )
    return problems
