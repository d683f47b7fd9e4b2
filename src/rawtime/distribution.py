"""Discrete sub-probability distributions over real-time durations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


def _as_durations(values) -> np.ndarray:
    """``values`` as int64 microseconds; ``ValueError`` if one is not whole."""
    durations = np.asarray(values, dtype=np.int64)
    if not np.array_equal(durations, values):
        raise ValueError("durations must be whole microseconds")
    return durations


class UnsatisfiableQuantileError(ValueError):
    """Requested quantile exceeds the distribution's total mass."""

    def __init__(self, q: float, total_mass: float):
        self.q = q
        self.total_mass = total_mass
        super().__init__(
            f"quantile {q} exceeds the achievable delivery probability "
            f"{total_mass:.12g}; lower the target or reduce the model's "
            f"epsilon/pruning deficit"
        )


@dataclass(frozen=True, eq=False)
class TimeDistribution:
    """Atoms of probability mass on integer-microsecond durations.

    ``total_mass`` may be below 1; the ``deficit`` collects failure
    probability plus any truncated or pruned tail.
    """

    durations: np.ndarray
    probabilities: np.ndarray
    total_mass: float = field(init=False)
    deficit: float = field(init=False)

    def __post_init__(self) -> None:
        durations = _as_durations(self.durations)
        probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if durations.shape != probabilities.shape or durations.ndim != 1:
            raise ValueError("durations and probabilities must be matching 1-D arrays")
        if durations.size and (durations[0] < 0 or np.any(np.diff(durations) <= 0)):
            raise ValueError("durations must be non-negative and strictly increasing")
        if not np.all(np.isfinite(probabilities)) or np.any(probabilities <= 0.0):
            raise ValueError("atom probabilities must be positive and finite")
        durations.setflags(write=False)
        probabilities.setflags(write=False)
        total = math.fsum(probabilities.tolist())
        if total > 1.0 + 1e-12:
            raise ValueError(f"total mass {total!r} exceeds 1")
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "total_mass", total)
        object.__setattr__(self, "deficit", 1.0 - total)

    @classmethod
    def from_arrays(cls, durations: np.ndarray, probabilities: np.ndarray) -> "TimeDistribution":
        """Build from unsorted, possibly duplicated or zero-mass raw atoms."""
        durations = _as_durations(durations)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        uniq, inverse = np.unique(durations, return_inverse=True)
        summed = np.bincount(inverse, weights=probabilities, minlength=uniq.size)
        keep = summed != 0.0
        return cls(uniq[keep], summed[keep])

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.probabilities)

    def quantile(self, q: float) -> int:
        """Smallest duration whose cumulative mass reaches ``q``."""
        check_level(q)
        if q > self.total_mass:
            raise UnsatisfiableQuantileError(q, self.total_mass)
        cum = self.cumulative()
        idx = int(np.searchsorted(cum, q, side="left"))
        if idx >= self.durations.size:
            idx = self.durations.size - 1
        return int(self.durations[idx])


def check_level(q: float) -> None:
    """``ValueError`` unless ``q`` is a quantile level, in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")


def write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload), encoding="utf-8", newline="\n")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The lines of ``write_rows``' CSV table, header first."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table: CSV, or a JSON list of row objects when ``path`` ends in
    ``.json``.  CSV cells hold floats by ``repr``, bools in lower case and None
    as an empty cell; each line is written as ``rows`` yields it."""
    if path.suffix == ".json":
        write_json(path, [dict(zip(header, row)) for row in rows])
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_lines(header, rows))


_HEADER = ("duration_us", "probability")


def _atoms(dist: TimeDistribution) -> Iterator[tuple[int, float]]:
    return zip(dist.durations.tolist(), dist.probabilities.tolist())


def _json_payload(dist: TimeDistribution, extra: dict | None) -> dict:
    return {"atoms": {str(d): p for d, p in _atoms(dist)}, "total_mass": dist.total_mass,
            "deficit": dist.deficit, **(extra or {})}


def write_distribution(dist: TimeDistribution, path: Path, extra: dict | None = None) -> None:
    """Write ``dist`` as CSV, or as JSON when ``path`` ends in ``.json``;
    ``extra`` adds top-level keys to the JSON object."""
    if path.suffix == ".json":
        write_json(path, _json_payload(dist, extra))
    else:
        write_rows(path, _HEADER, _atoms(dist))


def load_distribution(path: Path | str) -> TimeDistribution:
    """Read a distribution file written by ``write_distribution`` (.csv or .json).

    Raises ``ValueError`` unless the file is, byte for byte, the one
    ``write_distribution`` writes for the distribution it holds (and, in JSON,
    for its keys other than ``atoms``, ``total_mass`` and ``deficit``): the
    file is parsed leniently, its atoms go through the ``TimeDistribution``
    constructor, and the result is written out again and compared.
    """
    path = Path(path)
    as_json = path.suffix == ".json"
    try:
        text = path.read_bytes().decode("utf-8")
        if as_json:
            extra = json.loads(text)
            rows = extra.pop("atoms").items()
            extra = {k: v for k, v in extra.items() if k not in ("total_mass", "deficit")}
        else:
            rows = [line.split(",") for line in text.splitlines()[1:]]
        dist = TimeDistribution([int(dur) for dur, _ in rows], [float(prob) for _, prob in rows])
        canonical = (_json_text(_json_payload(dist, extra)) if as_json
                     else "".join(_csv_lines(_HEADER, _atoms(dist))))
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if text != canonical:
        raise ValueError(f"{path}: not a distribution file as rawtime writes it")
    return dist


def align(
    first: TimeDistribution, second: TimeDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of both supports, and each distribution's mass on it (0.0
    where it has no atom)."""
    support = np.union1d(first.durations, second.durations)
    masses = np.zeros((2, support.size))
    for mass, dist in zip(masses, (first, second)):
        mass[np.searchsorted(support, dist.durations)] = dist.probabilities
    return support, *masses


def kolmogorov_distance(first: TimeDistribution, second: TimeDistribution) -> float:
    """Supremum absolute difference between the two cumulative distributions."""
    _, mass_first, mass_second = align(first, second)
    return float(np.max(np.abs(np.cumsum(mass_first) - np.cumsum(mass_second)), initial=0.0))


def merge_weighted(
    components: Iterable[tuple[float, TimeDistribution]]
) -> TimeDistribution:
    """Weighted superposition of distributions (weights need not sum to 1)."""
    taus = [np.zeros(0, dtype=np.int64)]
    masses = [np.zeros(0)]
    for weight, dist in components:
        if weight <= 0.0:
            continue
        taus.append(dist.durations)
        masses.append(weight * dist.probabilities)
    return TimeDistribution.from_arrays(np.concatenate(taus), np.concatenate(masses))
