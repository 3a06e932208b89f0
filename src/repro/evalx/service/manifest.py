"""The queue manifest: one job's cells, fingerprints, and shards.

Written once by the coordinator when it expands a submitted job (or by
a local ``--jobs N`` run), read by every worker that serves the job.
Cells travel as base64 pickles (module-level fn by reference +
picklable kwargs), so workers need the same code checkout, which a
multi-host deployment of this repo has by construction.

Final per-cell failures are job-scoped *fail markers* under
``<root>/queue/<job>/fails/<fingerprint>.json``: unlike results,
failures are environmental, so they must not be content-addressed into
the shared store where a later job with the same fingerprint would
inherit them. Attempts a cell already spent in workers that died
running it are job-scoped too, under
``<root>/queue/<job>/spent/<fingerprint>``: a local run's supervising
parent charges each death to the retry budget and writes the count, so
the next worker to lease the cell carries on from there.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.evalx.checkpoint import (
    CheckpointCorrupt,
    CheckpointHit,
    CheckpointStore,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import Cell, CellFailure
from repro.evalx.service.costs import Shard
from repro.utils.fsio import fsync_write_text

MANIFEST_NAME = "manifest.json"


class ManifestError(ReproError):
    """A queue manifest is missing or unreadable."""


@dataclass(frozen=True)
class ManifestCell:
    """One cell as listed in a job's manifest."""

    index: int
    label: str
    fingerprint: str
    cost: float
    cell: Cell


@dataclass(frozen=True)
class Manifest:
    """One expanded job: ordered cells plus their shard grouping."""

    job_id: str
    experiment: str
    cells: tuple[ManifestCell, ...]
    shards: tuple[Shard, ...]

    def shard_cells(self, shard: Shard) -> list[ManifestCell]:
        return [self.cells[i] for i in shard.cell_indices]


def queue_dir(root: str | Path, job_id: str) -> Path:
    return Path(root) / "queue" / job_id


def manifest_path(root: str | Path, job_id: str) -> Path:
    return queue_dir(root, job_id) / MANIFEST_NAME


def write_manifest(
    root: str | Path,
    job_id: str,
    experiment: str,
    cells: Sequence[Cell],
    fingerprints: Sequence[str],
    costs: Sequence[float],
    shards: Sequence[Shard],
) -> Path:
    """Atomically publish a job's expansion for workers to serve."""
    data = {
        "job": job_id,
        "experiment": experiment,
        "cells": [
            {
                "index": index,
                "label": cell.label,
                "fingerprint": fingerprints[index],
                "cost": costs[index],
                "pickle": base64.b64encode(pickle.dumps(cell)).decode(
                    "ascii"
                ),
            }
            for index, cell in enumerate(cells)
        ],
        "shards": [
            {
                "index": shard.index,
                "cells": list(shard.cell_indices),
                "estimated_cost": shard.estimated_cost,
            }
            for shard in shards
        ],
    }
    path = manifest_path(root, job_id)
    _publish(path, json.dumps(data) + "\n")
    return path


def _publish(path: Path, text: str) -> None:
    """Durably replace ``path`` via a pid-unique sibling temp file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        fsync_write_text(tmp, text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def read_manifest(root: str | Path, job_id: str) -> Manifest:
    """Load a job's manifest (raises :class:`ManifestError` if absent)."""
    path = manifest_path(root, job_id)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        cells = tuple(
            ManifestCell(
                index=int(entry["index"]),
                label=str(entry["label"]),
                fingerprint=str(entry["fingerprint"]),
                cost=float(entry["cost"]),
                cell=pickle.loads(base64.b64decode(entry["pickle"])),
            )
            for entry in data["cells"]
        )
        shards = tuple(
            Shard(
                index=int(entry["index"]),
                cell_indices=tuple(int(i) for i in entry["cells"]),
                estimated_cost=float(entry["estimated_cost"]),
            )
            for entry in data["shards"]
        )
    except (OSError, ValueError, KeyError, pickle.PickleError) as exc:
        raise ManifestError(
            f"queue manifest for job {job_id!r} unreadable: {exc!r}"
        ) from exc
    return Manifest(
        job_id=str(data.get("job", job_id)),
        experiment=str(data.get("experiment", "?")),
        cells=cells,
        shards=shards,
    )


# -- fail markers -----------------------------------------------------

#: ``CellFailure.kind`` for a cell quarantined by the lease attempt
#: policy: its workers kept dying, so it is finalised as failed instead
#: of being re-leased forever (see :mod:`repro.evalx.service.worker`).
QUARANTINED = "quarantined"


def fail_path(root: str | Path, job_id: str, fingerprint: str) -> Path:
    return queue_dir(root, job_id) / "fails" / f"{fingerprint}.json"


def write_fail(
    root: str | Path, job_id: str, fingerprint: str, failure: CellFailure
) -> bool:
    """Atomically record one cell's final failure (job-scoped).

    First writer wins: the marker is published with a hard link from a
    pid-unique temp, which atomically fails if a marker already exists.
    That keeps a zombie worker — one that hung past its lease and woke
    after the cell was re-served — from overwriting the verdict of the
    worker that legitimately owned the cell. Returns whether *this*
    call published the marker.
    """
    path = fail_path(root, job_id, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{fingerprint}.tmp-{os.getpid()}")
    body = json.dumps(
        {
            "label": failure.label,
            "kind": failure.kind,
            "error": failure.error,
            "attempts": failure.attempts,
            "wall_seconds": failure.wall_seconds,
        },
        sort_keys=True,
    )
    try:
        fsync_write_text(tmp, body + "\n")
        os.link(tmp, path)
    except FileExistsError:
        return False
    except OSError:
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


def read_fail(
    root: str | Path, job_id: str, fingerprint: str
) -> CellFailure | None:
    """The cell's final-failure marker, if one was recorded."""
    try:
        data = json.loads(
            fail_path(root, job_id, fingerprint).read_text(
                encoding="utf-8"
            )
        )
        return CellFailure(
            label=str(data["label"]),
            kind=str(data["kind"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
            wall_seconds=float(data["wall_seconds"]),
        )
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_results(
    root: str | Path,
    job_id: str,
    store: CheckpointStore,
    cells: Sequence[ManifestCell],
    metrics: RunMetrics,
) -> list | None:
    """Each cell's verified payload or fail marker, in manifest order.

    ``None`` while any cell is still open. A record that fails
    verification is discarded, which reopens its cell, and reported as
    a ``corrupt`` checkpoint event.
    """
    results = []
    for entry in cells:
        loaded = store.load(entry.fingerprint, entry.label)
        if isinstance(loaded, CheckpointHit):
            results.append(loaded.payload)
            continue
        if isinstance(loaded, CheckpointCorrupt):
            metrics.checkpoint_event(
                entry.label, "corrupt", entry.fingerprint, loaded.reason
            )
            return None
        failure = read_fail(root, job_id, entry.fingerprint)
        if failure is None:
            return None
        results.append(failure)
    return results


def failed_fingerprints(root: str | Path, job_id: str) -> set[str]:
    """Fingerprints with a recorded final failure for this job."""
    fails = queue_dir(root, job_id) / "fails"
    if not fails.is_dir():
        return set()
    return {
        path.stem
        for path in fails.glob("*.json")
        if not path.name.startswith(".")
    }


# -- spent attempts ---------------------------------------------------


def spent_path(root: str | Path, job_id: str, fingerprint: str) -> Path:
    return queue_dir(root, job_id) / "spent" / fingerprint


def write_spent(
    root: str | Path, job_id: str, fingerprint: str, attempts: int
) -> None:
    """Atomically record the attempts a cell has already consumed."""
    _publish(spent_path(root, job_id, fingerprint), f"{attempts}\n")


def read_spent(root: str | Path, job_id: str, fingerprint: str) -> int:
    """Attempts the cell already consumed (0 when none were recorded)."""
    path = spent_path(root, job_id, fingerprint)
    try:
        return int(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return 0
