"""Content-addressed on-disk cache for evaluated cells and datasets.

Three namespaces under one cache root:

* ``cells/`` — each (model, task, workload) cell's answers, stored as
  JSON under a key that hashes everything the answers depend on: the
  generation seed, the model profile fingerprint, the task, the
  workload, ``max_instances``, the prompt template, and a cache format
  version;
* ``datasets/`` — each built :class:`TaskDataset`, pickled under a key
  hashing (task, workload, seed, max_instances).  Dataset construction
  (parsing, corruption injection, pair generation) dominates a cold
  grid run, so warm runs load instead of rebuilding.  The streamed
  path stores datasets as segments (``datasets/<key>/``) it can
  re-chunk without holding a whole dataset;
* ``workloads/`` — the streamed path spills a workload's query stream
  as segments (``workloads/<key>/``), so each later pass replays it
  instead of running the generator again.  The monolithic pickled
  :class:`Workload` format (``get_workload``/``put_workload``) is
  kept for readers of existing cache directories.

Change any input and the key changes, so stale entries are never served
— they are simply never looked up again.  Every write goes through
:func:`repro.lifecycle.atomic.write_atomic` (a uniquely named temp file,
then an atomic rename), so a cache directory is safe to share between
concurrent processes and threads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.lifecycle.atomic import write_atomic
from repro.llm.backends.base import SIMULATED_SPEC, BackendSpec
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import ModelAnswer, TaskDataset

#: Bump when the serialized answer format changes; old entries miss.
CACHE_VERSION = 1


class CacheSegmentError(Exception):
    """A segmented cache entry is unreadable or inconsistent mid-stream.

    Raised by the segment iterators (not the monolithic getters, which
    translate problems into misses) because a streamed read may already
    have handed out earlier segments when the problem surfaces; the
    streaming engine catches this and falls back to a clean recompute.
    """


@functools.lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Hash of the whole ``repro`` package source, computed once.

    Folded into every cache key so that *code* changes — a tweaked
    penalty curve, a new corruption type — invalidate cached results
    just like input changes do.  Without this, a default-on cache would
    silently serve numbers produced by old code.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prompt_fingerprint(task: str, prompt: Optional[PromptTemplate]) -> str:
    """Stable hash of the prompt template a cell is evaluated with.

    ``None`` resolves to the task's tuned default first, so an explicit
    ``prompt=TUNED_PROMPTS[task]`` and the default share one cache entry.
    """
    template = prompt or prompt_for(task)
    payload = json.dumps(
        {
            "task": template.task,
            "name": template.name,
            "text": template.text,
            "quality": template.quality,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rewrite_fingerprint(task: str, workload: str) -> str:
    """Rewrite-catalog fingerprint for a cell, "" for non-rewrite cells.

    Rewrite-task answers depend on the transform catalog (which families
    exist, what each one does) and on the workload's family restriction;
    folding the catalog fingerprint into the key gives rewrite cells an
    explicit provenance line instead of leaning on the whole-source
    hash alone — the same fingerprint lands in the RunRecord.
    """
    from repro.tasks.base import REWRITE_TASKS

    if task not in REWRITE_TASKS:
        return ""
    from repro.rewrite.catalog import catalog_fingerprint
    from repro.workloads.synthetic import rewrite_families_of

    try:
        families = rewrite_families_of(workload) or None
    except ValueError:
        families = None
    return catalog_fingerprint(families)


def cell_key(
    seed: int,
    profile: ModelProfile,
    task: str,
    workload: str,
    max_instances: Optional[int],
    prompt: Optional[PromptTemplate],
    backend: Optional[BackendSpec] = None,
    backend_state: str = "",
) -> str:
    """Content address of one evaluated cell.

    ``backend`` (None means the default in-process simulator) folds the
    backend identity — registry name plus every option, including the
    endpoint URL — into the key, so answers obtained from one backend
    can never be served to a run using another backend or another
    endpoint of the same backend.  ``backend_state`` additionally folds
    mutable external state feeding the backend's answers (the replay
    backend's fixture-content hash), so editing that state invalidates
    cells cached against the old responses.
    """
    spec = backend if backend is not None else SIMULATED_SPEC
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "source": source_fingerprint(),
            "seed": seed,
            "profile": profile.fingerprint(),
            "task": task,
            "workload": workload,
            "max_instances": max_instances,
            "prompt": prompt_fingerprint(task, prompt),
            "backend": spec.fingerprint(),
            "backend_state": backend_state,
            "rewrite_catalog": rewrite_fingerprint(task, workload),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dataset_key(
    task: str, workload: str, seed: int, max_instances: Optional[int]
) -> str:
    """Content address of one built dataset (model/prompt independent)."""
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "dataset",
            "source": source_fingerprint(),
            "task": task,
            "workload": workload,
            "seed": seed,
            "max_instances": max_instances,
            "rewrite_catalog": rewrite_fingerprint(task, workload),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def workload_key(workload: str, seed: int) -> str:
    """Content address of one loaded workload (task independent).

    Workload construction costs a sizable fraction of a cold run and
    used to be repeated inside *every* worker process; pickling it once
    lets workers load in milliseconds instead.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "workload",
            "source": source_fingerprint(),
            "workload": workload,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def answer_to_dict(answer: ModelAnswer) -> dict:
    return {
        "instance_id": answer.instance_id,
        "model": answer.model,
        "response_text": answer.response_text,
        "predicted": answer.predicted,
        "predicted_type": answer.predicted_type,
        "predicted_position": answer.predicted_position,
        "explanation": answer.explanation,
        "flaws": list(answer.flaws),
    }


def answer_from_dict(data: dict) -> ModelAnswer:
    return ModelAnswer(
        instance_id=data["instance_id"],
        model=data["model"],
        response_text=data["response_text"],
        predicted=data["predicted"],
        predicted_type=data["predicted_type"],
        predicted_position=data["predicted_position"],
        explanation=data.get("explanation", ""),
        flaws=tuple(data.get("flaws", ())),
    )


@dataclass
class CacheStats:
    """Hit/miss counters for one engine lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    dataset_hits: int = 0
    dataset_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "dataset_hits": self.dataset_hits,
            "dataset_misses": self.dataset_misses,
        }


@dataclass
class ResultCache:
    """On-disk cell + dataset cache rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / "cells" / key[:2] / f"{key}.json"

    def _dataset_path(self, key: str) -> Path:
        return self.root / "datasets" / f"{key}.pkl"

    def _workload_path(self, key: str) -> Path:
        return self.root / "workloads" / f"{key}.pkl"

    def get(
        self, key: str, expected_ids: Optional[Sequence[str]] = None
    ) -> Optional[list[ModelAnswer]]:
        """Cached answers for ``key``, or None on miss.

        Unreadable or version-mismatched entries count as misses, as do
        entries whose answers do not align id-for-id with
        ``expected_ids`` — the cache is an optimisation, never a source
        of errors or misaligned metrics.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            answers = [answer_from_dict(item) for item in payload["answers"]]
        except (OSError, ValueError, KeyError, TypeError):
            # Warm-path reassembly: a cell written by a streaming run
            # lives as segments; materialised readers stitch them back.
            answers = self._reassemble_cell(key)
            if answers is None:
                self.stats.misses += 1
                return None
        if expected_ids is not None and [
            answer.instance_id for answer in answers
        ] != list(expected_ids):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return answers

    def _reassemble_cell(self, key: str) -> Optional[list[ModelAnswer]]:
        if self.get_cell_manifest(key) is None:
            return None
        answers: list[ModelAnswer] = []
        try:
            for segment in self.iter_cell_segments(key):
                answers.extend(segment)
        except CacheSegmentError:
            return None
        return answers

    def put(
        self, key: str, answers: list[ModelAnswer], meta: Optional[dict] = None
    ) -> Path:
        """Store a cell's answers atomically; returns the entry path."""
        payload = {
            "version": CACHE_VERSION,
            "meta": meta or {},
            "answers": [answer_to_dict(answer) for answer in answers],
        }
        path = write_atomic(self._path(key), json.dumps(payload))
        self.stats.writes += 1
        return path

    # -- datasets ----------------------------------------------------------

    def get_dataset(self, key: str) -> Optional[TaskDataset]:
        """Cached dataset for ``key``, or None (corrupt entries miss)."""
        path = self._dataset_path(key)
        try:
            with path.open("rb") as handle:
                dataset = pickle.load(handle)
            if not isinstance(dataset, TaskDataset):
                raise ValueError("not a TaskDataset")
        except (OSError, ValueError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError):
            # Warm-path reassembly from a streaming run's segments.
            dataset = self._reassemble_dataset(key)
            if dataset is None:
                self.stats.dataset_misses += 1
                return None
        self.stats.dataset_hits += 1
        return dataset

    def _reassemble_dataset(self, key: str) -> Optional[TaskDataset]:
        manifest = self.get_dataset_manifest(key)
        if manifest is None:
            return None
        meta = manifest.get("meta", {})
        task = meta.get("task")
        workload = meta.get("workload")
        if not task or not workload:
            return None
        dataset = TaskDataset(task=task, workload=workload)
        try:
            for segment in self.iter_dataset_segments(key):
                dataset.instances.extend(segment)
        except CacheSegmentError:
            return None
        return dataset

    def put_dataset(self, key: str, dataset: TaskDataset) -> Path:
        """Store a built dataset atomically; returns the entry path."""
        return write_atomic(
            self._dataset_path(key),
            pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- workloads ---------------------------------------------------------

    def get_workload(self, key: str):
        """Cached workload for ``key``, or None (corrupt entries miss)."""
        from repro.workloads.base import Workload

        path = self._workload_path(key)
        try:
            with path.open("rb") as handle:
                workload = pickle.load(handle)
            if not isinstance(workload, Workload):
                raise ValueError("not a Workload")
        except (OSError, ValueError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError):
            return None
        return workload

    def put_workload(self, key: str, workload) -> Path:
        """Store a loaded workload atomically; returns the entry path."""
        return write_atomic(
            self._workload_path(key),
            pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- segmented entries -------------------------------------------------
    #
    # Chunked storage for streaming runs: one directory per key holding
    # fixed-size segments plus a manifest.  The manifest is written LAST
    # (after every segment landed via temp+rename), so it doubles as the
    # commit record — a crash mid-run leaves segments without a
    # manifest, which readers treat as "entry absent".  No partial entry
    # is ever visible.

    def _dataset_segment_dir(self, key: str) -> Path:
        return self.root / "datasets" / key

    def _workload_segment_dir(self, key: str) -> Path:
        return self.root / "workloads" / key

    def _cell_segment_dir(self, key: str) -> Path:
        return self.root / "cells" / key[:2] / key

    @staticmethod
    def _segment_name(index: int, suffix: str) -> str:
        return f"seg-{index:05d}{suffix}"

    def _read_manifest(self, directory: Path, kind: str) -> Optional[dict]:
        try:
            manifest = json.loads((directory / "manifest.json").read_text())
            if manifest.get("version") != CACHE_VERSION:
                raise ValueError("segment manifest version mismatch")
            if manifest.get("kind") != kind:
                raise ValueError("segment manifest kind mismatch")
            counts = manifest["counts"]
            if not isinstance(counts, list) or manifest["total"] != sum(counts):
                raise ValueError("segment manifest counts inconsistent")
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return manifest

    def _commit_manifest(
        self,
        directory: Path,
        kind: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict],
    ) -> Path:
        manifest = {
            "version": CACHE_VERSION,
            "kind": kind,
            "chunk_size": chunk_size,
            "counts": list(counts),
            "total": sum(counts),
            "meta": meta or {},
        }
        return write_atomic(directory / "manifest.json", json.dumps(manifest))

    def _put_pickled_segment(self, directory: Path, index: int, items: list) -> Path:
        return write_atomic(
            directory / self._segment_name(index, ".pkl"),
            pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _iter_pickled_segments(
        self, directory: Path, manifest: Optional[dict], label: str
    ) -> Iterator[list]:
        """Yield the pickled segments a committed ``manifest`` lists.

        Raises :class:`CacheSegmentError` when there is no manifest, or a
        segment is missing, truncated, or the wrong length.
        """
        if manifest is None:
            raise CacheSegmentError(f"no committed segments for {label}")
        for index, count in enumerate(manifest["counts"]):
            path = directory / self._segment_name(index, ".pkl")
            try:
                with path.open("rb") as handle:
                    items = pickle.load(handle)
                if not isinstance(items, list) or len(items) != count:
                    raise ValueError("segment length mismatch")
            except (OSError, ValueError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError) as error:
                raise CacheSegmentError(
                    f"segment {index} of {label} unreadable: {error}"
                ) from error
            yield items

    def put_dataset_segment(self, key: str, index: int, instances: list) -> Path:
        """Store one dataset segment (a list of TaskInstance) atomically."""
        return self._put_pickled_segment(
            self._dataset_segment_dir(key), index, instances
        )

    def commit_dataset_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the dataset manifest — the commit point for the entry."""
        return self._commit_manifest(
            self._dataset_segment_dir(key),
            "dataset-segments",
            chunk_size,
            counts,
            meta,
        )

    def get_dataset_manifest(self, key: str) -> Optional[dict]:
        """The committed dataset-segment manifest, or None."""
        return self._read_manifest(
            self._dataset_segment_dir(key), "dataset-segments"
        )

    def iter_dataset_segments(self, key: str):
        """Yield committed dataset segments in order.

        Raises :class:`CacheSegmentError` when a segment is missing,
        truncated, or the wrong length — callers recompute from scratch.
        """
        yield from self._iter_pickled_segments(
            self._dataset_segment_dir(key),
            self.get_dataset_manifest(key),
            f"dataset {key}",
        )

    def put_workload_segment(self, key: str, index: int, queries: list) -> Path:
        """Store one spilled workload segment (a list of WorkloadQuery)."""
        return self._put_pickled_segment(
            self._workload_segment_dir(key), index, queries
        )

    def commit_workload_segments(
        self, key: str, chunk_size: int, counts: Sequence[int]
    ) -> Path:
        """Write the workload spill manifest — the commit point for the spill."""
        return self._commit_manifest(
            self._workload_segment_dir(key),
            "workload-segments",
            chunk_size,
            counts,
            None,
        )

    def get_workload_manifest(self, key: str) -> Optional[dict]:
        """The committed workload spill manifest, or None."""
        return self._read_manifest(
            self._workload_segment_dir(key), "workload-segments"
        )

    def iter_workload_segments(self, key: str):
        """Yield a committed workload spill's query segments in order.

        Raises :class:`CacheSegmentError` like
        :meth:`iter_dataset_segments`.
        """
        yield from self._iter_pickled_segments(
            self._workload_segment_dir(key),
            self.get_workload_manifest(key),
            f"workload {key}",
        )

    def put_cell_segment(
        self, key: str, index: int, answers: list[ModelAnswer]
    ) -> Path:
        """Store one cell segment (a list of answers) atomically."""
        path = self._cell_segment_dir(key) / self._segment_name(index, ".json")
        payload = json.dumps([answer_to_dict(answer) for answer in answers])
        return write_atomic(path, payload)

    def commit_cell_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the cell manifest — the commit point for the entry."""
        self.stats.writes += 1
        return self._commit_manifest(
            self._cell_segment_dir(key), "cell-segments", chunk_size, counts, meta
        )

    def get_cell_manifest(self, key: str) -> Optional[dict]:
        """The committed cell-segment manifest, or None."""
        return self._read_manifest(self._cell_segment_dir(key), "cell-segments")

    def iter_cell_segments(self, key: str):
        """Yield committed cell answer segments in order.

        Raises :class:`CacheSegmentError` when a segment is missing,
        truncated, or the wrong length — callers recompute from scratch.
        """
        manifest = self.get_cell_manifest(key)
        if manifest is None:
            raise CacheSegmentError(f"no committed cell segments for {key}")
        directory = self._cell_segment_dir(key)
        for index, count in enumerate(manifest["counts"]):
            path = directory / self._segment_name(index, ".json")
            try:
                items = json.loads(path.read_text())
                answers = [answer_from_dict(item) for item in items]
                if len(answers) != count:
                    raise ValueError("segment length mismatch")
            except (OSError, ValueError, KeyError, TypeError) as error:
                raise CacheSegmentError(
                    f"cell segment {index} of {key} unreadable: {error}"
                ) from error
            yield answers

    def discard_segments(self, key: str) -> None:
        """Drop any (possibly uncommitted) segment files for ``key``.

        Used by failed streamed cells so orphaned segments don't linger;
        removing the manifest first keeps the entry invisible throughout.
        """
        for directory in (
            self._cell_segment_dir(key),
            self._dataset_segment_dir(key),
            self._workload_segment_dir(key),
        ):
            if not directory.is_dir():
                continue
            (directory / "manifest.json").unlink(missing_ok=True)
            for path in sorted(directory.glob("seg-*")):
                path.unlink(missing_ok=True)
            try:
                directory.rmdir()
            except OSError:
                pass

    # -- maintenance -------------------------------------------------------
    #
    # The three ``*entries()`` listings count entries, not files: one
    # path per monolithic file and one per committed segmented entry
    # (its manifest).  ``segment_entries()`` lists the files behind the
    # segmented ones.

    def _glob(self, *patterns: str) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(path for pattern in patterns for path in self.root.glob(pattern))

    def entries(self) -> list[Path]:
        return self._glob("cells/*/*.json", "cells/*/*/manifest.json")

    def dataset_entries(self) -> list[Path]:
        return self._glob("datasets/*.pkl", "datasets/*/manifest.json")

    def workload_entries(self) -> list[Path]:
        return self._glob("workloads/*.pkl", "workloads/*/manifest.json")

    def segment_entries(self) -> list[Path]:
        """Every segment file and manifest across the three namespaces."""
        return self._glob(
            "cells/*/*/seg-*.json",
            "cells/*/*/manifest.json",
            "datasets/*/seg-*.pkl",
            "datasets/*/manifest.json",
            "workloads/*/seg-*.pkl",
            "workloads/*/manifest.json",
        )

    def _files(self) -> list[Path]:
        return sorted(
            {
                *self.entries(),
                *self.dataset_entries(),
                *self.workload_entries(),
                *self.segment_entries(),
            }
        )

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._files())

    def clear(self) -> int:
        """Delete every cached file; returns how many.

        Also sweeps ``*.tmp.*`` files orphaned by interrupted atomic
        writes (they are invisible to ``entries()`` and would otherwise
        accumulate forever).
        """
        removed = 0
        for path in self._files():
            path.unlink(missing_ok=True)
            removed += 1
        for orphan in self.root.glob("**/*.tmp.*"):
            if orphan.is_file():
                orphan.unlink(missing_ok=True)
        for bucket in sorted(self.root.glob("**/*"), reverse=True):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed
