"""Content-addressed on-disk cache for evaluated cells, datasets and workloads.

Every entry has one format: a directory named after its key, holding
numbered segments (``seg-00000``, ``seg-00001``, ...) and a
``manifest.json`` that lists each segment's length.  The manifest is
written last and is the entry's commit point.  Three namespaces share
that format under one cache root:

* ``cells/<key[:2]>/<key>/`` — one (model, task, workload) cell's
  answers as JSON segments, under a key that hashes everything the
  answers depend on: the generation seed, the model profile fingerprint,
  the task, the workload, ``max_instances``, the prompt template, the
  backend, and the cache format version.  A materialised cell is stored
  as one segment, a streamed cell as one segment per chunk;
* ``datasets/<key>/`` — each built :class:`TaskDataset`'s instances as
  pickled segments, under a key hashing (task, workload, seed,
  max_instances).  Dataset construction (parsing, corruption injection,
  pair generation) dominates a cold grid run, so warm runs load instead
  of rebuilding, and the streamed path re-chunks the segments without
  holding a whole dataset;
* ``workloads/<key>/`` — the streamed path's spill of a workload's query
  stream, so each later pass replays it instead of running the
  generator again.

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
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lifecycle.atomic import write_atomic
from repro.llm.backends.base import SIMULATED_SPEC, BackendSpec
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import ModelAnswer, TaskDataset

#: Bump when the entry layout or the serialized answer format changes;
#: old entries miss.  Manifests carry it, so each names its layout.
CACHE_VERSION = 2


class CacheSegmentError(Exception):
    """A cache entry is unreadable or inconsistent mid-stream.

    Raised by the segment iterators (not the whole-entry getters, which
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
    """Content address of one workload's spilled query stream (task independent)."""
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


#: The three namespaces under a cache root; each name is also the
#: ``kind`` its manifests carry.
_NAMESPACES = ("cells", "datasets", "workloads")


@dataclass
class ResultCache:
    """On-disk cell, dataset and workload cache rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- the entry format ----------------------------------------------------
    #
    # One directory per key, holding numbered segments plus a manifest
    # that lists each segment's length.  The manifest is written LAST
    # (after every segment landed via temp+rename), so it doubles as the
    # commit record — a crash mid-write leaves segments without a
    # manifest, which readers treat as "entry absent".  No partial entry
    # is ever visible.

    def _dir(self, kind: str, key: str) -> Path:
        if kind == "cells":
            return self.root / kind / key[:2] / key
        return self.root / kind / key

    def _segment_path(self, kind: str, key: str, index: int) -> Path:
        suffix = ".json" if kind == "cells" else ".pkl"
        return self._dir(kind, key) / f"seg-{index:05d}{suffix}"

    def _put_segment(self, kind: str, key: str, index: int, items: list) -> Path:
        if kind == "cells":
            payload = json.dumps([answer_to_dict(answer) for answer in items])
        else:
            payload = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        return write_atomic(self._segment_path(kind, key, index), payload)

    def _commit(
        self,
        kind: str,
        key: str,
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
        return write_atomic(
            self._dir(kind, key) / "manifest.json", json.dumps(manifest)
        )

    def _write(self, kind: str, key: str, items: list, meta: Optional[dict]) -> Path:
        """Store ``items`` as a one-segment entry; returns the manifest path."""
        self._put_segment(kind, key, 0, items)
        return self._commit(kind, key, len(items), [len(items)], meta)

    def _manifest(self, kind: str, key: str) -> Optional[dict]:
        try:
            manifest = json.loads((self._dir(kind, key) / "manifest.json").read_text())
            if manifest.get("version") != CACHE_VERSION:
                raise ValueError("manifest version mismatch")
            if manifest.get("kind") != kind:
                raise ValueError("manifest kind mismatch")
            counts = manifest["counts"]
            if not isinstance(counts, list) or manifest["total"] != sum(counts):
                raise ValueError("manifest counts inconsistent")
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        return manifest

    def _segments(
        self, kind: str, key: str, manifest: Optional[dict]
    ) -> Iterator[list]:
        """Yield the segments a committed ``manifest`` lists, in order.

        Raises :class:`CacheSegmentError` when there is no manifest, or a
        segment is missing, truncated, or the wrong length.
        """
        if manifest is None:
            raise CacheSegmentError(f"no committed {kind} entry {key}")
        for index, count in enumerate(manifest["counts"]):
            path = self._segment_path(kind, key, index)
            try:
                if kind == "cells":
                    items = [answer_from_dict(item) for item in json.loads(path.read_text())]
                else:
                    with path.open("rb") as handle:
                        items = pickle.load(handle)
                if not isinstance(items, list) or len(items) != count:
                    raise ValueError("segment length mismatch")
            except (OSError, ValueError, KeyError, TypeError, pickle.UnpicklingError,
                    EOFError, AttributeError, ImportError, IndexError) as error:
                raise CacheSegmentError(
                    f"segment {index} of {kind} entry {key} unreadable: {error}"
                ) from error
            yield items

    def _read(self, kind: str, key: str) -> Optional[tuple[dict, list]]:
        """A whole committed entry as ``(manifest, items)``, or None."""
        manifest = self._manifest(kind, key)
        if manifest is None:
            return None
        try:
            return manifest, list(chain.from_iterable(self._segments(kind, key, manifest)))
        except CacheSegmentError:
            return None

    # -- cells -----------------------------------------------------------------

    def get(
        self, key: str, expected_ids: Optional[Sequence[str]] = None
    ) -> Optional[list[ModelAnswer]]:
        """Cached answers for ``key``, or None on miss.

        Absent, unreadable or version-mismatched entries count as misses,
        as do entries whose answers do not align id-for-id with
        ``expected_ids`` — the cache is an optimisation, never a source
        of errors or misaligned metrics.
        """
        entry = self._read("cells", key)
        if entry is None or (
            expected_ids is not None
            and [answer.instance_id for answer in entry[1]] != list(expected_ids)
        ):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry[1]

    def put(
        self, key: str, answers: list[ModelAnswer], meta: Optional[dict] = None
    ) -> Path:
        """Store a cell's answers as one segment; returns the manifest path."""
        path = self._write("cells", key, answers, meta)
        self.stats.writes += 1
        return path

    def put_cell_segment(
        self, key: str, index: int, answers: list[ModelAnswer]
    ) -> Path:
        """Store one cell segment (a list of answers) atomically."""
        return self._put_segment("cells", key, index, answers)

    def commit_cell_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the cell manifest — the commit point for the entry."""
        self.stats.writes += 1
        return self._commit("cells", key, chunk_size, counts, meta)

    def get_cell_manifest(self, key: str) -> Optional[dict]:
        """The committed cell manifest, or None."""
        return self._manifest("cells", key)

    def iter_cell_segments(self, key: str) -> Iterator[list[ModelAnswer]]:
        """Yield committed cell answer segments in order.

        Raises :class:`CacheSegmentError` when a segment is missing,
        truncated, or the wrong length — callers recompute from scratch.
        """
        return self._segments("cells", key, self._manifest("cells", key))

    # -- datasets ----------------------------------------------------------

    def get_dataset(self, key: str) -> Optional[TaskDataset]:
        """Cached dataset for ``key``, or None (absent or corrupt entries miss)."""
        entry = self._read("datasets", key)
        meta = entry[0]["meta"] if entry is not None else {}
        if not meta.get("task") or not meta.get("workload"):
            self.stats.dataset_misses += 1
            return None
        self.stats.dataset_hits += 1
        return TaskDataset(task=meta["task"], workload=meta["workload"], instances=entry[1])

    def put_dataset(self, key: str, dataset: TaskDataset) -> Path:
        """Store a built dataset as one segment; returns the manifest path."""
        return self._write(
            "datasets",
            key,
            dataset.instances,
            {"task": dataset.task, "workload": dataset.workload},
        )

    def put_dataset_segment(self, key: str, index: int, instances: list) -> Path:
        """Store one dataset segment (a list of TaskInstance) atomically."""
        return self._put_segment("datasets", key, index, instances)

    def commit_dataset_segments(
        self,
        key: str,
        chunk_size: int,
        counts: Sequence[int],
        meta: Optional[dict] = None,
    ) -> Path:
        """Write the dataset manifest — the commit point for the entry.

        ``meta`` must name the dataset's ``task`` and ``workload``, which
        :meth:`get_dataset` rebuilds the :class:`TaskDataset` from.
        """
        return self._commit("datasets", key, chunk_size, counts, meta)

    def get_dataset_manifest(self, key: str) -> Optional[dict]:
        """The committed dataset manifest, or None."""
        return self._manifest("datasets", key)

    def iter_dataset_segments(self, key: str) -> Iterator[list]:
        """Yield committed dataset segments in order.

        Raises :class:`CacheSegmentError` like :meth:`iter_cell_segments`.
        """
        return self._segments("datasets", key, self._manifest("datasets", key))

    # -- workload spills ---------------------------------------------------

    def get_workload(self, key: str) -> Optional[Iterator]:
        """Replay a committed workload spill's queries, or None.

        The queries are read segment by segment as they are consumed; a
        segment that turns out unreadable raises
        :class:`CacheSegmentError` mid-iteration.
        """
        manifest = self._manifest("workloads", key)
        if manifest is None:
            return None
        return chain.from_iterable(self._segments("workloads", key, manifest))

    def put_workload(self, key: str, queries: Iterable, chunk_size: int) -> Iterator:
        """Pass ``queries`` through, spilling them into the entry for ``key``.

        Each segment is written before its queries are yielded, so the
        spill holds the generator's output before any consumer touches
        it.  The manifest is committed only once ``queries`` is
        exhausted: a pass that stops early (capped, interrupted, failed)
        leaves nothing that a later pass could replay.
        """
        source = iter(queries)
        counts: list[int] = []
        while segment := list(islice(source, chunk_size)):
            self._put_segment("workloads", key, len(counts), segment)
            counts.append(len(segment))
            yield from segment
        self._commit("workloads", key, chunk_size, counts, None)

    # -- maintenance -------------------------------------------------------

    def discard_segments(self, key: str) -> None:
        """Drop any (possibly uncommitted) entry files for ``key``.

        Used by failed streamed cells so orphaned segments don't linger;
        removing the manifest first keeps the entry invisible throughout.
        """
        for kind in _NAMESPACES:
            directory = self._dir(kind, key)
            if not directory.is_dir():
                continue
            (directory / "manifest.json").unlink(missing_ok=True)
            for path in sorted(directory.glob("seg-*")):
                path.unlink(missing_ok=True)
            try:
                directory.rmdir()
            except OSError:
                pass

    # The three ``*entries()`` listings count committed entries (one
    # manifest each), not files.

    def _glob(self, pattern: str) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(pattern))

    def entries(self) -> list[Path]:
        return self._glob("cells/*/*/manifest.json")

    def dataset_entries(self) -> list[Path]:
        return self._glob("datasets/*/manifest.json")

    def workload_entries(self) -> list[Path]:
        return self._glob("workloads/*/manifest.json")

    def _files(self) -> list[Path]:
        """Every file under the three namespaces, whatever wrote it."""
        return [
            path
            for kind in _NAMESPACES
            for path in self._glob(f"{kind}/**/*")
            if path.is_file()
        ]

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._files())

    def clear(self) -> int:
        """Delete every file under the three namespaces; returns how many
        committed entries that removed.

        Also removes what no reader looks up: uncommitted segments,
        entries in an earlier layout, and ``*.tmp.*`` files orphaned by
        interrupted atomic writes — otherwise they would accumulate
        forever.
        """
        removed = sum(
            len(listing)
            for listing in (self.entries(), self.dataset_entries(), self.workload_entries())
        )
        for path in self._files():
            path.unlink(missing_ok=True)
        for orphan in self.root.glob("**/*.tmp.*"):
            if orphan.is_file():
                orphan.unlink(missing_ok=True)
        for bucket in sorted(self.root.glob("**/*"), reverse=True):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed
