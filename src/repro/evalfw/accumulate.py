"""Cell results and the accumulator every cell's metrics come from.

A :class:`CellAccumulator` folds (instance, answer) chunks into the
integer counts the metric constructors need — binary confusion counts,
``(label_type, predicted_type)`` pair counts, location running totals,
and the explanation-overlap running sum.  A :class:`CellResult` reads
its metrics and gates from one, on both data paths: a materialised cell
keeps its dataset and answers for the per-instance artifacts and folds
them as one chunk; a streamed cell keeps only the accumulator its
chunks were folded into, so a million-instance cell costs the same
memory as a ten-instance one.

Exactness: every float operation happens in the ``*_from_counts``
constructors (:mod:`repro.evalfw.metrics`), which the list-based
reference metrics delegate through as well; the only other float state
is the explanation-overlap running sum, accumulated in instance order —
and ``a += x`` per element is exactly a left-to-right ``sum()``.  A
cell's metrics therefore do not depend on how it was chunked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.evalfw.metrics import (
    BinaryMetrics,
    LocationMetrics,
    WeightedMetrics,
    binary_metrics_from_counts,
    classify_binary,
    location_metrics_from_counts,
    weighted_metrics_from_counts,
)
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance


@dataclass
class CellAccumulator:
    """Folds (instance, answer) chunks into constant-size metric state."""

    model: str
    task: str
    workload: str

    instances: int = 0
    chunks: int = 0

    # binary --------------------------------------------------------------
    confusion: Counter = field(default_factory=Counter)
    has_labels: bool = False

    # typed ---------------------------------------------------------------
    pair_counts: Counter = field(default_factory=Counter)

    # location ------------------------------------------------------------
    loc_pairs: int = 0
    loc_truth_sum: int = 0
    loc_abs_error_sum: int = 0
    loc_hits: int = 0
    loc_misses: int = 0

    # explanation ---------------------------------------------------------
    has_gold: bool = False
    overlap_sum: float = 0.0
    flawed: int = 0

    def add_chunk(
        self,
        instances: Sequence[TaskInstance],
        answers: Sequence[ModelAnswer],
    ) -> None:
        """Fold one aligned chunk into the running state."""
        from repro.tasks.explanation import explanation_overlap_f1

        if len(instances) != len(answers):
            raise ValueError(
                f"chunk misaligned: {len(instances)} instances "
                f"but {len(answers)} answers"
            )
        self.chunks += 1
        for instance, answer in zip(instances, answers):
            self.instances += 1
            self.confusion[
                classify_binary(bool(instance.label), answer.predicted)
            ] += 1
            if instance.label is not None:
                self.has_labels = True
            if instance.label_type is not None:
                self.pair_counts[(instance.label_type, answer.predicted_type)] += 1
            if instance.position is not None:
                self.loc_pairs += 1
                self.loc_truth_sum += instance.position
                if answer.predicted_position is None:
                    self.loc_misses += 1
                else:
                    self.loc_abs_error_sum += abs(
                        answer.predicted_position - instance.position
                    )
                    if answer.predicted_position == instance.position:
                        self.loc_hits += 1
            if instance.gold_text:
                # Without gold text the overlap is 0.0, and adding 0.0
                # would leave the sum exactly as it is.
                self.has_gold = True
                self.overlap_sum += explanation_overlap_f1(
                    instance.gold_text, answer.explanation
                )
            if answer.flaws:
                self.flawed += 1

    def result(self) -> "CellResult":
        """Finalise into a streamed :class:`CellResult` (no dataset, no answers)."""
        return CellResult(
            model=self.model, task=self.task, workload=self.workload, accumulator=self
        )


@dataclass
class CellResult:
    """One (model, task, workload) evaluation cell.

    ``dataset`` and ``answers`` are set on materialised cells, whose
    per-instance artifacts read them, and None on streamed ones.  Either
    way the metrics and their gates come from a
    :class:`CellAccumulator`: a streamed cell is built around the one
    its chunks were folded into, and a materialised cell folds its
    dataset and answers into one the first time a metric is read.
    """

    model: str
    task: str
    workload: str
    dataset: Optional[TaskDataset] = None
    answers: Optional[list[ModelAnswer]] = None
    accumulator: Optional[CellAccumulator] = field(
        default=None, repr=False, compare=False
    )

    @property
    def _acc(self) -> CellAccumulator:
        if self.accumulator is None:
            self.accumulator = CellAccumulator(self.model, self.task, self.workload)
            self.accumulator.add_chunk(self.dataset.instances, self.answers)
        return self.accumulator

    @property
    def instance_count(self) -> int:
        return self._acc.instances

    @property
    def binary(self) -> BinaryMetrics:
        c = self._acc.confusion
        return binary_metrics_from_counts(
            tp=c["tp"], tn=c["tn"], fp=c["fp"], fn=c["fn"]
        )

    @property
    def typed(self) -> WeightedMetrics:
        return weighted_metrics_from_counts(self._acc.pair_counts)

    @property
    def location(self) -> LocationMetrics:
        acc = self._acc
        return location_metrics_from_counts(
            n_pairs=acc.loc_pairs,
            truth_sum=acc.loc_truth_sum,
            abs_error_sum=acc.loc_abs_error_sum,
            hits=acc.loc_hits,
            misses=acc.loc_misses,
        )

    # -- gates and extras for the reporting layer -------------------------

    @property
    def has_labels(self) -> bool:
        return self._acc.has_labels

    def types_present(self) -> list[str]:
        return sorted({truth for truth, _ in self._acc.pair_counts})

    @property
    def has_positions(self) -> bool:
        return self._acc.loc_pairs > 0

    @property
    def has_gold(self) -> bool:
        return self._acc.has_gold

    @property
    def explanation_overlap_f1(self) -> float:
        if not self.instance_count:
            return 0.0
        return self._acc.overlap_sum / self.instance_count

    @property
    def flawed_rate(self) -> float:
        if not self.instance_count:
            return 0.0
        return self._acc.flawed / self.instance_count
