"""Crash-safe run lifecycle: journal, cell states, graceful interrupt.

The engine's durability story has three layers.  The *cache*
(:mod:`repro.engine.cache`) makes every committed cell's bytes atomic
and content-addressed.  The *journal* (:mod:`repro.lifecycle.journal`)
makes the run itself durable: a write-ahead record of the run's full
configuration plus each grid cell's progress through the
``pending → in_flight → committed/failed`` state machine, written with
the same temp+rename discipline.  The *interrupt* layer
(:mod:`repro.lifecycle.interrupt`) turns SIGINT/SIGTERM into a graceful
drain — stop dispatching, checkpoint, flush the journal, exit with a
dedicated code — so ``repro run --resume RUN_ID`` can reload the
journal and finish the grid with byte-identical final metrics.
:mod:`repro.lifecycle.layout` names the default directories and ids.
"""

from repro.lifecycle.interrupt import (
    EXIT_INTERRUPTED,
    GracefulInterrupt,
    RunInterrupted,
)
from repro.lifecycle.journal import (
    CELL_COMMITTED,
    CELL_DEGRADED,
    CELL_FAILED,
    CELL_IN_FLIGHT,
    CELL_PENDING,
    CELL_SKIPPED,
    CELL_STATES,
    CellFailure,
    JournalError,
    RunJournal,
)

__all__ = [
    "EXIT_INTERRUPTED",
    "GracefulInterrupt",
    "RunInterrupted",
    "CELL_PENDING",
    "CELL_IN_FLIGHT",
    "CELL_COMMITTED",
    "CELL_FAILED",
    "CELL_SKIPPED",
    "CELL_DEGRADED",
    "CELL_STATES",
    "CellFailure",
    "JournalError",
    "RunJournal",
]
