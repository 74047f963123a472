"""The zero-lead oracle: every collection traced and planned in its pause.

Every ``Simulation`` collects through the scheduler of
``repro.gc.parallel``. It traces and plans the likely victim at wake-ups
ahead of the trigger, and a pause whose plan is still valid only writes.
With the scheduler's lead pinned at zero nothing wakes before the trigger:
every collection is a speculation miss and runs
``CopyingCollector.prepare`` + ``apply`` inline, which is what
``collection="serial"`` used to select. Tests run a cell as it is and
again inside :func:`serial_collections`, and require the two to agree — so
a scheduler that applied a stale plan, or a pump that mutated the store,
fails them.
"""

from contextlib import contextmanager

from repro.gc.parallel import ParallelCollectionScheduler


def _zero_lead(self, interval):
    return 0.0


def _no_pump(self):
    raise AssertionError("the zero-lead oracle woke the scheduler before a trigger")


@contextmanager
def serial_collections():
    """Inside the block every scheduler's lead is zero and a pump fails."""
    lead, pump = ParallelCollectionScheduler.lead, ParallelCollectionScheduler.pump
    ParallelCollectionScheduler.lead = _zero_lead
    ParallelCollectionScheduler.pump = _no_pump
    try:
        yield
    finally:
        ParallelCollectionScheduler.lead = lead
        ParallelCollectionScheduler.pump = pump


def serially(run, *args, **kwargs):
    """``run(*args, **kwargs)`` inside :func:`serial_collections`."""
    with serial_collections():
        return run(*args, **kwargs)
