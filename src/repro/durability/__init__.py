"""Durable state for long-running FBC runs: WAL, checkpoints, recovery.

The paper's algorithms (and the competitive guarantees they inherit from
Landlord-style analyses) assume state — request history, credits, heap
orders — carried across the *whole* request sequence.  A coordinator
that forgets that state on a crash silently voids those guarantees, so
this subsystem makes simulation state durable:

* :mod:`repro.durability.atomicio` — crash-safe file primitives
  (temp-file + fsync + rename, directory fsync);
* :mod:`repro.durability.journal` — a write-ahead journal of
  length-prefixed, CRC32-checked frames with segment rotation, one frame
  per state-mutating job (admissions, evictions, per-policy rationale);
* :mod:`repro.durability.checkpoint` — versioned, atomically-written
  snapshots of :class:`~repro.cache.state.CacheState`, the policy's
  exported state (history, credits, heaps), metrics, and queue state,
  with journal truncation once a checkpoint lands;
* :mod:`repro.durability.runner` — :class:`~.runner.JournaledCore`, the commit
  pipeline the batch runner and the coordinator service share, and
  :func:`run_durable` / :func:`resume_run`, the batch driver over it and
  its recovery path that re-executes the journal tail and continues
  byte-identically.
"""

from repro.durability.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_dir,
)
from repro.durability.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.durability.journal import (
    JOURNAL_MAGIC,
    JournalFrame,
    JournalReader,
    JournalWriter,
    read_journal_dir,
)
from repro.durability.runner import (
    DurabilityConfig,
    DurableReport,
    resume_run,
    run_durable,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "fsync_dir",
    "JOURNAL_MAGIC",
    "JournalFrame",
    "JournalWriter",
    "JournalReader",
    "read_journal_dir",
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "DurabilityConfig",
    "DurableReport",
    "run_durable",
    "resume_run",
]
