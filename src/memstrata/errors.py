"""Exception types raised across the memory engine."""


class MemoryEngineError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(MemoryEngineError):
    """Bad config file: unknown key, out-of-range value, missing version."""


class DimensionMismatch(MemoryEngineError):
    """Vector dimensions disagree with each other or with the store's d."""


class MalformedRecord(MemoryEngineError):
    """Observation record violates its own well-formedness rules."""


class DuplicateObservation(MemoryEngineError):
    """Observation id was already ingested into this store."""


class DanglingMention(MemoryEngineError):
    """An @mention has no matching percept hint and no existing anchor."""


class MissingEdge(MemoryEngineError):
    """Requested DAG edge does not exist."""


class NotAStepNode(MemoryEngineError):
    """Operation requires a step node, got START/GOAL or an unknown label."""


class InvalidDag(MemoryEngineError):
    """DAG fails its validity rules where a valid one is required."""


class NotIngested(MemoryEngineError):
    """Maintenance was asked to apply a record that was never ingested."""


class InvalidInput(MemoryEngineError):
    """Operation input violates its preconditions (e.g. invalid fusion DAG)."""


class FusionCycle(MemoryEngineError):
    """Edge union of the two DAGs would contain a cycle; inputs unchanged."""


class InvalidPrior(MemoryEngineError):
    """Beta parameters below the (1,1) creation prior cannot be pooled."""


class NoMatch(MemoryEngineError):
    """No logic node matches the goal above the retrieval threshold."""


class PathExplosion(MemoryEngineError):
    """Path enumeration exceeded max_paths or max_path_len."""


class UnknownAnchor(MemoryEngineError):
    """Referenced entity anchor does not exist."""


class SnapshotIoError(MemoryEngineError):
    """Snapshot file could not be read or written."""


class CorruptSnapshot(MemoryEngineError):
    """Snapshot failed validation; message carries the first violation."""


class EmbedderMismatch(MemoryEngineError):
    """Snapshot was written with another embedder than the one loading it."""


class StoreLocked(MemoryEngineError):
    """Another writer holds the store's advisory lock."""
