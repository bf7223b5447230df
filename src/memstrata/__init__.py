"""memstrata: three-layer neuro-symbolic memory engine for long-horizon agents.

Observations stream into an episodic layer (timestamped events), a semantic
layer (consolidated entity knowledge), and a logic layer of distilled
procedures, each pairing dual neural index vectors with a procedural DAG
carrying Beta/Dirichlet statistics. Queries run through hybrid retrieval
plus deterministic symbolic functions.
"""

from .core import Config, HashingEmbedder, cosine, embed_default, load_config
from .dag import (
    GOAL,
    START,
    Constraint,
    Predicate,
    ProceduralDag,
    check_valid,
    enumerate_paths,
    satisfies,
    success_rate,
    transition_prob,
)
from .distill import (
    ActionSequence,
    LogicNode,
    Pattern,
    closed_patterns,
    distill,
    extract_action,
    extract_action_sequences,
    prefixspan,
    verify_default,
)
from .errors import (
    ConfigError,
    CorruptSnapshot,
    DanglingMention,
    DimensionMismatch,
    DuplicateObservation,
    EmbedderMismatch,
    FusionCycle,
    InvalidDag,
    InvalidInput,
    InvalidPrior,
    MalformedRecord,
    MemoryEngineError,
    MissingEdge,
    NoMatch,
    NotAStepNode,
    NotIngested,
    PathExplosion,
    SnapshotIoError,
    StoreLocked,
    UnknownAnchor,
)
from .fuse import Alignment, align_nodes, auto_fuse, fuse, fuse_logic_nodes, pool_beta
from .ingest import (
    Conclusion,
    Description,
    EntityAnchor,
    EpisodicNode,
    ObservationMeta,
    ObservationRecord,
    Percept,
    SemanticNode,
    consolidate_semantic,
    ingest_observation,
    read_observation_lines,
    read_observations,
    record_fault,
    record_from_dict,
    resolve_anchor,
)
from .maintain import UpdateReport, apply_observation, ema_update, match_logic
from .retrieve import (
    Query,
    RetrievalResult,
    answer_procedure,
    classify,
    make_query,
    retrieve,
    score_logic,
)
from .store import MemoryStore
from .symbolic import (
    PathResult,
    aggregate_character_behaviors,
    constrained_paths,
    get_procedure_with_evidence,
    goal_reach_probability,
    query_step_sequence,
)

__version__ = "0.1.0"
