"""Knowledge Base (K-DB) and its embedded document store."""

from repro.kdb.documentstore import (
    Collection,
    Cursor,
    DocumentStore,
    QueryPlan,
)
from repro.kdb.kdb import (
    COLLECTIONS,
    DEGREES,
    DESCRIPTORS,
    DISCOVERED_KNOWLEDGE,
    FEEDBACK,
    RAW_DATASETS,
    SELECTED_KNOWLEDGE,
    TRANSFORMED_DATASETS,
    DegreePredictor,
    KnowledgeBase,
)
from repro.kdb.fsck import FsckIssue, FsckReport, fsck
from repro.kdb.shards import ShardedDocumentStore, shard_of
from repro.kdb.storage import (
    FaultyStorage,
    LocalStorage,
    SimulatedCrash,
)

__all__ = [
    "COLLECTIONS",
    "Collection",
    "Cursor",
    "DEGREES",
    "DESCRIPTORS",
    "DISCOVERED_KNOWLEDGE",
    "DegreePredictor",
    "DocumentStore",
    "FEEDBACK",
    "FaultyStorage",
    "FsckIssue",
    "FsckReport",
    "KnowledgeBase",
    "LocalStorage",
    "QueryPlan",
    "RAW_DATASETS",
    "SELECTED_KNOWLEDGE",
    "ShardedDocumentStore",
    "SimulatedCrash",
    "TRANSFORMED_DATASETS",
    "fsck",
    "shard_of",
]
