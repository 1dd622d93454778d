"""Dataset substrate: examination-log model, taxonomy, synthetic generator.

Public surface::

    from repro.data import (
        ExamLog, ExamRecord, PatientInfo,          # data model
        ExamTaxonomy, ExamType, build_default_taxonomy,
        DiabeticExamLogGenerator, GeneratorConfig,  # synthetic data
        paper_dataset, small_dataset, profile_labels,
        load_csv, save_csv, load_jsonl, save_jsonl,  # IO
        SharedMatrix, SharedMatrixHandle,  # shared-memory transport
        open_matrix, leaked_segments,
    )
"""

from repro.data.blocks import (
    SEGMENT_PREFIX,
    SharedMatrix,
    SharedMatrixHandle,
    leaked_segments,
    open_matrix,
    reap_segments,
)
from repro.data.io import load_csv, load_jsonl, save_csv, save_jsonl
from repro.data.records import ExamLog, ExamRecord, PatientInfo
from repro.data.synthetic import (
    DiabeticExamLogGenerator,
    GeneratorConfig,
    PatientProfile,
    default_profiles,
    paper_dataset,
    profile_labels,
    small_dataset,
)
from repro.data.taxonomy import (
    CATEGORIES,
    ExamTaxonomy,
    ExamType,
    build_default_taxonomy,
)

__all__ = [
    "CATEGORIES",
    "SEGMENT_PREFIX",
    "DiabeticExamLogGenerator",
    "ExamLog",
    "ExamRecord",
    "ExamTaxonomy",
    "ExamType",
    "GeneratorConfig",
    "PatientInfo",
    "PatientProfile",
    "SharedMatrix",
    "SharedMatrixHandle",
    "build_default_taxonomy",
    "default_profiles",
    "leaked_segments",
    "load_csv",
    "load_jsonl",
    "open_matrix",
    "paper_dataset",
    "profile_labels",
    "reap_segments",
    "save_csv",
    "save_jsonl",
    "small_dataset",
]
