"""ADA-HEALTH core: the paper's contribution, assembled.

Public surface::

    from repro.core import (
        ADAHealth, AnalysisResult, EngineConfig,        # engine
        KMeansOptimizer, OptimizationReport,            # Table I machinery
        HorizontalPartialMiner, VerticalPartialMiner,   # partial mining
        ViableEndGoalFinder, EndGoalInterestModel,      # end-goals
        KnowledgeItem, KnowledgeRanker, NavigationSession,
        SimulatedExpert,
    )
"""

from repro.core.architecture import (
    COMPONENTS,
    INTERACTIONS,
    adjacency,
    render_text,
)
from repro.core.cache import (
    AnalysisCache,
    fingerprint_log,
    fingerprint_params,
)
from repro.core.endgoals import (
    DEFAULT_END_GOALS,
    EndGoal,
    EndGoalInterestModel,
    ViableEndGoalFinder,
    ViableGoal,
    goal_features,
)
from repro.core.engine import (
    ADAHealth,
    AnalysisResult,
    EngineConfig,
    GoalRun,
)
from repro.core.extractors import (
    extract_cluster_items,
    extract_generalized_items,
    extract_itemset_items,
    extract_outlier_item,
    extract_rule_items,
    extract_sequence_items,
)
from repro.core.guidelines import (
    ComplianceReport,
    Guideline,
    GuidelineResult,
    assess_compliance,
    default_diabetes_guidelines,
    extract_compliance_items,
    past_experience,
)
from repro.core.feedback import (
    ExpertProfile,
    SimulatedExpert,
    administrator_profile,
    clinician_profile,
    researcher_profile,
)
from repro.core.interestingness import (
    degree_from_score,
    degree_rank,
    score_item,
    score_items,
)
from repro.core.knowledge import DEGREES, KINDS, KnowledgeItem
from repro.core.optimizer import (
    PAPER_K_VALUES,
    KMeansOptimizer,
    OptimizationReport,
    OptimizationRow,
    sse_plateau,
)
from repro.core.partial import (
    PAPER_FRACTIONS,
    PAPER_TOLERANCE,
    HorizontalPartialMiner,
    PartialMiningResult,
    PartialRun,
    VerticalPartialMiner,
)
from repro.core.ranking import KnowledgeRanker, NavigationSession
from repro.core.report import render_report, save_report

__all__ = [
    "ADAHealth",
    "AnalysisCache",
    "AnalysisResult",
    "COMPONENTS",
    "ComplianceReport",
    "DEFAULT_END_GOALS",
    "DEGREES",
    "EndGoal",
    "EndGoalInterestModel",
    "EngineConfig",
    "ExpertProfile",
    "GoalRun",
    "Guideline",
    "GuidelineResult",
    "HorizontalPartialMiner",
    "INTERACTIONS",
    "KINDS",
    "KMeansOptimizer",
    "KnowledgeItem",
    "KnowledgeRanker",
    "NavigationSession",
    "OptimizationReport",
    "OptimizationRow",
    "PAPER_FRACTIONS",
    "PAPER_K_VALUES",
    "PAPER_TOLERANCE",
    "PartialMiningResult",
    "PartialRun",
    "SimulatedExpert",
    "VerticalPartialMiner",
    "ViableEndGoalFinder",
    "ViableGoal",
    "adjacency",
    "administrator_profile",
    "assess_compliance",
    "clinician_profile",
    "default_diabetes_guidelines",
    "degree_from_score",
    "degree_rank",
    "extract_cluster_items",
    "extract_compliance_items",
    "extract_generalized_items",
    "extract_itemset_items",
    "extract_outlier_item",
    "extract_rule_items",
    "extract_sequence_items",
    "fingerprint_log",
    "fingerprint_params",
    "goal_features",
    "past_experience",
    "render_report",
    "render_text",
    "researcher_profile",
    "save_report",
    "score_item",
    "score_items",
    "sse_plateau",
]
