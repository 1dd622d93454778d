"""Mining substrate: clustering, classification, patterns, metrics.

Everything here is implemented from scratch on numpy — the library has
no scikit-learn dependency. Public surface::

    from repro.mining import (
        KMeans, kmeans, DBSCAN, KDTree, knn_outlier_scores, rank_outliers,
        DecisionTreeClassifier, MajorityClassifier,
        GaussianNaiveBayes, MultinomialNaiveBayes, KNeighborsClassifier,
        apriori, fpgrowth, mine_frequent_itemsets, Itemset,
        generate_rules, AssociationRule,
        mine_generalized_itemsets, GeneralizedItemset,
        mine_sequences, SequentialPattern,
        sse, overall_similarity, silhouette_score, ...
        bootstrap_stability, stability_profile,
        KFold, StratifiedKFold, cross_validate, train_test_split,
    )
"""

from repro.mining.dbscan import DBSCAN, NOISE
from repro.mining.decision_tree import (
    DecisionTreeClassifier,
    MajorityClassifier,
    TreeNode,
    entropy_impurity,
    gini_impurity,
)
from repro.mining.distance import cosine_similarity, squared_euclidean
from repro.mining.generalized import (
    GeneralizedItemset,
    extend_transactions,
    level_summary,
    mine_generalized_itemsets,
)
from repro.mining.itemsets import (
    Itemset,
    apriori,
    closed_itemsets,
    fpgrowth,
    itemset_index,
    maximal_itemsets,
    mine_frequent_itemsets,
)
from repro.mining.kdtree import KDNode, KDTree
from repro.mining.knn import KNeighborsClassifier
from repro.mining.kmeans import (
    KMeans,
    KMeansCheckpoint,
    filtering_stats,
    kmeans,
    kmeans_plus_plus,
)
from repro.mining.naive_bayes import (
    GaussianNaiveBayes,
    MultinomialNaiveBayes,
)
from repro.mining.metrics import (
    accuracy,
    adjusted_rand_index,
    calinski_harabasz_index,
    classification_report,
    confusion_matrix,
    davies_bouldin_index,
    normalized_mutual_information,
    overall_similarity,
    precision_recall_f1,
    purity,
    silhouette_score,
    sse,
)
from repro.mining.outliers import (
    knn_outlier_scores,
    rank_outliers,
    top_outliers,
)
from repro.mining.rules import AssociationRule, filter_rules, generate_rules
from repro.mining.stability import bootstrap_stability, stability_profile
from repro.mining.sequences import (
    SequentialPattern,
    mine_log_sequences,
    mine_sequences,
    pattern_contains,
    sequences_from_log,
)
from repro.mining.validation import (
    DEFAULT_METRICS,
    KFold,
    StratifiedKFold,
    cross_val_score,
    cross_validate,
    train_test_split,
)

__all__ = [
    "AssociationRule",
    "DBSCAN",
    "DEFAULT_METRICS",
    "DecisionTreeClassifier",
    "GaussianNaiveBayes",
    "GeneralizedItemset",
    "Itemset",
    "KDNode",
    "KDTree",
    "KFold",
    "KMeans",
    "KMeansCheckpoint",
    "KNeighborsClassifier",
    "MajorityClassifier",
    "MultinomialNaiveBayes",
    "NOISE",
    "SequentialPattern",
    "StratifiedKFold",
    "TreeNode",
    "accuracy",
    "adjusted_rand_index",
    "apriori",
    "calinski_harabasz_index",
    "bootstrap_stability",
    "classification_report",
    "closed_itemsets",
    "confusion_matrix",
    "cosine_similarity",
    "cross_val_score",
    "cross_validate",
    "davies_bouldin_index",
    "entropy_impurity",
    "extend_transactions",
    "filter_rules",
    "filtering_stats",
    "fpgrowth",
    "generate_rules",
    "gini_impurity",
    "itemset_index",
    "kmeans",
    "knn_outlier_scores",
    "kmeans_plus_plus",
    "level_summary",
    "maximal_itemsets",
    "mine_frequent_itemsets",
    "mine_generalized_itemsets",
    "mine_log_sequences",
    "mine_sequences",
    "normalized_mutual_information",
    "overall_similarity",
    "pattern_contains",
    "precision_recall_f1",
    "purity",
    "rank_outliers",
    "sequences_from_log",
    "silhouette_score",
    "squared_euclidean",
    "sse",
    "stability_profile",
    "top_outliers",
    "train_test_split",
]
