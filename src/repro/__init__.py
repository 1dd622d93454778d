"""repro — a full reproduction of ADA-HEALTH (Cerquitelli et al., ICDEW 2016).

"Data mining for better healthcare: A path towards automated data
analysis?" proposes an automated medical analytics engine; this package
implements the engine and every substrate it needs, from scratch:

* :mod:`repro.data` — examination-log model, diabetic-care taxonomy and
  a calibrated synthetic generator matching the paper's dataset;
* :mod:`repro.kdb` — the Knowledge Base on an embedded Mongo-like
  document store;
* :mod:`repro.preprocess` — VSM building, transforms, characterisation;
* :mod:`repro.mining` — K-means (Lloyd + kd-tree filtering), decision
  trees, naive Bayes and k-NN classifiers, DBSCAN and k-NN outlier
  scores, Apriori/FP-growth, rules, sequences, metrics, bootstrap
  stability and cross-validation;
* :mod:`repro.cloud` — execution backends for configuration sweeps,
  with shared-memory transport for process pools;
* :mod:`repro.core` — the ADA-HEALTH engine: characterisation, viable
  end-goal identification, adaptive partial mining, algorithm
  optimisation, interestingness ranking and knowledge navigation.

Quickstart::

    from repro import ADAHealth, paper_dataset

    log = paper_dataset(seed=7)
    result = ADAHealth(seed=7).analyze(log, name="diabetes")
    print(result.summary())
"""

from repro.core.engine import ADAHealth, AnalysisResult, EngineConfig
from repro.data.synthetic import paper_dataset, small_dataset

__version__ = "1.0.0"

__all__ = [
    "ADAHealth",
    "AnalysisResult",
    "EngineConfig",
    "__version__",
    "paper_dataset",
    "small_dataset",
]
