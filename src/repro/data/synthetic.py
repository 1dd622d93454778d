"""Calibrated synthetic diabetic examination-log generator.

The paper evaluates ADA-HEALTH on "a real, anonymized dataset of diabetic
patients ... the examination log data of 6,380 patients (age range 4-95
years) with overt diabetes, covering the time period of one year, for a
total of 95,788 records. ... 159 different types of examinations are
present". That dataset is proprietary, so this module provides the closest
synthetic equivalent. The generator is calibrated so every statistic the
paper publishes holds for the synthetic log:

* **Size.** 6,380 patients, 159 exam types, ≈95,788 records over 365 days.
* **Ages.** 4–95, a mixture of a dominant elderly type-2 population and a
  small young type-1 population.
* **Sparseness and skew.** Exam-type popularity follows a Zipf law over the
  taxonomy rank. With exponent 1 over 159 types, the top 20 % of exam types
  account for ≈70 % of records and the top 40 % for ≈85 % — exactly the
  head/tail structure the paper's horizontal partial-mining experiment
  exploits ("up to 20 %, 40 % and 100 % of the total number of examination
  types, corresponding to 70 %, 85 % and 100 % of the original row data").
* **Latent cluster structure.** Patients belong to complication profiles
  (uncomplicated, cardiovascular, ophthalmic, renal, neuropathic,
  multi-complication) that multiply the prescription rates of the matching
  exam categories. K-means over the VSM recovers these groups — the
  "groups of patients with similar examination history" the paper mines.
* **Correlated exams.** Exams in the same category co-occur on a patient's
  record (panels "prescribed in conjunction or needed to monitor/diagnose
  the same condition"), the stated reason partial mining loses so little.

Every public entry point takes an explicit seed; the same seed always
yields the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.records import ExamLog, ExamRecord, PatientInfo
from repro.data.taxonomy import (
    CARDIOVASCULAR,
    CATEGORIES,
    IMAGING,
    METABOLIC,
    NEUROLOGICAL,
    OPHTHALMIC,
    PODIATRIC,
    RENAL,
    ROUTINE,
    ExamTaxonomy,
    build_default_taxonomy,
)
from repro.exceptions import DataError

#: Headline statistics of the paper's dataset (§IV).
PAPER_N_PATIENTS = 6380
PAPER_N_RECORDS = 95788
PAPER_N_EXAM_TYPES = 159
PAPER_AGE_RANGE = (4, 95)
PAPER_DAYS = 365

#: Target record-coverage of the frequency-ranked exam-type bands,
#: matching §IV-B: the top 20 % of exam types carry ~70 % of records and
#: the next 20 % a further ~17 % (cumulative ~87 %, the paper reports 85).
HEAD_SHARE = 0.70
BAND_SHARE = 0.17


def banded_popularity(
    n_types: int,
    head_fraction: float = 0.2,
    head_share: float = HEAD_SHARE,
    band_share: float = BAND_SHARE,
    exponent: float = 1.0,
) -> np.ndarray:
    """Expected record share per exam rank, in three frequency bands.

    * **head** (top ``head_fraction`` of ranks) — routine/metabolic care:
      a Zipf curve with a floor, carrying ``head_share`` of all records;
    * **band** (next ``head_fraction``) — the complication categories'
      most common tests: gently decreasing, carrying ``band_share``;
    * **tail** (the rest) — rare diagnostics: a Zipf tail with the
      remaining mass.

    The floor inside the head keeps every head exam strictly more
    frequent than every band exam, so the *observed* frequency ranking
    reproduces the taxonomy rank order and the paper's coverage curve
    holds by construction.
    """
    if n_types < 5:
        raise DataError("banded popularity needs at least 5 exam types")
    head_n = max(1, round(head_fraction * n_types))
    band_n = max(1, min(round(head_fraction * n_types), n_types - head_n))
    tail_n = n_types - head_n - band_n
    ranks = np.arange(n_types, dtype=float)

    head = 1.0 / np.power(ranks[:head_n] + 1.0, exponent)
    head = np.maximum(head, 0.1 * head[0])
    head = head / head.sum() * head_share

    # Gentle decay inside the band: the first few slots are the
    # complication categories' flagship monitoring exams (performed by
    # most affected patients), the rest are progressively rarer
    # follow-up tests.
    band = 1.0 / np.power(np.arange(band_n) + 1.0, 0.3)
    band = band / band.sum() * band_share

    if tail_n > 0:
        # Gentle linear decay whose top stays below the band's bottom
        # share, so the observed frequency ranking preserves the bands.
        tail = np.linspace(1.0, 0.15, tail_n)
        tail = tail / tail.sum() * (1.0 - head_share - band_share)
    else:
        tail = np.empty(0)

    popularity = np.concatenate([head, band, tail])
    return popularity / popularity.sum()


@dataclass(frozen=True)
class PatientProfile:
    """A latent patient sub-population.

    ``category_boost`` multiplies the base prescription rate of each exam
    category; ``intensity`` scales the patient's overall examination volume
    (complicated patients see the clinic more often).
    """

    name: str
    share: float
    category_boost: Dict[str, float]
    intensity: float = 1.0

    def boost_for(self, category: str) -> float:
        """Rate multiplier applied to exams of ``category``."""
        return self.category_boost.get(category, 1.0)


def default_profiles() -> List[PatientProfile]:
    """The default complication-profile mixture.

    Shares sum to 1. Boosts are *relative weights*: the generator
    normalises each exam's rates so the exam's expected total equals its
    popularity, and the boosts only decide which patients receive those
    records. A boost of 60 against a suppression of 0.02 means virtually
    every record of a complication exam lands on the matching
    sub-population — the planted cluster structure.
    """
    suppress = {
        CARDIOVASCULAR: 0.01,
        OPHTHALMIC: 0.01,
        RENAL: 0.01,
        NEUROLOGICAL: 0.01,
        PODIATRIC: 0.01,
        IMAGING: 0.3,
    }
    return [
        PatientProfile("uncomplicated", 0.70, dict(suppress), intensity=0.9),
        PatientProfile(
            "cardiovascular",
            0.06,
            {**suppress, CARDIOVASCULAR: 60.0, IMAGING: 2.0},
            intensity=1.1,
        ),
        PatientProfile(
            "ophthalmic",
            0.06,
            {**suppress, OPHTHALMIC: 60.0},
            intensity=1.0,
        ),
        PatientProfile(
            "renal",
            0.06,
            {**suppress, RENAL: 60.0, METABOLIC: 1.2},
            intensity=1.05,
        ),
        PatientProfile(
            "neuropathic",
            0.06,
            {**suppress, NEUROLOGICAL: 60.0, PODIATRIC: 60.0},
            intensity=1.0,
        ),
        PatientProfile(
            "multi-complication",
            0.06,
            {
                CARDIOVASCULAR: 10.0,
                OPHTHALMIC: 10.0,
                RENAL: 10.0,
                NEUROLOGICAL: 10.0,
                PODIATRIC: 10.0,
                IMAGING: 3.0,
            },
            intensity=1.3,
        ),
    ]


@dataclass
class GeneratorConfig:
    """Configuration of :class:`DiabeticExamLogGenerator`.

    The defaults reproduce the paper's dataset. ``zipf_exponent`` controls
    the popularity skew over exam-type ranks; 1.0 yields the paper's
    20 %-of-types ≈ 70 %-of-rows head.
    """

    n_patients: int = PAPER_N_PATIENTS
    n_exam_types: int = PAPER_N_EXAM_TYPES
    target_records: int = PAPER_N_RECORDS
    days: int = PAPER_DAYS
    zipf_exponent: float = 1.0
    age_range: Tuple[int, int] = PAPER_AGE_RANGE
    young_share: float = 0.08
    mean_visits: float = 7.0
    profiles: List[PatientProfile] = field(default_factory=default_profiles)

    def __post_init__(self) -> None:
        if self.n_patients <= 0 or self.n_exam_types <= 0:
            raise DataError("n_patients and n_exam_types must be positive")
        if self.target_records <= 0:
            raise DataError("target_records must be positive")
        if self.days <= 0:
            raise DataError("days must be positive")
        total_share = sum(p.share for p in self.profiles)
        if abs(total_share - 1.0) > 1e-9:
            raise DataError(
                f"profile shares must sum to 1 (got {total_share})"
            )


class DiabeticExamLogGenerator:
    """Stochastic generator of diabetic examination logs.

    Usage::

        log = DiabeticExamLogGenerator(seed=7).generate()

    The generation model: each exam type ``j`` has a base popularity share
    ``p_j`` proportional to ``1 / rank_j ** s`` (Zipf). Patient ``i`` draws
    a profile and a personal intensity; their per-exam Poisson rate is
    ``p_j * boost(profile_i, category_j) * intensity_i``, rescaled so the
    expected total record count equals ``target_records``. Counts are
    Poisson draws; each event lands on one of the patient's visit days.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or GeneratorConfig()
        self.seed = seed

    # ------------------------------------------------------------------
    def generate(self) -> ExamLog:
        """Generate the full examination log."""
        rng = np.random.default_rng(self.seed)
        cfg = self.config
        taxonomy = build_default_taxonomy(cfg.n_exam_types)

        profile_index = self._draw_profiles(rng)
        ages = self._draw_ages(rng)
        rates = self._rate_matrix(taxonomy, profile_index, rng)
        counts = rng.poisson(rates)
        # Every patient in the paper's log has at least one record (they
        # are enrolled diabetics): give record-less patients one routine
        # checkup so the log contains exactly ``n_patients`` patients.
        empty = np.nonzero(counts.sum(axis=1) == 0)[0]
        top_exam = taxonomy.ranked_codes()[0]
        counts[empty, top_exam] = 1

        patients = [
            PatientInfo(
                patient_id=i,
                age=int(ages[i]),
                profile=cfg.profiles[profile_index[i]].name,
            )
            for i in range(cfg.n_patients)
        ]
        records = self._materialise_records(counts, rng)
        return ExamLog(records, taxonomy=taxonomy, patients=patients)

    # ------------------------------------------------------------------
    def _draw_profiles(self, rng: np.random.Generator) -> np.ndarray:
        """Assign a profile index to each patient."""
        cfg = self.config
        shares = np.array([p.share for p in cfg.profiles])
        return rng.choice(len(cfg.profiles), size=cfg.n_patients, p=shares)

    def _draw_ages(self, rng: np.random.Generator) -> np.ndarray:
        """Draw ages from the type-2 / type-1 mixture, clipped to range."""
        cfg = self.config
        lo, hi = cfg.age_range
        is_young = rng.random(cfg.n_patients) < cfg.young_share
        old = rng.normal(66.0, 12.0, size=cfg.n_patients)
        young = rng.normal(22.0, 9.0, size=cfg.n_patients)
        ages = np.where(is_young, young, old)
        return np.clip(np.round(ages), lo, hi).astype(int)

    def _rate_matrix(
        self,
        taxonomy: ExamTaxonomy,
        profile_index: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-(patient, exam) Poisson rates scaled to the target volume.

        The model separates *how much* an exam is prescribed from *to
        whom*: the banded popularity curve fixes each exam type's
        expected total record count (which pins the paper's coverage
        curve exactly — top 20 % of types ≈ 70 % of records, top 40 %
        ≈ 85 %), and the profile boosts only redistribute that total
        across patients, concentrating complication exams on the
        matching sub-population.
        """
        cfg = self.config
        popularity = banded_popularity(
            len(taxonomy), exponent=cfg.zipf_exponent
        )

        boost = np.ones((len(cfg.profiles), len(taxonomy)))
        for p, profile in enumerate(cfg.profiles):
            for exam in taxonomy:
                boost[p, exam.code] = profile.boost_for(exam.category)

        intensity = rng.gamma(shape=6.0, scale=1.0 / 6.0, size=cfg.n_patients)
        profile_intensity = np.array(
            [cfg.profiles[p].intensity for p in profile_index]
        )
        per_patient = intensity * profile_intensity

        weights = boost[profile_index] * per_patient[:, None]
        column_totals = weights.sum(axis=0)
        column_totals[column_totals == 0] = 1.0
        rates = weights / column_totals[None, :]
        rates *= popularity[None, :] * cfg.target_records
        return rates

    def _materialise_records(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> List[ExamRecord]:
        """Expand the count matrix into dated records via visit days."""
        cfg = self.config
        records: List[ExamRecord] = []
        n_patients, __ = counts.shape
        totals = counts.sum(axis=1)
        for patient_id in range(n_patients):
            total = int(totals[patient_id])
            if total == 0:
                continue
            n_visits = max(1, int(rng.poisson(cfg.mean_visits)))
            n_visits = min(n_visits, cfg.days)
            visit_days = rng.choice(cfg.days, size=n_visits, replace=False)
            exam_codes = np.repeat(
                np.nonzero(counts[patient_id])[0],
                counts[patient_id][counts[patient_id] > 0],
            )
            days = visit_days[rng.integers(0, n_visits, size=total)]
            # Codes ascend, so a stable day sort emits the records in the
            # log's (patient, day, exam) order: ExamLog need not reorder.
            order = np.argsort(days, kind="stable")
            exam_codes, days = exam_codes[order], days[order]
            records.extend(
                ExamRecord(
                    patient_id=patient_id,
                    day=int(day),
                    exam_code=int(code),
                )
                for code, day in zip(exam_codes, days)
            )
        return records


def paper_dataset(seed: int = 0) -> ExamLog:
    """Generate the full-size dataset matching the paper's statistics."""
    return DiabeticExamLogGenerator(seed=seed).generate()


def small_dataset(
    n_patients: int = 300,
    n_exam_types: int = 40,
    target_records: int = 4500,
    seed: int = 0,
    **overrides,
) -> ExamLog:
    """Generate a scaled-down dataset for tests and examples.

    Keeps the paper dataset's qualitative structure (profiles, Zipf head,
    one-year horizon) at a fraction of the size, so unit tests run fast.
    """
    config = GeneratorConfig(
        n_patients=n_patients,
        n_exam_types=n_exam_types,
        target_records=target_records,
        **overrides,
    )
    return DiabeticExamLogGenerator(config=config, seed=seed).generate()


def profile_labels(log: ExamLog) -> np.ndarray:
    """Return the latent profile index per patient (ground truth).

    Only defined for logs produced by this generator (patients carry a
    ``profile`` attribute). Useful to validate that clustering recovers
    the planted sub-populations.
    """
    names: List[str] = []
    for pid in log.patient_ids():
        info = log.patients.get(pid)
        if info is None or info.profile is None:
            raise DataError(
                "log has no profile ground truth (not synthetic?)"
            )
        names.append(info.profile)
    order = sorted(set(names))
    index = {name: i for i, name in enumerate(order)}
    return np.array([index[name] for name in names])
