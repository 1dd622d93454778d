"""Sequential-pattern mining over dated examination logs (PrefixSpan).

The examination log carries "the type and date of every exam", so the
natural extension of the paper's pattern-based discovery is *temporal*:
which sequences of visits recur across patients? (e.g. ``general
checkup -> HbA1c -> fundus oculi``). This is the care-pathway view the
MeTA line of work (paper ref [2]) develops, and a listed ADA-HEALTH
end-goal family: assessing "the adherence of medical prescriptions and
treatments to relevant clinical guidelines" needs the order of events,
not just their co-occurrence.

Sequences here are lists of *itemsets* (one itemset per visit day);
a pattern ``<{a} {b, c}>`` is supported by a patient whose history
contains a visit with ``a`` followed (strictly later) by a visit
containing both ``b`` and ``c``. Mining is PrefixSpan (Pei et al.,
2001) with the standard itemset-extension and sequence-extension steps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.records import ExamLog
from repro.exceptions import MiningError

#: One patient's history: a time-ordered list of visit itemsets.
Sequence_ = List[FrozenSet[str]]


@dataclass(frozen=True)
class SequentialPattern:
    """A frequent sequence of visit itemsets with its support."""

    elements: Tuple[FrozenSet[str], ...]
    count: int
    support: float

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def n_items(self) -> int:
        """Total items across all elements."""
        return sum(len(element) for element in self.elements)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            "{" + ", ".join(sorted(element)) + "}"
            for element in self.elements
        ]
        return "<" + " -> ".join(parts) + f"> (sup={self.support:.3f})"


def sequences_from_log(log: ExamLog) -> List[Sequence_]:
    """One sequence per patient: visit itemsets in day order.

    Exams on the same day form one itemset (a visit); repeated exams on
    a day collapse. Patients are emitted in id order. The visits are the
    (patient, day) runs of the log's sorted row array.
    """
    rows = log.to_rows()
    starts = log.group_starts("visit")
    if len(starts) == 0:
        return []
    names = [
        log.taxonomy.by_code(code).name for code in range(log.n_exam_types)
    ]
    row_names = list(map(names.__getitem__, rows[:, 2].tolist()))
    bounds = [*starts.tolist(), len(rows)]
    visits = [frozenset(row_names[a:b]) for a, b in zip(bounds, bounds[1:])]
    # A patient's first row also starts a visit, so its position among
    # the visit starts splits the visits by patient.
    splits = np.searchsorted(starts, log.group_starts()).tolist()
    splits.append(len(visits))
    return [visits[a:b] for a, b in zip(splits, splits[1:])]


def mine_sequences(
    sequences: Sequence[Sequence_],
    min_support: float,
    max_length: Optional[int] = 4,
    max_patterns: int = 100_000,
) -> List[SequentialPattern]:
    """Mine frequent sequential patterns with PrefixSpan.

    Parameters
    ----------
    sequences:
        The sequence database (e.g. :func:`sequences_from_log` output).
    min_support:
        Relative support threshold over the sequence count.
    max_length:
        Cap on the number of *elements* (visits) in a pattern; ``None``
        for unbounded (can explode on dense data).
    max_patterns:
        Safety cap on the number of emitted patterns.

    Returns
    -------
    Patterns sorted by (length, rendered form) for determinism.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError("min_support must be in (0, 1]")
    n = len(sequences)
    if n == 0:
        raise MiningError("no sequences given")
    min_count = max(1, -(-min_support * n // 1).__int__())

    database = [
        [frozenset(element) for element in sequence]
        for sequence in sequences
    ]
    results: List[SequentialPattern] = []

    # A projected database entry: (sequence index, element position,
    # within-element marker). After matching a prefix ending inside
    # element `position`, itemset-extensions continue in that element
    # (items greater than the last matched item) and sequence-extensions
    # start from element `position + 1`.
    initial = [(i, -1, frozenset()) for i in range(n)]
    _prefix_span(
        database,
        prefix=[],
        projection=initial,
        min_count=min_count,
        max_length=max_length,
        max_patterns=max_patterns,
        results=results,
        n_sequences=n,
    )
    results.sort(
        key=lambda pattern: (
            len(pattern.elements),
            [tuple(sorted(element)) for element in pattern.elements],
        )
    )
    return results


def _prefix_span(
    database: List[Sequence_],
    prefix: List[FrozenSet[str]],
    projection: List[Tuple[int, int, FrozenSet[str]]],
    min_count: int,
    max_length: Optional[int],
    max_patterns: int,
    results: List[SequentialPattern],
    n_sequences: int,
) -> None:
    if len(results) >= max_patterns:
        return
    # Count candidate extensions: sequence-extensions (new element) and
    # itemset-extensions (grow the last element).
    seq_counts: Dict[str, int] = defaultdict(int)
    item_counts: Dict[str, int] = defaultdict(int)
    for seq_index, position, matched in projection:
        sequence = database[seq_index]
        seen_seq: set = set()
        for element in sequence[position + 1 :]:
            for item in element:
                if item not in seen_seq:
                    seen_seq.add(item)
        for item in seen_seq:
            seq_counts[item] += 1
        if prefix and 0 <= position < len(sequence):
            # Items that can extend the current last element: present in
            # this element alongside everything matched so far.
            last = prefix[-1]
            seen_item: set = set()
            for probe_pos in range(position, len(sequence)):
                element = sequence[probe_pos]
                if last <= element:
                    for item in element:
                        if item not in last:
                            seen_item.add(item)
            for item in seen_item:
                item_counts[item] += 1

    # Sequence extensions.
    for item in sorted(seq_counts):
        if seq_counts[item] < min_count:
            continue
        if max_length is not None and len(prefix) + 1 > max_length:
            continue
        new_prefix = prefix + [frozenset([item])]
        new_projection = []
        for seq_index, position, __ in projection:
            sequence = database[seq_index]
            for probe in range(position + 1, len(sequence)):
                if item in sequence[probe]:
                    new_projection.append(
                        (seq_index, probe, frozenset([item]))
                    )
                    break
        _emit_and_recurse(
            database,
            new_prefix,
            new_projection,
            min_count,
            max_length,
            max_patterns,
            results,
            n_sequences,
        )

    # Itemset extensions (grow the final element). Canonical order: only
    # items lexicographically greater than everything already in the
    # element, so each itemset is generated exactly once.
    if prefix:
        last = prefix[-1]
        ceiling = max(last)
        for item in sorted(item_counts):
            if item_counts[item] < min_count:
                continue
            if item <= ceiling:
                continue
            grown = last | {item}
            new_prefix = prefix[:-1] + [grown]
            new_projection = []
            for seq_index, position, __ in projection:
                sequence = database[seq_index]
                for probe in range(position, len(sequence)):
                    if probe < 0:
                        continue
                    if grown <= sequence[probe]:
                        new_projection.append((seq_index, probe, grown))
                        break
            if len(new_projection) >= min_count:
                _emit_and_recurse(
                    database,
                    new_prefix,
                    new_projection,
                    min_count,
                    max_length,
                    max_patterns,
                    results,
                    n_sequences,
                )


def _emit_and_recurse(
    database,
    prefix,
    projection,
    min_count,
    max_length,
    max_patterns,
    results,
    n_sequences,
) -> None:
    count = len({seq_index for seq_index, __, __ in projection})
    if count < min_count or len(results) >= max_patterns:
        return
    results.append(
        SequentialPattern(
            elements=tuple(prefix),
            count=count,
            support=count / n_sequences,
        )
    )
    _prefix_span(
        database,
        prefix,
        projection,
        min_count,
        max_length,
        max_patterns,
        results,
        n_sequences,
    )


def mine_log_sequences(
    log: ExamLog,
    min_support: float,
    max_length: Optional[int] = 3,
) -> List[SequentialPattern]:
    """Convenience: :func:`sequences_from_log` + :func:`mine_sequences`."""
    return mine_sequences(
        sequences_from_log(log), min_support, max_length=max_length
    )


def pattern_contains(
    pattern: SequentialPattern, sequence: Sequence_
) -> bool:
    """True when ``sequence`` supports ``pattern`` (subsequence match)."""
    position = 0
    for element in pattern.elements:
        while position < len(sequence) and not (
            element <= sequence[position]
        ):
            position += 1
        if position == len(sequence):
            return False
        position += 1
    return True
