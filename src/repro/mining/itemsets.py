"""Frequent-itemset mining: Apriori and FP-growth.

The paper's second exploratory algorithm is "a pattern-based discovery
approach" (reference [2], MeTA) used to "identify medical examinations
commonly prescribed by physicians to patients with a given disease" and
to "discover previously unknown interaction between drugs or medical
conditions". Transactions here are sets of examination names per patient
(or per visit, see :meth:`repro.data.ExamLog.transactions`).

Two independent miners are provided and tested for equivalence:

* :func:`apriori` — breadth-first candidate generation with the
  downward-closure prune and bitset support counting; the engine's
  itemset, rule and generalized goals run it. On the paper cohort's
  patient transactions it was 2.4x faster than FP-growth at support
  0.3 and 8-9x faster from 0.15 (the engine default) down to 0.03;
* :func:`fpgrowth` — FP-tree projection mining over Python node
  objects, kept as the independent second miner the equivalence tests
  compare against and as a public ``algorithm=`` choice.

Support is expressed as a fraction of the transaction count.

Both miners share one integer-encoding front end: item strings are
interned once into a vocabulary (ids assigned in lexicographic order,
so every ordering decision on ids matches the ordering on the original
strings), and all inner-loop work — candidate joins, subset tests,
support counting, FP-tree ordering — runs on small ints instead of
re-hashing strings per pass. Apriori counts support with per-item
transaction bitsets (one big int per item; candidate support is a
popcount of an AND), so no transaction is rescanned after encoding.
The decoded public output is identical to the historical string-based
implementation, itemset for itemset.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import MiningError

Transaction = Sequence[str]


@dataclass(frozen=True)
class Itemset:
    """A frequent itemset with its absolute and relative support."""

    items: FrozenSet[str]
    count: int
    support: float

    def __len__(self) -> int:
        return len(self.items)

    def sorted_items(self) -> Tuple[str, ...]:
        return tuple(sorted(self.items))


def _validate(
    transactions: Sequence[Transaction], min_support: float
) -> None:
    if not 0.0 < min_support <= 1.0:
        raise MiningError("min_support must be in (0, 1]")
    if len(transactions) == 0:
        raise MiningError("no transactions given")


# ----------------------------------------------------------------------
# Integer encoding (shared front end)
# ----------------------------------------------------------------------
def _encode(
    transactions: Sequence[Transaction],
) -> Tuple[List[str], List[FrozenSet[int]]]:
    """Intern items into ids assigned in sorted (lexicographic) order.

    Because ids follow the lexicographic order of the item strings,
    comparisons and sorts over ids reproduce exactly the decisions the
    string implementation made — tie-breaks included — so decoded
    output is identical.
    """
    vocabulary = sorted({item for t in transactions for item in t})
    index = {item: i for i, item in enumerate(vocabulary)}
    encoded = [frozenset(index[item] for item in t) for t in transactions]
    return vocabulary, encoded


def _popcount(mask: int) -> int:
    """Number of set bits (Python 3.9-compatible spelling)."""
    try:
        return mask.bit_count()
    except AttributeError:  # pragma: no cover - pre-3.10 fallback
        return bin(mask).count("1")


# ----------------------------------------------------------------------
# Apriori (bitset engine)
# ----------------------------------------------------------------------
def apriori(
    transactions: Sequence[Transaction],
    min_support: float,
    max_length: Optional[int] = None,
    metrics=None,
) -> List[Itemset]:
    """Mine frequent itemsets breadth-first (Agrawal & Srikant 1994).

    Support counting is bitset-based: each item owns one big-int mask
    with bit ``t`` set when transaction ``t`` contains the item; a
    candidate's support is the popcount of the AND of its items' masks,
    computed incrementally from its parent in the join step.

    ``metrics`` (an ``repro.obs.Metrics`` registry) receives per-level
    candidate/pruned/survivor counters and the overall pruning ratio.

    Returns itemsets sorted by (length, items) for determinism.
    """
    _validate(transactions, min_support)
    # One pass: fold the transactions into string-keyed bitsets, then
    # remap to sorted-vocabulary ids (the id order the shared encoder
    # assigns, so tie-breaks match FP-growth's).
    raw_masks: Dict[str, int] = {}
    for position, transaction in enumerate(transactions):
        bit = 1 << position
        for item in set(transaction):
            raw_masks[item] = raw_masks.get(item, 0) | bit
    n = len(transactions)
    min_count = _min_count(min_support, n)
    vocabulary = sorted(raw_masks)
    item_masks = [raw_masks[item] for item in vocabulary]

    # L1: per-item masks double as the support index.
    current: Dict[Tuple[int, ...], int] = {}
    results: Dict[FrozenSet[int], int] = {}
    for item, mask in enumerate(item_masks):
        count = _popcount(mask)
        if count >= min_count:
            current[(item,)] = mask
            results[frozenset((item,))] = count

    length = 1
    total_candidates = 0
    total_pruned = 0
    while current and (max_length is None or length < max_length):
        length += 1
        current, stats = _apriori_level(current, item_masks, min_count)
        for candidate, mask in current.items():
            results[frozenset(candidate)] = _popcount(mask)
        total_candidates += stats["candidates"]
        total_pruned += stats["pruned"] + stats["infrequent"]
        if metrics is not None:
            metrics.counter("apriori.candidates").inc(stats["candidates"])
            metrics.counter("apriori.pruned").inc(stats["pruned"])
            metrics.counter("apriori.infrequent").inc(stats["infrequent"])
            metrics.counter("apriori.survivors").inc(len(current))
            metrics.histogram("apriori.level_candidates").observe(
                stats["candidates"]
            )
    if metrics is not None:
        metrics.gauge("apriori.levels").set(length - 1)
        if total_candidates:
            metrics.gauge("apriori.pruning_ratio").set(
                total_pruned / total_candidates
            )

    return _to_itemsets(results, n, vocabulary)


def _apriori_level(
    frequent: Dict[Tuple[int, ...], int],
    item_masks: List[int],
    min_count: int,
) -> Tuple[Dict[Tuple[int, ...], int], Dict[str, int]]:
    """One breadth-first level: join, prune, count via bitsets.

    ``frequent`` maps each (k-1)-itemset — a sorted id tuple — to its
    transaction bitset; returns the frequent k-itemsets with theirs,
    plus the level's mining statistics: ``candidates`` joined,
    ``pruned`` by downward closure, ``infrequent`` below min support.
    """
    frequent_keys = set(frequent)
    ordered = sorted(frequent)
    survivors: Dict[Tuple[int, ...], int] = {}
    candidates = 0
    pruned = 0
    infrequent = 0
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if a[:-1] != b[:-1]:
                break  # ordered list: no further joins share the prefix
            candidate = a + (b[-1],)
            candidates += 1
            if not all(
                subset in frequent_keys
                for subset in combinations(candidate, len(candidate) - 1)
            ):
                pruned += 1
                continue
            mask = frequent[a] & item_masks[b[-1]]
            if _popcount(mask) >= min_count:
                survivors[candidate] = mask
            else:
                infrequent += 1
    stats = {
        "candidates": candidates,
        "pruned": pruned,
        "infrequent": infrequent,
    }
    return survivors, stats


# ----------------------------------------------------------------------
# FP-growth
# ----------------------------------------------------------------------
class _FPNode:
    __slots__ = ("item", "count", "parent", "children", "link")

    def __init__(self, item: Optional[int], parent: Optional["_FPNode"]):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[int, "_FPNode"] = {}
        self.link: Optional["_FPNode"] = None


class _FPTree:
    """FP-tree with header links, built from (itemlist, count) pairs.

    Items are vocabulary ids (ints): all ordering and hashing in the
    projection loop stays in the integer domain. Because ids follow the
    lexicographic order of the original strings, the frequency order's
    tie-break ("ties broken lexicographically") is preserved exactly.
    """

    def __init__(
        self, entries: Iterable[Tuple[Sequence[int], int]], min_count: int
    ) -> None:
        tallies: Dict[int, int] = defaultdict(int)
        cached = []
        for items, count in entries:
            cached.append((items, count))
            for item in items:
                tallies[item] += count
        self.item_counts = {
            item: count
            for item, count in tallies.items()
            if count >= min_count
        }
        # Global frequency order, ties broken lexicographically.
        self.order = {
            item: position
            for position, item in enumerate(
                sorted(
                    self.item_counts,
                    key=lambda item: (-self.item_counts[item], item),
                )
            )
        }
        self.root = _FPNode(None, None)
        self.headers: Dict[int, _FPNode] = {}
        for items, count in cached:
            filtered = sorted(
                (item for item in items if item in self.item_counts),
                key=self.order.__getitem__,
            )
            if filtered:
                self._insert(filtered, count)

    def _insert(self, items: Sequence[int], count: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                # Prepend to the header chain.
                child.link = self.headers.get(item)
                self.headers[item] = child
            child.count += count
            node = child

    def prefix_paths(self, item: int) -> List[Tuple[List[int], int]]:
        """Conditional pattern base for ``item``."""
        paths: List[Tuple[List[int], int]] = []
        node = self.headers.get(item)
        while node is not None:
            path: List[str] = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            if path:
                paths.append((list(reversed(path)), node.count))
            node = node.link
        return paths

    def single_path(self) -> Optional[List[Tuple[int, int]]]:
        """If the tree is a single chain, return it; else None."""
        path: List[Tuple[int, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            (child,) = node.children.values()
            path.append((child.item, child.count))  # type: ignore[arg-type]
            node = child
        return path


def fpgrowth(
    transactions: Sequence[Transaction],
    min_support: float,
    max_length: Optional[int] = None,
    metrics=None,
) -> List[Itemset]:
    """Mine frequent itemsets with FP-growth (Han, Pei & Yin 2000).

    ``metrics`` (an ``repro.obs.Metrics`` registry) receives counters
    for conditional trees built, single-path shortcuts taken and
    itemsets emitted.
    """
    _validate(transactions, min_support)
    n = len(transactions)
    min_count = _min_count(min_support, n)
    vocabulary, encoded = _encode(transactions)
    tree = _FPTree(((sorted(t), 1) for t in encoded), min_count)
    results: Dict[FrozenSet[int], int] = {}
    _fp_mine(tree, min_count, frozenset(), results, max_length, metrics)
    if metrics is not None:
        metrics.counter("fpgrowth.itemsets").inc(len(results))
    return _to_itemsets(results, n, vocabulary)


def _fp_mine(
    tree: _FPTree,
    min_count: int,
    suffix: FrozenSet[int],
    results: Dict[FrozenSet[int], int],
    max_length: Optional[int],
    metrics=None,
) -> None:
    chain = tree.single_path()
    if chain is not None:
        # Enumerate all combinations of the single path directly.
        if metrics is not None:
            metrics.counter("fpgrowth.single_paths").inc()
        for size in range(1, len(chain) + 1):
            if max_length is not None and len(suffix) + size > max_length:
                break
            for combo in combinations(chain, size):
                itemset = suffix | frozenset(item for item, __ in combo)
                count = min(count for __, count in combo)
                if count >= min_count:
                    existing = results.get(itemset, 0)
                    results[itemset] = max(existing, count)
        return
    # Bottom-up over the header table (least frequent first).
    items = sorted(
        tree.item_counts, key=lambda item: (-tree.order[item], item)
    )
    for item in items:
        new_suffix = suffix | {item}
        results[new_suffix] = tree.item_counts[item]
        if max_length is not None and len(new_suffix) >= max_length:
            continue
        conditional = _FPTree(tree.prefix_paths(item), min_count)
        if metrics is not None:
            metrics.counter("fpgrowth.conditional_trees").inc()
        if conditional.item_counts:
            _fp_mine(
                conditional,
                min_count,
                new_suffix,
                results,
                max_length,
                metrics,
            )


# ----------------------------------------------------------------------
# Shared helpers / facade
# ----------------------------------------------------------------------
def _min_count(min_support: float, n: int) -> int:
    """Smallest absolute count meeting the relative support threshold."""
    return max(1, int(-(-min_support * n // 1)))  # ceil


def _to_itemsets(
    results: Dict[FrozenSet[int], int], n: int, vocabulary: List[str]
) -> List[Itemset]:
    """Decode id-itemsets back to the public string representation."""
    itemsets = [
        Itemset(
            items=frozenset(vocabulary[item] for item in items),
            count=count,
            support=count / n,
        )
        for items, count in results.items()
    ]
    itemsets.sort(key=lambda s: (len(s.items), s.sorted_items()))
    return itemsets


_ALGORITHMS = {"apriori": apriori, "fpgrowth": fpgrowth}


def mine_frequent_itemsets(
    transactions: Sequence[Transaction],
    min_support: float,
    algorithm: str = "fpgrowth",
    max_length: Optional[int] = None,
    metrics=None,
) -> List[Itemset]:
    """Facade dispatching to :func:`apriori` or :func:`fpgrowth`."""
    try:
        miner = _ALGORITHMS[algorithm]
    except KeyError:
        raise MiningError(
            f"unknown algorithm {algorithm!r};"
            f" choose from {sorted(_ALGORITHMS)}"
        ) from None
    return miner(
        transactions, min_support, max_length=max_length, metrics=metrics
    )


def itemset_index(
    itemsets: Iterable[Itemset],
) -> Dict[FrozenSet[str], Itemset]:
    """Map items -> Itemset for O(1) support lookups."""
    return {itemset.items: itemset for itemset in itemsets}


def closed_itemsets(itemsets: Sequence[Itemset]) -> List[Itemset]:
    """Keep only *closed* itemsets (no superset with equal support).

    Closed itemsets are a lossless compression of the frequent-itemset
    collection: all supports are recoverable. The paper asks for "a
    manageable set of knowledge" — this is the standard way to shrink
    pattern output without losing information.
    """
    by_size: Dict[int, List[Itemset]] = {}
    for itemset in itemsets:
        by_size.setdefault(len(itemset.items), []).append(itemset)
    closed: List[Itemset] = []
    for size, group in by_size.items():
        supersets = by_size.get(size + 1, [])
        for itemset in group:
            if not any(
                itemset.items < candidate.items
                and candidate.count == itemset.count
                for candidate in supersets
            ):
                closed.append(itemset)
    closed.sort(key=lambda s: (len(s.items), s.sorted_items()))
    return closed


def maximal_itemsets(itemsets: Sequence[Itemset]) -> List[Itemset]:
    """Keep only *maximal* itemsets (no frequent superset at all).

    A lossy but much smaller summary: the positive border of the
    frequent collection.
    """
    by_size: Dict[int, List[Itemset]] = {}
    for itemset in itemsets:
        by_size.setdefault(len(itemset.items), []).append(itemset)
    maximal: List[Itemset] = []
    sizes = sorted(by_size)
    for size in sizes:
        larger = [
            candidate
            for bigger in sizes
            if bigger > size
            for candidate in by_size[bigger]
        ]
        for itemset in by_size[size]:
            if not any(
                itemset.items < candidate.items for candidate in larger
            ):
                maximal.append(itemset)
    maximal.sort(key=lambda s: (len(s.items), s.sorted_items()))
    return maximal
