"""Okapi BM25 inverted index, top-k retrieval, and gold-passage placement."""

from __future__ import annotations

import heapq
import math
import operator
import random
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import CorpusError, Passage, Question, check_max_passage_words, read_rows

# A bytes.translate table that keeps the bytes of [0-9a-z] and turns every
# other byte into a space.
_TOKEN_BYTES = bytes(
    byte if byte in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for byte in range(256)
)


def check_k(k: int) -> None:
    """k, the number of passages to rank, must be >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def check_bm25(k1: float, b: float) -> None:
    """These ranges, and the index build's check on its longest passage, keep
    every BM25 weight > 0 and finite, which top-k selection relies on."""
    if not 0 <= k1 <= sys.float_info.max:
        raise ValueError(f"bm25_k1 must be finite and >= 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError("bm25_b must be in [0, 1]")


class PlacementMode(str, Enum):
    RETRIEVAL_ORDER = "retrieval_order"
    GOLD_TOP = "gold_top"
    GOLD_BOTTOM = "gold_bottom"
    GOLD_RANDOM = "gold_random"
    NO_GOLD = "no_gold"


@dataclass
class RetrievalConfig:
    """Retrieval and gold-placement settings; ``placement`` names a PlacementMode."""

    k: int = 5
    max_passage_words: int = 100
    model_input_budget: int = 4096
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    placement: str = PlacementMode.NO_GOLD.value
    seed: int = 0

    def validate(self) -> None:
        check_k(self.k)
        check_max_passage_words(self.max_passage_words)
        if self.k * self.max_passage_words >= self.model_input_budget:
            raise ValueError(
                f"k * max_passage_words must stay below the model input budget: "
                f"{self.k} * {self.max_passage_words} >= {self.model_input_budget}"
            )
        check_bm25(self.bm25_k1, self.bm25_b)


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, float], ...]

    def passage_ids(self) -> list[str]:
        return [pid for pid, _ in self.entries]


def tokenize(text: str) -> list[str]:
    """Lowercase, then take the maximal runs of ASCII letters and digits.

    Every character the ASCII encoding cannot hold (lone surrogates too)
    becomes "?", which the byte table turns into a space like any other
    separator; only [0-9a-z] and spaces reach the split.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


class Bm25Index:
    """Read-only inverted index over passages with Okapi BM25.

    Only passage text is indexed; titles do not participate in scoring.

    The build tokenizes every passage, then weighs each term: its postings
    are two parallel arrays, the slots (positions in the sorted
    ``passage_ids``) of the passages that hold it, ascending, and the BM25
    weight of the term in each. A query costs the postings of its own terms,
    plus O(M log k) to pick the top k of the M passages they touch with a
    k-sized heap. Nothing changes after the build, so threads share one
    index without a lock.

    Given ``terms``, the build still records every passage's length but
    weighs those terms only (BM25 needs df and tf of the query terms alone);
    N, every df and the average length are those of the full index, so the
    scores are bitwise the same. A query with a term outside ``terms`` is
    then a ValueError.
    """

    def __init__(
        self,
        passages: list[Passage],
        k1: float = 1.2,
        b: float = 0.75,
        terms: Iterable[str] | None = None,
    ):
        if not passages:
            raise ValueError("cannot build an index over an empty passage list")
        check_bm25(k1, b)
        by_id = {p.passage_id: p for p in passages}
        # Stable id order fixes tie-breaking and score-summation order.
        self.passage_ids = sorted(by_id)
        self._terms = None if terms is None else frozenset(terms)
        keep = None if self._terms is None else self._terms.__contains__
        slot_lengths: list[int] = []
        # term -> the slot of each of its occurrences, in slot order, so a
        # slot appears tf times.
        occurrences: defaultdict[str, array] = defaultdict(lambda: array("i"))
        for slot, pid in enumerate(self.passage_ids):
            tokens = tokenize(by_id[pid].text)
            slot_lengths.append(len(tokens))
            for term in tokens if keep is None else filter(keep, tokens):
                occurrences[term].append(slot)
        self.avg_length = sum(slot_lengths) / len(slot_lengths)
        self._postings: dict[str, tuple[array, array]] = {}
        if not self.avg_length:  # a corpus without a single token has no postings
            return
        # k1 * length_norm is the scorer's own subexpression, so each weight
        # is bitwise the term's contribution in the BM25 formula.
        k1_norms = [k1 * (1.0 - b + b * length / self.avg_length) for length in slot_lengths]
        # Each factor of a weight, idf * tf * (k1 + 1.0) / (tf + k1_norm),
        # is largest at df 1 and at the longest passage's length and norm.
        longest = max(slot_lengths)
        top_idf = math.log(1.0 + (len(slot_lengths) - 1 + 0.5) / (1 + 0.5))
        if not (
            math.isfinite(top_idf * longest * (k1 + 1.0))
            and math.isfinite(longest + max(k1_norms))
        ):
            raise ValueError(
                f"bm25_k1 {k1} is too large for this corpus: the BM25 weights of its "
                f"longest passage ({longest} tokens) overflow"
            )
        while occurrences:  # popped, so each occurrence array is freed once weighed
            term, slots = occurrences.popitem()
            tfs = Counter(slots)  # slot -> tf, in ascending slot order
            df = len(tfs)
            idf = math.log(1.0 + (len(self.passage_ids) - df + 0.5) / (df + 0.5))
            weights = [idf * tf * (k1 + 1.0) / (tf + k1_norms[slot]) for slot, tf in tfs.items()]
            self._postings[term] = (array("i", tfs), array("d", weights))

    def slot_scores(self, query: str) -> dict[int, float]:
        """BM25 score of every passage sharing a term with the query, by slot.

        Weights accumulate in query-token order (repeats included), which is
        the brute-force formula's summation order. Every weight is > 0, so
        passages absent from the result score exactly 0.
        """
        totals: dict[int, float] = {}
        get = totals.get
        for term in tokenize(query):
            posting = self._postings.get(term)
            if posting is None:
                if self._terms is not None and term not in self._terms:
                    raise ValueError(
                        f"term {term!r} is not among the terms this index was built for"
                    )
                continue
            for slot, weight in zip(*posting):
                totals[slot] = get(slot, 0.0) + weight
        return totals

    def scores(self, query: str) -> dict[str, float]:
        """BM25 score for every passage (zero scores included)."""
        totals = dict.fromkeys(self.passage_ids, 0.0)
        for slot, score in self.slot_scores(query).items():
            totals[self.passage_ids[slot]] = score
        return totals


def build_index(
    passages: list[Passage],
    k1: float = 1.2,
    b: float = 0.75,
    terms: Iterable[str] | None = None,
) -> Bm25Index:
    return Bm25Index(passages, k1=k1, b=b, terms=terms)


def retrieve_top_k(index: Bm25Index, query: str, k: int) -> RankedList:
    """Return the k highest-scoring passages, score-descending.

    All passages are rankable (zero-score passages included); ties break by
    passage_id ascending. Returns min(k, N) entries. Costs the postings of
    the query's terms plus O(M log k) to select among the M passages they
    touch; when M < k the remaining entries are zero-score passages in
    ascending passage_id order.
    """
    check_k(k)
    scored = index.slot_scores(query)
    # Slots follow passage_id order, so (-score, slot) is (-score, passage_id).
    top = heapq.nsmallest(k, zip(map(operator.neg, scored.values()), scored))
    ids = index.passage_ids
    entries = [(ids[slot], -negated) for negated, slot in top]
    slot = 0
    while len(entries) < k and slot < len(ids):
        if slot not in scored:
            entries.append((ids[slot], 0.0))
        slot += 1
    return RankedList(tuple(entries))


def apply_gold_placement(
    ranked: RankedList, question: Question, config: RetrievalConfig
) -> RankedList:
    """Reposition or insert the question's gold passage per the placement mode.

    When the gold passage is absent it is inserted, and the lowest-ranked
    entry is evicted only if the list already holds k entries, so the result
    keeps min(k, len + 1) entries with the gold passage exactly once.
    Inserted entries carry a 0.0 score sentinel since the retriever never
    scored them. An empty ranking has no position to place gold in, and is
    an error in every mode but no_gold.
    """
    mode = PlacementMode(config.placement)
    if mode is PlacementMode.NO_GOLD:
        return ranked
    gold_id = question.gold_passage_id
    if gold_id is None:
        raise ValueError(
            f"placement mode {mode.value} requires a gold_passage_id "
            f"(question {question.question_id!r})"
        )
    if not ranked.entries:
        raise ValueError(
            f"placement mode {mode.value} needs a non-empty ranking "
            f"(question {question.question_id!r} has no ranked passages)"
        )
    entries = list(ranked.entries)
    present = [i for i, (pid, _) in enumerate(entries) if pid == gold_id]
    if present:
        if mode in (PlacementMode.RETRIEVAL_ORDER, PlacementMode.GOLD_RANDOM):
            return ranked
        gold_entry = entries.pop(present[0])
    else:
        gold_entry = (gold_id, 0.0)
        if len(entries) >= config.k:
            entries.pop()
    if mode is PlacementMode.GOLD_TOP:
        position = 0
    elif mode is PlacementMode.GOLD_BOTTOM:
        position = len(entries)
    else:
        # Only an absent gold passage gets here in RETRIEVAL_ORDER or
        # GOLD_RANDOM: a seed-deterministic uniform position, drawn per
        # question so reruns are identical.
        rng = random.Random(f"{config.seed}:{question.question_id}")
        position = rng.randrange(len(entries) + 1)
    entries.insert(position, gold_entry)
    return RankedList(tuple(entries))


_RANKING_ROW = {"question_id": (str,), "ranked_passage_ids": (list,)}


def load_rankings(path: str | Path) -> dict[str, list[str]]:
    """Load precomputed rankings (e.g. DPR output) keyed by question id.

    File format: one JSON record per line with fields
    {question_id, ranked_passage_ids: [string]}.
    """
    rankings: dict[str, list[str]] = {}
    for lineno, row in read_rows(path, _RANKING_ROW):
        qid = row["question_id"]
        if qid in rankings:
            raise CorpusError(f"{path}:{lineno}: duplicate question_id {qid!r}")
        rankings[qid] = row["ranked_passage_ids"]
    return rankings


def ranked_list_from_ids(question_id: str, passage_ids: list[str], k: int) -> RankedList:
    """Build a RankedList from externally supplied ids (reciprocal-rank scores)."""
    check_k(k)
    top = passage_ids[:k]
    if len(set(top)) != len(top):
        raise ValueError(f"duplicate passage ids in ranking for question {question_id!r}")
    entries = tuple((pid, 1.0 / (i + 1)) for i, pid in enumerate(top))
    return RankedList(entries)
