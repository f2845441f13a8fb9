"""Answer normalization, EM/F1 scoring, and aggregation."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .corpus import Question

if TYPE_CHECKING:  # import only for type hints; avoids a module cycle
    from .strategies import StrategyTrace

_ARTICLES = frozenset({"a", "an", "the"})
# The no-match rate bases that aggregate accepts.
NM_DENOMINATORS = ("pool", "all")


class _PunctuationTable(dict):
    """A str.translate table that deletes punctuation (Unicode category P*)
    and keeps every other code point, filled as code points are first seen.
    Threads that fill one entry at once store the same value."""

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_DELETE_PUNCTUATION = _PunctuationTable()


def normalize_answer(text: str) -> str:
    """Lowercase, delete punctuation, drop articles, collapse whitespace."""
    no_punct = text.lower().translate(_DELETE_PUNCTUATION)
    tokens = [tok for tok in no_punct.split() if tok not in _ARTICLES]
    return " ".join(tokens)


def exact_match(prediction: str, gold_answers: Sequence[str]) -> int:
    """1 if the normalized prediction equals any normalized gold alias."""
    normalized = normalize_answer(prediction)
    return int(any(normalized == normalize_answer(gold) for gold in gold_answers))


def _f1_single(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_score(prediction: str, gold_answers: Sequence[str]) -> float:
    """Token-level F1 against the best-matching gold alias."""
    return max(_f1_single(prediction, gold) for gold in gold_answers)


@dataclass(frozen=True)
class EvalRecord:
    """Per-question, per-strategy outcome and token totals; None fields mean
    'not applicable'. A records.jsonl row holds exactly these fields."""

    question_id: str
    strategy: str
    em: int
    f1: float
    is_unknown: bool
    pool_contains_gold: bool | None
    nm_event: bool | None
    prompt_tokens_total: int = 0
    completion_tokens_total: int = 0


def score_trace(trace: "StrategyTrace", question: Question) -> EvalRecord:
    """Score one finished trace against the question's gold aliases.

    pool_contains_gold / nm_event are only defined when the final answer was
    chosen by majority vote over per-passage answers; a no-match event is a
    vote pool that contains a gold-matching answer but elects a wrong one.
    """
    if trace.question_id != question.question_id:
        raise ValueError(
            f"trace is for question {trace.question_id!r}, got {question.question_id!r}"
        )
    if trace.final.is_unknown:
        em, f1, is_unknown = 0, 0.0, True
    else:
        em = exact_match(trace.final.text, question.gold_answers)
        f1 = f1_score(trace.final.text, question.gold_answers)
        is_unknown = False
    pool_contains_gold: bool | None = None
    nm_event: bool | None = None
    if trace.finalized_by_vote and trace.per_passage_answers is not None:
        pool = [a.text for a in trace.per_passage_answers if not a.is_unknown]
        pool_contains_gold = any(
            exact_match(candidate, question.gold_answers) == 1 for candidate in pool
        )
        nm_event = pool_contains_gold and em == 0
    return EvalRecord(
        question_id=question.question_id,
        strategy=trace.strategy.value,
        em=em,
        f1=f1,
        is_unknown=is_unknown,
        pool_contains_gold=pool_contains_gold,
        nm_event=nm_event,
        prompt_tokens_total=trace.prompt_tokens_total,
        completion_tokens_total=trace.completion_tokens_total,
    )


@dataclass(frozen=True)
class StrategyReport:
    """One aggregate row: EM/F1 are percentages, the rates are fractions."""

    strategy: str
    num_questions: int
    em_pct: float
    f1_pct: float
    unknown_rate: float
    no_match_rate: float
    no_match_numerator: int
    no_match_denominator: int
    mean_prompt_tokens: float
    mean_completion_tokens: float
    total_prompt_tokens: int
    total_completion_tokens: int


@dataclass(frozen=True)
class EvalReport:
    nm_denominator: str
    strategies: tuple[StrategyReport, ...]


def aggregate(
    records: Sequence[EvalRecord],
    nm_denominator: str = "pool",
) -> EvalReport:
    """Aggregate per-question records into one row per strategy.

    Strategies appear in order of first occurrence in records; token means
    are per record of the strategy. nm_denominator selects the
    no-match base: "pool" counts only questions whose vote pool contained a
    gold answer, "all" counts every question of the strategy.
    """
    if nm_denominator not in NM_DENOMINATORS:
        raise ValueError(
            f"nm_denominator must be one of {NM_DENOMINATORS}, got {nm_denominator!r}"
        )
    grouped: dict[str, list[EvalRecord]] = {}
    for record in records:
        grouped.setdefault(record.strategy, []).append(record)
    rows = []
    for name, group in grouped.items():
        n = len(group)
        nm_num = sum(1 for r in group if r.nm_event)
        if nm_denominator == "pool":
            nm_den = sum(1 for r in group if r.pool_contains_gold)
        else:
            nm_den = n
        total_prompt = sum(r.prompt_tokens_total for r in group)
        total_completion = sum(r.completion_tokens_total for r in group)
        rows.append(
            StrategyReport(
                strategy=name,
                num_questions=n,
                em_pct=100.0 * sum(r.em for r in group) / n,
                f1_pct=100.0 * sum(r.f1 for r in group) / n,
                unknown_rate=sum(1 for r in group if r.is_unknown) / n,
                no_match_rate=(nm_num / nm_den) if nm_den else 0.0,
                no_match_numerator=nm_num,
                no_match_denominator=nm_den,
                mean_prompt_tokens=total_prompt / n,
                mean_completion_tokens=total_completion / n,
                total_prompt_tokens=total_prompt,
                total_completion_tokens=total_completion,
            )
        )
    return EvalReport(nm_denominator=nm_denominator, strategies=tuple(rows))
