"""The six passage-integration strategies and the majority-vote reducer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Sequence

from .corpus import Passage, Question
from .evaluation import normalize_answer
from .llm import CompletionClient, CompletionRequest, CompletionResponse
from .prompts import (
    DEFAULT_UNKNOWN_POLICY,
    UNKNOWN,
    Answer,
    PromptKind,
    UnknownPolicy,
    classify_response,
    render_concatenation,
    render_distill,
    render_post_fusion_single,
    render_pruning,
    render_summary,
)


class Strategy(str, Enum):
    CONCAT = "concat"
    POST_FUSION = "post_fusion"
    PRUNING = "pruning"
    SUMMARY = "summary"
    CONCAT_PF = "concat_pf"
    PF_CONCAT = "pf_concat"


@dataclass(frozen=True)
class Exchange:
    """One prompt/response round trip, keyed for scripted replay."""

    kind: PromptKind
    exchange_key: str
    request: CompletionRequest
    response: CompletionResponse


@dataclass(frozen=True)
class StrategyTrace:
    """Complete audit record of one strategy run on one question."""

    strategy: Strategy
    question_id: str
    passage_ids: tuple[str, ...]
    exchanges: tuple[Exchange, ...]
    final: Answer
    rounds_used: int
    finalized_by_vote: bool = False
    off_pool: bool = False
    per_passage_answers: tuple[Answer, ...] | None = None
    candidate_pool: tuple[str, ...] | None = None
    prompt_tokens_total: int = 0
    completion_tokens_total: int = 0


def majority_vote(answers: Sequence[Answer], ranks: Sequence[int]) -> Answer:
    """Pick the most common non-Unknown answer, comparing normalized strings.

    Ties break by higher count, then lowest supporting rank, then
    lexicographically smallest normalized string; the winner's reported text
    is the raw string from its lowest-ranked supporter. All Unknown (or empty
    input) yields Unknown.
    """
    if len(answers) != len(ranks):
        raise ValueError(
            f"got {len(answers)} answers but {len(ranks)} ranks"
        )
    groups: dict[str, list[tuple[int, str]]] = {}
    for answer, rank in zip(answers, ranks):
        if answer.is_unknown:
            continue
        groups.setdefault(normalize_answer(answer.text), []).append((rank, answer.text))
    if not groups:
        return UNKNOWN
    best = min(
        groups.items(),
        key=lambda item: (-len(item[1]), min(rank for rank, _ in item[1]), item[0]),
    )
    _, raw = min(best[1])
    return Answer.of(raw)


def run_strategy(
    strategy: Strategy,
    passages: Sequence[Passage],
    question: Question,
    client: CompletionClient,
    policy: UnknownPolicy = DEFAULT_UNKNOWN_POLICY,
    max_response_tokens: int = 64,
    memo: dict[tuple, tuple[Exchange, Answer]] | None = None,
) -> StrategyTrace:
    """Run one strategy on one question's passages.

    Every strategy is built from two primitives: one call with all passages
    in the prompt (concat, pruning, summary), and a round of one call per
    passage closed by a majority vote (post_fusion). concat_pf makes the
    concat call and falls back to the round on Unknown; pf_concat runs the
    round, then distills the surviving answers in one more call.

    ``memo`` maps what fixes a request to the exchange that answered it and
    the answer classified from it: the question id, the exchange key, the
    ids of the strategy's passages, and for distill the candidates. A
    prompt is rendered and sent only when the memo lacks its key; a hit
    renders nothing, calls no client, classifies nothing, and its trace
    records that same Exchange object. Passing one memo to all strategies
    of a question sends each distinct request once: concat_pf repeats the
    concat request, and concat_pf and pf_concat repeat post_fusion's
    per-passage calls. The key leaves out the policy and the response cap,
    so share one memo only among calls with the same policy and
    max_response_tokens. The trace records every exchange, memo hits too,
    so its tokens are attributed, not billed.
    """
    if not passages:
        raise ValueError(
            f"strategy needs at least one passage (question {question.question_id!r} has none)"
        )
    passages = list(passages)
    passage_ids = tuple(p.passage_id for p in passages)
    if memo is None:
        memo = {}
    sentinel = policy.sentinel
    exchanges: list[Exchange] = []

    def ask(
        kind: PromptKind,
        render: Callable[..., str],
        *inputs: object,
        exchange_key: str | None = None,
        candidates: tuple[str, ...] | None = None,
    ) -> Answer:
        exchange_key = exchange_key or kind.value
        key = (question.question_id, exchange_key, passage_ids, candidates)
        held = memo.get(key)
        if held is None:
            request = CompletionRequest(
                prompt_text=render(*inputs, sentinel=sentinel),
                max_response_tokens=max_response_tokens,
                question_id=question.question_id,
                exchange_key=exchange_key,
            )
            try:
                response = client.complete(request)
            except Exception as exc:
                exc.args = (f"question {question.question_id} ({exchange_key}): {exc}",)
                raise
            exchange = Exchange(kind, exchange_key, request, response)
            held = memo[key] = (exchange, classify_response(response.text, policy))
        exchange, answer = held
        exchanges.append(exchange)
        return answer

    def finish(final: Answer, rounds_used: int, **outcome: object) -> StrategyTrace:
        return StrategyTrace(
            strategy=strategy,
            question_id=question.question_id,
            passage_ids=passage_ids,
            exchanges=tuple(exchanges),
            final=final,
            rounds_used=rounds_used,
            prompt_tokens_total=sum(e.response.prompt_tokens for e in exchanges),
            completion_tokens_total=sum(e.response.completion_tokens for e in exchanges),
            **outcome,
        )

    # The single-call strategies. Built per call so that the renderers are
    # looked up by their module names at call time, like every other call
    # here; a wrapper rebound to those names (a profiler, a test double)
    # then sees these calls too.
    single_call = {
        Strategy.CONCAT: (PromptKind.CONCATENATION, render_concatenation),
        Strategy.PRUNING: (PromptKind.PRUNING, render_pruning),
        Strategy.SUMMARY: (PromptKind.SUMMARY, render_summary),
    }
    rounds_used = 1
    first = Strategy.CONCAT if strategy is Strategy.CONCAT_PF else strategy
    if first in single_call:
        kind, render = single_call[first]
        answer = ask(kind, render, passages, question)
        if strategy is not Strategy.CONCAT_PF or not answer.is_unknown:
            return finish(answer, rounds_used)
        rounds_used = 2
    answers = tuple(
        ask(
            PromptKind.POST_FUSION_SINGLE, render_post_fusion_single, passage, question,
            exchange_key=f"pf:{index}",
        )
        for index, passage in enumerate(passages)
    )
    if strategy is not Strategy.PF_CONCAT:
        final = majority_vote(answers, range(len(answers)))
        return finish(final, rounds_used, finalized_by_vote=True, per_passage_answers=answers)
    survivors = [p for p, answer in zip(passages, answers) if not answer.is_unknown]
    if not survivors:
        return finish(UNKNOWN, rounds_used, per_passage_answers=answers, candidate_pool=())
    candidates = tuple(dict.fromkeys(a.text for a in answers if not a.is_unknown))
    final = ask(
        PromptKind.DISTILL, render_distill, survivors, question, list(candidates),
        candidates=candidates,
    )
    off_pool = not final.is_unknown and normalize_answer(final.text) not in {
        normalize_answer(candidate) for candidate in candidates
    }
    return finish(
        final,
        rounds_used + 1,
        off_pool=off_pool,
        per_passage_answers=answers,
        candidate_pool=candidates,
    )


# One name per strategy for callers that fix the strategy in code.
run_concatenation = partial(run_strategy, Strategy.CONCAT)
run_post_fusion = partial(run_strategy, Strategy.POST_FUSION)
run_pruning = partial(run_strategy, Strategy.PRUNING)
run_summary = partial(run_strategy, Strategy.SUMMARY)
run_concat_pf = partial(run_strategy, Strategy.CONCAT_PF)
run_pf_concat = partial(run_strategy, Strategy.PF_CONCAT)
