"""The six passage-integration strategies, the majority vote and the closed-book filter."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .corpus import Passage, Question
from .evaluation import exact_match, normalize_answer
from .llm import CompletionClient, CompletionRequest, CompletionResponse
from .prompts import (
    DEFAULT_UNKNOWN_POLICY,
    UNKNOWN,
    Answer,
    UnknownPolicy,
    classify_response,
    render_closed_book,
    render_concatenation,
    render_distill,
    render_post_fusion_single,
    render_pruning,
    render_summary,
)

if TYPE_CHECKING:  # only a live run sends ahead, and loads the module then
    from concurrent.futures import Future


class Strategy(str, Enum):
    CONCAT = "concat"
    POST_FUSION = "post_fusion"
    PRUNING = "pruning"
    SUMMARY = "summary"
    CONCAT_PF = "concat_pf"
    PF_CONCAT = "pf_concat"


@dataclass(frozen=True)
class Exchange:
    """One prompt/response round trip; its request holds its exchange key."""

    request: CompletionRequest
    response: CompletionResponse

    @property
    def exchange_key(self) -> str:
        return self.request.exchange_key

    @property
    def kind(self) -> str:
        """The prompt template: every ``pf:<rank>`` key is one passage's
        post_fusion_single prompt; any other key names its own template."""
        return "post_fusion_single" if self.exchange_key.startswith("pf:") else self.exchange_key


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


def _first_round(strategy: Strategy, k: int) -> list[str]:
    """The exchange keys a strategy asks for before any answer is known: the
    pf round over k passages for post_fusion and pf_concat, else its one
    call with every passage in the prompt (concat_pf's is concat's)."""
    if strategy is Strategy.POST_FUSION or strategy is Strategy.PF_CONCAT:
        return [f"pf:{index}" for index in range(k)]
    if strategy is Strategy.PRUNING or strategy is Strategy.SUMMARY:
        return [strategy.value]  # the key is the strategy's name
    return ["concat"]  # concat, and concat_pf's first call


def _require_passages(passages: Sequence[Passage], question: Question) -> None:
    if not passages:
        raise ValueError(
            f"strategy needs at least one passage (question {question.question_id!r} has none)"
        )


def _fetch(
    client: CompletionClient,
    question: Question,
    policy: UnknownPolicy,
    passages: Sequence[Passage],
    exchange_key: str,
    candidates: tuple[str, ...] = (),
) -> tuple[Exchange, Answer]:
    """Render the prompt the exchange key names, send it and classify the
    reply. ``passages`` are the question's, or for distill the survivors,
    whose answers are ``candidates``; the closed-book probe passes none, and
    its prompt holds only the question. A failed call raises, its message
    prefixed with the question and exchange; an OSError becomes a new
    OSError raised from it.

    The renderers are looked up by their module names at call time; a
    wrapper rebound to those names (a profiler, a test double) then sees
    these calls too."""
    render, inputs = render_concatenation, (passages, question)
    if exchange_key.startswith("pf:"):
        render, inputs = render_post_fusion_single, (passages[int(exchange_key[3:])], question)
    elif exchange_key == "closed_book":
        render, inputs = render_closed_book, (question,)
    elif exchange_key == "distill":
        render, inputs = render_distill, (passages, question, list(candidates))
    elif exchange_key == "pruning":
        render = render_pruning
    elif exchange_key == "summary":
        render = render_summary
    request = CompletionRequest(
        prompt_text=render(*inputs, sentinel=policy.sentinel),
        question_id=question.question_id,
        exchange_key=exchange_key,
    )
    try:
        response = client.complete(request)
    except Exception as exc:
        where = f"question {question.question_id} ({exchange_key})"
        if isinstance(exc, OSError):
            # An OSError prints its errno and strerror, not its args.
            raise OSError(f"{where}: {exc}") from exc
        exc.args = (f"{where}: {exc}",)
        raise
    return Exchange(request, response), classify_response(response.text, policy)


def send_ahead(
    strategies: Iterable[Strategy],
    passages: Sequence[Passage],
    question: Question,
    client: CompletionClient,
    submit: Callable[..., Future],
    policy: UnknownPolicy = DEFAULT_UNKNOWN_POLICY,
) -> dict[str, Future]:
    """Submit the first-round calls of the strategies on one question, and
    return at once a memo for run_strategy that holds their futures.

    The calls are the union of each strategy's unconditional first round
    (see _first_round), in the order the strategies reach them, each once.
    ``submit`` is an executor's submit: each call is submitted as
    ``submit(fetch, exchange_key)``. A failed call is raised by run_strategy
    when it reaches the key. Conditional calls (concat_pf's pf round,
    pf_concat's distill) are left to run_strategy.
    """
    _require_passages(passages, question)
    keys = dict.fromkeys(key for s in strategies for key in _first_round(s, len(passages)))
    fetch = partial(_fetch, client, question, policy, passages)
    return {key: submit(fetch, key) for key in keys}


def run_strategy(
    strategy: Strategy,
    passages: Sequence[Passage],
    question: Question,
    client: CompletionClient,
    policy: UnknownPolicy = DEFAULT_UNKNOWN_POLICY,
    memo: dict[str, tuple[Exchange, Answer] | Future] | None = None,
) -> StrategyTrace:
    """Run one strategy on one question's passages.

    Every strategy is built from two primitives: one call with all passages
    in the prompt (concat, pruning, summary), and a round of one call per
    passage closed by a majority vote (post_fusion). concat_pf makes the
    concat call and falls back to the round on Unknown; pf_concat runs the
    round, then distills the surviving answers in one more call.

    ``memo`` belongs to one question, one passage list, one client and one
    policy. It maps an exchange key (``concat``, ``pf:3``, ``distill``, ...)
    to the exchange that answered it and the answer classified from it, or
    to a Future of the pair (see send_ahead). The key alone fixes the
    request: distill's candidates follow from the pf answers the same memo
    holds. A prompt is rendered and sent only when the memo lacks its key; a
    hit renders nothing, calls no client, classifies nothing, and its trace
    records that same Exchange object. A hit on a Future waits for it and
    raises the call's failure; a call that fails here is not memoized.
    Passing one memo to all strategies of a question sends each distinct
    request once: concat_pf repeats the concat request, and concat_pf and
    pf_concat repeat post_fusion's per-passage calls. The trace records
    every exchange, memo hits too, so its tokens are attributed, not billed.
    """
    _require_passages(passages, question)
    passages = list(passages)
    memo = {} if memo is None else memo
    exchanges: list[Exchange] = []

    def ask(exchange_key: str, given: list[Passage] = passages, candidates: tuple = ()) -> Answer:
        held = memo.get(exchange_key)
        if held is None:
            held = memo[exchange_key] = _fetch(
                client, question, policy, given, exchange_key, candidates
            )
        exchange, answer = held if isinstance(held, tuple) else held.result()
        exchanges.append(exchange)
        return answer

    def finish(final: Answer, rounds_used: int, **outcome: object) -> StrategyTrace:
        return StrategyTrace(
            strategy=strategy,
            question_id=question.question_id,
            passage_ids=tuple(p.passage_id for p in passages),
            exchanges=tuple(exchanges),
            final=final,
            rounds_used=rounds_used,
            prompt_tokens_total=sum(e.response.prompt_tokens for e in exchanges),
            completion_tokens_total=sum(e.response.completion_tokens for e in exchanges),
            **outcome,
        )

    answers = tuple(ask(key) for key in _first_round(strategy, len(passages)))
    rounds_used = 1
    if strategy is Strategy.CONCAT_PF:
        if not answers[0].is_unknown:
            return finish(answers[0], rounds_used)
        rounds_used = 2
        answers = tuple(ask(key) for key in _first_round(Strategy.POST_FUSION, len(passages)))
    elif strategy not in (Strategy.POST_FUSION, Strategy.PF_CONCAT):
        return finish(answers[0], rounds_used)
    if strategy is not Strategy.PF_CONCAT:
        final = majority_vote(answers, range(len(answers)))
        return finish(final, rounds_used, finalized_by_vote=True, per_passage_answers=answers)
    survivors = [p for p, answer in zip(passages, answers) if not answer.is_unknown]
    if not survivors:
        return finish(UNKNOWN, rounds_used, per_passage_answers=answers, candidate_pool=())
    candidates = tuple(dict.fromkeys(a.text for a in answers if not a.is_unknown))
    final = ask("distill", survivors, candidates)
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


# tests/test_acceptance.py runs these four by name; other callers pass run_strategy a Strategy.
run_concatenation = partial(run_strategy, Strategy.CONCAT)
run_post_fusion = partial(run_strategy, Strategy.POST_FUSION)
run_concat_pf = partial(run_strategy, Strategy.CONCAT_PF)
run_pf_concat = partial(run_strategy, Strategy.PF_CONCAT)


def filter_dataset(
    questions: Sequence[Question],
    client: CompletionClient,
    policy: UnknownPolicy = DEFAULT_UNKNOWN_POLICY,
) -> tuple[list[Question], list[Question]]:
    """Split questions into (kept, removed) by a closed-book probe.

    A question is removed when the model already answers it correctly with no
    passages (exact match after classification), so retrieval effects stay
    measurable on what remains. A failed probe raises as _fetch does, naming
    the question.
    """
    kept: list[Question] = []
    removed: list[Question] = []
    for question in questions:
        _, answer = _fetch(client, question, policy, (), "closed_book")
        if not answer.is_unknown and exact_match(answer.text, question.gold_answers) == 1:
            removed.append(question)
        else:
            kept.append(question)
    return kept, removed
