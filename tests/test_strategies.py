"""Tests for the six strategy pipelines, the majority-vote reducer and the closed-book filter."""

import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ragfuse.strategies as strategies
from conftest import make_passage, make_question, spy_backend
from ragfuse.llm import LiveClient, RuleClient, ScriptClient, ScriptError, count_tokens
from ragfuse.prompts import UNKNOWN, Answer, classify_response, extract_task
from ragfuse.retriever import retrieve_top_k
from ragfuse.strategies import (
    Strategy,
    filter_dataset,
    majority_vote,
    run_strategy,
    send_ahead,
)

QUESTION = make_question("q1", "what is the capital of France", ("Paris",))
PASSAGES = [
    make_passage("a#0", "paris is the capital and largest city of france", title="France"),
    make_passage("b#0", "berlin lies on the river spree", title="Berlin"),
    make_passage("c#0", "the louvre is in paris", title="Louvre"),
]
MISS_PASSAGES = [
    make_passage("x#0", "wheat grows on the plain", title="Wheat"),
    make_passage("y#0", "the mill turns in the wind", title="Mill"),
]


def answers(*texts):
    return [UNKNOWN if text is None else Answer.of(text) for text in texts]


def script_for(entries: dict[str, str], qid: str = "q1") -> ScriptClient:
    return ScriptClient({(qid, key): value for key, value in entries.items()})


def now(fn, *args) -> Future:
    """An executor's submit that makes the call before it returns: the
    Future is finished, with fn's result or the exception it raised."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def test_vote_counts_normalized_surface_variants():
    result = majority_vote(answers("The Nile", "nile", "Amazon"), [0, 1, 2])
    assert result == Answer.of("The Nile")


def test_vote_reports_raw_text_of_lowest_rank_supporter():
    result = majority_vote(answers("the nile", "Nile!", "amazon"), [2, 0, 1])
    assert result == Answer.of("Nile!")


def test_vote_excludes_unknown_and_handles_empty():
    assert majority_vote(answers("a", "b", "a", None, "a"), [0, 1, 2, 3, 4]) == Answer.of("a")
    assert majority_vote([], []) == UNKNOWN
    assert majority_vote(answers(None, None), [0, 1]) == UNKNOWN


def test_vote_count_tie_breaks_by_lowest_rank():
    assert majority_vote(answers("a", "b"), [1, 0]) == Answer.of("b")
    assert majority_vote(answers("a", "b"), [0, 1]) == Answer.of("a")


def test_vote_rank_tie_breaks_lexicographically():
    # equal counts and equal best rank: smallest normalized string wins
    assert majority_vote(answers("beta", "alpha"), [0, 0]) == Answer.of("alpha")


def test_vote_rejects_length_mismatch():
    with pytest.raises(ValueError, match="ranks"):
        majority_vote(answers("a"), [0, 1])


def test_concatenation_with_rule_backend():
    client = RuleClient([QUESTION])
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    assert trace.final == Answer.of("Paris")
    assert trace.strategy is Strategy.CONCAT
    assert len(trace.exchanges) == 1
    assert trace.exchanges[0].kind == "concat"
    assert trace.exchanges[0].exchange_key == "concat"
    assert trace.rounds_used == 1
    assert not trace.finalized_by_vote
    assert trace.per_passage_answers is None
    assert trace.passage_ids == ("a#0", "b#0", "c#0")


def test_concatenation_miss_is_unknown():
    trace = run_strategy(Strategy.CONCAT, MISS_PASSAGES, QUESTION, RuleClient([QUESTION]))
    assert trace.final.is_unknown


def test_concatenation_scripted_unknown():
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, script_for({"concat": "unknown"}))
    assert trace.final.is_unknown


def test_post_fusion_votes_over_per_passage_answers():
    client = script_for(
        {"pf:0": "a", "pf:1": "b", "pf:2": "a", "pf:3": "unknown", "pf:4": "a"}
    )
    passages = [make_passage(f"p{i}", f"text {i}") for i in range(5)]
    trace = run_strategy(Strategy.POST_FUSION, passages, QUESTION, client)
    assert trace.final == Answer.of("a")
    assert len(trace.exchanges) == 5
    assert [e.exchange_key for e in trace.exchanges] == [f"pf:{i}" for i in range(5)]
    assert trace.finalized_by_vote
    assert trace.per_passage_answers == tuple(answers("a", "b", "a", None, "a"))


def test_post_fusion_all_unknown_is_unknown():
    client = script_for({"pf:0": "unknown", "pf:1": "unknown"})
    trace = run_strategy(Strategy.POST_FUSION, PASSAGES[:2], QUESTION, client)
    assert trace.final.is_unknown
    assert trace.finalized_by_vote


def test_pruning_and_summary_extract_final_answer_line():
    client = script_for(
        {"pruning": "Irrelevant passages: 1, 3\nAnswer: x", "summary": "Summary: s.\nAnswer: y"}
    )
    pruning = run_strategy(Strategy.PRUNING, PASSAGES, QUESTION, client)
    summary = run_strategy(Strategy.SUMMARY, PASSAGES, QUESTION, client)
    assert pruning.final == Answer.of("x")
    assert summary.final == Answer.of("y")
    assert len(pruning.exchanges) == len(summary.exchanges) == 1
    assert pruning.exchanges[0].kind == "pruning"
    assert summary.exchanges[0].kind == "summary"


def test_pruning_unknown_response():
    trace = run_strategy(Strategy.PRUNING, PASSAGES, QUESTION, script_for({"pruning": "unknown"}))
    assert trace.final.is_unknown


def test_concat_pf_keeps_concat_answer_without_fallback():
    client = script_for({"concat": "paris"})
    trace = run_strategy(Strategy.CONCAT_PF, PASSAGES, QUESTION, client)
    assert trace.final == Answer.of("paris")
    assert trace.rounds_used == 1
    assert len(trace.exchanges) == 1
    assert not trace.finalized_by_vote
    assert trace.per_passage_answers is None


def test_concat_pf_falls_back_to_post_fusion_on_unknown():
    client = script_for({"concat": "unknown", "pf:0": "x", "pf:1": "x", "pf:2": "y"})
    trace = run_strategy(Strategy.CONCAT_PF, PASSAGES, QUESTION, client)
    assert trace.final == Answer.of("x")
    assert trace.rounds_used == 2
    assert len(trace.exchanges) == 1 + 3
    assert trace.finalized_by_vote
    assert trace.per_passage_answers == tuple(answers("x", "x", "y"))


def test_concat_pf_all_unknown_stays_unknown():
    client = script_for(
        {"concat": "unknown", "pf:0": "unknown", "pf:1": "unknown", "pf:2": "unknown"}
    )
    trace = run_strategy(Strategy.CONCAT_PF, PASSAGES, QUESTION, client)
    assert trace.final.is_unknown
    assert trace.rounds_used == 2


def test_pf_concat_filters_unknown_passages_from_distill():
    client = script_for({"pf:0": "unknown", "pf:1": "a", "pf:2": "b", "distill": "a"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    assert trace.final == Answer.of("a")
    assert trace.rounds_used == 2
    assert len(trace.exchanges) == 3 + 1
    distill = trace.exchanges[-1]
    assert distill.kind == "distill"
    task = extract_task(distill.request.prompt_text)
    assert task.passages == tuple(f"{p.title}. {p.text}" for p in PASSAGES[1:])
    assert task.candidates == ("a", "b")
    assert trace.candidate_pool == ("a", "b")
    assert not trace.off_pool


def test_pf_concat_all_unknown_short_circuits():
    client = script_for({"pf:0": "unknown", "pf:1": "unknown", "pf:2": "unknown"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    assert trace.final.is_unknown
    assert trace.rounds_used == 1
    assert len(trace.exchanges) == 3  # no distill call
    assert trace.candidate_pool == ()


def test_pf_concat_deduplicates_candidates():
    client = script_for({"pf:0": "a", "pf:1": "a", "pf:2": "a", "distill": "a"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    assert trace.candidate_pool == ("a",)
    assert trace.final == Answer.of("a")


def test_pf_concat_single_survivor_still_distills():
    client = script_for({"pf:0": "unknown", "pf:1": "only", "pf:2": "unknown", "distill": "only"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    assert trace.rounds_used == 2
    assert len(trace.exchanges) == 4
    assert trace.candidate_pool == ("only",)


def test_pf_concat_flags_off_pool_selections():
    client = script_for({"pf:0": "a", "pf:1": "b", "pf:2": "a", "distill": "c"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    assert trace.final == Answer.of("c")
    assert trace.off_pool
    # surface variants of a pool candidate are not off-pool
    variant = script_for({"pf:0": "The Nile", "pf:1": "b", "pf:2": "a", "distill": "nile!"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, variant)
    assert not trace.off_pool
    # an unknown distill response is not off-pool either
    unknown = script_for({"pf:0": "a", "pf:1": "b", "pf:2": "a", "distill": "unknown"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, unknown)
    assert trace.final.is_unknown and not trace.off_pool


def test_exchange_counts_per_strategy():
    k = len(PASSAGES)
    entries = {"concat": "unknown", "pruning": "p", "summary": "s", "distill": "d"}
    entries.update({f"pf:{i}": "x" for i in range(k)})
    client = script_for(entries)
    assert len(run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client).exchanges) == 1
    assert len(run_strategy(Strategy.POST_FUSION, PASSAGES, QUESTION, client).exchanges) == k
    assert len(run_strategy(Strategy.PRUNING, PASSAGES, QUESTION, client).exchanges) == 1
    assert len(run_strategy(Strategy.SUMMARY, PASSAGES, QUESTION, client).exchanges) == 1
    assert len(run_strategy(Strategy.CONCAT_PF, PASSAGES, QUESTION, client).exchanges) == 1 + k
    assert len(run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client).exchanges) == k + 1


def test_trace_token_totals_match_exchanges_and_backend():
    client = RuleClient([QUESTION])
    reached = spy_backend(client)
    trace = run_strategy(Strategy.POST_FUSION, PASSAGES, QUESTION, client)
    assert trace.prompt_tokens_total == sum(e.response.prompt_tokens for e in trace.exchanges)
    assert trace.completion_tokens_total == sum(
        e.response.completion_tokens for e in trace.exchanges
    )
    # every exchange reached the backend; the rule backend reports no counts
    assert [e.request for e in trace.exchanges] == reached
    assert trace.prompt_tokens_total == sum(count_tokens(r.prompt_text) for r in reached)


def test_strategies_are_deterministic():
    for strategy in Strategy:
        first = run_strategy(strategy, PASSAGES, QUESTION, RuleClient([QUESTION]))
        second = run_strategy(strategy, PASSAGES, QUESTION, RuleClient([QUESTION]))
        assert first == second


def test_strategies_require_passages():
    with pytest.raises(ValueError):
        run_strategy(Strategy.CONCAT, [], QUESTION, RuleClient([QUESTION]))
    with pytest.raises(ValueError):
        run_strategy(Strategy.PF_CONCAT, [], QUESTION, RuleClient([QUESTION]))


def test_errors_name_the_question_and_exchange():
    client = ScriptClient({})
    with pytest.raises(ScriptError, match=r"question q1 \(concat\)"):
        run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    # after a memo hit, a failing call still names its exchange and is not memoized
    client = script_for({"concat": "unknown", "pf:0": "x"})
    memo = {}
    run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client, memo=memo)
    with pytest.raises(ScriptError, match=r"question q1 \(pf:1\)"):
        run_strategy(Strategy.CONCAT_PF, PASSAGES, QUESTION, client, memo=memo)
    assert sorted(exchange.exchange_key for exchange, _ in memo.values()) == ["concat", "pf:0"]


def test_run_strategy_dispatches_every_member():
    client = RuleClient([QUESTION])
    for strategy in Strategy:
        trace = run_strategy(strategy, PASSAGES, QUESTION, client)
        assert trace.strategy is strategy
        assert trace.question_id == "q1"


def test_max_response_tokens_reaches_requests():
    client = RuleClient([QUESTION], max_response_tokens=7)
    run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    assert client.max_response_tokens == 7


def test_a_shared_memo_leaves_every_toy_trace_unchanged(toy_questions, toy_passages, toy_index):
    by_id = {p.passage_id: p for p in toy_passages}
    for question in toy_questions:
        ranked = retrieve_top_k(toy_index, question.text, 3)
        passages = [by_id[pid] for pid in ranked.passage_ids()]
        client = RuleClient(toy_questions)
        reached = spy_backend(client)
        memo = {}
        shared = [run_strategy(s, passages, question, client, memo=memo) for s in Strategy]
        fresh = [run_strategy(s, passages, question, RuleClient(toy_questions)) for s in Strategy]
        assert shared == fresh
        # each distinct request reached the client once
        requests = {e.request for trace in shared for e in trace.exchanges}
        assert len(reached) == len(memo) == len(requests)


def test_a_memo_hit_reuses_the_exchange_and_its_classification(
    toy_questions, toy_passages, toy_index, monkeypatch
):
    classified = []

    def spy(text, policy):
        classified.append(text)
        return classify_response(text, policy)

    monkeypatch.setattr(strategies, "classify_response", spy)
    by_id = {p.passage_id: p for p in toy_passages}
    client = RuleClient(toy_questions)
    for question in toy_questions:
        ranked = retrieve_top_k(toy_index, question.text, 3)
        passages = [by_id[pid] for pid in ranked.passage_ids()]
        classified.clear()
        memo = {}
        traces = [run_strategy(s, passages, question, client, memo=memo) for s in Strategy]
        exchanges = [e for trace in traces for e in trace.exchanges]
        # every exchange of a request is the one object the memo holds for it
        held = {e.request: e for e, _ in memo.values()}
        assert len(held) == len(memo)
        assert all(e is held[e.request] for e in exchanges)
        assert len({id(e) for e in exchanges}) == len(memo) < len(exchanges)
        # one classification per distinct request, and hits return its answer
        assert len(classified) == len(memo)
        assert all(answer == classify_response(e.response.text) for e, answer in memo.values())


def test_a_shared_memo_renders_each_distinct_request_once(
    toy_questions, toy_passages, toy_index, monkeypatch
):
    renders = []

    def counted(render):
        def spy(*args, **kwargs):
            renders.append(args)
            return render(*args, **kwargs)

        return spy

    # run_strategy looks the renderers up by these names at call time
    for name in (
        "render_concatenation", "render_post_fusion_single", "render_pruning", "render_summary",
        "render_distill",
    ):
        monkeypatch.setattr(strategies, name, counted(getattr(strategies, name)))
    by_id = {p.passage_id: p for p in toy_passages}
    for question in toy_questions:
        ranked = retrieve_top_k(toy_index, question.text, 3)
        passages = [by_id[pid] for pid in ranked.passage_ids()]
        client = RuleClient(toy_questions)
        reached = spy_backend(client)
        renders.clear()
        memo = {}
        traces = [run_strategy(s, passages, question, client, memo=memo) for s in Strategy]
        requests = {e.request for trace in traces for e in trace.exchanges}
        assert len(renders) == len(requests) == len(reached) == len(memo), question.question_id


def test_a_shared_memo_replays_a_script_without_extra_entries():
    entries = {"concat": "unknown", "pruning": "p", "summary": "s", "distill": "x"}
    entries.update({f"pf:{i}": "x" for i in range(len(PASSAGES))})
    client = script_for(entries)
    reached = spy_backend(client)
    memo = {}
    shared = [run_strategy(s, PASSAGES, QUESTION, client, memo=memo) for s in Strategy]
    assert shared == [run_strategy(s, PASSAGES, QUESTION, script_for(entries)) for s in Strategy]
    assert len(reached) == len(entries)


@pytest.mark.parametrize("reply, distill", [("unknown", 0), ("Paris", 1)])
def test_a_shared_memo_sends_each_distinct_live_payload_once(reply, distill):
    payloads = []

    def transport(payload):
        payloads.append(json.dumps(payload, sort_keys=True))
        return 200, {"choices": [{"message": {"content": reply}}]}

    client = LiveClient(
        endpoint="http://example.invalid/v1/chat/completions",
        model="test-model",
        transport=transport,
        cache=None,
    )
    memo = {}
    for strategy in Strategy:
        run_strategy(strategy, PASSAGES, QUESTION, client, memo=memo)
    # concat, pruning, summary, one call per passage, and the distill if any
    assert len(payloads) == len(set(payloads)) == len(PASSAGES) + 3 + distill


def test_send_ahead_makes_the_union_of_the_first_rounds_in_the_order_strategies_reach_it():
    client = RuleClient([QUESTION])
    reached = spy_backend(client)
    memo = send_ahead(list(Strategy), PASSAGES, QUESTION, client, now)
    first_round = ["concat", *(f"pf:{i}" for i in range(len(PASSAGES))), "pruning", "summary"]
    assert [request.exchange_key for request in reached] == first_round
    assert len(memo) == len(first_round)
    traces = [run_strategy(s, PASSAGES, QUESTION, client, memo=memo) for s in Strategy]
    assert traces == [run_strategy(s, PASSAGES, QUESTION, RuleClient([QUESTION])) for s in Strategy]
    # only the conditional calls were left: here pf_concat's distill
    assert [request.exchange_key for request in reached[len(first_round):]] == ["distill"]
    # concat_pf's pf round is conditional, so it is not sent ahead
    reached.clear()
    assert len(send_ahead([Strategy.CONCAT_PF], PASSAGES, QUESTION, client, now)) == 1
    assert [request.exchange_key for request in reached] == ["concat"]


def test_send_ahead_submits_each_call_by_its_exchange_key_in_order():
    client = RuleClient([QUESTION])
    submitted = []

    def submit(fetch, key):
        submitted.append(key)
        return now(fetch, key)

    send_ahead([Strategy.PF_CONCAT, Strategy.CONCAT], PASSAGES, QUESTION, client, submit)
    keys = [*(f"pf:{i}" for i in range(len(PASSAGES))), "concat"]
    assert submitted == keys
    with pytest.raises(ValueError, match="question 'q1' has none"):
        send_ahead(list(Strategy), [], QUESTION, client, submit)
    assert submitted == keys


def test_send_ahead_returns_before_its_calls_end():
    release = threading.Event()
    answered = []

    def transport(payload):
        # A send_ahead that waited on its calls would return only after this
        # timeout, with every call answered.
        release.wait(timeout=5)
        answered.append(payload)
        return 200, {"choices": [{"message": {"content": "Paris"}}]}

    client = LiveClient(
        endpoint="http://example.invalid/v1/chat/completions",
        model="test-model",
        transport=transport,
        cache=None,
    )
    first_round = len(PASSAGES) + 3
    with ThreadPoolExecutor(max_workers=first_round) as pool:
        memo = send_ahead(list(Strategy), PASSAGES, QUESTION, client, pool.submit)
        waiting = [future for future in memo.values() if not future.done()]
        release.set()
        traces = [run_strategy(s, PASSAGES, QUESTION, client, memo=memo) for s in Strategy]
    assert len(waiting) == first_round
    assert [trace.final for trace in traces] == [Answer.of("Paris")] * len(Strategy)
    assert len(answered) == first_round + 1  # and pf_concat's distill


def test_a_failed_call_sent_ahead_is_raised_where_a_strategy_reaches_it():
    client = script_for({"concat": "Paris", "pf:0": "Paris", "pruning": "Paris"})
    reached = spy_backend(client)
    memo = send_ahead(list(Strategy), PASSAGES, QUESTION, client, now)
    # every first-round call went out, the ones after the failed pf:1 too
    assert len(reached) == len(PASSAGES) + 3
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client, memo=memo)
    assert trace.final == Answer.of("Paris")
    for _ in range(2):  # raised as a call made in turn raises it, once prefixed
        with pytest.raises(ScriptError) as raised:
            run_strategy(Strategy.POST_FUSION, PASSAGES, QUESTION, client, memo=memo)
        assert str(raised.value) == "question q1 (pf:1): no scripted response for question 'q1', exchange 'pf:1'"
    with pytest.raises(ScriptError, match=r"^question q1 \(summary\)"):
        run_strategy(Strategy.SUMMARY, PASSAGES, QUESTION, client, memo=memo)
    assert len(reached) == len(PASSAGES) + 3


def test_a_failed_call_with_an_errno_is_raised_prefixed_from_the_original():
    reset = ConnectionResetError(104, "Connection reset by peer")

    def transport(payload):
        raise reset

    client = LiveClient(endpoint="http://example.invalid/v1", model="m", transport=transport)
    with pytest.raises(OSError) as raised:
        run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    assert str(raised.value) == "question q1 (concat): [Errno 104] Connection reset by peer"
    assert raised.value.__cause__ is reset


@pytest.mark.parametrize(
    "strategies_, entries, raised",
    [
        # pf_concat's distill is reached before summary's held failure
        ([Strategy.PF_CONCAT, Strategy.SUMMARY], {f"pf:{i}": "Paris" for i in range(3)}, "distill"),
        # concat_pf's fallback round is reached before summary's held failure
        ([Strategy.CONCAT_PF, Strategy.SUMMARY], {"concat": "unknown"}, "pf:0"),
    ],
)
def test_a_conditional_call_raises_before_a_later_strategys_held_failure(
    strategies_, entries, raised
):
    client = script_for(entries)
    memo = send_ahead(strategies_, PASSAGES, QUESTION, client, now)  # holds summary's failure
    with pytest.raises(ScriptError) as error:
        for strategy in strategies_:  # as a run does
            run_strategy(strategy, PASSAGES, QUESTION, client, memo=memo)
    assert str(error.value) == (
        f"question q1 ({raised}): no scripted response for question 'q1', exchange '{raised}'"
    )


POOL = [*PASSAGES, make_passage("d#0", "the seine flows through paris", title="Seine")]
REPLY = st.sampled_from(["unknown", "Paris", "paris.", "Berlin", "Lyon"])
KEYS = ("concat", "pruning", "summary", "distill", *(f"pf:{i}" for i in range(len(POOL))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    strategies_=st.lists(st.sampled_from(Strategy), min_size=1, unique=True),
    k=st.integers(min_value=1, max_value=len(POOL)),
    replies=st.fixed_dictionaries(dict.fromkeys(KEYS, REPLY)),
)
@example(  # concat_pf falls back, pf_concat distills
    strategies_=[Strategy.CONCAT_PF, Strategy.PF_CONCAT],
    k=2,
    replies={"concat": "unknown", "pruning": "x", "summary": "x", "distill": "Paris",
             "pf:0": "Paris", "pf:1": "unknown", "pf:2": "x", "pf:3": "x"},
)
def test_a_shared_memo_matches_fresh_runs_and_sends_each_request_once(strategies_, k, replies):
    passages = POOL[:k]
    client = script_for(replies)
    reached = spy_backend(client)
    memo = send_ahead(strategies_, passages, QUESTION, client, now)
    # send_ahead reaches the union of the first rounds, in the order the strategies reach them
    first_round = {}
    for strategy in strategies_:
        if strategy in (Strategy.POST_FUSION, Strategy.PF_CONCAT):
            first_round.update(dict.fromkeys(f"pf:{i}" for i in range(k)))
        elif strategy in (Strategy.CONCAT, Strategy.CONCAT_PF):
            first_round["concat"] = None
        else:
            first_round[strategy.value] = None
    assert [request.exchange_key for request in reached] == list(first_round)
    shared = [run_strategy(s, passages, QUESTION, client, memo=memo) for s in strategies_]
    fresh = [run_strategy(s, passages, QUESTION, script_for(replies)) for s in strategies_]
    assert shared == fresh
    # each distinct request reached the backend once
    requests = {e.request for trace in shared for e in trace.exchanges}
    assert len(reached) == len(set(reached)) == len(requests)
    assert set(reached) == requests


def test_filter_removes_closed_book_answers():
    questions = [
        make_question("q1", "first", ("Paris",)),
        make_question("q2", "second", ("London",)),
        make_question("q3", "third", ("Rome",)),
    ]
    client = ScriptClient(
        {
            ("q1", "closed_book"): "paris",
            ("q2", "closed_book"): "unknown",
            ("q3", "closed_book"): "Madrid",
        }
    )
    kept, removed = filter_dataset(questions, client)
    assert [q.question_id for q in removed] == ["q1"]
    assert [q.question_id for q in kept] == ["q2", "q3"]


def test_filter_empty_input():
    assert filter_dataset([], ScriptClient({})) == ([], [])
