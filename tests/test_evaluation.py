"""Tests for normalization, EM/F1, trace scoring, and aggregation."""

import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_passage, make_question
from ragfuse.evaluation import (
    EvalRecord,
    aggregate,
    exact_match,
    f1_score,
    normalize_answer,
    score_trace,
)
from ragfuse.llm import ScriptClient
from ragfuse.strategies import Strategy, run_strategy

QUESTION = make_question("q1", "what is the capital of France", ("Paris",))
PASSAGES = [make_passage(f"p{i}", f"filler text {i}") for i in range(3)]


def script_for(entries: dict[str, str], qid: str = "q1") -> ScriptClient:
    return ScriptClient({(qid, key): value for key, value in entries.items()})


def test_normalize_drops_articles_punctuation_and_extra_spaces():
    assert normalize_answer("The Eiffel Tower!") == "eiffel tower"
    assert normalize_answer("A  dog,  an apple") == "dog apple"
    assert normalize_answer("") == ""
    assert normalize_answer("  Mixed\tCASE\nwords ") == "mixed case words"


@given(st.text(max_size=60))
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@given(st.text())
# A curly apostrophe is punctuation; dotted capital I lowers to "i" plus a
# combining mark, which stays; U+00A0 and U+3000 are spaces.
@example("\u2019")
@example("Jack\u2019s \u0130stanbul")
@example("the\u00a0a\u3000b.")
@example("\u0130")
def test_normalize_deletes_each_punctuation_character_of_the_lowered_text(text):
    kept = "".join(ch for ch in text.lower() if not unicodedata.category(ch).startswith("P"))
    expected = " ".join(tok for tok in kept.split() if tok not in ("a", "an", "the"))
    assert normalize_answer(text) == expected


def test_exact_match_examples():
    assert exact_match("Barack Obama", ["barack obama"]) == 1
    assert exact_match("Obama", ["Barack Obama"]) == 0
    assert exact_match("the Nile", ["Nile", "Nile River"]) == 1


def test_f1_examples():
    assert f1_score("blue car", ["the blue car"]) == 1.0
    assert f1_score("red car", ["blue car"]) == pytest.approx(0.5)
    assert f1_score("", ["x"]) == 0.0
    assert f1_score("", [""]) == 1.0


def test_f1_uses_clipped_multiset_overlap():
    # "cat cat" vs "cat": one shared occurrence, precision 1/2, recall 1
    assert f1_score("cat cat", ["cat"]) == pytest.approx(2 / 3)
    assert f1_score("dog", ["dog dog"]) == pytest.approx(2 / 3)


def test_f1_takes_maximum_over_aliases():
    assert f1_score("banana split", ["apple", "banana"]) == pytest.approx(2 / 3)


@given(st.text(max_size=40), st.text(max_size=40))
def test_em_one_implies_f1_one(prediction, gold):
    if exact_match(prediction, [gold]) == 1:
        assert f1_score(prediction, [gold]) == 1.0


@given(st.text(max_size=40), st.text(max_size=40))
def test_f1_symmetric_for_single_alias(a, b):
    assert f1_score(a, [b]) == pytest.approx(f1_score(b, [a]))


def vote_trace(per_passage: list[str], gold: tuple[str, ...]):
    question = make_question("q1", "q text", gold)
    client = script_for({f"pf:{i}": text for i, text in enumerate(per_passage)})
    trace = run_strategy(Strategy.POST_FUSION, PASSAGES[: len(per_passage)], question, client)
    return trace, question


def test_score_trace_flags_no_match_events():
    trace, question = vote_trace(["paris", "london", "london"], ("paris",))
    record = score_trace(trace, question)
    assert trace.final.text == "london"
    assert record.em == 0
    assert record.pool_contains_gold is True
    assert record.nm_event is True


def test_score_trace_no_event_when_vote_elects_gold():
    trace, question = vote_trace(["paris", "paris", "london"], ("paris",))
    record = score_trace(trace, question)
    assert record.em == 1
    assert record.pool_contains_gold is True
    assert record.nm_event is False


def test_score_trace_pool_without_gold_is_not_an_event():
    trace, question = vote_trace(["london", "london", "unknown"], ("paris",))
    record = score_trace(trace, question)
    assert record.pool_contains_gold is False
    assert record.nm_event is False


def test_score_trace_leaves_fields_undefined_without_vote():
    client = script_for({"concat": "paris"})
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    record = score_trace(trace, QUESTION)
    assert record.em == 1 and record.f1 == 1.0
    assert record.pool_contains_gold is None
    assert record.nm_event is None
    assert record.prompt_tokens_total == trace.prompt_tokens_total > 0
    assert record.completion_tokens_total == trace.completion_tokens_total > 0


def test_score_trace_pf_concat_never_defines_nm():
    client = script_for({"pf:0": "paris", "pf:1": "london", "pf:2": "paris", "distill": "london"})
    trace = run_strategy(Strategy.PF_CONCAT, PASSAGES, QUESTION, client)
    record = score_trace(trace, QUESTION)
    assert record.em == 0
    assert record.pool_contains_gold is None
    assert record.nm_event is None


def test_score_trace_unknown_scores_zero():
    client = script_for({"concat": "unknown"})
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    record = score_trace(trace, QUESTION)
    assert (record.em, record.f1, record.is_unknown) == (0, 0.0, True)


def test_score_trace_rejects_mismatched_question():
    client = script_for({"concat": "paris"})
    trace = run_strategy(Strategy.CONCAT, PASSAGES, QUESTION, client)
    with pytest.raises(ValueError, match="trace is for question"):
        score_trace(trace, make_question("q2", "other", ("x",)))


def test_score_trace_is_pure():
    trace, question = vote_trace(["paris", "london", "london"], ("paris",))
    assert score_trace(trace, question) == score_trace(trace, question)


def record(
    strategy="s", em=0, f1=0.0, unknown=False, pool=None, nm=None, qid="q", prompt=0, completion=0
):
    return EvalRecord(
        question_id=qid,
        strategy=strategy,
        em=em,
        f1=f1,
        is_unknown=unknown,
        pool_contains_gold=pool,
        nm_event=nm,
        prompt_tokens_total=prompt,
        completion_tokens_total=completion,
    )


def test_aggregate_reports_percentages():
    report = aggregate([record(em=1, f1=1.0), record(em=0, f1=0.5)])
    row = report.strategies[0]
    assert row.em_pct == 50.0
    assert row.f1_pct == 75.0
    assert row.num_questions == 2


def test_aggregate_nm_rate_examples():
    no_votes = aggregate([record(), record()])
    assert no_votes.strategies[0].no_match_rate == 0.0
    pools = aggregate(
        [record(pool=True, nm=True), record(pool=True, nm=False), record(pool=False, nm=False)]
    )
    row = pools.strategies[0]
    assert row.no_match_rate == 0.5
    assert (row.no_match_numerator, row.no_match_denominator) == (1, 2)


def test_aggregate_all_denominator_counts_every_question():
    records = [record(pool=True, nm=True), record(), record(), record()]
    report = aggregate(records, nm_denominator="all")
    assert report.strategies[0].no_match_rate == 0.25
    assert report.strategies[0].no_match_denominator == 4
    with pytest.raises(ValueError):
        aggregate(records, nm_denominator="wrong")


def test_aggregate_unknown_rate_and_bounds():
    report = aggregate([record(unknown=True), record(em=1, f1=1.0)])
    row = report.strategies[0]
    assert row.unknown_rate == 0.5
    assert 0.0 <= row.unknown_rate <= 1.0
    assert 0.0 <= row.no_match_rate <= 1.0


def test_aggregate_orders_strategies_by_first_occurrence():
    report = aggregate([record(strategy="b"), record(strategy="a"), record(strategy="b")])
    assert [row.strategy for row in report.strategies] == ["b", "a"]
    assert [row.num_questions for row in report.strategies] == [2, 1]


def test_aggregate_token_means_come_from_records():
    records = [
        record(strategy="s", qid="q1", prompt=10, completion=2),
        record(strategy="s", qid="q2", prompt=20, completion=4),
    ]
    row = aggregate(records).strategies[0]
    assert row.mean_prompt_tokens == 15.0
    assert row.mean_completion_tokens == 3.0
    assert row.total_prompt_tokens == 30
    assert row.total_completion_tokens == 6
