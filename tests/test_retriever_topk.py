"""Top-k retrieval and gold placement edge cases, checked against the oracles."""

import math
import pickle
import re
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_passage, make_question
from oracles import bm25_rank, bm25_scores
from ragfuse.retriever import (
    PlacementMode,
    RetrievalConfig,
    apply_gold_placement,
    build_index,
    ranked_list_from_ids,
    retrieve_top_k,
    tokenize,
)

SIX = [
    make_passage("p5", "the cat sat on the mat"),
    make_passage("p2", "the dog sat on the log"),
    make_passage("p4", "cats and dogs"),
    make_passage("p1", "quasar nebula comet"),
    make_passage("p3", "a bird in the hand"),
    make_passage("p0", "cat"),
]

GOLD_MODES = (
    PlacementMode.GOLD_TOP,
    PlacementMode.GOLD_BOTTOM,
    PlacementMode.GOLD_RANDOM,
    PlacementMode.RETRIEVAL_ORDER,
)


def assert_matches_oracle(passages, query: str, k: int) -> None:
    """Ids equal the oracle's ranking prefix, and scores are bitwise the oracle's."""
    texts = {p.passage_id: p.text for p in passages}
    index = build_index(passages)
    expected_scores = bm25_scores(texts, query)
    expected = bm25_rank(texts, query)[:k]
    ranked = retrieve_top_k(index, query, k)
    assert ranked.passage_ids() == expected
    assert index.scores(query) == expected_scores


def test_fewer_matches_than_k_fills_with_zero_scores_in_id_order():
    # "cat" occurs in p0 and p5 only; the other four slots are zero-filled.
    index = build_index(SIX)
    ranked = retrieve_top_k(index, "cat", k=4)
    assert ranked.passage_ids() == ["p0", "p5", "p1", "p2"]
    assert [index.scores("cat")[pid] for pid in ("p1", "p2")] == [0.0, 0.0]
    assert_matches_oracle(SIX, "cat", 4)


@pytest.mark.parametrize("k", [len(SIX), len(SIX) + 3])
def test_k_at_least_n_returns_every_passage(k):
    assert len(retrieve_top_k(build_index(SIX), "the cat", k).passage_ids()) == len(SIX)
    assert_matches_oracle(SIX, "the cat", k)


def test_repeated_query_terms_add_their_weight_again():
    index = build_index(SIX)
    once = index.scores("cat sat")
    repeated = index.scores("cat sat cat CAT")
    assert repeated["p0"] > once["p0"]
    for k in (1, 3, 6):
        assert_matches_oracle(SIX, "cat sat cat CAT", k)


@pytest.mark.parametrize("query", ["zebra quark", "", "?!"])
def test_query_without_indexed_terms_ranks_by_id(query):
    index = build_index(SIX)
    assert set(index.scores(query).values()) == {0.0}
    assert retrieve_top_k(index, query, k=3).passage_ids() == ["p0", "p1", "p2"]
    assert_matches_oracle(SIX, query, 3)


def test_all_tied_scores_break_by_id():
    passages = [make_passage(pid, "same words here") for pid in ("c", "a", "d", "b")]
    index = build_index(passages)
    assert len(set(index.scores("words").values())) == 1
    assert retrieve_top_k(index, "words", k=3).passage_ids() == ["a", "b", "c"]
    assert_matches_oracle(passages, "words", 3)


def test_corpus_without_tokens_builds_and_scores_zero():
    passages = [make_passage("b", "..."), make_passage("a", "-- !")]
    index = build_index(passages)
    assert index.scores("anything") == {"a": 0.0, "b": 0.0}
    assert retrieve_top_k(index, "anything", k=5).passage_ids() == ["a", "b"]


def test_index_rejects_parameters_that_allow_nonpositive_weights():
    # 10**400 is an int beyond the float range; it used to raise OverflowError.
    for k1 in (-0.5, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="bm25_k1 must be finite and >= 0"):
            build_index(SIX, k1=k1)
    with pytest.raises(ValueError, match="bm25_b"):
        build_index(SIX, b=1.5)


def test_index_rejects_a_k1_whose_weights_overflow_on_its_longest_passage():
    # 1e308 used to build, and its weights (inf, nan) ranked passages wrongly.
    for k1 in (1.0e308, 10**308):
        with pytest.raises(ValueError, match=r"too large for this corpus.*\(6 tokens\)"):
            build_index(SIX, k1=k1)
    # The limit depends on the corpus: one passage of one token takes 1e308.
    one = build_index([make_passage("p0", "cat")], k1=1.0e308)
    assert one.scores("cat")["p0"] > 0
    # Below the limit, scores stay finite and bitwise the oracle's.
    texts = {p.passage_id: p.text for p in SIX}
    huge = build_index(SIX, k1=1.0e300)
    expected = bm25_scores(texts, "cat sat", k1=1.0e300)
    assert huge.scores("cat sat") == expected
    assert all(math.isfinite(score) for score in expected.values())
    ranked = retrieve_top_k(huge, "cat sat", 6).passage_ids()
    assert ranked == bm25_rank(texts, "cat sat", k1=1.0e300)


WORDS = ["alpha", "beta", "gamma", "delta", "eps"]


@st.composite
def corpus_and_query(draw):
    pid = st.text("pqrs", min_size=1, max_size=3)
    ids = draw(st.lists(pid, min_size=1, max_size=8, unique=True))
    texts = [" ".join(draw(st.lists(st.sampled_from(WORDS + ["!"]), max_size=8))) for _ in ids]
    # The oracle divides by the mean length, so keep at least one token.
    texts[0] += " " + draw(st.sampled_from(WORDS))
    query = " ".join(draw(st.lists(st.sampled_from(WORDS + ["unseen"]), max_size=5)))
    k = draw(st.integers(min_value=1, max_value=len(ids) + 2))
    return [make_passage(pid, text) for pid, text in zip(ids, texts)], query, k


@given(corpus_and_query())
def test_topk_and_scores_match_oracle_on_random_corpora(case):
    passages, query, k = case
    assert_matches_oracle(passages, query, k)


def score_bits(index, query: str) -> dict[int, str]:
    return {slot: score.hex() for slot, score in index.slot_scores(query).items()}


@given(corpus_and_query(), st.sets(st.sampled_from(WORDS + ["unseen"])), st.data())
def test_an_index_of_some_terms_scores_their_queries_as_the_full_index_does(case, terms, data):
    passages, _, k = case
    full = build_index(passages)
    partial = build_index(passages, terms=terms)
    query = " ".join(data.draw(st.lists(st.sampled_from(sorted(terms) or ["!"]), max_size=5)))
    assert partial.scores(query) == full.scores(query)
    assert retrieve_top_k(partial, query, k) == retrieve_top_k(full, query, k)
    assert score_bits(partial, query) == score_bits(full, query)
    # "zeta" is in neither the terms nor the corpus: still an error, not a zero.
    other = data.draw(st.sampled_from([w for w in WORDS + ["unseen"] if w not in terms] + ["zeta"]))
    with pytest.raises(ValueError, match=f"term {other!r} is not among"):
        partial.scores(f"{query} {other.upper()}")


@given(
    corpus_and_query(),
    st.lists(st.lists(st.sampled_from(WORDS + ["unseen"]), max_size=4).map(" ".join), max_size=4),
)
def test_scores_do_not_depend_on_which_terms_were_weighed_first(case, earlier_queries):
    passages, query, _ = case
    warm = build_index(passages)
    for earlier in earlier_queries:
        warm.slot_scores(earlier)
    assert score_bits(warm, query) == score_bits(build_index(passages), query)


def test_threads_racing_the_first_use_of_a_term_get_the_single_threaded_scores():
    passages = [
        make_passage(f"p{i:04d}", " ".join(WORDS[(i * j) % len(WORDS)] for j in range(i % 9 + 1)))
        for i in range(2000)
    ]
    queries = ["alpha beta", "gamma alpha delta", "eps eps beta", "delta"]
    expected = [score_bits(build_index(passages), q) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = build_index(passages)
            start = threading.Barrier(4)
            results: dict[int, list] = {}

            def work(worker: int) -> None:
                start.wait(timeout=10)
                # Each worker meets the terms in its own order.
                order = queries[worker:] + queries[:worker]
                results[worker] = [score_bits(shared, q) for q in order]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {w: expected[w:] + expected[:w] for w in range(4)}
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("terms", [None, {"cat", "sat", "zebra"}])
def test_a_query_leaves_the_index_unchanged(terms):
    index = build_index(SIX, terms=terms)
    built = pickle.dumps(index)
    index.scores("cat sat zebra")
    index.slot_scores("sat cat")
    retrieve_top_k(index, "cat", k=3)
    assert pickle.dumps(index) == built


@given(st.text())
# st.text() draws no lone surrogates. Kelvin sign and dotted capital I lower
# to ASCII letters; the rest are separators that str.split() also splits on.
@example("a\ud800b")
@example("\u212a")
@example("\u0130stanbul")
@example("a\x1cb")
@example("a\x85b")
@example("a\u00a0b")
def test_tokenize_equals_split_and_filter(text):
    split = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
    assert tokenize(text) == split


def placement_config(mode: PlacementMode, k: int = 3) -> RetrievalConfig:
    return RetrievalConfig(k=k, placement=mode)


def test_short_ranking_keeps_every_entry_when_gold_is_inserted():
    ranked = ranked_list_from_ids("q", ["a", "b"], k=3)
    question = make_question("q", "x", ("y",), gold="g")
    top = apply_gold_placement(ranked, question, placement_config(PlacementMode.GOLD_TOP))
    bottom = apply_gold_placement(ranked, question, placement_config(PlacementMode.GOLD_BOTTOM))
    assert top.passage_ids() == ["g", "a", "b"]
    assert bottom.passage_ids() == ["a", "b", "g"]
    full = apply_gold_placement(
        ranked_list_from_ids("q", ["a", "b", "c"], k=3),
        question,
        placement_config(PlacementMode.GOLD_TOP),
    )
    assert full.passage_ids() == ["g", "a", "b"]


@pytest.mark.parametrize("mode", GOLD_MODES)
def test_empty_ranking_with_gold_placement_is_a_value_error(mode):
    ranked = ranked_list_from_ids("q", [], k=3)
    question = make_question("q", "x", ("y",), gold="g")
    with pytest.raises(ValueError, match="non-empty ranking"):
        apply_gold_placement(ranked, question, placement_config(mode))


@given(
    ids=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True),
    gold=st.sampled_from("abcdefghij"),
    k=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(GOLD_MODES),
    seed=st.integers(min_value=0, max_value=50),
)
def test_placement_keeps_min_k_len_plus_one_entries(ids, gold, k, mode, seed):
    ranked = ranked_list_from_ids("q", ids, k)
    question = make_question("q", "x", ("y",), gold=gold)
    config = RetrievalConfig(k=k, placement=mode, seed=seed)
    placed = apply_gold_placement(ranked, question, config).passage_ids()
    before = ranked.passage_ids()
    expected_len = len(before) if gold in before else min(k, len(before) + 1)
    assert len(placed) == expected_len
    assert placed.count(gold) == 1
    others = [pid for pid in placed if pid != gold]
    assert others == [pid for pid in before if pid != gold][: len(others)]
