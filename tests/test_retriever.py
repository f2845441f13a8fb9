"""Tests for BM25 indexing, top-k retrieval, and gold-passage placement."""

import itertools
import random

import pytest

from conftest import make_passage, make_question
from oracles import bm25_rank, bm25_scores
from ragfuse.retriever import (
    PlacementMode,
    RetrievalConfig,
    apply_gold_placement,
    build_index,
    load_rankings,
    ranked_list_from_ids,
    retrieve_top_k,
    tokenize,
)

THREE = [
    make_passage("p1", "the cat sat on the mat"),
    make_passage("p2", "the dog sat on the log"),
    make_passage("p3", "cats and dogs"),
]


def test_tokenize_lowercases_and_splits_on_nonalnum():
    assert tokenize("The CAT, sat-on 2 mats!") == ["the", "cat", "sat", "on", "2", "mats"]
    assert tokenize("...") == []


def texts_of(passages) -> dict[str, str]:
    return {p.passage_id: p.text for p in passages}


def test_index_counts_documents_and_term_frequencies():
    index = build_index(THREE)
    assert index.passage_ids == ["p1", "p2", "p3"]
    # slot_scores holds exactly the passages containing the term: its size is
    # the hand-counted document frequency
    assert {term: len(index.slot_scores(term)) for term in ("cat", "sat", "the", "dogs")} == {
        "cat": 1, "sat": 2, "the": 2, "dogs": 1
    }
    for term in ("cat", "sat", "the", "dogs", "Cat"):
        assert index.scores(term) == bm25_scores(texts_of(THREE), term)


def test_index_rejects_empty_passage_list():
    with pytest.raises(ValueError):
        build_index([])


def test_repeated_word_tf_equals_word_count():
    passages = [make_passage("p", "echo echo echo echo"), make_passage("q", "echo and more words")]
    index = build_index(passages)
    assert index.scores("echo") == bm25_scores(texts_of(passages), "echo")
    assert index.scores("echo")["p"] > index.scores("echo")["q"]


def test_identical_passages_have_identical_statistics():
    passages = [make_passage("a", "same words here"), make_passage("b", "same words here")]
    index = build_index(passages)
    for query in ("same", "words here", "same same absent"):
        scores = index.scores(query)
        assert scores["a"] == scores["b"]
        assert scores == bm25_scores(texts_of(passages), query)


def test_three_passage_scores_match_hand_derived_values():
    # brute-force BM25 of the stated formula, computed by hand and frozen
    index = build_index(THREE)
    scores = index.scores("cat sat")
    assert scores["p1"] == pytest.approx(1.3411060256161413, rel=1e-12)
    assert scores["p2"] == pytest.approx(0.4344571362775708, rel=1e-12)
    assert scores["p3"] == 0.0
    ranked = retrieve_top_k(index, "cat sat", k=3)
    assert ranked.passage_ids() == ["p1", "p2", "p3"]


def test_no_shared_terms_gives_zero_scores_in_id_order():
    index = build_index(THREE)
    assert index.scores("zebra quark") == {"p1": 0.0, "p2": 0.0, "p3": 0.0}
    ranked = retrieve_top_k(index, "zebra quark", k=3)
    assert ranked.passage_ids() == ["p1", "p2", "p3"]


def test_duplicate_texts_tie_break_by_id():
    index = build_index([make_passage("z", "alpha beta"), make_passage("a", "alpha beta")])
    scores = index.scores("alpha")
    assert scores["a"] == scores["z"]
    ranked = retrieve_top_k(index, "alpha", k=2)
    assert ranked.passage_ids() == ["a", "z"]


def test_retrieve_returns_min_k_n_and_rejects_bad_k():
    index = build_index(THREE)
    assert len(retrieve_top_k(index, "cat", k=10).passage_ids()) == 3
    assert len(retrieve_top_k(index, "cat", k=2).passage_ids()) == 2
    with pytest.raises(ValueError):
        retrieve_top_k(index, "cat", k=0)


def test_scores_match_brute_force_oracle_small():
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(30)]
    passages = [
        make_passage(f"p{i:02d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 25))))
        for i in range(40)
    ]
    texts = {p.passage_id: p.text for p in passages}
    index = build_index(passages)
    for _ in range(25):
        query = " ".join(rng.choice(vocab + ["offvocab"]) for _ in range(rng.randint(1, 5)))
        assert index.scores(query) == bm25_scores(texts, query)
        ranked = retrieve_top_k(index, query, k=len(passages))
        assert ranked.passage_ids() == bm25_rank(texts, query)


def test_disjoint_passage_scores_zero_and_ranks_below_matches():
    # A passage sharing no query term scores exactly 0; any passage containing
    # a query term scores > 0 (this idf form is strictly positive), so the
    # disjoint passage always lands below every match.
    extra = THREE + [make_passage("p4", "quasar nebula comet")]
    index = build_index(extra)
    ranked = retrieve_top_k(index, "cat sat", k=4)
    scores = index.scores("cat sat")
    assert scores["p4"] == 0.0
    assert all(scores[pid] > 0.0 for pid in ("p1", "p2"))
    assert ranked.passage_ids().index("p4") > ranked.passage_ids().index("p2")
    # On this instance the pre-existing entries also keep their relative
    # order (not a theorem for BM25: corpus statistics shift with N/avgdl).
    before = retrieve_top_k(build_index(THREE), "cat sat", k=3).passage_ids()
    assert [pid for pid in ranked.passage_ids() if pid != "p4"] == before


def config_for(mode: PlacementMode, seed: int = 0) -> RetrievalConfig:
    return RetrievalConfig(k=5, placement=mode, seed=seed)


def ranked_fixture():
    index = build_index(
        [make_passage(f"p{i}", f"text number {i} about topic {i}") for i in range(8)]
    )
    return retrieve_top_k(index, "topic 3 text", k=5)


def test_no_gold_mode_leaves_list_unchanged():
    ranked = ranked_fixture()
    question = make_question("q", "x", ("y",), gold="p3")
    assert apply_gold_placement(ranked, question, config_for(PlacementMode.NO_GOLD)) is ranked


def test_placement_requires_gold_passage_id():
    question = make_question("q", "x", ("y",))
    with pytest.raises(ValueError, match="gold_passage_id"):
        apply_gold_placement(ranked_fixture(), question, config_for(PlacementMode.GOLD_TOP))


def test_present_gold_moves_to_top_or_bottom():
    ranked = ranked_fixture()
    gold = ranked.passage_ids()[2]
    question = make_question("q", "x", ("y",), gold=gold)
    top = apply_gold_placement(ranked, question, config_for(PlacementMode.GOLD_TOP))
    bottom = apply_gold_placement(ranked, question, config_for(PlacementMode.GOLD_BOTTOM))
    assert top.passage_ids()[0] == gold
    assert bottom.passage_ids()[-1] == gold
    # the gold passage moved: nothing was inserted or evicted
    assert sorted(top.ids) == sorted(bottom.ids) == sorted(ranked.ids)


def test_present_gold_unmoved_in_retrieval_order_and_random():
    ranked = ranked_fixture()
    gold = ranked.passage_ids()[2]
    question = make_question("q", "x", ("y",), gold=gold)
    for mode in (PlacementMode.RETRIEVAL_ORDER, PlacementMode.GOLD_RANDOM):
        placed = apply_gold_placement(ranked, question, config_for(mode))
        assert placed.ids == ranked.ids


def test_absent_gold_evicts_last_and_inserts():
    ranked = ranked_fixture()
    question = make_question("q", "x", ("y",), gold="p7")
    assert "p7" not in ranked.passage_ids()
    evicted = ranked.passage_ids()[-1]
    top = apply_gold_placement(ranked, question, config_for(PlacementMode.GOLD_TOP))
    bottom = apply_gold_placement(ranked, question, config_for(PlacementMode.GOLD_BOTTOM))
    assert top.passage_ids()[0] == "p7"
    assert bottom.passage_ids()[-1] == "p7"
    for placed in (top, bottom):
        assert len(placed.ids) == len(ranked.ids)
        assert evicted not in placed.passage_ids()


def test_absent_gold_random_insertion_is_seed_deterministic():
    ranked = ranked_fixture()
    question = make_question("q", "x", ("y",), gold="p7")
    for mode in (PlacementMode.GOLD_RANDOM, PlacementMode.RETRIEVAL_ORDER):
        first = apply_gold_placement(ranked, question, config_for(mode, seed=3))
        second = apply_gold_placement(ranked, question, config_for(mode, seed=3))
        assert first.passage_ids() == second.passage_ids()
        assert len(first.ids) == len(ranked.ids)
    positions = {
        apply_gold_placement(ranked, question, config_for(PlacementMode.GOLD_RANDOM, seed=s))
        .passage_ids()
        .index("p7")
        for s in range(30)
    }
    assert len(positions) > 1  # the position actually varies with the seed


def test_gold_placement_idempotent_for_top_and_bottom():
    ranked = ranked_fixture()
    question = make_question("q", "x", ("y",), gold="p7")
    for mode in (PlacementMode.GOLD_TOP, PlacementMode.GOLD_BOTTOM):
        once = apply_gold_placement(ranked, question, config_for(mode))
        twice = apply_gold_placement(once, question, config_for(mode))
        assert twice.passage_ids() == once.passage_ids()


def test_gold_present_exactly_once_after_any_mode():
    ranked = ranked_fixture()
    present = make_question("q", "x", ("y",), gold=ranked.passage_ids()[1])
    absent = make_question("q", "x", ("y",), gold="p7")
    for mode in (
        PlacementMode.GOLD_TOP,
        PlacementMode.GOLD_BOTTOM,
        PlacementMode.GOLD_RANDOM,
        PlacementMode.RETRIEVAL_ORDER,
    ):
        for question in (present, absent):
            placed = apply_gold_placement(ranked, question, config_for(mode))
            assert placed.passage_ids().count(question.gold_passage_id) == 1


def placement_reference(ids, gold, mode, k, seed, question_id):
    """README's placement rule, written out on its own. A gold passage already
    ranked moves to the first or the last slot, and stays put in retrieval
    order and gold_random. An absent one enters, evicting the last id only
    when the ranking holds k, at the first or last slot, or else at a
    position seeded by the seed and question id."""
    if mode == "no_gold":
        return ids
    if gold in ids:
        if mode in ("retrieval_order", "gold_random"):
            return ids
        others = [pid for pid in ids if pid != gold]
        return [gold, *others] if mode == "gold_top" else [*others, gold]
    kept = ids[: k - 1] if len(ids) == k else ids
    if mode == "gold_top":
        return [gold, *kept]
    if mode == "gold_bottom":
        return [*kept, gold]
    slot = random.Random(f"{seed}:{question_id}").randrange(len(kept) + 1)
    return [*kept[:slot], gold, *kept[slot:]]


def test_gold_placement_matches_an_independent_reference():
    cases = 0
    for k, length in ((k, length) for k in range(1, 6) for length in range(k + 1)):
        ranked = ranked_list_from_ids("q", [f"p{i}" for i in range(length)], k)
        ids = ranked.passage_ids()
        # Gold absent, then gold at each index of the ranking.
        golds = ["gold", *ids]
        for gold, question_id, mode, seed in itertools.product(
            golds, ("q1", "question-2"), PlacementMode, range(10)
        ):
            cases += 1
            question = make_question(question_id, "x", ("y",), gold=gold)
            config = RetrievalConfig(k=k, placement=mode.value, seed=seed)
            if not ids and mode is not PlacementMode.NO_GOLD:
                with pytest.raises(ValueError, match="non-empty ranking"):
                    apply_gold_placement(ranked, question, config)
                continue
            expected = placement_reference(ids, gold, mode.value, k, seed, question_id)
            placed = apply_gold_placement(ranked, question, config).passage_ids()
            assert placed == expected, (k, ids, gold, question_id, mode, seed)
    assert cases == 5500


def test_retrieval_config_validation():
    RetrievalConfig(k=5, max_passage_words=100, model_input_budget=501).validate()
    with pytest.raises(ValueError, match="model input budget"):
        RetrievalConfig(k=5, max_passage_words=100, model_input_budget=400).validate()
    with pytest.raises(ValueError, match="model input budget"):
        RetrievalConfig(k=5, max_passage_words=100, model_input_budget=500).validate()
    with pytest.raises(ValueError):
        RetrievalConfig(k=0).validate()
    with pytest.raises(ValueError):
        RetrievalConfig(bm25_b=1.5).validate()


def test_load_rankings_round_trip(tmp_path):
    path = tmp_path / "rankings.jsonl"
    path.write_text(
        '{"question_id": "q1", "ranked_passage_ids": ["a", "b"]}\n'
        '{"question_id": "q2", "ranked_passage_ids": ["c"]}\n',
        encoding="utf-8",
    )
    assert load_rankings(path) == {"q1": ["a", "b"], "q2": ["c"]}


def test_load_rankings_errors_name_lines(tmp_path):
    path = tmp_path / "rankings.jsonl"
    path.write_text('{"question_id": "q1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: missing field 'ranked_passage_ids'"):
        load_rankings(path)
    path.write_text(
        '{"question_id": "q1", "ranked_passage_ids": []}\n'
        '{"question_id": "q1", "ranked_passage_ids": []}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r":2: duplicate question_id"):
        load_rankings(path)


def test_ranked_list_from_ids_truncates_and_rejects_duplicates():
    ranked = ranked_list_from_ids("q", ["a", "b", "c", "d"], k=3)
    assert ranked.passage_ids() == ["a", "b", "c"]
    with pytest.raises(ValueError, match="duplicate"):
        ranked_list_from_ids("q", ["a", "a"], k=3)


@pytest.mark.parametrize("k", [0, -1])
def test_ranked_list_from_ids_rejects_k_below_one(k):
    # k=-1 used to drop the last id, and k=0 to return an empty ranking.
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        ranked_list_from_ids("q", ["a", "b", "c"], k=k)
