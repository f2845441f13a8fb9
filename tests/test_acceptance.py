"""Acceptance gate: one test per shipping criterion.

Each criterion is a single test function, so `pytest -v` prints exactly one
pass/fail line per criterion. Expected values come from the brute-force
reference implementations in oracles.py, never from the package itself.
"""

from __future__ import annotations

import random
import string
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ragfuse.cli as cli
from conftest import FIXTURES, make_passage, make_question, write_config
from oracles import (
    STRATEGY_NAMES,
    bm25_rank,
    bm25_scores,
    load_jsonl,
    oracle_normalize,
    oracle_vote,
    simulate_rule_run,
)
from ragfuse.cli import cmd_report, cmd_run, load_config, main
from ragfuse.evaluation import aggregate, exact_match, f1_score, normalize_answer, score_trace
from ragfuse.llm import ScriptClient
from ragfuse.prompts import (
    DEFAULT_UNKNOWN_POLICY,
    UNKNOWN,
    Answer,
    classify_response,
    extract_task,
)
from ragfuse.retriever import RetrievalConfig, build_index, retrieve_top_k
from ragfuse.strategies import (
    majority_vote,
    run_concat_pf,
    run_concatenation,
    run_pf_concat,
    run_post_fusion,
)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One timed end-to-end run of all six strategies over the bundled fixture."""
    out = tmp_path_factory.mktemp("acceptance") / "out"
    config_path = write_config(tmp_path_factory.mktemp("acceptance_cfg") / "run.yaml", out=out)
    config = load_config(config_path)
    start = time.perf_counter()
    report = cmd_run(config)["no_gold"]
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        out=out,
        report=report,
        elapsed=elapsed,
        traces=load_jsonl(out / "traces.jsonl"),
    )


@pytest.fixture(scope="module")
def toy_oracle():
    return simulate_rule_run(
        FIXTURES / "toy_corpus.jsonl", FIXTURES / "toy_questions.jsonl", k=3
    )


def test_criterion_01_end_to_end_run_matches_oracle(toy_run, toy_oracle):
    assert toy_run.elapsed < 5.0, f"toy run took {toy_run.elapsed:.2f}s"
    rows = {row.strategy: row for row in toy_run.report.strategies}
    assert list(rows) == list(STRATEGY_NAMES)
    for name in STRATEGY_NAMES:
        row, want = rows[name], toy_oracle[name]
        assert row.num_questions == 20, name
        assert row.em_pct == want["em_pct"], name
        assert row.unknown_rate == want["unknown_rate"], name
        assert row.no_match_rate == want["no_match_rate"], name
        assert abs(row.f1_pct - want["f1_pct"]) <= 1e-9, name
    print(
        "ACCEPTANCE: end-to-end toy run matched the oracle on all six strategies "
        f"(EM/Unk/NM exact, F1 within 1e-9) in {toy_run.elapsed:.2f}s"
    )


def test_criterion_02_fallback_algebra_over_scripted_scenarios():
    rng = random.Random(20240814)
    passages = [make_passage(f"d{j}#0", f"filler text {j}") for j in range(3)]
    concat_pool = ["unknown", "", "  UNKNOWN?  ", "alpha beta", "Answer: gamma", "delta five"]
    pf_pool = ["unknown", "", "alpha", "Alpha!", "beta", "gamma", "the alpha"]
    script: dict[tuple[str, str], str] = {}
    questions = []
    for i in range(200):
        question = make_question(f"s{i:03d}", f"scripted scenario {i}", ["target"])
        questions.append(question)
        script[(question.question_id, "concat")] = rng.choice(concat_pool)
        for j in range(3):
            script[(question.question_id, f"pf:{j}")] = rng.choice(pf_pool)
    client = ScriptClient(script)
    fell_back = 0
    for question in questions:
        combined = run_concat_pf(passages, question, client)
        concat_only = run_concatenation(passages, question, client)
        if not concat_only.final.is_unknown:
            assert combined.rounds_used == 1, question.question_id
            assert len(combined.exchanges) == 1, question.question_id
            assert combined.final == concat_only.final, question.question_id
            assert not combined.finalized_by_vote
        else:
            fell_back += 1
            pf_only = run_post_fusion(passages, question, client)
            assert combined.rounds_used == 2, question.question_id
            assert len(combined.exchanges) == 1 + 3, question.question_id
            assert combined.final == pf_only.final, question.question_id
            assert combined.finalized_by_vote
    assert fell_back >= 30 and 200 - fell_back >= 30
    print(
        "ACCEPTANCE: fallback algebra held in 200/200 scripted scenarios "
        f"({fell_back} fell back to the per-passage round)"
    )


def test_criterion_03_distill_prompt_carries_survivors_and_candidates():
    rng = random.Random(7)
    passages = [make_passage(f"p{j}#0", f"text body {j}", title=f"Title {j}") for j in range(4)]
    pf_pool = ["unknown", "red fox", "Red Fox!", "blue jay", ""]
    no_survivor = deduped = 0
    for i in range(100):
        question = make_question(f"d{i:03d}", f"distill scenario {i}", ["whatever"])
        if i == 0:
            per = ["unknown"] * 4
        elif i == 1:
            per = ["red fox", "Red Fox!", "red fox", "unknown"]
        else:
            per = [rng.choice(pf_pool) for _ in range(4)]
        script = {(question.question_id, f"pf:{j}"): per[j] for j in range(4)}
        script[(question.question_id, "distill")] = "red fox"
        trace = run_pf_concat(passages, question, ScriptClient(script))
        classified = [classify_response(text, DEFAULT_UNKNOWN_POLICY) for text in per]
        survivors = [
            (passage, answer)
            for passage, answer in zip(passages, classified)
            if not answer.is_unknown
        ]
        if not survivors:
            no_survivor += 1
            assert trace.final.is_unknown and trace.candidate_pool == ()
            assert len(trace.exchanges) == 4
            continue
        distill = trace.exchanges[-1]
        assert distill.exchange_key == "distill"
        task = extract_task(distill.request.prompt_text)
        assert list(task.passages) == [f"{p.title}. {p.text}" for p, _ in survivors]
        assert task.question == question.text
        expected = list(dict.fromkeys(answer.text for _, answer in survivors))
        assert list(task.candidates) == expected
        if len(expected) < len(survivors):
            deduped += 1
    assert no_survivor >= 1 and deduped >= 1
    print(
        "ACCEPTANCE: distill prompts carried exactly the surviving passages and "
        f"deduplicated candidates in 100/100 scenarios ({no_survivor} had no survivors)"
    )


def test_criterion_04_pf_concat_no_match_rate_is_structurally_zero(toy_run):
    rows = {row.strategy: row for row in toy_run.report.strategies}
    row = rows["pf_concat"]
    assert (row.no_match_rate, row.no_match_numerator, row.no_match_denominator) == (0.0, 0, 0)
    for denominator in ("pool", "all"):
        again = cmd_report(toy_run.out, denominator)
        row = {r.strategy: r for r in again.strategies}["pf_concat"]
        assert row.no_match_rate == 0.0 and row.no_match_numerator == 0
    # Adversarial case: gold answer is in the pool and the final answer is
    # wrong, which for a vote-finalized strategy would be a no-match event.
    passages = [make_passage(f"p{j}#0", f"body {j}") for j in range(3)]
    question = make_question("adv", "adversarial question", ["gold answer"])
    script = {
        ("adv", "pf:0"): "gold answer",
        ("adv", "pf:1"): "wrong",
        ("adv", "pf:2"): "wrong",
        ("adv", "distill"): "way off",
    }
    trace = run_pf_concat(passages, question, ScriptClient(script))
    assert trace.final.text == "way off" and trace.off_pool
    record = score_trace(trace, question)
    assert record.em == 0
    assert record.nm_event is None and record.pool_contains_gold is None
    for denominator in ("pool", "all"):
        report = aggregate([record], nm_denominator=denominator)
        assert report.strategies[0].no_match_rate == 0.0
        assert report.strategies[0].no_match_numerator == 0
    print("ACCEPTANCE: no-match rate is structurally zero for pf_concat under both denominators")


def test_criterion_05_prompt_token_cost_ordering(toy_run):
    tokens = {
        (t["strategy"], t["question_id"]): t["prompt_tokens_total"] for t in toy_run.traces
    }
    rounds = {
        t["question_id"]: t["rounds_used"]
        for t in toy_run.traces
        if t["strategy"] == "concat_pf"
    }
    qids = sorted({t["question_id"] for t in toy_run.traces})
    assert len(qids) == 20
    for qid in qids:
        assert tokens[("concat", qid)] < tokens[("post_fusion", qid)], qid
    totals = {
        name: sum(tokens[(name, qid)] for qid in qids) for name in STRATEGY_NAMES
    }
    assert totals["concat"] < totals["post_fusion"]
    assert totals["concat"] == min(totals.values())  # cheapest strategy overall
    cheap = [qid for qid in qids if rounds[qid] == 1]
    assert cheap and len(cheap) < len(qids)  # both concat_pf branches occur
    for qid in cheap:
        ceiling = min(
            tokens[(name, qid)] for name in STRATEGY_NAMES if name != "concat_pf"
        )
        assert tokens[("concat_pf", qid)] <= ceiling, qid
    print(
        "ACCEPTANCE: concat < post_fusion prompt tokens on all 20 questions; "
        f"single-round concat_pf was cheapest on all {len(cheap)} early exits"
    )


EM_F1_CASES = [
    ("Paris", ["Paris"], 1, Fraction(1)),
    ("the Nile", ["Nile"], 1, Fraction(1)),
    ("Barack Obama", ["Obama"], 0, Fraction(2, 3)),
    ("red car", ["a red car speeding"], 0, Fraction(4, 5)),
    ("blue car", ["the blue car"], 1, Fraction(1)),
    ("", ["anything"], 0, Fraction(0)),
    ("Eiffel Tower!", ["eiffel tower"], 1, Fraction(1)),
    ("A dog", ["dog"], 1, Fraction(1)),
    ("U.S.A.", ["USA"], 1, Fraction(1)),
    ("New York City", ["New York"], 0, Fraction(4, 5)),
    ("cat cat", ["cat"], 0, Fraction(2, 3)),
    ("dog", ["dog dog"], 0, Fraction(2, 3)),
    ("an apple", ["apple", "a fruit"], 1, Fraction(1)),
    ("banana split", ["banana", "split second"], 0, Fraction(2, 3)),
    ("the the the", ["something"], 0, Fraction(0)),
    ("won't", ["wont"], 1, Fraction(1)),
    ("state—of—the—art", ["state of art"], 0, Fraction(0)),
    ("Answer: Paris", ["Paris"], 0, Fraction(2, 3)),
    ("  Paris  ", ["paris"], 1, Fraction(1)),
    ("Mount McKinley", ["Denali", "Mount McKinley"], 1, Fraction(1)),
]

_NOISE = (
    string.ascii_letters
    + string.digits
    + ".,:;!?'\"()[]{}-"
    + "—“”‘’«»…"
    + " \t"
)


def _random_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.25:
            pieces.append(rng.choice(["a", "an", "the", "A", "The", "AN"]))
        else:
            pieces.append("".join(rng.choice(_NOISE) for _ in range(rng.randint(1, 6))))
    return " " * rng.randint(0, 2) + " ".join(pieces) + " " * rng.randint(0, 2)


def test_criterion_06_em_f1_fixture_and_normalize_idempotence():
    for prediction, golds, em, f1 in EM_F1_CASES:
        assert exact_match(prediction, golds) == em, (prediction, golds)
        assert abs(f1_score(prediction, golds) - float(f1)) <= 1e-9, (prediction, golds)
    rng = random.Random(20260814)
    for _ in range(1000):
        text = _random_text(rng)
        once = normalize_answer(text)
        assert normalize_answer(once) == once, repr(text)
        assert once == oracle_normalize(text), repr(text)
    print(
        "ACCEPTANCE: 20/20 EM/F1 fixture cases matched; normalization was "
        "idempotent and oracle-equal on 1000 random strings"
    )


def test_criterion_07_bm25_matches_brute_force_at_scale():
    rng = random.Random(20260814)
    vocab = [f"term{i:03d}" for i in range(200)]
    texts = {
        f"p{i:04d}": " ".join(rng.choice(vocab) for _ in range(rng.randint(20, 60)))
        for i in range(1000)
    }
    passages = [make_passage(pid, text) for pid, text in sorted(texts.items())]
    queries = [" ".join(rng.sample(vocab, rng.randint(1, 4))) for _ in range(80)]
    queries += [" ".join(rng.choices(vocab, k=3)) for _ in range(10)]  # repeats allowed
    queries += [f"{rng.choice(vocab)} zzzunseen" for _ in range(10)]
    start = time.perf_counter()
    index = build_index(passages)
    for query in queries:
        assert index.scores(query) == bm25_scores(texts, query), query  # bitwise
        ranked = retrieve_top_k(index, query, k=len(passages)).passage_ids()
        assert ranked == bm25_rank(texts, query), query
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        "ACCEPTANCE: BM25 scores and full orderings matched the brute-force "
        f"oracle bitwise on 1000 passages x 100 queries in {elapsed:.2f}s"
    )


def test_criterion_08_majority_vote_matches_oracle_on_random_pools():
    rng = random.Random(99)
    families = [
        ["the Nile", "Nile", "nile!", "NILE"],
        ["Amazon", "the amazon", "AMAZON."],
        ["Paris", "paris"],
        ["Mount Vell", "mount vell!"],
        ["42", "42!"],
    ]
    all_unknown = decided = 0
    for i in range(1000):
        size = rng.randint(1, 8)
        if i < 5:
            texts: list[str | None] = [None] * size
        elif i < 10:
            texts = ["Nile", "nile!", "Amazon", "the amazon"]  # forced count tie
            size = len(texts)
        else:
            texts = [
                None if rng.random() < 0.3 else rng.choice(rng.choice(families))
                for _ in range(size)
            ]
        ranks = rng.sample(range(100), size) if rng.random() < 0.2 else list(range(size))
        answers = [UNKNOWN if text is None else Answer.of(text) for text in texts]
        got = majority_vote(answers, ranks)
        want = oracle_vote(texts, ranks)
        if want is None:
            assert got.is_unknown, (texts, ranks)
            all_unknown += 1
        else:
            assert got.text == want, (texts, ranks)
            decided += 1
    assert all_unknown >= 20 and decided >= 500
    print(
        "ACCEPTANCE: majority vote matched the oracle on 1000/1000 pools "
        f"({all_unknown} fully unknown, {decided} decided)"
    )


def test_criterion_09_budget_guard_rejects_before_any_client(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match="model input budget"):
        RetrievalConfig(k=5, max_passage_words=100, model_input_budget=400).validate()

    def explode(*args, **kwargs):
        raise AssertionError("a client was constructed before validation")

    monkeypatch.setattr(cli, "make_client", explode)
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", k=5,
        max_passage_words=100, model_input_budget=400,
    )
    with pytest.raises(ValueError, match="model input budget"):
        cmd_run(load_config(config_path))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "model input budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    print("ACCEPTANCE: k*L >= budget is rejected before any client is constructed")


def test_criterion_10_reruns_and_worker_counts_are_byte_identical(toy_run, tmp_path):
    artifacts = ("records.jsonl", "traces.jsonl", "report.json", "report.csv", "tokens.csv")
    for workers, sub in ((1, "again"), (4, "parallel")):
        out = tmp_path / sub
        config = load_config(
            write_config(tmp_path / f"{sub}.yaml", out=out, workers=workers)
        )
        cmd_run(config)
        for name in artifacts:
            assert (out / name).read_bytes() == (toy_run.out / name).read_bytes(), (
                workers,
                name,
            )
    print(
        "ACCEPTANCE: records, traces and reports were byte-identical across a "
        "rerun and across 1 vs 4 workers"
    )


def test_criterion_11_sweep_writes_one_row_per_placement_mode(tmp_path):
    out = tmp_path / "sweep"
    config = load_config(
        write_config(tmp_path / "run.yaml", out=out, placement="sweep", strategies="concat")
    )
    reports = cmd_run(config)
    assert sorted(reports) == ["gold_bottom", "gold_top", "retrieval_order"]
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = [line.split(",") for line in lines[1:]]
    assert len(data) == 3
    assert [row[0] for row in data] == ["retrieval_order", "gold_top", "gold_bottom"]
    n_column = header.index("num_questions")
    assert all(row[n_column] == "20" for row in data)
    for mode in ("retrieval_order", "gold_top", "gold_bottom"):
        assert (out / mode / "report.json").exists()
    print("ACCEPTANCE: placement sweep wrote one aggregate row per mode (3 total)")
