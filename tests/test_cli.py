"""Tests for config loading, overrides, and the three CLI subcommands."""

import errno
import gc
import http.server
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from contextlib import redirect_stdout
from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ragfuse.cli as cli
import ragfuse.llm as llm
from conftest import FIXTURES, checkout_env, make_passage, run_python, spy_backend, write_config
from oracles import bm25_rank, simulate_rule_run
from ragfuse.cli import (
    RunConfig,
    apply_overrides,
    cmd_filter,
    cmd_report,
    cmd_run,
    format_report,
    load_config,
    main,
    parse_strategies,
)
from ragfuse.corpus import CorpusError, chunk_corpus, load_corpus, load_questions
from ragfuse.llm import CompletionRequest, ResponseCache, RuleClient, ScriptClient, count_tokens
from ragfuse.prompts import TASK_DELIMITER, Answer
from ragfuse.retriever import RetrievalConfig, apply_gold_placement, retrieve_top_k
from ragfuse.strategies import Exchange, Strategy, StrategyTrace


def test_parse_strategies_accepts_all_forms():
    assert parse_strategies("all") == list(Strategy)
    assert parse_strategies("concat, pf_concat") == [Strategy.CONCAT, Strategy.PF_CONCAT]
    assert parse_strategies(["summary"]) == [Strategy.SUMMARY]
    with pytest.raises(ValueError, match="unknown strategy"):
        parse_strategies("concat,banana")


@pytest.mark.parametrize("source", ["config", "flag"])
def test_main_rejects_a_strategy_listed_twice(tmp_path, capsys, source):
    strategies = "concat,pruning,concat"
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out",
        strategies=strategies.split(",") if source == "config" else "concat",
    )
    argv = ["run", "--config", str(config_path)]
    if source == "flag":
        argv += ["--strategies", strategies]
    assert main(argv) == 2
    where = f"{config_path}: " if source == "config" else ""
    assert capsys.readouterr().err == f"error: {where}strategy 'concat' is listed twice\n"
    assert not (tmp_path / "out").exists()


def test_load_config_reads_types_and_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat,summary")
    config = load_config(path)
    assert config.backend == "rule"
    assert config.k == 3
    assert config.strategies == [Strategy.CONCAT, Strategy.SUMMARY]
    assert isinstance(config.corpus, Path)
    bad = tmp_path / "bad.yaml"
    bad.write_text("no_such_key: 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(bad)
    bad.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mapping"):
        load_config(bad)


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", "5"),
        ("workers", "2"),
        ("max_response_tokens", "7"),
        ("strategies", 5),
        ("unknown_patterns", 3),
        ("seed", "x"),
        ("k", True),  # a bool is no number, though Python counts it an int
    ],
)
def test_main_rejects_a_wrongly_typed_config_value(tmp_path, capsys, key, value):
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "out", **{key: value})
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config_path}: config key {key!r} ")
    assert not (tmp_path / "out").exists()


def test_main_rejects_malformed_yaml(tmp_path, capsys):
    # Used to end in a yaml.parser.ParserError traceback.
    config_path = tmp_path / "run.yaml"
    config_path.write_text("k: [\n", encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config_path}: invalid YAML "
        "(expected the node content, but found '<stream end>' at line 2, column 1)\n"
    )


def test_main_names_a_config_file_that_is_not_utf8(tmp_path, capsys):
    # Used to print the decode error without the file name.
    config_path = tmp_path / "run.yaml"
    config_path.write_bytes(b"backend: r\xffle\n")
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config_path}: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize("document", ["", "null\n", "~\n", "# only a comment\n"])
def test_an_empty_or_null_config_document_means_every_default(tmp_path, document):
    path = tmp_path / "run.yaml"
    path.write_text(document, encoding="utf-8")
    assert load_config(path) == RunConfig()


@pytest.mark.parametrize("document", ["[]\n", "0\n", "false\n", '""\n', "just text\n"])
def test_a_config_document_that_is_not_a_mapping_is_rejected(tmp_path, capsys, document):
    path = tmp_path / "run.yaml"
    path.write_text(document, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: config must be a key-value mapping\n"


def test_every_path_field_loads_and_overrides_as_a_path(tmp_path):
    names = ("corpus", "questions", "out", "rankings", "script", "cache")
    paths = {name: tmp_path / f"{name}.jsonl" for name in names}
    config = load_config(write_config(tmp_path / "run.yaml", **paths))
    assert {name: getattr(config, name) for name in names} == paths
    args = cli._build_parser().parse_args(["run", "--config", "x", "--out", "elsewhere"])
    assert apply_overrides(config, args).out == Path("elsewhere")


def test_load_config_takes_an_int_for_a_float_and_null_for_an_optional_path(tmp_path):
    path = write_config(tmp_path / "run.yaml", bm25_k1=2, rankings=None, timeout=5)
    config = load_config(path)
    assert (config.bm25_k1, config.rankings, config.timeout) == (2, None, 5)


def test_overrides_apply_only_given_flags(tmp_path):
    config = load_config(write_config(tmp_path / "run.yaml", out=tmp_path / "out"))
    parser = cli._build_parser()
    args = parser.parse_args(["run", "--config", "x", "--k", "4", "--strategies", "concat"])
    updated = apply_overrides(config, args)
    assert updated.k == 4
    assert updated.strategies == [Strategy.CONCAT]
    assert updated.seed == 7  # untouched
    assert updated.backend == "rule"


# Each flag's value on the command line and the field value it must set; every
# one differs from the write_config default, so an ignored flag shows.
_FLAG_VALUES = {
    "out": ("elsewhere", Path("elsewhere")),
    "k": ("4", 4),
    "seed": ("11", 11),
    "backend": ("script", "script"),
    "placement": ("gold_top", "gold_top"),
    "strategies": ("concat,summary", [Strategy.CONCAT, Strategy.SUMMARY]),
    "workers": ("3", 3),
    "nm_denominator": ("all", "all"),
    "max_response_tokens": ("9", 9),
}
_FIELDS = {entry.name for entry in fields(RunConfig)}
# The flags each command takes; filter's probe reads no retrieval, placement,
# strategy, worker or report setting.
_COMMAND_FLAGS = {
    "run": sorted(_FLAG_VALUES),
    "filter": ["backend", "max_response_tokens", "out"],
}


@pytest.mark.parametrize("command", ["run", "filter"])
def test_flags_not_given_leave_every_config_value(tmp_path, command):
    path = write_config(tmp_path / "run.yaml", out=tmp_path / "out")
    args = cli._build_parser().parse_args([command, "--config", "x"])
    # The table above covers every flag whose dest is a config field.
    assert {name for name in vars(args) if name in _FIELDS} == set(_COMMAND_FLAGS[command])
    assert apply_overrides(load_config(path), args) == load_config(path)


@pytest.mark.parametrize(
    "name, command", [(name, command) for command, names in _COMMAND_FLAGS.items() for name in names]
)
def test_each_flag_overrides_its_config_field_and_no_other(tmp_path, command, name):
    path = write_config(tmp_path / "run.yaml", out=tmp_path / "out")
    text, expected = _FLAG_VALUES[name]
    flag = "--" + name.replace("_", "-")
    args = cli._build_parser().parse_args([command, "--config", "x", flag, text])
    before = load_config(path)
    updated = apply_overrides(load_config(path), args)
    assert getattr(updated, name) == expected != getattr(before, name)
    assert replace(updated, **{name: getattr(before, name)}) == before


@pytest.mark.parametrize("name", sorted(set(_FLAG_VALUES) - set(_COMMAND_FLAGS["filter"])))
def test_filter_rejects_each_run_only_flag(tmp_path, capsys, name):
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "out")
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exit_:
        main(["filter", "--config", str(config_path), flag, _FLAG_VALUES[name][0]])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_placement_and_seed_flags_reach_the_gold_placement(tmp_path, toy_index, toy_questions):
    config_path = write_config(tmp_path / "run.yaml", strategies="concat")
    orders = {}
    for seed_flag in ([], ["--seed", "8"]):
        out = tmp_path / f"out{len(orders)}"
        argv = ["run", "--config", str(config_path), "--out", str(out), *seed_flag]
        assert main([*argv, "--placement", "gold_random"]) == 0
        rows = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
        orders[tuple(seed_flag)] = {row["question_id"]: row["passage_ids"] for row in rows}
    placement = RetrievalConfig(k=3, placement="gold_random", seed=7)
    expected = {
        q.question_id: apply_gold_placement(
            retrieve_top_k(toy_index, q.text, 3), q, placement
        ).passage_ids()
        for q in toy_questions
    }
    assert orders[()] == expected
    reseeded = orders[("--seed", "8")]
    assert sorted(reseeded) == sorted(expected)
    assert any(reseeded[qid] != ids for qid, ids in expected.items())


def test_validate_rejects_oversized_passage_budget(tmp_path):
    config = load_config(write_config(tmp_path / "run.yaml", out=tmp_path / "out"))
    config.k, config.max_passage_words, config.model_input_budget = 5, 100, 400
    with pytest.raises(ValueError, match="model input budget"):
        config.validate("run")


def test_validate_checks_files_backends_and_ranges(tmp_path):
    config = load_config(write_config(tmp_path / "run.yaml", out=tmp_path / "out"))
    config.validate("run")  # baseline passes
    config.placement = "everywhere"
    with pytest.raises(ValueError, match="placement"):
        config.validate("run")
    config.placement = "no_gold"
    config.backend = "script"
    with pytest.raises(ValueError, match="script backend needs"):
        config.validate("run")
    config.backend = "live"
    with pytest.raises(ValueError, match="endpoint and model"):
        config.validate("run")
    config.backend = "rule"
    config.strategies = []
    with pytest.raises(ValueError, match="non-empty"):
        config.validate("run")
    config.strategies = [Strategy.CONCAT]
    config.workers = 0
    with pytest.raises(ValueError, match="workers"):
        config.validate("run")
    config.workers = 1
    # Only a live run reads max_in_flight and timeout, so only it checks them.
    config.backend, config.endpoint, config.model = "live", _LIVE["endpoint"], _LIVE["model"]
    config.max_in_flight = 0
    with pytest.raises(ValueError, match="max_in_flight must be >= 1"):
        config.validate("run")
    config.max_in_flight = 4
    config.backend = "rule"
    for sentinel in ("", "?", " ... "):
        config.unknown_sentinel = sentinel
        with pytest.raises(ValueError, match="unknown_sentinel must be non-empty"):
            config.validate("run")
    config.unknown_sentinel = "unknown"
    for patterns in ([""], ["   "], ["not stated", "\t"]):
        config.unknown_patterns = patterns
        with pytest.raises(ValueError, match="unknown_patterns entries must be non-blank"):
            config.validate("run")
    config.unknown_patterns = ["not stated"]
    config.nm_denominator = "some"
    with pytest.raises(ValueError, match="nm_denominator"):
        config.validate("run")
    config.nm_denominator = "pool"
    config.backend = "live"
    for timeout in (0, -1.0, math.nan, math.inf):
        config.timeout = timeout
        with pytest.raises(ValueError, match="timeout must be > 0"):
            config.validate("run")
    # socket.settimeout takes at most threading.TIMEOUT_MAX seconds.
    for timeout in (1.0e300, 10**400, threading.TIMEOUT_MAX * 2):
        config.timeout = timeout
        with pytest.raises(ValueError, match="timeout must be at most"):
            config.validate("run")
    config.timeout = threading.TIMEOUT_MAX
    config.validate("run")
    config.timeout = 60.0
    config.backend = "rule"
    # 10**400 is an int that no float holds.
    for k1 in (-0.5, math.nan, math.inf, 10**400):
        config.bm25_k1 = k1
        with pytest.raises(ValueError, match="bm25_k1 must be finite and >= 0"):
            config.validate("run")
    config.bm25_k1 = 1.2
    config.corpus = tmp_path / "missing.jsonl"
    with pytest.raises(ValueError, match="corpus file not found"):
        config.validate("run")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("bm25_k1", math.nan, "bm25_k1 must be finite and >= 0, got nan"),
        ("bm25_k1", math.inf, "bm25_k1 must be finite and >= 0, got inf"),
        ("timeout", math.nan, "timeout must be > 0 and finite, got nan"),
        ("timeout", math.inf, "timeout must be > 0 and finite, got inf"),
        # Only a live backend reads these two; offline runs ignore them.
        ("timeout", 0, "timeout must be > 0 and finite, got 0"),
        ("max_in_flight", 0, "max_in_flight must be >= 1, got 0"),
        (
            "unknown_sentinel", "?",
            "unknown_sentinel must be non-empty once case, surrounding space and "
            "trailing punctuation are dropped, got '?'",
        ),
        # --backend has argparse choices; only validate checks the config key.
        ("backend", "banana", "backend must be one of ('rule', 'script', 'live'), got 'banana'"),
    ],
)
def test_main_rejects_an_unusable_config_value_before_any_call(
    tmp_path, capsys, key, value, message
):
    # k1 at .nan or .inf used to run to exit 0 on NaN weights; timeout at .inf
    # died in socket.settimeout, and at .nan only at the first live call.
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", **{**_LIVE, key: value}
    )
    refuse = mock.patch.object(llm.LiveClient, "_send_with_retries", side_effect=AssertionError)
    with refuse as sent:
        assert main(["run", "--config", str(config_path)]) == 2
    assert not sent.called and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "filter"])
@pytest.mark.parametrize("key", ["max_in_flight", "timeout"])
@pytest.mark.parametrize("backend", ["rule", "script"])
def test_an_offline_backend_ignores_the_live_only_settings(
    tmp_path, capsys, toy_questions, backend, key, command
):
    # Only LiveClient and the live sending pool read them; at 0 either used to
    # end every offline run and filter with exit 2.
    script = tmp_path / "script.jsonl"
    script.write_text(
        "".join(
            json.dumps({"question_id": q.question_id, "exchange_key": exchange_key, "response": "x"})
            + "\n"
            for q in toy_questions
            for exchange_key in ("concat", "closed_book")
        ),
        encoding="utf-8",
    )
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", backend=backend,
        script=script, **{key: 0},
    )
    assert main([command, "--config", str(config_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "key, value, message",
    [
        (
            "bm25_k1", 1.0e308,
            "bm25_k1 1e+308 is too large for this corpus: the BM25 weights of its "
            "longest passage",
        ),
        ("bm25_k1", 10**400, f"bm25_k1 must be finite and >= 0, got {10**400}"),
        ("timeout", 1.0e300, "timeout must be at most"),
    ],
    ids=["k1_1e308", "k1_400_digits", "timeout_1e300"],
)
def test_main_rejects_a_finite_setting_too_large_to_use_before_any_call(
    tmp_path, capsys, key, value, message
):
    # k1 at 1e308 used to run to exit 0 on overflowed weights, and 10**400 to
    # end in an OverflowError traceback; timeout at 1e300 died at the first call.
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", **_LIVE, **{key: value}
    )
    refuse = mock.patch.object(llm.LiveClient, "_send_with_retries", side_effect=AssertionError)
    with refuse as sent:
        assert main(["run", "--config", str(config_path)]) == 2
    assert not sent.called and not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def _dumps(row: dict) -> str:
    return json.dumps(row, sort_keys=True, ensure_ascii=False)


def whole_row(trace: StrategyTrace, backend: str) -> dict:
    """The trace as one self-contained row: every field, an Answer as its
    text, an exchange as its kind, key, prompt, reply, tokens and the run's
    backend."""

    def plain(value):
        if isinstance(value, Answer):
            return value.text
        if isinstance(value, Exchange):
            return {
                "kind": value.kind,
                "exchange_key": value.exchange_key,
                "prompt": value.request.prompt_text,
                "response": value.response.text,
                "prompt_tokens": value.response.prompt_tokens,
                "completion_tokens": value.response.completion_tokens,
                "backend": backend,
            }
        if isinstance(value, tuple):
            return [plain(item) for item in value]
        return value

    return {field.name: plain(getattr(trace, field.name)) for field in fields(trace)}


def assert_exchanges_join_into_traces(tmp_path, config_path) -> None:
    """exchanges.jsonl joined into traces.jsonl by id gives the in-memory
    traces' whole rows, each id resolves and each exchange row is referenced,
    and a question's rows are its billed calls."""
    traces, billed = [], []
    backend = load_config(config_path).backend
    real_run_strategy, real_make_client = cli.run_strategy, cli.make_client

    def run_strategy(*args, **kwargs):
        traces.append(real_run_strategy(*args, **kwargs))
        return traces[-1]

    def make_client(config, questions):
        client = real_make_client(config, questions)
        billed.append(spy_backend(client))
        return client

    with pytest.MonkeyPatch.context() as spies:
        spies.setattr(cli, "run_strategy", run_strategy)
        spies.setattr(cli, "make_client", make_client)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    # Split at "\n" only: a text may hold U+2028, which splitlines() breaks at.
    exchange_lines = (out / "exchanges.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    trace_lines = (out / "traces.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    exchanges = [json.loads(line) for line in exchange_lines]
    assert exchange_lines == [_dumps(row) for row in exchanges]
    assert [row.pop("id") for row in exchanges] == list(range(len(exchanges)))
    assert len(trace_lines) == len(traces)
    by_question: dict[str, list[int]] = {}
    for line, trace in zip(trace_lines, traces):
        row = json.loads(line)
        assert line == _dumps({**whole_row(trace, backend), "exchanges": row["exchanges"]})
        joined = {**row, "exchanges": [exchanges[i] for i in row["exchanges"]]}
        assert _dumps(joined) == _dumps(whole_row(trace, backend))
        by_question.setdefault(row["question_id"], []).extend(row["exchanges"])
    # every row is referenced, and the rows run in the order the calls were first made
    first_seen = [i for ids in by_question.values() for i in dict.fromkeys(ids)]
    assert first_seen == list(range(len(exchanges)))
    (reached,) = billed
    for question_id, ids in by_question.items():
        rows = [exchanges[i] for i in dict.fromkeys(ids)]
        assert [(row["exchange_key"], row["prompt"]) for row in rows] == [
            (request.exchange_key, request.prompt_text)
            for request in reached
            if request.question_id == question_id
        ], question_id


def test_exchanges_join_into_traces_on_the_toy_fixture(tmp_path, capsys):
    config_path = write_config(tmp_path / "run.yaml", strategies="all")
    assert_exchanges_join_into_traces(tmp_path, config_path)


# Non-ASCII text, DEL, a control character, a literal backslash-u, U+2028 and
# JSON's own escapes; an ensure_ascii encoding would write some of them
# differently.
@pytest.mark.parametrize(
    "odd", ["caf\u00e9", "a\x7fb", "a\x01b", "a \\u0041 b", "a\u2028b", '"q" \\']
)
@pytest.mark.parametrize("where", ["title", "text", "reply"])
def test_exchanges_join_into_traces_on_any_text(tmp_path, monkeypatch, capsys, odd, where):
    title = {"title": f"Harbor {odd}"}.get(where, "Harbor")
    text = {"text": f"the light is green {odd}"}.get(where, "the light is green")
    passages = [make_passage("a#0", text, title=title), make_passage("b#0", "boats")]
    # The passages go in as built: the loader rejects a title that breaks a
    # line, and chunking would turn U+2028 in a text into a space.
    monkeypatch.setattr(cli, "chunk_corpus", lambda documents, max_words: passages)
    reply = {"reply": f"green {odd}"}.get(where, "green")
    files = {
        "questions.jsonl": [{"id": "q1", "question": "what color is the light", "answers": ["green"]}],
        "rankings.jsonl": [{"question_id": "q1", "ranked_passage_ids": ["a#0", "b#0"]}],
        "script.jsonl": [
            {"question_id": "q1", "exchange_key": key, "response": reply}
            for key in ("concat", "pruning", "summary", "distill", "pf:0", "pf:1")
        ],
    }
    for name, rows in files.items():
        (tmp_path / name).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml", strategies="all", k=2, backend="script",
        questions=tmp_path / "questions.jsonl", rankings=tmp_path / "rankings.jsonl",
        script=tmp_path / "script.jsonl",
    )
    assert_exchanges_join_into_traces(tmp_path, config_path)


def test_config_guard_runs_before_any_client_exists(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("a client was constructed before validation")

    monkeypatch.setattr(cli, "make_client", explode)
    config = load_config(write_config(tmp_path / "run.yaml", out=tmp_path / "out"))
    config.k, config.max_passage_words, config.model_input_budget = 5, 100, 400
    with pytest.raises(ValueError, match="model input budget"):
        cmd_run(config)
    assert not (tmp_path / "out").exists()


def test_make_client_selects_backend(tmp_path):
    config = load_config(write_config(tmp_path / "run.yaml", out=tmp_path / "out"))
    assert isinstance(cli.make_client(config, []), RuleClient)
    script = tmp_path / "script.jsonl"
    script.write_text("", encoding="utf-8")
    config.backend, config.script = "script", script
    assert isinstance(cli.make_client(config, []), ScriptClient)


def filter_setup(tmp_path, responses: dict[str, str], questions: list[dict]) -> RunConfig:
    questions_path = tmp_path / "questions.jsonl"
    questions_path.write_text(
        "".join(json.dumps(q) + "\n" for q in questions), encoding="utf-8"
    )
    script_path = tmp_path / "script.jsonl"
    script_path.write_text(
        "".join(
            json.dumps({"question_id": qid, "exchange_key": "closed_book", "response": text})
            + "\n"
            for qid, text in responses.items()
        ),
        encoding="utf-8",
    )
    return load_config(
        write_config(
            tmp_path / "run.yaml",
            questions=questions_path,
            script=script_path,
            backend="script",
            out=tmp_path / "out",
        )
    )


def test_cmd_filter_partitions_questions(tmp_path, capsys):
    questions = [
        {"id": "q1", "question": "first", "answers": ["Paris"]},
        {"id": "q2", "question": "second", "answers": ["London"]},
        {"id": "q3", "question": "third", "answers": ["Rome"]},
    ]
    config = filter_setup(
        tmp_path, {"q1": "unknown", "q2": "london", "q3": "Athens"}, questions
    )
    kept, removed = cmd_filter(config)
    assert [q.question_id for q in kept] == ["q1", "q3"]
    assert [q.question_id for q in removed] == ["q2"]
    assert "kept 2 of 3 questions" in capsys.readouterr().out
    rows = (tmp_path / "out" / "kept.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(r)["id"] for r in rows] == ["q1", "q3"]
    summary = json.loads((tmp_path / "out" / "filter.json").read_text(encoding="utf-8"))
    assert summary == {"total": 3, "kept": 2, "removed": 1}


def test_cmd_filter_no_questions(tmp_path):
    config = filter_setup(tmp_path, {}, [])
    kept, removed = cmd_filter(config)
    assert kept == [] and removed == []
    assert (tmp_path / "out" / "kept.jsonl").read_text(encoding="utf-8") == ""
    assert (tmp_path / "out" / "removed.jsonl").read_text(encoding="utf-8") == ""


def test_filter_writes_each_half_as_its_questions_were_read(tmp_path, toy_questions):
    # every toy question has a gold_passage_id, which each half must keep
    answered = {question.question_id for question in toy_questions[::3]}
    rows = [
        json.loads(line)
        for line in (FIXTURES / "toy_questions.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    responses = {
        question.question_id: question.gold_answers[0]
        if question.question_id in answered else "unknown"
        for question in toy_questions
    }
    cmd_filter(filter_setup(tmp_path, responses, rows))
    kept = load_questions(tmp_path / "out" / "kept.jsonl")
    removed = load_questions(tmp_path / "out" / "removed.jsonl")
    assert all(question.gold_passage_id for question in toy_questions)
    assert removed == [q for q in toy_questions if q.question_id in answered]
    assert kept == [q for q in toy_questions if q.question_id not in answered]


@pytest.mark.parametrize(
    "settings, run_error",
    [
        ({}, None),
        (
            {"k": 50, "max_passage_words": 100, "model_input_budget": 2048},
            "k * max_passage_words must stay below the model input budget: 50 * 100 >= 2048",
        ),
        ({"strategies": []}, "strategy list must be non-empty"),
        (
            {"nm_denominator": "bogus"},
            f"nm_denominator must be one of {cli.NM_DENOMINATORS}, got 'bogus'",
        ),
        ({"workers": 0}, "workers must be >= 1"),
        ({"placement": "nowhere"}, f"placement must be one of {cli._PLACEMENTS}, got 'nowhere'"),
    ],
    ids=["defaults", "passage budget", "no strategies", "nm_denominator", "workers", "placement"],
)
def test_filter_needs_neither_the_corpus_nor_the_rankings_and_run_needs_both(
    tmp_path, capsys, settings, run_error
):
    # filter used to reject each of these settings, though only run reads them.
    corpus, rankings = tmp_path / "no_corpus.jsonl", tmp_path / "no_rankings.jsonl"
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", corpus=corpus, rankings=rankings, **settings
    )
    assert main(["filter", "--config", str(config_path)]) == 0
    summary = json.loads((tmp_path / "out" / "filter.json").read_text(encoding="utf-8"))
    assert summary["total"] == 20
    if run_error is not None:
        config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "run", **settings)
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {run_error}\n"
        assert not (tmp_path / "run").exists()
        return
    for name, missing in (("corpus", corpus), ("rankings", rankings)):
        config_path = write_config(tmp_path / "run.yaml", out=tmp_path / name, **{name: missing})
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {name} file not found: {missing}\n"


def run_config(tmp_path, **fields) -> RunConfig:
    fields.setdefault("out", tmp_path / "out")
    fields.setdefault("strategies", "concat,post_fusion")
    return load_config(write_config(tmp_path / "run.yaml", **fields))


def test_cmd_run_writes_all_artifacts(tmp_path):
    config = run_config(tmp_path)
    reports = cmd_run(config)
    out = tmp_path / "out"
    for name in ("traces.jsonl", "records.jsonl", "report.json", "report.csv", "tokens.csv", "manifest.json"):
        assert (out / name).exists()
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 20 * 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"
    assert manifest["num_questions"] == 20
    assert manifest["config"]["seed"] == 7
    report = reports["no_gold"]
    assert [row.strategy for row in report.strategies] == ["concat", "post_fusion"]
    traces = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
    assert {t["strategy"] for t in traces} == {"concat", "post_fusion"}
    assert all(t["exchanges"] for t in traces)


def test_no_document_is_alive_when_the_index_build_starts(tmp_path, monkeypatch):
    loaded: list[weakref.ref] = []
    built = []

    def load_corpus(path):
        documents = real_load_corpus(path)
        loaded.extend(weakref.ref(doc) for doc in documents)
        return documents

    def build_index(passages, **kwargs):
        gc.collect()
        built.append(sum(ref() is not None for ref in loaded))
        return real_build_index(passages, **kwargs)

    real_load_corpus, real_build_index = cli.load_corpus, cli.build_index
    monkeypatch.setattr(cli, "load_corpus", load_corpus)
    monkeypatch.setattr(cli, "build_index", build_index)
    cmd_run(run_config(tmp_path))
    assert len(loaded) > 0
    assert built == [0]


def test_an_offline_run_loads_no_thread_pool_openssl_or_http_stack(tmp_path):
    script = (
        "import sys\n"
        "from ragfuse.cli import main\n"
        "code = main(['run', '--config', sys.argv[1], '--out', sys.argv[2], '--workers', '4'])\n"
        "heavy = ('concurrent.futures', 'hashlib', 'ssl', 'urllib.request', 'http.client')\n"
        "print(code, [name for name in heavy if name in sys.modules])\n"
    )
    done = run_python(script, str(FIXTURES / "toy_config.yaml"), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_importing_the_package_loads_none_of_its_modules():
    # Each name is imported from the module that defines it; the package used
    # to import all six modules to re-export their names.
    script = "import sys, ragfuse\nprint(sorted(m for m in sys.modules if m.startswith('ragfuse.')))\n"
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_reader_that_closes_stdout_early_ends_the_run_with_exit_1_and_no_error(tmp_path):
    # The read end is closed before the child starts writing, so its final
    # flush always meets a broken pipe. It used to print "error: [Errno 32]
    # Broken pipe" and exit 2 after a complete run.
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "out")
    child = subprocess.Popen(
        [sys.executable, "-m", "ragfuse.cli", "run", "--config", str(config_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
    )
    child.stdout.close()
    try:
        err = child.stderr.read()
    finally:
        child.stderr.close()
        child.wait(timeout=120)
    assert (child.returncode, err) == (1, b"")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"


def run_artifacts(out: Path) -> dict[str, bytes]:
    """Every file a run wrote under out, by its path there; in each manifest
    the config's out and workers are blanked."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest["config"].update(out=None, workers=None)
                data = json.dumps(manifest, sort_keys=True).encode("utf-8")
            files[str(path.relative_to(out))] = data
    return files


@pytest.mark.parametrize("backend", ["rule", "script"])
def test_an_offline_run_takes_every_question_on_the_main_thread(
    tmp_path, capsys, monkeypatch, toy_questions, backend
):
    # Under the interpreter lock a question thread overlaps nothing, so at
    # workers 2 the rule backend's run used to be slower, never faster.
    fields = {"strategies": "all"}
    if backend == "script":
        # concat abstains, so concat_pf falls back; pf:1 abstains, so distill
        # sees only some of the passages
        replies = {"concat": "unknown", "pf:1": "unknown"}
        script = tmp_path / "script.jsonl"
        script.write_text("".join(
            json.dumps({"question_id": q.question_id, "exchange_key": key,
                        "response": replies.get(key, q.gold_answers[0])}) + "\n"
            for q in toy_questions
            for key in ("concat", "pruning", "summary", "distill", "pf:0", "pf:1", "pf:2")
        ), encoding="utf-8")
        fields.update(backend="script", script=script)
    threads, place = [], cli.apply_gold_placement

    def recorded_place(*args):
        threads.append(threading.current_thread())
        return place(*args)

    monkeypatch.setattr(cli, "apply_gold_placement", recorded_place)
    runs = {}
    for workers in (1, 4):
        out = tmp_path / f"workers{workers}"
        config_path = write_config(tmp_path / "run.yaml", out=out, workers=workers, **fields)
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 0
        runs[workers] = capsys.readouterr().out.replace(str(out), "<out>"), run_artifacts(out)
    assert threads == [threading.main_thread()] * 40
    assert runs[4] == runs[1]


def usage_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("usage:")]


def test_toy_run_bills_each_distinct_exchange_once(tmp_path, capsys, monkeypatch):
    billed = []
    respond = RuleClient._respond
    monkeypatch.setattr(
        RuleClient, "_respond", lambda self, request: billed.append(request) or respond(self, request)
    )
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "out", strategies="all")
    assert main(["run", "--config", str(config_path)]) == 0
    assert len(billed) == 133
    assert sum(count_tokens(request.prompt_text) for request in billed) == 22793
    assert usage_lines(capsys) == [
        "usage: billed calls=133 prompt_tokens=22793 completion_tokens=175; "
        "attributed calls=234 prompt_tokens=33653 completion_tokens=294"
    ]
    rows = (tmp_path / "out" / "tokens.csv").read_text(encoding="utf-8").splitlines()[1:]
    columns = list(zip(*(row.split(",") for row in rows)))
    assert sum(map(int, columns[2])) == 234
    assert sum(map(int, columns[3])) == 33653


def test_an_offline_run_makes_each_call_when_a_strategy_reaches_it(tmp_path, capsys, monkeypatch):
    reached = []
    respond = RuleClient._respond
    monkeypatch.setattr(
        RuleClient, "_respond",
        lambda self, request: reached.append(request) or respond(self, request),
    )
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="pf_concat,concat"
    )
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    # nothing is sent ahead: pf_concat's distill goes out before concat's call
    q02 = [request.exchange_key for request in reached if request.question_id == "q02"]
    assert q02 == ["pf:0", "pf:1", "pf:2", "distill", "concat"]


def test_a_sentinel_ending_in_punctuation_scores_as_the_default_does(tmp_path, capsys):
    # The rule backend replies "unknown." verbatim; it used to read as an
    # answer, so every strategy scored Unk% 0.0.
    for name, sentinel in (("default", "unknown"), ("dotted", "unknown.")):
        config_path = write_config(
            tmp_path / f"{name}.yaml", out=tmp_path / name, strategies="all",
            unknown_sentinel=sentinel,
        )
        assert main(["run", "--config", str(config_path)]) == 0
    for artifact in ("report.json", "records.jsonl"):
        default = (tmp_path / "default" / artifact).read_bytes()
        assert (tmp_path / "dotted" / artifact).read_bytes() == default, artifact
    report = json.loads((tmp_path / "dotted" / "report.json").read_text(encoding="utf-8"))
    assert all(row["unknown_rate"] > 0 for row in report["strategies"])


def test_retrieval_over_non_ascii_text_matches_the_oracle_ranking(tmp_path):
    # The run indexes only its questions' terms; the toy fixture is pure ASCII.
    documents = [
        ("koln", "K\u00f6ln", "K\u00f6ln Cathedral stands on the Rhine in K\u00f6ln; caf\u00e9s line the square."),
        ("istanbul", "\u0130stanbul", "\u0130stanbul spans the Bosporus; the KELVIN scale reads 300\u212a here."),
        ("nbsp", "Na\u00efve", "na\u00efve\u00a0caf\u00e9 \u2014 stra\u00dfe\x85rhine\x1cbosporus"),
        ("plain", "Plain", "The river and the strait are both crossed by ferries every hour."),
        ("scale", "Scale", "kelvin k 300 scale reads degrees \ud7ff done"),
    ]
    questions = [
        ("q1", "which river runs through K\u00f6ln", "Rhine"),
        ("q2", "what does \u0130stanbul span", "the Bosporus"),
        ("q3", "the k\u212aelvin scale caf\u00e9", "300\u212a"),
    ]
    corpus_path, questions_path = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    corpus_path.write_text(
        "".join(json.dumps({"id": i, "title": t, "text": x}) + "\n" for i, t, x in documents),
        encoding="utf-8",
    )
    questions_path.write_text(
        "".join(json.dumps({"id": i, "question": q, "answers": [a]}) + "\n" for i, q, a in questions),
        encoding="utf-8",
    )
    config = run_config(
        tmp_path, corpus=corpus_path, questions=questions_path, strategies="concat", k=3
    )
    cmd_run(config)
    texts = {p.passage_id: p.text for p in chunk_corpus(load_corpus(corpus_path), 100)}
    traces = [json.loads(line) for line in (tmp_path / "out" / "traces.jsonl").read_text().splitlines()]
    assert [trace["question_id"] for trace in traces] == ["q1", "q2", "q3"]
    for trace, (_, question, _) in zip(traces, questions):
        assert trace["passage_ids"] == bm25_rank(texts, question)[:3], question


def test_cmd_run_sweep_produces_one_row_per_mode(tmp_path):
    config = run_config(tmp_path, strategies="concat", placement="sweep")
    reports = cmd_run(config)
    assert sorted(reports) == ["gold_bottom", "gold_top", "retrieval_order"]
    sweep_rows = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(sweep_rows) == 1 + 3  # header + one row per placement mode
    assert [row.split(",")[0] for row in sweep_rows[1:]] == [
        "retrieval_order",
        "gold_top",
        "gold_bottom",
    ]
    for mode in ("retrieval_order", "gold_top", "gold_bottom"):
        assert (tmp_path / "out" / mode / "records.jsonl").exists()


def write_rankings(tmp_path, toy_passages) -> Path:
    """A rankings file that ranks the first three toy passages for every toy question."""
    ids = [p.passage_id for p in toy_passages][:3]
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text(
        "".join(
            json.dumps({"question_id": f"q{i:02d}", "ranked_passage_ids": ids}) + "\n"
            for i in range(1, 21)
        ),
        encoding="utf-8",
    )
    return rankings


@pytest.mark.parametrize("ranked", [False, True])
def test_each_sweep_mode_writes_what_a_direct_run_at_that_mode_writes(
    tmp_path, capsys, toy_passages, ranked
):
    fields = {"rankings": write_rankings(tmp_path, toy_passages)} if ranked else {}
    cmd_run(run_config(tmp_path, strategies="all", placement="sweep", **fields))
    swept = usage_lines(capsys)
    modes = ("retrieval_order", "gold_top", "gold_bottom")
    assert len(swept) == len(modes)
    for mode, usage in zip(modes, swept):
        direct = tmp_path / "direct" / mode
        cmd_run(run_config(tmp_path, strategies="all", placement=mode, out=direct, **fields))
        # each mode bills its own calls, not a running total of the sweep
        assert usage_lines(capsys) == [usage]
        for name in ("traces.jsonl", "records.jsonl", "tokens.csv", "report.json"):
            assert (tmp_path / "out" / mode / name).read_bytes() == (direct / name).read_bytes()


@pytest.mark.parametrize("ranked", [False, True])
def test_a_sweep_loads_indexes_and_builds_its_client_once(
    tmp_path, monkeypatch, toy_passages, ranked
):
    # Each mode used to load, chunk and index the corpus and build a client
    # again, and to rank every question again.
    calls: dict[str, int] = {}

    def counted(name: str):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return call

    for name in (
        "load_corpus", "chunk_corpus", "load_questions", "build_index", "load_rankings",
        "make_client", "retrieve_top_k", "ranked_list_from_ids",
    ):
        monkeypatch.setattr(cli, name, counted(name))
    fields = {"rankings": write_rankings(tmp_path, toy_passages)} if ranked else {}
    reports = cmd_run(run_config(tmp_path, strategies="concat", placement="sweep", **fields))
    assert sorted(reports) == ["gold_bottom", "gold_top", "retrieval_order"]
    index, rank = ("load_rankings", "ranked_list_from_ids") if ranked else (
        "build_index", "retrieve_top_k"
    )
    once = ["load_corpus", "chunk_corpus", "load_questions", index, "make_client"]
    assert calls == {**dict.fromkeys(once, 1), rank: 20}  # one ranking per question


def write_scene(root: Path, title: str, text: str, question: str) -> tuple[Path, Path]:
    """A three-document corpus and two questions; the first document, its
    title and the first question text are given."""
    documents = [
        {"id": "vell", "title": title, "text": text},
        {"id": "liss", "title": "Harbor of Liss", "text": "The harbor of Liss shelters forty boats."},
        {"id": "branta", "title": "Branta", "text": "The Branta plain lies below the ridge."},
    ]
    questions = [
        {"id": "q1", "question": question, "answers": ["Doran Lethe"]},
        {"id": "q2", "question": "how many boats does the harbor of Liss shelter", "answers": ["forty"]},
    ]
    paths = root / "corpus.jsonl", root / "questions.jsonl"
    for path, rows in zip(paths, (documents, questions)):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return paths


_OBSERVATORY = "The observatory on the ridge was completed by Doran Lethe."
_WHO = "who completed the observatory on the ridge"


@pytest.mark.parametrize(
    "title, text, question, rejected",
    [
        ("Vell Observatory", f"{_OBSERVATORY} {TASK_DELIMITER}", _WHO, None),
        (TASK_DELIMITER, _OBSERVATORY, _WHO, None),
        ("Vell Observatory", _OBSERVATORY, TASK_DELIMITER, None),
        ("", _OBSERVATORY, _WHO, None),
        ("Vell\nObservatory", _OBSERVATORY, _WHO, "corpus.jsonl:1: title holds a line break"),
        ("Vell\u2028Observatory", _OBSERVATORY, _WHO, "corpus.jsonl:1: title holds a line break"),
        (
            "Vell Observatory", _OBSERVATORY, f"{_WHO}\n{TASK_DELIMITER}",
            "questions.jsonl:1: question text holds a line break",
        ),
    ],
)
def test_run_matches_the_oracle_or_rejects_text_that_would_split_a_prompt(
    tmp_path, capsys, title, text, question, rejected
):
    # Every case but the empty title used to score below the oracle on
    # concat, pruning and summary: the rule backend read the task from the
    # wrong line on, or lost the rest of a passage to a second line.
    corpus, questions = write_scene(tmp_path, title, text, question)
    config = run_config(tmp_path, corpus=corpus, questions=questions, strategies="all", k=2)
    if rejected is not None:
        with pytest.raises(CorpusError, match=rejected):
            cmd_run(config)
        return
    report = cmd_run(config)["no_gold"]
    capsys.readouterr()
    want = simulate_rule_run(corpus, questions, k=2)
    for row in report.strategies:
        assert row.em_pct == want[row.strategy]["em_pct"] == 100.0, row.strategy
        assert row.unknown_rate == want[row.strategy]["unknown_rate"], row.strategy
        assert row.no_match_rate == want[row.strategy]["no_match_rate"], row.strategy
        assert abs(row.f1_pct - want[row.strategy]["f1_pct"]) <= 1e-9, row.strategy


@pytest.mark.parametrize("command", ["run", "filter"])
@pytest.mark.parametrize(
    "alias, patterns, read",
    [
        ("unknown", [], "Unknown"),
        ("Answer: yes", [], "'yes'"),
        ("not stated in the charter", ["not stated"], "Unknown"),
    ],
)
def test_a_gold_alias_that_cannot_score_is_an_error(tmp_path, capsys, command, alias, patterns, read):
    # The rule backend replies with the alias found in a passage; at these
    # aliases that reply scored 0 EM where the oracle scores 100.
    corpus, questions = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    documents = [
        {"id": "charter", "title": "Charter", "text": f"The charter reads {alias} at its foot."},
        {"id": "liss", "title": "Liss", "text": "The harbor of Liss shelters forty boats."},
    ]
    rows = [
        {"id": "q1", "question": "what does the charter read at its foot", "answers": [alias]},
        {"id": "q2", "question": "how many boats does Liss shelter", "answers": ["forty"]},
    ]
    for path, lines in ((corpus, documents), (questions, rows)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml", corpus=corpus, questions=questions, out=tmp_path / "out",
        strategies="all", k=2, unknown_patterns=patterns,
    )
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {questions}: question 'q1': gold alias {alias!r} reads as {read} "
        "when replied verbatim, so it can never score\n"
    )
    assert not (tmp_path / "out").exists()


def test_cmd_run_with_precomputed_rankings(tmp_path, toy_questions, toy_passages):
    rankings = tmp_path / "rankings.jsonl"
    ids = [p.passage_id for p in toy_passages]
    rows = [
        {
            "question_id": q.question_id,
            "ranked_passage_ids": [q.gold_passage_id]
            + [pid for pid in ids if pid != q.gold_passage_id][:4],
        }
        for q in toy_questions
    ]
    rankings.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    config = run_config(tmp_path, strategies="concat", rankings=rankings)
    report = cmd_run(config)["no_gold"].strategies[0]
    # the provided ranking always starts with the gold passage
    assert report.em_pct == 100.0


def test_main_rejects_empty_precomputed_ranking_under_gold_placement(
    tmp_path, capsys, toy_questions
):
    rankings = tmp_path / "rankings.jsonl"
    rows = [{"question_id": q.question_id, "ranked_passage_ids": []} for q in toy_questions]
    rankings.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml",
        out=tmp_path / "out",
        strategies="concat",
        rankings=rankings,
        placement="gold_top",
    )
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-empty ranking" in err


def test_main_names_the_question_of_an_empty_ranking_under_no_gold(
    tmp_path, capsys, toy_questions, toy_passages
):
    ids = [p.passage_id for p in toy_passages][:3]
    rows = [
        {"question_id": q.question_id, "ranked_passage_ids": [] if q.question_id == "q02" else ids}
        for q in toy_questions
    ]
    assert run_with_rankings(tmp_path, rows) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "question 'q02'" in err
    assert "Traceback" not in err


def run_with_rankings(tmp_path, rows: list) -> int:
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", rankings=rankings
    )
    return main(["run", "--config", str(config_path)])


def test_main_rejects_a_ranking_that_is_not_a_list(tmp_path, capsys):
    # A bare number used to end in a TypeError traceback.
    assert run_with_rankings(tmp_path, [{"question_id": "q1", "ranked_passage_ids": 5}]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "rankings.jsonl:1: field 'ranked_passage_ids' has the wrong type" in err


def test_main_rejects_a_ranking_with_a_non_string_id(tmp_path, capsys):
    # A string used to be split into one-character ids.
    for ids in ("abc", ["mount-carvel#0", 7]):
        assert run_with_rankings(tmp_path, [{"question_id": "q1", "ranked_passage_ids": ids}]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "rankings.jsonl:1: field 'ranked_passage_ids' has the wrong type" in err


def test_main_rejects_a_rankings_row_that_is_not_an_object(tmp_path, capsys):
    assert run_with_rankings(tmp_path, [5]) == 2
    assert "rankings.jsonl:1: record is not an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault",
    [
        "no questions file", "no rankings file", "no script file", "unranked question",
        "unknown ranked id", "duplicate question id", "empty ranking",
    ],
)
def test_an_input_fault_stops_a_sweep_in_its_first_mode_with_one_error_line(
    tmp_path, capsys, toy_passages, fault
):
    # Every question is ranked before the client is built, so a ranking fault
    # stops the sweep before its first mode writes a file, as the others do.
    missing = tmp_path / "missing.jsonl"
    ids = [p.passage_id for p in toy_passages][:3]
    rows = [{"question_id": f"q{i:02d}", "ranked_passage_ids": ids} for i in range(1, 21)]
    if fault == "unranked question":
        del rows[1]
    elif fault == "unknown ranked id":
        rows[0]["ranked_passage_ids"] = ["nowhere#0", *ids[:2]]
    elif fault == "empty ranking":
        rows[4]["ranked_passage_ids"] = []
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    duplicated = tmp_path / "questions.jsonl"
    toy = (FIXTURES / "toy_questions.jsonl").read_text(encoding="utf-8")
    duplicated.write_text(toy + toy.splitlines(True)[0], encoding="utf-8")
    fields, message = {
        "no questions file": ({"questions": missing}, f"questions file not found: {missing}"),
        "no rankings file": ({"rankings": missing}, f"rankings file not found: {missing}"),
        "no script file": (
            {"backend": "script", "script": missing}, f"script file not found: {missing}"
        ),
        "unranked question": ({"rankings": rankings}, "no precomputed ranking for question 'q02'"),
        "unknown ranked id": (
            {"rankings": rankings},
            "ranked passage id 'nowhere#0' (question 'q01') is not in the corpus",
        ),
        "duplicate question id": (
            {"questions": duplicated}, f"{duplicated}:21: duplicate question id 'q01'"
        ),
        "empty ranking": (
            {"rankings": rankings},
            "question 'q05' needs a non-empty ranking, got an empty list",
        ),
    }[fault]
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", placement="sweep",
        **fields,
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("placement", ["gold_top", "sweep"])
@pytest.mark.parametrize("gold", [None, "nowhere#0"])
def test_a_gold_passage_missing_from_the_corpus_stops_the_run_before_any_call(
    tmp_path, capsys, monkeypatch, placement, gold
):
    lines = (FIXTURES / "toy_questions.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    rows[5]["gold_passage_id"] = gold  # q06
    if gold is None:
        del rows[5]["gold_passage_id"]
    questions = tmp_path / "questions.jsonl"
    questions.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    billed = []
    real_make_client = cli.make_client

    def make_client(config, questions):
        client = real_make_client(config, questions)
        billed.append(spy_backend(client))
        return client

    monkeypatch.setattr(cli, "make_client", make_client)
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", questions=questions, placement=placement
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {questions}: question 'q06': placement {placement} needs its gold passage, "
        f"but its gold_passage_id ({gold!r}) names no corpus passage\n"
    )
    assert sum(map(len, billed)) == 0
    assert not (tmp_path / "out").exists()


def test_cmd_report_reproduces_run_aggregates(tmp_path, capsys):
    config = run_config(tmp_path)
    run_report = cmd_run(config)["no_gold"]
    capsys.readouterr()
    again = cmd_report(tmp_path / "out")
    assert again == run_report
    printed = capsys.readouterr().out
    assert "strategy" in printed and "concat" in printed
    by_path = cmd_report(tmp_path / "out" / "records.jsonl")
    assert by_path == run_report


def test_cmd_report_missing_and_empty_files(tmp_path, capsys):
    with pytest.raises(ValueError, match="records file not found"):
        cmd_report(tmp_path / "nowhere.jsonl")
    empty = tmp_path / "records.jsonl"
    empty.write_text("", encoding="utf-8")
    report = cmd_report(empty)
    assert report.strategies == ()
    out = capsys.readouterr().out
    assert "strategy" in out  # headers print even with no rows


def test_main_rejects_malformed_records_rows(tmp_path, capsys):
    config = run_config(tmp_path)
    cmd_run(config)
    good = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8").splitlines()[0]
    path = tmp_path / "records.jsonl"
    bad_rows = {
        '{"question_id": "q1", "strategy": "concat"}': "missing field 'em'",
        "[1, 2]": "record is not an object",
        good.replace('"em": 1', '"em": "1"').replace('"em": 0', '"em": "0"'): "field 'em'",
    }
    for bad, message in bad_rows.items():
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ")
        assert message in err


def test_main_rejects_a_corrupt_response_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"key": "a"\n{"key": "b"}\n', encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml",
        out=tmp_path / "out",
        strategies="concat",
        backend="live",
        endpoint="http://127.0.0.1:9/v1/chat/completions",
        model="m",
        cache=cache,
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cache}:1: unreadable cache entry")


_LIVE = {"backend": "live", "endpoint": "http://127.0.0.1:9/v1/chat/completions", "model": "m"}


@pytest.mark.parametrize(
    "name, row, message",
    [
        ("corpus", {"id": "d1", "title": None, "text": "a"}, "field 'title' has the wrong type"),
        ("corpus", {"id": "d1", "title": "t", "text": None}, "field 'text' has the wrong type"),
        ("corpus", {"id": None, "title": "t", "text": "a"}, "field 'id' has the wrong type"),
        ("corpus", {"id": 1, "title": "t", "text": "a"}, "field 'id' has the wrong type"),
        (
            "questions",
            {"id": None, "question": "q", "answers": ["a"]},
            "field 'id' has the wrong type",
        ),
        (
            "questions",
            {"id": 1, "question": "q", "answers": ["a"]},
            "field 'id' has the wrong type",
        ),
        ("script", 5, "record is not an object"),
        ("script", "s", "record is not an object"),
        (
            "script",
            {"question_id": "q1", "exchange_key": "concat", "response": None},
            "field 'response' has the wrong type",
        ),
        (
            "rankings",
            {"question_id": None, "ranked_passage_ids": ["d#0"]},
            "field 'question_id' has the wrong type",
        ),
        (
            "cache",
            {"key": "k", "text": None, "prompt_tokens": 1, "completion_tokens": 1},
            "unreadable cache entry: field 'text' has the wrong type",
        ),
        (
            "cache",
            {"key": "k", "text": "t", "prompt_tokens": "12", "completion_tokens": 1},
            "unreadable cache entry: field 'prompt_tokens' has the wrong type",
        ),
        (
            "cache",
            {"key": "k", "text": "t", "prompt_tokens": 1, "completion_tokens": "12"},
            "unreadable cache entry: field 'completion_tokens' has the wrong type",
        ),
    ],
)
def test_main_rejects_a_mistyped_input_row(tmp_path, capsys, name, row, message):
    # A str() or int() coercion used to load each of these, or a traceback ended the run.
    path = tmp_path / f"{name}.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    backend = {"script": {"backend": "script"}, "cache": _LIVE}.get(name, {})
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", **backend, **{name: path}
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: {message}\n"


class FlakyEndpoint:
    """Fake live transport answering with the rule backend; once it has
    answered fail_after requests it refuses every later one with HTTP 400."""

    def __init__(self, fail_after: int | None = None) -> None:
        self.fail_after = fail_after
        self.answered: list[str] = []
        self._rule = RuleClient(load_questions(FIXTURES / "toy_questions.jsonl"))
        self._lock = threading.Lock()

    def __call__(self, payload: dict) -> tuple[int, dict]:
        with self._lock:
            if self.fail_after is not None and len(self.answered) >= self.fail_after:
                return 400, {}
            self.answered.append(ResponseCache.key_for(payload))
        prompt = payload["messages"][0]["content"]
        text = self._rule.complete(CompletionRequest(prompt_text=prompt)).text
        return 200, {"choices": [{"message": {"content": text}}]}


def live_run(root: Path, endpoint: FlakyEndpoint, workers: int, out: str) -> tuple[int, str]:
    """The exit code and the printed usage line ("" if none)."""
    config_path = write_config(
        root / "run.yaml", out=root / out, strategies="all", cache=root / "cache.jsonl",
        workers=workers, **_LIVE,
    )
    with (
        mock.patch.object(llm, "_http_transport", lambda *args: endpoint),
        redirect_stdout(io.StringIO()) as printed,
    ):
        code = main(["run", "--config", str(config_path)])
    # A failed run returns only once its other workers have finished.
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    usage = [line for line in printed.getvalue().splitlines() if line.startswith("usage:")]
    return code, "".join(usage)


@pytest.mark.parametrize("command", ["run", "filter"])
def test_the_configs_reply_cap_reaches_every_live_payload(tmp_path, capsys, command):
    endpoint, caps = FlakyEndpoint(), []

    def transport(payload: dict) -> tuple[int, dict]:
        caps.append(payload["max_tokens"])
        return endpoint(payload)

    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="all", max_response_tokens=7,
        **_LIVE,
    )
    with mock.patch.object(llm, "_http_transport", lambda *args: transport):
        assert main([command, "--config", str(config_path)]) == 0
    assert len(caps) == len(endpoint.answered) > 0
    assert set(caps) == {7}


@cache
def uninterrupted_live_run() -> tuple[tuple[str, ...], bytes, str]:
    with tempfile.TemporaryDirectory() as tmp:
        endpoint = FlakyEndpoint()
        code, usage = live_run(Path(tmp), endpoint, 1, "out")
        assert code == 0 and usage.startswith("usage: billed calls=")
        records = (Path(tmp) / "out" / "records.jsonl").read_bytes()
        return tuple(endpoint.answered), records, usage


@settings(max_examples=25, deadline=None)
@given(fail_after=st.integers(min_value=0, max_value=140), workers=st.sampled_from([1, 2]))
def test_resumed_live_run_sends_each_distinct_payload_once(fail_after, workers):
    full, records, usage = uninterrupted_live_run()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        first, resumed = FlakyEndpoint(fail_after), FlakyEndpoint()
        interrupted = fail_after < len(full)
        assert live_run(root, first, workers, "first")[0] == (2 if interrupted else 0)
        # the resumed run bills its cache hits too, so it bills what one
        # uninterrupted run bills
        assert live_run(root, resumed, workers, "resumed") == (0, usage)
        sent = first.answered + resumed.answered
        assert len(first.answered) == min(fail_after, len(full))
        assert sorted(sent) == sorted(full)
        assert (root / "resumed" / "records.jsonl").read_bytes() == records


def test_a_live_filter_names_its_failed_probe_and_resumes_from_its_cache(tmp_path, capsys):
    config_path = write_config(tmp_path / "run.yaml", cache=tmp_path / "cache.jsonl", **_LIVE)

    def live_filter(endpoint: FlakyEndpoint, out: str) -> int:
        with mock.patch.object(llm, "_http_transport", lambda *args: endpoint):
            return main(["filter", "--config", str(config_path), "--out", str(tmp_path / out)])

    full = FlakyEndpoint()
    assert live_filter(full, "full") == 0
    (tmp_path / "cache.jsonl").unlink()
    first, resumed = FlakyEndpoint(fail_after=5), FlakyEndpoint()
    assert live_filter(first, "first") == 2
    err = capsys.readouterr().err
    assert err == "error: question q06 (closed_book): HTTP 400 from completion endpoint: {}\n"
    assert live_filter(resumed, "resumed") == 0
    assert len(first.answered) == 5 and len(resumed.answered) == 15
    assert sorted(first.answered + resumed.answered) == sorted(full.answered)
    for name in ("kept.jsonl", "removed.jsonl", "filter.json"):
        assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


class GatedEndpoint:
    """Fake live transport answering with the rule backend, refusing with
    HTTP 400 each prompt that holds all of ``refuse``. It records every
    prompt and the peak number of calls in flight. The first calls hold until
    ``fill`` are in flight at once, or a second has passed, so that a run
    which can overlap calls does so whatever the thread timing."""

    def __init__(self, fill: int, refuse: tuple[str, ...] = ()) -> None:
        self.fill = fill
        self.refuse = refuse
        self.prompts: list[str] = []
        self.inflight = self.peak = 0
        self._filled = threading.Event()
        self._lock = threading.Lock()
        self._rule = RuleClient(load_questions(FIXTURES / "toy_questions.jsonl"))

    def __call__(self, payload: dict) -> tuple[int, dict]:
        prompt = payload["messages"][0]["content"]
        with self._lock:
            self.prompts.append(prompt)
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            if self.inflight >= self.fill:
                self._filled.set()
        if not self._filled.wait(timeout=1.0):
            self._filled.set()  # a run that cannot overlap calls waits once
        try:
            if self.refuse and all(part in prompt for part in self.refuse):
                return 400, {}
            text = self._rule.complete(CompletionRequest(prompt_text=prompt)).text
            return 200, {"choices": [{"message": {"content": text}}]}
        finally:
            with self._lock:
                self.inflight -= 1


def gated_live_run(root: Path, endpoint: GatedEndpoint, capsys, **fields) -> tuple[int, str, str]:
    """(exit code, stdout with the out path blanked, stderr) of a live run on
    the toy fixture at k 5 into root / "out"; no pool thread outlives it."""
    fields = {"k": 5, "strategies": "all", "cache": root / "cache.jsonl", **_LIVE, **fields}
    root.mkdir(exist_ok=True)
    config_path = write_config(root / "run.yaml", out=root / "out", **fields)
    with mock.patch.object(llm, "_http_transport", lambda *args: endpoint):
        code = main(["run", "--config", str(config_path)])
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    captured = capsys.readouterr()
    return code, captured.out.replace(str(root / "out"), "<out>"), captured.err


@pytest.mark.parametrize("workers", [1, 2])
def test_a_live_run_sends_a_questions_first_round_at_once(tmp_path, capsys, workers):
    endpoint = GatedEndpoint(fill=4)
    assert gated_live_run(tmp_path, endpoint, capsys, workers=workers, max_in_flight=4)[0] == 0
    # 8 first-round calls a question at k 5 fill the gate, and never overflow it
    assert endpoint.peak == 4


def test_workers_run_at_most_a_window_of_questions_ahead_of_the_writer(tmp_path, monkeypatch):
    # The pool used to take every question at once, so behind a slow writer
    # finished questions piled up in memory. Only a live run has the pool.
    workers = 2
    lock = threading.Lock()
    started, written, ahead = [0], [0], []
    place, to_dict = cli.apply_gold_placement, cli.record_to_dict

    def counted_place(*args):
        with lock:
            started[0] += 1
            ahead.append(started[0] - written[0])
        return place(*args)

    def slow_to_dict(record):
        time.sleep(0.01)
        with lock:
            written[0] += 1
        return to_dict(record)

    monkeypatch.setattr(cli, "apply_gold_placement", counted_place)
    monkeypatch.setattr(cli, "record_to_dict", slow_to_dict)
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", workers=workers, **_LIVE
    )
    with mock.patch.object(llm, "_http_transport", lambda *args: FlakyEndpoint()):
        assert main(["run", "--config", str(config_path)]) == 0
    assert started[0] == written[0] == 20
    assert 1 < max(ahead) <= 2 * workers


@pytest.mark.parametrize("strategies", ["all", "pf_concat,concat"])
def test_sending_ahead_leaves_every_artifact_and_the_printed_lines_unchanged(
    tmp_path, capsys, strategies
):
    runs = {}
    for in_flight in (1, 4):
        endpoint = GatedEndpoint(fill=in_flight)
        root = tmp_path / str(in_flight)
        code, out, err = gated_live_run(
            root, endpoint, capsys, strategies=strategies, max_in_flight=in_flight
        )
        assert (code, err, endpoint.peak) == (0, "", in_flight)
        files = {
            name: (root / "out" / name).read_bytes()
            for name in (
                "traces.jsonl", "exchanges.jsonl", "records.jsonl", "tokens.csv", "report.json",
                "report.csv",
            )
        }
        runs[in_flight] = (out, files, sorted(endpoint.prompts))
    assert runs[1] == runs[4]
    assert "usage: billed calls=" in runs[4][0]


def refuse_with_a_reset(payload: dict) -> tuple[int, dict]:
    raise ConnectionResetError(errno.ECONNRESET, os.strerror(errno.ECONNRESET))


@pytest.mark.parametrize("fault", ["transport", "cache"])
def test_a_failed_call_with_an_errno_prints_its_question_and_exchange(tmp_path, capsys, fault):
    # An OSError prints its errno and strerror, not its args, so a prefix
    # written into its args would leave a bare "error: [Errno ...]" line.
    cache = tmp_path / "cache.jsonl"
    if fault == "transport":
        endpoint = refuse_with_a_reset
        reason = f"[Errno {errno.ECONNRESET}] {os.strerror(errno.ECONNRESET)}"
    else:
        endpoint = FlakyEndpoint()
        (tmp_path / "file").write_text("", encoding="utf-8")
        cache = tmp_path / "file" / "cache.jsonl"  # cannot be made: its parent is a file
        reason = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(cache.parent)!r}"
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat", cache=cache, **_LIVE
    )
    with mock.patch.object(llm, "_http_transport", lambda *args: endpoint):
        assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: question q01 (concat): {reason}\n"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["error"] == err[len("error: "):-1]


def test_a_failed_first_round_call_ends_the_run_with_the_error_of_a_call_made_in_turn(
    tmp_path, capsys
):
    # q01's pruning call is refused; its summary call comes after it
    pruning = ("Irrelevant passages:", "how tall is mount carvel")
    endpoint = GatedEndpoint(fill=4, refuse=pruning)
    code, _, err = gated_live_run(tmp_path, endpoint, capsys, max_in_flight=4)
    assert code == 2
    assert err == "error: question q01 (pruning): HTTP 400 from completion endpoint: {}\n"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["error"] == err[len("error: "):-1]
    # q01's whole first round went out, the summary call after the refused
    # one too, and no call of a later round
    q01 = [p for p in endpoint.prompts if "how tall is mount carvel" in p]
    assert len(q01) == 8
    assert any(p.startswith("Answer the question using the numbered passages. First write") for p in q01)


def test_format_report_has_one_line_per_strategy(tmp_path):
    config = run_config(tmp_path)
    report = cmd_run(config)["no_gold"]
    lines = format_report(report).splitlines()
    assert len(lines) == 1 + 2
    assert lines[0].split()[:2] == ["strategy", "n"]


def test_main_runs_subcommands(tmp_path, capsys):
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat"
    )
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["report", str(tmp_path / "out")]) == 0
    with pytest.raises(SystemExit) as exited:
        main(["index", "--config", str(config_path)])
    assert exited.value.code == 2
    capsys.readouterr()


def test_crashed_run_keeps_the_completed_rows_and_a_failed_manifest(tmp_path, capsys):
    questions = tmp_path / "questions.jsonl"
    questions.write_text(
        "".join(
            json.dumps({"id": qid, "question": text, "answers": ["Paris"]}) + "\n"
            for qid, text in (("q1", "where is the tower"), ("q2", "where is the bridge"))
        ),
        encoding="utf-8",
    )
    # responses for every exchange of q1 and none for q2
    keys = ["concat", "pf:0", "pf:1", "pf:2", "pruning", "summary", "distill"]
    script = tmp_path / "script.jsonl"
    script.write_text(
        "".join(
            json.dumps({"question_id": "q1", "exchange_key": key, "response": "Paris"}) + "\n"
            for key in keys
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    config_path = write_config(
        tmp_path / "run.yaml",
        questions=questions,
        backend="script",
        script=script,
        out=out,
        strategies="all",
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "failed"
    assert "'q2'" in manifest["error"]
    for name in ("traces.jsonl", "records.jsonl"):
        rows = [json.loads(line) for line in (out / name).read_text().splitlines()]
        assert [row["question_id"] for row in rows] == ["q1"] * 6
    tokens = (out / "tokens.csv").read_text(encoding="utf-8").splitlines()
    assert tokens[0] == "strategy,question_id,calls,prompt_tokens,completion_tokens"
    assert [row.split(",")[1] for row in tokens[1:]] == ["q1"] * 6


def test_an_interrupted_run_leaves_a_failed_manifest(tmp_path, monkeypatch):
    respond, reached, lock = RuleClient._respond, [], threading.Lock()

    def interrupted(self, request):
        with lock:
            reached.append(request)
            if len(reached) == 30:
                raise KeyboardInterrupt
        return respond(self, request)

    monkeypatch.setattr(RuleClient, "_respond", interrupted)
    out = tmp_path / "out"
    config_path = write_config(tmp_path / "run.yaml", out=out, strategies="all")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(config_path)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # an interrupt has no text, so its class names it
    assert (manifest["status"], manifest["error"]) == ("failed", "KeyboardInterrupt")
    assert len((out / "records.jsonl").read_text(encoding="utf-8").splitlines()) < 120


class _SignallingHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = payload["messages"][0]["content"]
        with server.lock:
            server.prompts.append(prompt)
            count = len(server.prompts) - server.armed_at
            hit = server.child is not None and server.at(count, prompt)
            if hit:
                server.child.send_signal(server.signum)
                server.child = None
        if hit and not server.reply:
            return
        text = server.rule.complete(CompletionRequest(prompt_text=prompt)).text
        body = json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class SignallingEndpoint(http.server.ThreadingHTTPServer):
    """A loopback live endpoint answering with the rule backend on the toy
    questions; ``prompts`` holds every request's prompt. Once armed, it sends
    ``signum`` to the child process on the first request for which
    ``at(count, prompt)`` holds, counting from 1 at the arming, then answers
    that request, or with ``reply`` false leaves it unanswered."""

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _SignallingHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"
        self.lock = threading.Lock()
        self.rule = RuleClient(load_questions(FIXTURES / "toy_questions.jsonl"))
        self.prompts: list[str] = []
        self.child, self.armed_at = None, 0

    def arm(self, child: subprocess.Popen, signum: int, at, reply: bool) -> None:
        with self.lock:
            self.armed_at = len(self.prompts)
            self.child, self.signum, self.at, self.reply = child, signum, at, reply

    def handle_error(self, request, client_address):
        pass  # a reply to a killed child finds its connection gone


class LiveToy(NamedTuple):
    endpoint: SignallingEndpoint
    argv: list[str]
    out: Path
    cache_path: Path
    artifacts: dict[str, bytes]
    cached: list[str]
    sent: int  # the requests of an uninterrupted run, each distinct
    in_flight: int  # the most requests the command has on the wire at once


# Each form of the toy live command: the command and its config fields. filter
# sends one probe at a time, whatever max_in_flight says.
_LIVE_TOYS = {
    "workers2": ("run", {"workers": 2}),
    "workers1": ("run", {"workers": 1}),
    "sweep": ("run", {"workers": 2, "placement": "sweep"}),
    "filter": ("filter", {}),
}


@pytest.fixture(scope="module")
def live_toys(tmp_path_factory):
    """Gives each form of _LIVE_TOYS on the toy fixture (no_gold, k 3, every
    strategy) on the live backend against one SignallingEndpoint, at
    max_in_flight 2, with a cache; with the artifacts and sorted cache lines of
    one uninterrupted run of it, made the first time the form is asked for."""
    root = tmp_path_factory.mktemp("live_toy")
    server = SignallingEndpoint()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    made: dict[str, LiveToy] = {}

    def live_toy(form: str) -> LiveToy:
        if form not in made:
            command, fields = _LIVE_TOYS[form]
            (root / form).mkdir()
            out, cache_path = root / form / "out", root / form / "cache.jsonl"
            config_path = write_config(
                root / form / "run.yaml", out=out, strategies="all", backend="live",
                endpoint=server.url, model="m", max_in_flight=2, cache=cache_path, **fields,
            )
            argv = [command, "--config", str(config_path)]
            sent_before = len(server.prompts)
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            sent = server.prompts[sent_before:]
            assert len(set(sent)) == len(sent)  # each distinct request once
            cached = sorted(cache_path.read_text(encoding="utf-8").splitlines())
            made[form] = LiveToy(
                server, argv, out, cache_path, run_artifacts(out), cached, len(sent),
                1 if command == "filter" else 2,
            )
        return made[form]

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("no_proxy", "127.0.0.1")  # the children inherit it
        yield live_toy
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def run_killed(toy: LiveToy, signum: int, at, reply: bool) -> tuple[int, str]:
    """Run the toy's command in a child that the endpoint signals; its exit code and stderr."""
    child = subprocess.Popen(
        [sys.executable, "-m", "ragfuse.cli", *toy.argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=checkout_env(), text=True,
    )
    toy.endpoint.arm(child, signum, at, reply)
    try:
        err = child.communicate(timeout=120)[1]
    finally:
        child.kill()
    assert toy.endpoint.child is None, "the endpoint never signalled the child"
    return child.returncode, err


def at_request(n: int):
    return lambda count, prompt: count == n


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_killed_rerun_leaves_no_complete_manifest_or_stale_report(live_toys, signum):
    # A rerun into a finished run's out used to leave its complete manifest
    # and full report beside the rerun's partial rows.
    live_toy = live_toys("workers2")
    assert live_toy.sent == 133
    with redirect_stdout(io.StringIO()):  # a finished run's out
        assert main(live_toy.argv) == 0
    live_toy.cache_path.unlink()  # so that the rerun sends its calls again
    code, err = run_killed(live_toy, signum, at_request(40), reply=True)
    out = live_toy.out
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert len((out / "records.jsonl").read_text(encoding="utf-8").splitlines()) < 120
    if signum == signal.SIGKILL:
        assert code == -signal.SIGKILL
        assert (manifest["status"], manifest["error"]) == ("running", None)
        assert not (out / "report.json").exists() and not (out / "report.csv").exists()
    else:
        assert (code, err) == (143, "error: terminated by SIGTERM\n")
        assert (manifest["status"], manifest["error"]) == ("failed", "terminated by SIGTERM")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert all(row["num_questions"] < 20 for row in report["strategies"])


def _is_distill(prompt: str) -> bool:
    return "\nCandidates: " in prompt


def kill_at(point: str, sent: int):
    """The endpoint's trigger for a kill at ``point`` of a command that sends
    ``sent`` requests uninterrupted."""
    middle = min(40, sent // 2)
    return {
        "first": at_request(1),
        # With every strategy configured, each call of a run but distill is first-round.
        "middle": lambda count, prompt: count >= middle and not _is_distill(prompt),
        "distill": lambda count, prompt: count >= middle and _is_distill(prompt),
        "last": at_request(sent),
    }[point]


@pytest.mark.parametrize(
    "form, point, torn",
    [
        pytest.param(form, point, torn, id=f"{form}-{point}" + "_torn_row" * torn)
        for form, torn_at in (
            ("workers2", "distill"), ("workers1", "distill"), ("sweep", "distill"),
            ("filter", "middle"),  # a probe has no distill
        )
        for point, torn in (
            ("first", False), ("middle", False), ("distill", False), (torn_at, True),
            ("last", False),
        )
        if form != "filter" or point != "distill"
    ],
)
def test_a_killed_live_run_resumes_without_paying_twice(live_toys, form, point, torn):
    live_toy = live_toys(form)
    shutil.rmtree(live_toy.out, ignore_errors=True)
    live_toy.cache_path.unlink(missing_ok=True)
    sent_before = len(live_toy.endpoint.prompts)
    code, _ = run_killed(live_toy, signal.SIGKILL, kill_at(point, live_toy.sent), reply=False)
    assert code == -signal.SIGKILL
    if torn:  # what a kill in the middle of an append leaves
        with live_toy.cache_path.open("a", encoding="utf-8") as handle:
            handle.write('{"completion_tokens": 1, "key": "')
    resumed = subprocess.run(
        [sys.executable, "-m", "ragfuse.cli", *live_toy.argv],
        capture_output=True, env=checkout_env(), text=True, timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    # At most the calls on the wire at the kill are paid twice.
    sent = len(live_toy.endpoint.prompts) - sent_before
    assert sent <= live_toy.sent + live_toy.in_flight
    assert run_artifacts(live_toy.out) == live_toy.artifacts
    cached = sorted(live_toy.cache_path.read_text(encoding="utf-8").splitlines())
    assert cached == live_toy.cached


def test_main_reports_errors_with_exit_code_2(tmp_path, capsys):
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "out", k=50)
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "model input budget" in err
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2


@pytest.mark.parametrize("command", ["run", "filter"])
@pytest.mark.parametrize(
    "endpoint", ["localhost:8000/v1", "http:///v1/chat/completions", "file:///etc/hosts", "ftp://h/x"]
)
def test_live_run_rejects_a_non_http_endpoint_before_any_request(
    tmp_path, capsys, endpoint, command
):
    # Checked before any file is loaded: the corpus and the questions here
    # would each be an error of their own.
    for name in ("corpus.jsonl", "questions.jsonl"):
        (tmp_path / name).write_text('{"id": 1}\n', encoding="utf-8")
    config_path = write_config(
        tmp_path / "run.yaml", out=tmp_path / "out", strategies="concat",
        corpus=tmp_path / "corpus.jsonl", questions=tmp_path / "questions.jsonl",
        **{**_LIVE, "endpoint": endpoint},
    )
    refuse = mock.patch.object(llm.LiveClient, "_send_with_retries", side_effect=AssertionError)
    with refuse as sent:
        assert main([command, "--config", str(config_path)]) == 2
    assert not sent.called and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (
        f"error: endpoint must be an http:// or https:// URL with a host: {endpoint!r}\n"
    )


def test_main_override_flags_reach_the_run(tmp_path):
    config_path = write_config(tmp_path / "run.yaml", out=tmp_path / "ignored", strategies="concat")
    out = tmp_path / "actual"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--k", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["k"] == 2
    assert not (tmp_path / "ignored").exists()


def test_bundled_demo_config_loads(tmp_path):
    config = load_config(FIXTURES / "toy_config.yaml")
    assert config.k == 3
    assert config.backend == "rule"
    assert len(config.strategies) == 6
