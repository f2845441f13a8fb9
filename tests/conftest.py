"""Shared fixtures: the bundled toy corpus and small object factories."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import ragfuse
from ragfuse.corpus import Passage, Question, chunk_corpus, load_corpus, load_questions
from ragfuse.retriever import build_index

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def toy_corpus_path() -> Path:
    return FIXTURES / "toy_corpus.jsonl"


@pytest.fixture(scope="session")
def toy_questions_path() -> Path:
    return FIXTURES / "toy_questions.jsonl"


@pytest.fixture(scope="session")
def toy_documents(toy_corpus_path):
    return load_corpus(toy_corpus_path)


@pytest.fixture(scope="session")
def toy_questions(toy_questions_path):
    return load_questions(toy_questions_path)


@pytest.fixture(scope="session")
def toy_passages(toy_documents):
    return chunk_corpus(toy_documents, 100)


@pytest.fixture(scope="session")
def toy_index(toy_passages):
    return build_index(toy_passages)


def make_passage(pid: str, text: str, title: str = "") -> Passage:
    return Passage(
        passage_id=pid,
        title=title or pid.split("#")[0].replace("-", " ").title(),
        text=text,
    )


def make_question(
    qid: str, text: str, answers: tuple[str, ...], gold: str | None = None
) -> Question:
    return Question(question_id=qid, text=text, gold_answers=answers, gold_passage_id=gold)


def spy_backend(client) -> list:
    """Record each request that reaches the client's backend (its _respond)."""
    reached = []
    respond = client._respond
    client._respond = lambda request: reached.append(request) or respond(request)
    return reached


def write_config(path: Path, **fields) -> Path:
    """Write a YAML run config; corpus/questions default to the toy fixture."""
    config = {
        "corpus": str(FIXTURES / "toy_corpus.jsonl"),
        "questions": str(FIXTURES / "toy_questions.jsonl"),
        "backend": "rule",
        "k": 3,
        "model_input_budget": 2048,
        "seed": 7,
    }
    config.update(fields)
    for key in ("out", "corpus", "questions", "script", "rankings", "cache"):
        if key in config and config[key] is not None:
            config[key] = str(config[key])
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def checkout_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's ragfuse."""
    src = str(Path(ragfuse.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this checkout's ragfuse."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=checkout_env(), capture_output=True, text=True, timeout=120,
    )
