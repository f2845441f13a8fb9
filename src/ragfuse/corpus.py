"""Corpus loading and fixed-size passage chunking."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class CorpusError(ValueError):
    """Raised for malformed corpus or question files."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str


@dataclass(frozen=True)
class Passage:
    passage_id: str
    doc_id: str
    title: str
    text: str
    word_count: int


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str
    gold_answers: tuple[str, ...]
    gold_passage_id: str | None = None

    def __post_init__(self) -> None:
        if not self.gold_answers:
            raise CorpusError(f"question {self.question_id!r} has no gold answers")


def chunk_document(doc: Document, max_words: int) -> list[Passage]:
    """Split a document into consecutive passages of at most max_words words.

    Words are whitespace-delimited. Every passage except possibly the last
    holds exactly max_words words; together they partition the document's
    word sequence. Passage ids are "<doc_id>#<chunk_index>".
    """
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    words = doc.body.split()
    passages = []
    for index, start in enumerate(range(0, len(words), max_words)):
        chunk = words[start : start + max_words]
        passages.append(
            Passage(
                passage_id=f"{doc.doc_id}#{index}",
                doc_id=doc.doc_id,
                title=doc.title,
                text=" ".join(chunk),
                word_count=len(chunk),
            )
        )
    return passages


def chunk_corpus(documents: list[Document], max_words: int) -> list[Passage]:
    """Chunk every document, preserving document order."""
    passages: list[Passage] = []
    for doc in documents:
        passages.extend(chunk_document(doc, max_words))
    return passages


def _read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """Read a JSON-lines file, returning (line_number, record) pairs."""
    rows = []
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            if not isinstance(record, dict):
                raise CorpusError(f"{path}:{lineno}: record is not an object")
            rows.append((lineno, record))
    return rows


def _require(record: dict, key: str, path: str | Path, lineno: int) -> object:
    if key not in record:
        raise CorpusError(f"{path}:{lineno}: missing field {key!r}")
    return record[key]


def load_corpus(path: str | Path) -> list[Document]:
    """Load documents from a JSONL file with fields {id, title, text}."""
    documents = []
    seen: set[str] = set()
    for lineno, record in _read_jsonl(path):
        doc_id = str(_require(record, "id", path, lineno))
        title = str(_require(record, "title", path, lineno))
        text = str(_require(record, "text", path, lineno))
        if doc_id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        documents.append(Document(doc_id=doc_id, title=title, body=text))
    return documents


def load_questions(path: str | Path) -> list[Question]:
    """Load questions from a JSONL file with fields
    {id, question, answers: [string], gold_passage_id?}."""
    questions = []
    seen: set[str] = set()
    for lineno, record in _read_jsonl(path):
        question_id = str(_require(record, "id", path, lineno))
        text = _require(record, "question", path, lineno)
        if text is None or not str(text).strip():
            raise CorpusError(f"{path}:{lineno}: question text is blank")
        answers = _require(record, "answers", path, lineno)
        if not isinstance(answers, list) or not answers:
            raise CorpusError(f"{path}:{lineno}: answers must be a non-empty list")
        if any(a is None or not str(a).strip() for a in answers):
            raise CorpusError(f"{path}:{lineno}: an answer is null or blank")
        if question_id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate question id {question_id!r}")
        seen.add(question_id)
        gold_passage_id = record.get("gold_passage_id")
        questions.append(
            Question(
                question_id=question_id,
                text=str(text),
                gold_answers=tuple(str(a) for a in answers),
                gold_passage_id=None if gold_passage_id is None else str(gold_passage_id),
            )
        )
    return questions
