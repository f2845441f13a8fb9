"""Typed JSONL input rows, corpus and question loading, passage chunking."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, get_args, get_origin


class CorpusError(ValueError):
    """Raised for a malformed input file or row."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str


@dataclass(frozen=True)
class Passage:
    passage_id: str
    title: str
    text: str


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str
    gold_answers: tuple[str, ...]
    gold_passage_id: str | None = None

    def __post_init__(self) -> None:
        if not self.gold_answers:
            raise CorpusError(f"question {self.question_id!r} has no gold answers")


def check_max_passage_words(max_passage_words: int) -> None:
    """A passage holds at least one word."""
    if max_passage_words < 1:
        raise ValueError(f"max_passage_words must be >= 1, got {max_passage_words}")


def chunk_document(doc: Document, max_passage_words: int) -> list[Passage]:
    """Split a document into consecutive passages of at most max_passage_words words.

    Words are whitespace-delimited. Every passage except possibly the last
    holds exactly max_passage_words words; together they partition the
    document's word sequence. Passage ids are "<doc_id>#<chunk_index>".
    """
    check_max_passage_words(max_passage_words)
    words = doc.body.split()
    passages = []
    for index, start in enumerate(range(0, len(words), max_passage_words)):
        passages.append(
            Passage(
                passage_id=f"{doc.doc_id}#{index}",
                title=doc.title,
                text=" ".join(words[start : start + max_passage_words]),
            )
        )
    return passages


def chunk_corpus(documents: list[Document], max_passage_words: int) -> list[Passage]:
    """Chunk every document, preserving document order."""
    passages: list[Passage] = []
    for doc in documents:
        passages.extend(chunk_document(doc, max_passage_words))
    return passages


def _value_types(hint: object) -> tuple[type, ...]:
    """The parsed JSON or YAML value types that fill a field with this type
    hint: a path is written as a string and an int is a valid float."""
    if get_origin(hint) is list:
        return (list,)
    if get_args(hint):
        return tuple(t for arg in get_args(hint) for t in _value_types(arg))
    if hint is Path:
        return (str,)
    if hint is float:
        return (int, float)
    return (hint,)


def _fits(value: object, types: tuple[type, ...]) -> bool:
    """isinstance, except that a bool is no number and a list holds strings."""
    if isinstance(value, bool) and bool not in types:
        return False
    if isinstance(value, list) and not all(isinstance(item, str) for item in value):
        return False
    return isinstance(value, types)


# Row types: field name -> the JSON value types it takes.
RowTypes = Mapping[str, tuple[type, ...]]


def check_row(line: bytes, types: RowTypes, where: str, optional: tuple[str, ...] = ()) -> dict:
    """Parse one JSONL line into an object holding every field of types,
    each of its type; only the optional fields may be absent. Faults raise
    CorpusError prefixed by where."""
    try:
        row = json.loads(line)
    except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
        raise CorpusError(f"{where}: invalid JSON ({e})") from e
    if not isinstance(row, dict):
        raise CorpusError(f"{where}: record is not an object")
    for name, allowed in types.items():
        if name not in row:
            if name not in optional:
                raise CorpusError(f"{where}: missing field {name!r}")
        elif not _fits(row[name], allowed):
            raise CorpusError(f"{where}: field {name!r} has the wrong type")
    return row


def read_rows(
    path: str | Path, types: RowTypes, optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, checked row) for each non-blank line of a JSONL file."""
    with Path(path).open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, check_row(line, types, f"{path}:{lineno}", optional)


_STR = (str,)
_DOCUMENT_ROW = {"id": _STR, "title": _STR, "text": _STR}
_QUESTION_ROW = {
    "id": _STR, "question": _STR, "answers": (list,), "gold_passage_id": (str, type(None))
}


def breaks_line(text: str) -> bool:
    """Whether text holds a character on which str.splitlines breaks. Prompts
    give each title and question one line, so such a character would split it."""
    return "".join(text.splitlines()) != text


def load_corpus(path: str | Path) -> list[Document]:
    """Load documents from a JSONL file with fields {id, title, text}."""
    documents = []
    seen: set[str] = set()
    for lineno, row in read_rows(path, _DOCUMENT_ROW):
        if breaks_line(row["title"]):
            raise CorpusError(f"{path}:{lineno}: title holds a line break")
        if row["id"] in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate document id {row['id']!r}")
        seen.add(row["id"])
        documents.append(Document(doc_id=row["id"], title=row["title"], body=row["text"]))
    return documents


def load_questions(path: str | Path) -> list[Question]:
    """Load questions from a JSONL file with fields
    {id, question, answers: [string], gold_passage_id?}."""
    questions = []
    seen: set[str] = set()
    for lineno, row in read_rows(path, _QUESTION_ROW, optional=("gold_passage_id",)):
        if not row["question"].strip():
            raise CorpusError(f"{path}:{lineno}: question text is blank")
        if breaks_line(row["question"]):
            raise CorpusError(f"{path}:{lineno}: question text holds a line break")
        if not row["answers"]:
            raise CorpusError(f"{path}:{lineno}: answers must be a non-empty list")
        if not all(answer.strip() for answer in row["answers"]):
            raise CorpusError(f"{path}:{lineno}: an answer is blank")
        if row["id"] in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate question id {row['id']!r}")
        seen.add(row["id"])
        questions.append(
            Question(row["id"], row["question"], tuple(row["answers"]), row.get("gold_passage_id"))
        )
    return questions
