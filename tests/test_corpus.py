"""Tests for document loading and fixed-size passage chunking."""

import json

import pytest

from ragfuse.corpus import (
    CorpusError,
    Document,
    Question,
    chunk_corpus,
    chunk_document,
    load_corpus,
    load_questions,
)
from ragfuse.retriever import RetrievalConfig


def doc(doc_id: str, words: int) -> Document:
    return Document(doc_id=doc_id, title=doc_id, body=" ".join(f"w{i}" for i in range(words)))


def test_chunk_250_words_makes_100_100_50():
    passages = chunk_document(doc("d", 250), 100)
    assert [len(p.text.split()) for p in passages] == [100, 100, 50]
    assert [p.passage_id for p in passages] == ["d#0", "d#1", "d#2"]


def test_chunk_empty_body_yields_no_passages():
    assert chunk_document(Document("d", "d", ""), 100) == []


def test_chunk_exact_fit_is_one_full_passage():
    passages = chunk_document(doc("d", 100), 100)
    assert len(passages) == 1
    assert len(passages[0].text.split()) == 100


def test_chunks_partition_the_document_words():
    document = doc("d", 437)
    passages = chunk_document(document, 100)
    assert " ".join(p.text for p in passages) == document.body
    assert all(p.title == document.title for p in passages)


@pytest.mark.parametrize("size", [0, -3])
def test_chunking_and_the_config_reject_a_nonpositive_passage_size_in_one_wording(size):
    message = f"max_passage_words must be >= 1, got {size}"
    with pytest.raises(ValueError, match=message):
        chunk_document(doc("d", 10), size)
    with pytest.raises(ValueError, match=message):
        RetrievalConfig(max_passage_words=size).validate()


def test_chunk_corpus_preserves_document_order():
    passages = chunk_corpus([doc("a", 150), doc("b", 10)], 100)
    assert [p.passage_id for p in passages] == ["a#0", "a#1", "b#0"]


def test_load_corpus_two_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "title": "One", "text": "alpha beta"}\n'
        '{"id": "d2", "title": "Two", "text": "gamma"}\n',
        encoding="utf-8",
    )
    documents = load_corpus(path)
    assert [d.doc_id for d in documents] == ["d1", "d2"]
    assert documents[0].body == "alpha beta"


def test_load_corpus_duplicate_id_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "title": "One", "text": "a"}\n'
        '{"id": "d1", "title": "Again", "text": "b"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match="duplicate document id"):
        load_corpus(path)


def test_load_corpus_missing_field_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "title": "One", "text": "a"}\n{"id": "d2", "title": "Two"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match=r":2: missing field 'text'"):
        load_corpus(path)


def test_load_corpus_invalid_json_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1"\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r":1: invalid JSON"):
        load_corpus(path)
    # Nesting past the decoder's recursion limit used to end in a traceback.
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r":1: invalid JSON \(maximum recursion depth"):
        load_corpus(path)


def test_load_questions_keeps_alias_list(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text(
        '{"id": "q1", "question": "capital of France", "answers": ["Paris", "paris, France"]}\n',
        encoding="utf-8",
    )
    questions = load_questions(path)
    assert questions[0].gold_answers == ("Paris", "paris, France")
    assert questions[0].gold_passage_id is None


def test_load_questions_empty_answers_rejected(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text('{"id": "q1", "question": "x", "answers": []}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="non-empty"):
        load_questions(path)


@pytest.mark.parametrize("answers", ["[null]", '["Paris", "  "]', '[""]'])
def test_load_questions_null_or_blank_answer_rejected(tmp_path, answers):
    # A null answer used to become the gold alias "None".
    path = tmp_path / "questions.jsonl"
    path.write_text(f'{{"id": "q1", "question": "x", "answers": {answers}}}\n', encoding="utf-8")
    message = "field 'answers' has the wrong type" if answers == "[null]" else "an answer is blank"
    with pytest.raises(CorpusError, match=rf"questions.jsonl:1: {message}"):
        load_questions(path)


@pytest.mark.parametrize("text", ['""', '" \\t"', "null"])
def test_load_questions_blank_question_text_rejected(tmp_path, text):
    path = tmp_path / "questions.jsonl"
    path.write_text(f'{{"id": "q1", "question": {text}, "answers": ["y"]}}\n', encoding="utf-8")
    message = "field 'question' has the wrong type" if text == "null" else "question text is blank"
    with pytest.raises(CorpusError, match=rf"questions.jsonl:1: {message}"):
        load_questions(path)


# Every character on which str.splitlines breaks a line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", LINE_BREAKS)
@pytest.mark.parametrize("template", ["Vell{}Observatory", "Vell Observatory{}"])
def test_a_title_or_question_text_with_a_line_break_is_rejected(tmp_path, char, template):
    # A prompt gives each title and question one line; a second line used to
    # drop the rest of the passage, or the passages, from what the model reads.
    value = template.format(char)
    corpus = tmp_path / "corpus.jsonl"
    rows = [{"id": "d1", "title": "", "text": "a"}, {"id": "d2", "title": value, "text": "b"}]
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(CorpusError, match=r"corpus.jsonl:2: title holds a line break$"):
        load_corpus(corpus)
    questions = tmp_path / "questions.jsonl"
    row = {"id": "q1", "question": value, "answers": ["y"]}
    questions.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"questions.jsonl:1: question text holds a line break$"):
        load_questions(questions)


def test_load_corpus_accepts_an_empty_title(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "title": "", "text": "a\\nb"}\n', encoding="utf-8")
    assert load_corpus(path)[0].title == ""


def test_load_questions_empty_file(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_questions(path) == []


def test_load_questions_reads_gold_passage_id(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text(
        '{"id": "q1", "question": "x", "answers": ["y"], "gold_passage_id": "d#0"}\n',
        encoding="utf-8",
    )
    assert load_questions(path)[0].gold_passage_id == "d#0"


def test_question_requires_gold_answers():
    with pytest.raises(CorpusError):
        Question(question_id="q", text="x", gold_answers=())


def test_toy_fixture_shape(toy_documents, toy_passages, toy_questions):
    assert len(toy_documents) == 40
    assert len(toy_passages) == 50
    assert len(toy_questions) == 20
    by_id = {p.passage_id: p for p in toy_passages}
    for question in toy_questions:
        assert question.gold_passage_id in by_id
