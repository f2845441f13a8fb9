"""Tests for prompt rendering, task extraction, and response classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_passage, make_question
from ragfuse.llm import count_tokens
from ragfuse.prompts import (
    TASK_DELIMITER,
    Answer,
    UNKNOWN,
    UnknownPolicy,
    classify_response,
    extract_task,
    render_closed_book,
    render_concatenation,
    render_distill,
    render_post_fusion_single,
    render_pruning,
    render_summary,
)

PASSAGES = [
    make_passage("a#0", "granite towers line the west shore", title="West Shore"),
    make_passage("b#0", "the ferry runs twice a day in winter", title="Ferry"),
    make_passage("c#0", "lanterns mark the channel at night", title="Channel"),
]
QUESTION = make_question("q1", "how often does the winter ferry run", ("twice a day",))

ALL_RENDERERS = [
    lambda: render_concatenation(PASSAGES, QUESTION),
    lambda: render_post_fusion_single(PASSAGES[0], QUESTION),
    lambda: render_pruning(PASSAGES, QUESTION),
    lambda: render_summary(PASSAGES, QUESTION),
    lambda: render_distill(PASSAGES, QUESTION, ["twice", "daily"]),
    lambda: render_closed_book(QUESTION),
]


def test_concatenation_orders_passages_before_question():
    prompt = render_concatenation(PASSAGES, QUESTION)
    positions = [prompt.index(p.text) for p in PASSAGES]
    assert positions == sorted(positions)
    assert positions[-1] < prompt.index(QUESTION.text)


def test_concatenation_is_deterministic():
    assert render_concatenation(PASSAGES, QUESTION) == render_concatenation(PASSAGES, QUESTION)


def test_concatenation_numbers_every_passage():
    five = [make_passage(f"p{i}", f"text {i}") for i in range(5)]
    prompt = render_concatenation(five, QUESTION)
    assert [f"Passage {i}:" in prompt for i in range(1, 6)] == [True] * 5
    assert "Passage 6:" not in prompt


def test_renderers_reject_empty_passages():
    for render in (render_concatenation, render_pruning, render_summary):
        with pytest.raises(ValueError):
            render([], QUESTION)
    with pytest.raises(ValueError):
        render_distill([], QUESTION, ["x"])


def test_post_fusion_single_contains_passage_and_question_once():
    prompt = render_post_fusion_single(PASSAGES[0], QUESTION)
    assert prompt.count(PASSAGES[0].text) == 1
    assert prompt.count(QUESTION.text) == 1


def test_post_fusion_prompts_differ_only_in_passage_block():
    one = render_post_fusion_single(PASSAGES[0], QUESTION)
    two = render_post_fusion_single(PASSAGES[1], QUESTION)
    block = f"Passage 1: {PASSAGES[0].title}. {PASSAGES[0].text}"
    other = f"Passage 1: {PASSAGES[1].title}. {PASSAGES[1].text}"
    assert one.replace(block, other) == two


def test_every_renderer_contains_the_question_exactly_once():
    for render in ALL_RENDERERS:
        assert render().count(QUESTION.text) == 1


def test_pruning_and_summary_have_one_demonstration_independent_of_k():
    for render in (render_pruning, render_summary):
        prompt = render(PASSAGES, QUESTION)
        assert prompt.count(TASK_DELIMITER) == 1
        demo, task = prompt.split(TASK_DELIMITER)
        assert "Doran Lethe" in demo and "Doran Lethe" not in task
        assert all(p.text in task for p in PASSAGES)
        # the demonstration does not vary with k
        shorter = render(PASSAGES[:1], QUESTION)
        assert shorter.split(TASK_DELIMITER)[0] == demo


def test_pruning_and_summary_announce_their_line_formats():
    assert "Irrelevant passages:" in render_pruning(PASSAGES, QUESTION)
    assert "Summary:" in render_summary(PASSAGES, QUESTION)


def test_distill_deduplicates_candidates_preserving_order():
    prompt = render_distill(PASSAGES, QUESTION, ["a", "b", "a"])
    assert "Candidates: a; b\n" in prompt
    single = render_distill(PASSAGES, QUESTION, ["only"])
    assert "Candidates: only\n" in single
    with pytest.raises(ValueError):
        render_distill(PASSAGES, QUESTION, [])


def test_closed_book_has_no_passages():
    prompt = render_closed_book(QUESTION)
    assert "Passage" not in prompt
    assert QUESTION.text in prompt


def test_sentinel_appears_in_every_instruction():
    policy_word = "no-answer"
    # Free-form renderers quote the sentinel bare; the structured pruning and
    # summary prompts embed it in their "Answer:" line instead.
    assert f'"{policy_word}"' in render_concatenation(PASSAGES, QUESTION, sentinel=policy_word)
    assert f'"{policy_word}"' in render_post_fusion_single(
        PASSAGES[0], QUESTION, sentinel=policy_word
    )
    assert f'"{policy_word}"' in render_distill(PASSAGES, QUESTION, ["x"], sentinel=policy_word)
    assert f'"{policy_word}"' in render_closed_book(QUESTION, sentinel=policy_word)
    for render in (render_pruning, render_summary):
        assert f'"Answer: {policy_word}"' in render(PASSAGES, QUESTION, sentinel=policy_word)


def test_token_identity_between_concat_and_post_fusion():
    # tokens(concat) = sum(passage blocks) + overhead
    # sum over single-passage prompts = sum(passage blocks) + k * overhead
    blocks = [
        count_tokens(f"Passage {i + 1}: {p.title}. {p.text}") for i, p in enumerate(PASSAGES)
    ]
    singles = [count_tokens(render_post_fusion_single(p, QUESTION)) for p in PASSAGES]
    overhead = singles[0] - blocks[0]
    assert overhead > 0
    assert count_tokens(render_concatenation(PASSAGES, QUESTION)) == sum(blocks) + overhead
    assert sum(singles) == sum(blocks) + len(PASSAGES) * overhead


def test_extract_task_round_trips_each_renderer():
    # Only a whole line delimits the demonstration, so a title, passage text
    # or question may quote the delimiter.
    quoting = [make_passage("d#0", f"it says {TASK_DELIMITER} here", title=TASK_DELIMITER)]
    for passages, question in (
        (PASSAGES, QUESTION),
        (quoting + PASSAGES, make_question("q2", TASK_DELIMITER, ("x",))),
    ):
        for render in (render_concatenation, render_pruning, render_summary):
            task = extract_task(render(passages, question))
            assert task.passages == tuple(f"{p.title}. {p.text}" for p in passages)
            assert task.question == question.text
            assert task.candidates == ()
    task = extract_task(render_distill(PASSAGES, QUESTION, ["a b", "c"]))
    assert task.candidates == ("a b", "c")
    assert task.question == QUESTION.text
    single = extract_task(render_post_fusion_single(PASSAGES[2], QUESTION))
    assert single.passages == (f"{PASSAGES[2].title}. {PASSAGES[2].text}",)
    closed = extract_task(render_closed_book(QUESTION))
    assert closed.passages == () and closed.question == QUESTION.text


def test_classify_sentinel_variants_are_unknown():
    for text in ("unknown", "Unknown.", "  UNKNOWN?! ", "unknown\n"):
        assert classify_response(text).is_unknown


def test_classify_plain_answer_passes_through():
    answer = classify_response("The answer is Paris")
    assert answer == Answer.of("The answer is Paris")


def test_classify_extra_pattern_matches_substring():
    policy = UnknownPolicy(extra_patterns=("do not provide an answer",))
    assert classify_response("These passages do not provide an answer", policy).is_unknown
    assert not classify_response("These passages do provide an answer", policy).is_unknown


def test_classify_takes_last_line_and_strips_prefix():
    assert classify_response("Irrelevant passages: 1, 2\nAnswer: Doran Lethe") == Answer.of(
        "Doran Lethe"
    )
    assert classify_response("Summary: it was built long ago.\nAnswer: 1909") == Answer.of("1909")


def test_classify_final_line_sentinel_is_unknown():
    assert classify_response("Irrelevant passages: 1, 2, 3\nAnswer: unknown").is_unknown
    assert classify_response("Answer:").is_unknown


def test_classify_empty_and_whitespace_are_unknown():
    assert classify_response("").is_unknown
    assert classify_response("   \n  ").is_unknown


def test_classify_custom_sentinel():
    policy = UnknownPolicy(sentinel="no answer")
    assert classify_response("No answer.", policy).is_unknown
    assert not classify_response("unknown", policy).is_unknown
    # The sentinel loses its trailing punctuation as the reply does; it used
    # not to, so "unknown." never read as Unknown.
    dotted = UnknownPolicy(sentinel="unknown.")
    for reply in ("unknown.", "unknown", "Answer: Unknown!", "UNKNOWN.."):
        assert classify_response(reply, dotted).is_unknown, reply


@given(st.text(max_size=80))
def test_classify_never_returns_empty_text(text):
    answer = classify_response(text)
    assert answer.is_unknown or answer.text


PADDING = st.text(" \t", max_size=3)
PREAMBLE = st.one_of(st.just(""), st.text(max_size=40).map(lambda text: text + "\n"))


@given(
    case=st.lists(st.booleans(), min_size=len("unknown"), max_size=len("unknown")),
    before=PADDING,
    after=st.text(" \t\n", max_size=3),
    punctuation=st.text(".!?,;:\u2026", max_size=3),
    prefix=st.sampled_from(["", "Answer:", "answer: ", "ANSWER:  "]),
    preamble=PREAMBLE,
)
def test_classify_sentinel_survives_case_padding_punctuation_and_preamble(
    case, before, after, punctuation, prefix, preamble
):
    sentinel = "".join(c.upper() if up else c for c, up in zip("unknown", case))
    text = f"{preamble}{before}{prefix}{sentinel}{punctuation}{after}"
    assert classify_response(text).is_unknown


@given(
    line=st.text("abcdefgh 0123.,'-", min_size=1, max_size=30).filter(
        lambda line: any(c.isalnum() for c in line)
    ),
    before=PADDING,
    after=PADDING,
    preamble=PREAMBLE,
)
def test_classify_takes_a_non_sentinel_last_line_as_the_answer(line, before, after, preamble):
    # The alphabet cannot spell the sentinel or an "Answer:" prefix.
    answer = classify_response(f"{preamble}{before}{line}{after}")
    assert answer == Answer.of(line.strip())


def test_unknown_policy_requires_sentinel():
    for sentinel in ("", "?", " .!\u2026 "):
        with pytest.raises(ValueError, match="unknown_sentinel must be non-empty"):
            UnknownPolicy(sentinel=sentinel)
    for patterns in (("",), (" \t",), ("not stated", "\n")):
        with pytest.raises(ValueError, match="unknown_patterns entries must be non-blank"):
            UnknownPolicy(extra_patterns=patterns)


def test_answer_type_invariants():
    assert UNKNOWN.is_unknown
    assert Answer.of("x").text == "x"
    with pytest.raises(ValueError):
        Answer.of("")
