"""Prompt templates for every strategy, plus answer/unknown classification.

Template wording is frozen: metrics produced against the mock backends are
only stable as long as these strings do not change. Bump TEMPLATE_VERSION
whenever any template text is edited.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .corpus import Passage, Question

TEMPLATE_VERSION = "1"

DEFAULT_SENTINEL = "unknown"


def normalize_reply(text: str) -> str:
    """Lowercased, with surrounding space and trailing punctuation dropped:
    the form in which a reply and the sentinel are compared."""
    text = text.strip().lower()
    while text and unicodedata.category(text[-1]).startswith("P"):
        text = text[:-1]
    return text.strip()


@dataclass(frozen=True)
class UnknownPolicy:
    """How model output is recognized as an Unknown outcome."""

    sentinel: str = DEFAULT_SENTINEL
    extra_patterns: tuple[str, ...] = ()
    # The sentinel in normal form, derived once for every classification.
    normalized_sentinel: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The messages name the config keys these fields are read from.
        normalized = normalize_reply(self.sentinel)
        if not normalized:
            raise ValueError(
                f"unknown_sentinel must be non-empty once case, surrounding space and "
                f"trailing punctuation are dropped, got {self.sentinel!r}"
            )
        if not all(pattern.strip() for pattern in self.extra_patterns):
            raise ValueError("unknown_patterns entries must be non-blank")
        object.__setattr__(self, "normalized_sentinel", normalized)


DEFAULT_UNKNOWN_POLICY = UnknownPolicy()


@dataclass(frozen=True)
class Answer:
    """A textual answer, or the distinguished Unknown outcome (text=None)."""

    text: str | None = None

    @property
    def is_unknown(self) -> bool:
        return self.text is None

    @classmethod
    def of(cls, text: str) -> "Answer":
        if not text:
            raise ValueError("answer text must be non-empty; use UNKNOWN instead")
        return cls(text)


UNKNOWN = Answer()


def _passage_lines(passages: list[Passage]) -> str:
    return "\n".join(f"Passage {i}: {p.title}. {p.text}" for i, p in enumerate(passages, 1))


def _question_line(question: Question) -> str:
    return f"Question: {question.text}"


def _answer_instruction(sentinel: str) -> str:
    return (
        "Answer the question with a short phrase using only the passages above. "
        f'If the passages do not contain the answer, reply exactly "{sentinel}".'
    )


# Separates the one-shot demonstration from the task; the mock rule backend
# only reads what follows the last line that is exactly this text.
TASK_DELIMITER = "Now answer the real question."

_PRUNING_HEADER = (
    "Answer the question using the numbered passages. First list the passages "
    'that cannot answer the question on a line starting with "Irrelevant passages:", '
    'then give a short answer on a final line starting with "Answer:". '
    'If no passage can answer the question, make the final line "Answer: {sentinel}".'
)

_SUMMARY_HEADER = (
    "Answer the question using the numbered passages. First write one line "
    'starting with "Summary:" that condenses the information needed to answer, '
    'then give a short answer on a final line starting with "Answer:". '
    'If the passages do not contain the answer, make the final line "Answer: {sentinel}".'
)


def _demo(reasoning: str) -> str:
    """A one-shot demonstration over a fixed synthetic scene, so it can never
    leak content from an evaluation corpus."""
    return "\n".join(
        (
            "Passage 1: Mount Vell. The summit of Mount Vell rises above the Branta "
            "plain, and its northern ridge stays snowbound for most of the year.",
            "Passage 2: Harbor of Liss. The harbor of Liss shelters a fleet of forty "
            "fishing boats behind a long granite breakwater.",
            "Passage 3: Vell Observatory. The Vell Observatory was completed on the "
            "northern ridge of Mount Vell by the astronomer Doran Lethe.",
            "Question: who completed the Vell Observatory",
            reasoning,
            "Answer: Doran Lethe",
        )
    )


_PRUNING_DEMO = _demo("Irrelevant passages: 1, 2")
_SUMMARY_DEMO = _demo(
    "Summary: The observatory on Mount Vell was completed by the astronomer Doran Lethe."
)


def render_concatenation(
    passages: list[Passage], question: Question, sentinel: str = DEFAULT_SENTINEL
) -> str:
    """All passages in rank order, then the question, then the instruction."""
    if not passages:
        raise ValueError("render_concatenation requires at least one passage")
    return "\n".join(
        (_passage_lines(passages), "", _question_line(question), "", _answer_instruction(sentinel))
    )


def render_post_fusion_single(
    passage: Passage, question: Question, sentinel: str = DEFAULT_SENTINEL
) -> str:
    """Single-passage variant of the concatenation prompt."""
    return render_concatenation([passage], question, sentinel)


def _render_one_shot(
    header: str, demo: str, passages: list[Passage], question: Question, sentinel: str
) -> str:
    return "\n".join(
        (
            header.format(sentinel=sentinel),
            "",
            "Here is an example.",
            "",
            demo,
            "",
            TASK_DELIMITER,
            "",
            _passage_lines(passages),
            "",
            _question_line(question),
        )
    )


def render_pruning(
    passages: list[Passage], question: Question, sentinel: str = DEFAULT_SENTINEL
) -> str:
    """Eliminate-then-answer prompt with one fixed demonstration."""
    if not passages:
        raise ValueError("render_pruning requires at least one passage")
    return _render_one_shot(_PRUNING_HEADER, _PRUNING_DEMO, passages, question, sentinel)


def render_summary(
    passages: list[Passage], question: Question, sentinel: str = DEFAULT_SENTINEL
) -> str:
    """Summarize-then-answer prompt with one fixed demonstration."""
    if not passages:
        raise ValueError("render_summary requires at least one passage")
    return _render_one_shot(_SUMMARY_HEADER, _SUMMARY_DEMO, passages, question, sentinel)


def render_distill(
    passages: list[Passage],
    question: Question,
    candidates: list[str],
    sentinel: str = DEFAULT_SENTINEL,
) -> str:
    """Second-round prompt selecting among candidate answers.

    Passages must already be filtered to those whose first-round answer was
    not Unknown; candidates are deduplicated preserving first occurrence.
    """
    if not passages:
        raise ValueError("render_distill requires at least one passage")
    if not candidates:
        raise ValueError("render_distill requires a non-empty candidate list")
    unique = list(dict.fromkeys(candidates))
    return "\n".join(
        (
            _passage_lines(passages),
            "",
            _question_line(question),
            "Candidates: " + "; ".join(unique),
            "",
            "Select the answer to the question from the candidates, using the "
            "passages above. Reply with the selected answer only. "
            f'If none of the candidates answers the question, reply exactly "{sentinel}".',
        )
    )


def render_closed_book(question: Question, sentinel: str = DEFAULT_SENTINEL) -> str:
    """Question only; no retrieved context."""
    return "\n".join(
        (
            _question_line(question),
            "",
            "Answer the question with a short phrase. "
            f'If you do not know the answer, reply exactly "{sentinel}".',
        )
    )


_PASSAGE_LINE = re.compile(r"^Passage \d+: (.*)$")
_CANDIDATES_PREFIX = "Candidates: "
_QUESTION_PREFIX = "Question: "


@dataclass(frozen=True)
class TaskBlock:
    """Structured view of a rendered prompt's task section."""

    passages: tuple[str, ...]
    question: str | None
    candidates: tuple[str, ...]


def extract_task(prompt_text: str) -> TaskBlock:
    """Parse the task section of a rendered prompt.

    This is the inverse of the renderers above, consumed by the rule-based
    mock backend; everything up to the last line that equals TASK_DELIMITER
    (the demonstration) is skipped, so passage text may quote the phrase.
    Every passage and question is one line: chunking joins words with single
    spaces, and the loaders reject titles and question text that break lines.
    """
    lines = prompt_text.splitlines()
    if TASK_DELIMITER in lines:
        lines = lines[len(lines) - lines[::-1].index(TASK_DELIMITER) :]
    passages: list[str] = []
    question: str | None = None
    candidates: tuple[str, ...] = ()
    for line in lines:
        match = _PASSAGE_LINE.match(line)
        if match:
            passages.append(match.group(1))
        elif line.startswith(_QUESTION_PREFIX):
            question = line[len(_QUESTION_PREFIX) :]
        elif line.startswith(_CANDIDATES_PREFIX):
            candidates = tuple(line[len(_CANDIDATES_PREFIX) :].split("; "))
    return TaskBlock(passages=tuple(passages), question=question, candidates=candidates)


def classify_response(text: str, policy: UnknownPolicy = DEFAULT_UNKNOWN_POLICY) -> Answer:
    """Classify a raw model response as a textual answer or Unknown.

    Unknown when the whole response normalizes to the sentinel, when any
    configured pattern occurs as a substring, or when the extracted final
    answer is empty or itself the sentinel. Otherwise the answer is the last
    non-empty line with any "Answer:" prefix stripped, which tolerates
    chain-of-thought preambles.
    """
    stripped = text.strip()
    if not stripped:
        return UNKNOWN
    sentinel = policy.normalized_sentinel
    if normalize_reply(stripped) == sentinel:
        return UNKNOWN
    lowered = stripped.lower()
    if any(pattern.lower() in lowered for pattern in policy.extra_patterns):
        return UNKNOWN
    last_line = [line for line in stripped.splitlines() if line.strip()][-1].strip()
    if last_line.lower().startswith("answer:"):
        last_line = last_line[len("answer:") :].strip()
    if not last_line:
        return UNKNOWN
    if normalize_reply(last_line) == sentinel:
        return UNKNOWN
    return Answer.of(last_line)
