"""Seeded synthetic inputs for the benchmark: a corpus, questions, and stats.

The same seed and parameters always give byte-identical files. Documents are
drawn from a Zipf-skewed vocabulary so postings lengths look like text.
Vocabulary words use only the letters a-y; every answer is planted as one
token ``z<digits>z`` of fixed width, so no answer is a substring of any other
token (the rule backend matches answers as substrings of passage text).

Run on its own to inspect a workload's inputs:

    python3 bench/gen.py --workload strategy_heavy --seed 0 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
from pathlib import Path

_LETTERS = "abcdefghijklmnopqrstuvwxy"  # no "z": it marks planted answers
_TOKEN = re.compile(r"[0-9a-z]+")


def _word(rank: int) -> str:
    """Letters-only word for a vocabulary rank; frequent ranks get short words."""
    letters = []
    value = rank + len(_LETTERS)  # start at two letters
    while value:
        value, digit = divmod(value, len(_LETTERS))
        letters.append(_LETTERS[digit])
    return "".join(reversed(letters))


def _answer(index: int) -> str:
    return f"z{index:06d}z"


def generate(params: dict, seed: int, out: Path) -> dict:
    """Write corpus.jsonl and questions.jsonl under out; return input stats.

    params: docs, vocab, zipf_s, doc_words [lo, hi], questions,
    findable_frac, gold_words, noise_words, query_min_rank, max_passage_words.
    Questions use content words only: vocabulary ranks below query_min_rank
    play the part of stopwords and never appear in a question. A findable
    question takes gold_words distinct content words from its gold passage
    plus noise_words Zipf-drawn content words, so BM25 often ranks the gold
    passage high. An unfindable one takes gold_words + noise_words Zipf-drawn
    content words only, so the gold passage is almost never retrieved and
    concatenation abstains.
    """
    rng = random.Random(f"ragfuse-bench:{seed}")
    vocab = [_word(rank) for rank in range(params["vocab"])]
    weights = [1.0 / (rank + 1) ** params["zipf_s"] for rank in range(len(vocab))]
    cum_weights = list(itertools.accumulate(weights))
    min_rank = params["query_min_rank"]
    content = vocab[min_rank:]
    content_cum = list(itertools.accumulate(weights[min_rank:]))
    stopwords = set(vocab[:min_rank])
    lo, hi = params["doc_words"]
    docs = []
    for index in range(params["docs"]):
        title = " ".join(w.capitalize() for w in rng.choices(vocab, cum_weights=cum_weights, k=2))
        words = rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(lo, hi))
        docs.append((f"d{index:06d}", title, words))

    width = params["max_passage_words"]
    num_questions = params["questions"]
    num_findable = round(num_questions * params["findable_frac"])
    used_positions: set[tuple[int, int]] = set()
    seen_texts: set[str] = set()
    questions = []
    for index in range(num_questions):
        while True:
            doc_index = rng.randrange(len(docs))
            position = rng.randrange(len(docs[doc_index][2]))
            if (doc_index, position) not in used_positions:
                break
        used_positions.add((doc_index, position))
        doc_id, _, words = docs[doc_index]
        answer = _answer(index)
        words[position] = answer
        chunk = position // width
        while True:
            if index < num_findable:
                # Planted answers start with "z"; a question must not carry one.
                pool = sorted(
                    {
                        w
                        for w in words[chunk * width : (chunk + 1) * width]
                        if w not in stopwords and not w.startswith("z")
                    }
                )
                picked = rng.sample(pool, min(params["gold_words"], len(pool)))
                picked += rng.choices(content, cum_weights=content_cum, k=params["noise_words"])
                rng.shuffle(picked)
            else:
                picked = rng.choices(
                    content, cum_weights=content_cum, k=params["gold_words"] + params["noise_words"]
                )
            text = "which code goes with " + " ".join(picked)
            if text not in seen_texts:
                break
        seen_texts.add(text)
        questions.append(
            {
                "id": f"q{index:05d}",
                "question": text,
                "answers": [answer],
                "gold_passage_id": f"{doc_id}#{chunk}",
            }
        )
    rng.shuffle(questions)

    out.mkdir(parents=True, exist_ok=True)
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as handle:
        for doc_id, title, words in docs:
            record = {"id": doc_id, "title": title, "text": " ".join(words)}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    with (out / "questions.jsonl").open("w", encoding="utf-8") as handle:
        for question in questions:
            handle.write(json.dumps(question, sort_keys=True) + "\n")

    passages = 0
    postings = 0
    for _, _, words in docs:
        for start in range(0, len(words), width):
            passages += 1
            postings += len(set(_TOKEN.findall(" ".join(words[start : start + width]))))
    return {
        "documents": len(docs),
        "passages": passages,
        "postings": postings,
        "questions": len(questions),
        "findable_questions": num_findable,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((Path(__file__).parent / "spec.json").read_text(encoding="utf-8"))
    stats = generate(spec["workloads"][args.workload]["inputs"], args.seed, args.out)
    print(json.dumps(stats, sort_keys=True))


if __name__ == "__main__":
    main()
