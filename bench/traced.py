"""Run ``ragfuse run`` with a span around every call into each module's
public functions, then write the spans to a file.

ragfuse modules bind each other's functions by name (``from .retriever import
retrieve_top_k``), so a function is replaced in every ragfuse module that
holds it, not only where it is defined; otherwise calls through the caller's
name would escape the span. Spans are kept in memory and written once the
run has ended.

    python3 bench/traced.py --spans spans.pickle --t0 <perf_counter at spawn> \\
        run --config run.yaml
"""

from __future__ import annotations

import argparse
import functools
import itertools
import pickle
import sys
import threading
import time

# Metric that a span's self time counts toward -> functions, as (module, name).
# Names starting with "_" are private and may disappear in a refactor; a
# missing one is reported, a missing public one is an error.
WRAPPED = {
    "corpus.load_s": [("corpus", "load_corpus"), ("corpus", "load_questions")],
    "corpus.chunk_s": [("corpus", "chunk_corpus")],
    "retriever.build_s": [("retriever", "build_index")],
    "retriever.query_s": [("retriever", "retrieve_top_k")],
    "retriever.placement_s": [("retriever", "apply_gold_placement")],
    "prompts.render_s": [
        ("prompts", "render_concatenation"),
        ("prompts", "render_post_fusion_single"),
        ("prompts", "render_pruning"),
        ("prompts", "render_summary"),
        ("prompts", "render_distill"),
    ],
    "prompts.classify_s": [("prompts", "classify_response")],
    "llm.complete_s": [("llm", "CompletionClient.complete")],
    "strategies.self_s": [("strategies", "run_strategy")],
    "evaluation.score_s": [("evaluation", "score_trace")],
    "evaluation.aggregate_s": [("evaluation", "aggregate")],
    "cli.serialize_s": [
        ("cli", "trace_to_dict"),
        ("cli", "record_to_dict"),
        ("cli", "report_to_dict"),
        ("cli", "_json_line"),
        ("cli", "_write_run_outputs"),
    ],
}


class Recorder:
    """In-memory spans: (metric, name, start, end, id, parent, thread, question, extra)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note_cache_hit(self) -> None:
        self._local.cache_hit = True

    def wrap(self, metric: str, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (0, None)
            qid = kwargs.get("question_id") or _question_id(args) or parent[1]
            span_id = next(self._ids)
            stack.append((span_id, qid))
            self._local.cache_hit = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = extra(args, result, self._local) if extra is not None else None
            self.spans.append(
                (metric, name, start, end, span_id, parent[0], threading.get_ident(), qid, info)
            )
            return result

        return traced


def _question_id(args: tuple) -> str | None:
    for arg in args:
        if hasattr(arg, "gold_answers"):
            return arg.question_id
    return None


_EXTRAS = {
    "load_corpus": lambda args, result, local: len(result),
    "chunk_corpus": lambda args, result, local: len(result),
    # Whether the retriever's own top-k held the gold passage, read before
    # placement inserts it.
    "apply_gold_placement": lambda args, result, local: (
        None
        if args[1].gold_passage_id is None
        else args[1].gold_passage_id in args[0].passage_ids()
    ),
    "CompletionClient.complete": lambda args, result, local: (
        hash(args[1].prompt_text),
        result.prompt_tokens,
        local.cache_hit,
    ),
    "run_strategy": lambda args, result, local: (
        result.strategy.value,
        result.rounds_used,
        result.final.is_unknown,
    ),
}


def install(recorder: Recorder) -> list[str]:
    """Wrap every listed function wherever ragfuse binds it; return missing names."""
    import ragfuse.cli  # imports every ragfuse module
    import ragfuse.llm

    modules = [m for name, m in sys.modules.items() if name.startswith("ragfuse") and m]
    missing = []
    for metric, targets in WRAPPED.items():
        for module_name, name in targets:
            module = sys.modules[f"ragfuse.{module_name}"]
            if "." in name:
                class_name, method = name.split(".")
                base = getattr(module, class_name)
                for cls in [base, *_subclasses(base)]:
                    if method in vars(cls):
                        original = vars(cls)[method]
                        setattr(cls, method, recorder.wrap(metric, name, original, _EXTRAS.get(name)))
                continue
            original = getattr(module, name, None)
            if original is None:
                if not name.startswith("_"):
                    raise SystemExit(f"traced: ragfuse.{module_name}.{name} no longer exists")
                missing.append(f"{module_name}.{name}")
                continue
            wrapper = recorder.wrap(metric, name, original, _EXTRAS.get(name))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
    # Count cache hits without a span of their own.
    cache_get = ragfuse.llm.ResponseCache.get

    @functools.wraps(cache_get)
    def get(self, key):
        hit = cache_get(self, key)
        if hit is not None:
            recorder.note_cache_hit()
        return hit

    ragfuse.llm.ResponseCache.get = get
    return missing


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description="traced ragfuse run")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--t0", type=float, required=True, help="perf_counter at spawn")
    args, argv = parser.parse_known_args()
    recorder = Recorder()
    missing = install(recorder)
    code = sys.modules["ragfuse.cli"].main(argv)
    main_end = time.perf_counter()
    with open(args.spans, "wb") as handle:
        pickle.dump(
            {"t0": args.t0, "end": main_end, "spans": recorder.spans, "missing": missing},
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    sys.exit(code)


if __name__ == "__main__":
    main()
