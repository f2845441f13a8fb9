"""Command-line interface: filter, run, and report subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
import threading
from collections import deque
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_args, get_type_hints

import yaml

from .corpus import (
    Passage,
    Question,
    _fits,
    _value_types,
    chunk_corpus,
    load_corpus,
    load_questions,
    read_rows,
)
from .evaluation import (
    NM_DENOMINATORS,
    EvalRecord,
    EvalReport,
    StrategyReport,
    aggregate,
    exact_match,
    score_trace,
)
from .llm import (
    BudgetError,
    CompletionClient,
    LiveClient,
    ResponseCache,
    RuleClient,
    RuleError,
    ScriptClient,
    ScriptError,
    TransportError,
    check_endpoint,
    check_live_settings,
    check_max_response_tokens,
    load_script,
)
from .prompts import (
    DEFAULT_SENTINEL,
    TEMPLATE_VERSION,
    UnknownPolicy,
    classify_response,
)
from .retriever import (
    PlacementMode,
    RankedList,
    RetrievalConfig,
    apply_gold_placement,
    build_index,
    load_rankings,
    ranked_list_from_ids,
    retrieve_top_k,
    tokenize,
)
from .strategies import Exchange, Strategy, StrategyTrace, filter_dataset, run_strategy, send_ahead

_BACKENDS = ("rule", "script", "live")
_SWEEP = "sweep"
_SWEEP_MODES = (PlacementMode.RETRIEVAL_ORDER, PlacementMode.GOLD_TOP, PlacementMode.GOLD_BOTTOM)
_PLACEMENTS = (*(mode.value for mode in PlacementMode), _SWEEP)


def parse_strategies(value: object) -> list[Strategy]:
    """Accept a list of names, a comma-separated string, or "all"."""
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    else:
        names = [str(part) for part in value]
    if names == ["all"]:
        return list(Strategy)
    parsed = []
    for name in names:
        try:
            strategy = Strategy(name)
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise ValueError(f"unknown strategy {name!r} (valid: {valid}, or 'all')") from None
        if strategy in parsed:
            raise ValueError(f"strategy {name!r} is listed twice")
        parsed.append(strategy)
    return parsed


@dataclass
class RunConfig(RetrievalConfig):
    """Everything one run needs; loadable from YAML with CLI flag overrides.
    The retrieval settings are inherited; placement may also be "sweep"."""

    corpus: Path = Path("corpus.jsonl")
    questions: Path = Path("questions.jsonl")
    out: Path = Path("out")
    rankings: Path | None = None
    script: Path | None = None
    backend: str = "rule"
    strategies: list[Strategy] = field(default_factory=lambda: list(Strategy))
    unknown_sentinel: str = DEFAULT_SENTINEL
    unknown_patterns: list[str] = field(default_factory=list)
    max_response_tokens: int = 64
    workers: int = 1
    nm_denominator: str = "pool"
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = "RAGFUSE_API_KEY"
    timeout: float = 60.0
    max_in_flight: int = 4
    cache: Path | None = None

    def policy(self) -> UnknownPolicy:
        return UnknownPolicy(
            sentinel=self.unknown_sentinel, extra_patterns=tuple(self.unknown_patterns)
        )

    def validate(self, command: str = "run") -> None:
        if command == "run":  # filter only probes: it ranks, places and aggregates nothing
            if self.placement not in _PLACEMENTS:
                raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
            super().validate()
            if not self.corpus.exists():
                raise ValueError(f"corpus file not found: {self.corpus}")
            if self.rankings is not None and not self.rankings.exists():
                raise ValueError(f"rankings file not found: {self.rankings}")
            if not self.strategies:
                raise ValueError("strategy list must be non-empty")
            if self.workers < 1:
                raise ValueError("workers must be >= 1")
            aggregate((), self.nm_denominator)  # an empty report; rejects an unknown name
        if not self.questions.exists():
            raise ValueError(f"questions file not found: {self.questions}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        if self.backend == "script":
            if self.script is None:
                raise ValueError("script backend needs a script file")
            if not self.script.exists():
                raise ValueError(f"script file not found: {self.script}")
        if self.backend == "live":
            if not self.endpoint or not self.model:
                raise ValueError("live backend needs both endpoint and model")
            check_endpoint(self.endpoint)
            check_live_settings(self.timeout, self.max_in_flight)
        check_max_response_tokens(self.max_response_tokens)
        self.policy()  # UnknownPolicy rejects a blank sentinel or pattern


_CONFIG_HINTS = get_type_hints(RunConfig)
_CONFIG_TYPES = {name: _value_types(hint) for name, hint in _CONFIG_HINTS.items()}
# Strategies may also be named by "all" or a comma-separated string.
_CONFIG_TYPES["strategies"] += (str,)
_PATH_FIELDS = {name for name, hint in _CONFIG_HINTS.items() if Path in (hint, *get_args(hint))}


def load_config(path: str | Path) -> RunConfig:
    """Read a YAML mapping into a RunConfig; unknown keys and values of the
    wrong type are rejected."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValueError(f"{path}: invalid YAML ({detail}{at})") from exc
    if raw is None:  # an empty or null document: every setting at its default
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a key-value mapping")
    config = RunConfig()
    for key, value in raw.items():
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if not _fits(value, _CONFIG_TYPES[key]):
            raise ValueError(
                f"{path}: config key {key!r} has the wrong type "
                f"({type(value).__name__} {value!r})"
            )
        if key == "strategies":
            try:
                value = parse_strategies(value)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        elif key in _PATH_FIELDS and value is not None:
            value = Path(value)
        setattr(config, key, value)
    return config


def apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Every flag that was given and whose dest is a RunConfig field overrides it."""
    for name, value in vars(args).items():
        if name not in _CONFIG_TYPES or value is None:
            continue
        setattr(config, name, parse_strategies(value) if name == "strategies" else value)
    return config


def make_client(config: RunConfig, questions: Sequence[Question]) -> CompletionClient:
    """Build the completion client selected by config.backend."""
    limits = {
        "max_prompt_tokens": config.model_input_budget,
        "max_response_tokens": config.max_response_tokens,
    }
    if config.backend == "rule":
        return RuleClient(questions, sentinel=config.unknown_sentinel, **limits)
    if config.backend == "script":
        return ScriptClient(load_script(config.script), **limits)
    return LiveClient(
        endpoint=config.endpoint,
        model=config.model,
        api_key=os.environ.get(config.api_key_env),
        timeout=config.timeout,
        max_in_flight=config.max_in_flight,
        cache=ResponseCache(config.cache) if config.cache is not None else None,
        **limits,
    )


# Built once: json.dumps builds an encoder per call when given options.
_ENCODE = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _json_line(record: dict) -> str:
    """The record as one line of sorted-key JSON, non-ASCII text kept as is."""
    return _ENCODE(record) + "\n"


def question_to_dict(question: Question) -> dict:
    record = {
        "id": question.question_id,
        "question": question.text,
        "answers": list(question.gold_answers),
    }
    if question.gold_passage_id is not None:
        record["gold_passage_id"] = question.gold_passage_id
    return record


# Each artifact row holds its dataclass's fields. Records read back are checked
# against the field types.
_RECORD_TYPES = {name: _value_types(hint) for name, hint in get_type_hints(EvalRecord).items()}
_REPORT_COLUMNS = tuple(f.name for f in fields(StrategyReport))


def _exchange_to_dict(exchange: Exchange, row_id: int, backend: str) -> dict:
    return {
        "id": row_id,
        "kind": exchange.kind,
        "exchange_key": exchange.exchange_key,
        "prompt": exchange.request.prompt_text,
        "response": exchange.response.text,
        "prompt_tokens": exchange.response.prompt_tokens,
        "completion_tokens": exchange.response.completion_tokens,
        "backend": backend,
    }


def trace_to_dict(trace: StrategyTrace, exchange_ids: dict[str, int]) -> dict:
    """Every trace field; each Answer as its text and each Exchange as the id of
    its exchanges.jsonl row, which ``exchange_ids`` holds under its exchange key."""
    answers = trace.per_passage_answers
    return {
        **vars(trace),
        "final": trace.final.text,
        "exchanges": [exchange_ids[exchange.exchange_key] for exchange in trace.exchanges],
        "per_passage_answers": None if answers is None else [answer.text for answer in answers],
    }


def record_to_dict(record: EvalRecord) -> dict:
    return dict(vars(record))


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report)


def format_report(report: EvalReport) -> str:
    """Fixed-width table with one row per strategy."""
    lines = [
        f"{'strategy':<12} {'n':>4} {'EM%':>7} {'F1%':>7} {'Unk%':>7} {'NM%':>7} "
        f"{'ptok/q':>9} {'ctok/q':>9}"
    ]
    for row in report.strategies:
        lines.append(
            f"{row.strategy:<12} {row.num_questions:>4} {row.em_pct:>7.1f} {row.f1_pct:>7.1f} "
            f"{100 * row.unknown_rate:>7.1f} {100 * row.no_match_rate:>7.1f} "
            f"{row.mean_prompt_tokens:>9.1f} {row.mean_completion_tokens:>9.1f}"
        )
    return "\n".join(lines)


def config_to_dict(config: RunConfig) -> dict:
    # A Strategy is a str, so JSON writes it as its name.
    return {name: str(v) if isinstance(v, Path) else v for name, v in vars(config).items()}


def _load_scorable_questions(config: RunConfig) -> list[Question]:
    """Load the questions; ValueError names the first gold alias that a reply
    of exactly its text would not score: one read as Unknown (the sentinel,
    an unknown pattern) or one whose text the reading changes (an "Answer:"
    prefix)."""
    questions = load_questions(config.questions)
    policy = config.policy()
    for question in questions:
        for alias in question.gold_answers:
            answer = classify_response(alias, policy)
            if answer.is_unknown or not exact_match(answer.text, [alias]):
                read = "Unknown" if answer.is_unknown else repr(answer.text)
                raise ValueError(
                    f"{config.questions}: question {question.question_id!r}: gold alias "
                    f"{alias!r} reads as {read} when replied verbatim, so it can never score"
                )
    return questions


def cmd_filter(config: RunConfig) -> tuple[list[Question], list[Question]]:
    """Partition questions by the closed-book probe and write both halves."""
    config.validate("filter")
    questions = _load_scorable_questions(config)
    client = make_client(config, questions)
    kept, removed = filter_dataset(questions, client, policy=config.policy())
    config.out.mkdir(parents=True, exist_ok=True)
    for name, half in (("kept.jsonl", kept), ("removed.jsonl", removed)):
        with (config.out / name).open("w", encoding="utf-8") as handle:
            for question in half:
                handle.write(_json_line(question_to_dict(question)))
    summary = {"total": len(questions), "kept": len(kept), "removed": len(removed)}
    (config.out / "filter.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"kept {len(kept)} of {len(questions)} questions "
        f"({len(removed)} answered closed-book); wrote {config.out}"
    )
    return kept, removed


def _rank(
    config: RunConfig, questions: Sequence[Question], passages: list[Passage],
    by_id: dict[str, Passage],
) -> dict[str, RankedList]:
    """Each question's top k by id, from the rankings file (each list non-empty,
    its ids checked against the corpus) or a BM25 index; the index, or the
    file's full lists, is freed on return."""
    if config.rankings is None:
        terms = {term for question in questions for term in tokenize(question.text)}
        index = build_index(passages, k1=config.bm25_k1, b=config.bm25_b, terms=terms)
        return {q.question_id: retrieve_top_k(index, q.text, config.k) for q in questions}
    rankings = load_rankings(config.rankings)
    ranked = {}
    for question in questions:
        qid = question.question_id
        if qid not in rankings:
            raise ValueError(f"no precomputed ranking for question {qid!r}")
        if not rankings[qid]:  # no passage to place gold in, or to prompt with
            raise ValueError(f"question {qid!r} needs a non-empty ranking, got an empty list")
        ranked[qid] = ranked_list_from_ids(qid, rankings[qid], config.k)
        for pid in ranked[qid].passage_ids():
            if pid not in by_id:
                raise ValueError(
                    f"ranked passage id {pid!r} (question {qid!r}) is not in the corpus"
                )
    return ranked


def _run_single(
    config: RunConfig, questions: Sequence[Question], ranked: dict[str, RankedList],
    by_id: dict[str, Passage], client: CompletionClient,
) -> EvalReport:
    """One run at a concrete placement mode over each question's ranking; writes all artifacts."""
    policy = config.policy()
    # Only a live client waits (on the endpoint), so only a live run starts threads:
    # one run-wide pool sends each question's first round, with two threads for each
    # of the client's max_in_flight slots, so that one renders while the other waits
    # on the wire. Under the interpreter lock a thread overlaps nothing else, so an
    # offline run takes its questions one at a time here, whatever ``workers`` says.
    live = isinstance(client, LiveClient)
    sending = executor = None
    if live:
        from concurrent.futures import ThreadPoolExecutor
        sending = ThreadPoolExecutor(2 * config.max_in_flight)
        executor = ThreadPoolExecutor(config.workers) if config.workers > 1 else None

    def work(question: Question) -> tuple[list[tuple[StrategyTrace, EvalRecord]], list[Exchange]]:
        """The question's (trace, record) pairs, and its distinct exchanges,
        each request that reached the client once, in the order the traces
        first refer to them."""
        placed = apply_gold_placement(ranked[question.question_id], question, config)
        # Every id is a corpus passage: _rank and cmd_run's gold check saw to that.
        selected = [by_id[pid] for pid in placed.passage_ids()]
        # One memo per question: its strategies repeat each other's calls.
        # Only this thread reads or writes it, so it needs no lock.
        memo = send_ahead(
            config.strategies, selected, question, client, sending.submit, policy=policy
        ) if live else {}
        results = []
        for strategy in config.strategies:
            trace = run_strategy(strategy, selected, question, client, policy=policy, memo=memo)
            results.append((trace, score_trace(trace, question)))
        exchanges = {e.exchange_key: e for trace, _ in results for e in trace.exchanges}
        return results, list(exchanges.values())

    config.out.mkdir(parents=True, exist_ok=True)
    # Marked running before the first row, and an earlier run's report
    # dropped, so that a run killed before its finally below leaves no
    # complete manifest or full report beside its partial rows.
    _write_manifest(config, len(questions), "running", None)
    for name in ("report.json", "report.csv"):
        (config.out / name).unlink(missing_ok=True)
    all_records: list[EvalRecord] = []
    # Billed: the questions' distinct exchanges, each request that reached the
    # client once. Attributed: every exchange of the traces, memo hits too.
    usage = {"billed": [0, 0, 0], "attributed": [0, 0, 0]}
    status, error_text = "complete", None
    with (
        (config.out / "traces.jsonl").open("w", encoding="utf-8") as traces_file,
        (config.out / "exchanges.jsonl").open("w", encoding="utf-8") as exchanges_file,
        (config.out / "records.jsonl").open("w", encoding="utf-8") as records_file,
        (config.out / "tokens.csv").open("w", encoding="utf-8", newline="") as tokens_file,
    ):
        tokens = csv.writer(tokens_file)
        tokens.writerow(["strategy", "question_id", "calls", "prompt_tokens", "completion_tokens"])
        try:
            results: Iterable = map(work, questions)
            if executor is not None:  # two questions per worker keep each one busy
                results = _in_order(executor.submit, work, questions, 2 * config.workers)
            rows = 0  # written to exchanges.jsonl
            for per_question, exchanges in results:
                exchange_ids = {}
                for row_id, exchange in enumerate(exchanges, start=rows):
                    exchange_ids[exchange.exchange_key] = row_id
                    row = _exchange_to_dict(exchange, row_id, config.backend)
                    exchanges_file.write(_json_line(row))
                    response = exchange.response
                    _tally(usage["billed"], 1, response.prompt_tokens, response.completion_tokens)
                rows += len(exchanges)
                for trace, record in per_question:
                    all_records.append(record)
                    _tally(
                        usage["attributed"], len(trace.exchanges),
                        trace.prompt_tokens_total, trace.completion_tokens_total,
                    )
                    traces_file.write(_json_line(trace_to_dict(trace, exchange_ids)))
                    records_file.write(_json_line(record_to_dict(record)))
                    tokens.writerow(
                        (record.strategy, record.question_id, len(trace.exchanges),
                         record.prompt_tokens_total, record.completion_tokens_total)
                    )
        except BaseException as exc:  # an interrupt fails the run too
            status, error_text = "failed", str(exc) or type(exc).__name__
            raise
        finally:
            # Queued questions never start; running ones finish, so no worker
            # still bills the endpoint or appends to the cache after return.
            # Questions first: a running one may still submit its first round.
            # No submitted call is cancelled: a started question sends it whole.
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
            if sending is not None:
                sending.shutdown(wait=True)
            # Written even on failure so a crashed run leaves a partial
            # manifest next to whatever rows completed.
            report = aggregate(all_records, config.nm_denominator)
            _write_run_outputs(config, report, len(questions), status, error_text)
    print(f"placement={config.placement} backend={config.backend} k={config.k}")
    print(format_report(report))
    print(
        "usage: "
        + "; ".join(
            f"{name} calls={calls} prompt_tokens={prompt} completion_tokens={completion}"
            for name, (calls, prompt, completion) in usage.items()
        )
    )
    print(f"wrote {config.out}")
    return report


def _in_order(submit: Callable, work: Callable, items: Iterable, window: int) -> Iterator:
    """work(item) for each item, in order, run through ``submit`` with at most ``window``
    items submitted and not yet taken, so that results do not pile up in memory."""
    pending: deque = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(submit(work, item))
    while pending:
        yield pending.popleft().result()


def _tally(totals: list[int], calls: int, prompt_tokens: int, completion_tokens: int) -> None:
    """Add to [calls, prompt tokens, completion tokens]."""
    totals[0] += calls
    totals[1] += prompt_tokens
    totals[2] += completion_tokens


def _write_run_outputs(
    config: RunConfig,
    report: EvalReport,
    num_questions: int,
    status: str,
    error_text: str | None,
) -> None:
    (config.out / "report.json").write_text(
        json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with (config.out / "report.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_REPORT_COLUMNS)
        writer.writerows(astuple(row) for row in report.strategies)
    _write_manifest(config, num_questions, status, error_text)


def _write_manifest(
    config: RunConfig, num_questions: int, status: str, error_text: str | None
) -> None:
    manifest = {
        "command": "run",
        "status": status,
        "error": error_text,
        "num_questions": num_questions,
        "template_version": TEMPLATE_VERSION,
        "seed": config.seed,
        "config": config_to_dict(config),
        "outputs": [
            "traces.jsonl", "exchanges.jsonl", "records.jsonl", "report.json", "report.csv",
            "tokens.csv",
        ],
    }
    (config.out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def cmd_run(config: RunConfig) -> dict[str, EvalReport]:
    """Run every configured strategy; a sweep runs three modes over one load."""
    config.validate("run")
    # No Document outlives chunking: the index build and the whole run hold
    # only the passages.
    passages = chunk_corpus(load_corpus(config.corpus), config.max_passage_words)
    questions = _load_scorable_questions(config)
    by_id = {p.passage_id: p for p in passages}
    if config.placement != PlacementMode.NO_GOLD.value:  # a sweep's three modes place gold
        for question in questions:  # checked before any call is billed
            if question.gold_passage_id not in by_id:
                raise ValueError(
                    f"{config.questions}: question {question.question_id!r}: placement "
                    f"{config.placement} needs its gold passage, but its gold_passage_id "
                    f"({question.gold_passage_id!r}) names no corpus passage"
                )
    ranked = _rank(config, questions, passages, by_id)  # once: a sweep's modes share it
    client = make_client(config, questions)
    if config.placement != _SWEEP:
        return {config.placement: _run_single(config, questions, ranked, by_id, client)}
    # An earlier sweep's table would outlive a sweep that fails or is killed.
    (config.out / "sweep.csv").unlink(missing_ok=True)
    reports: dict[str, EvalReport] = {}
    for mode in _SWEEP_MODES:
        sub = replace(config, placement=mode.value, out=config.out / mode.value)
        reports[mode.value] = _run_single(sub, questions, ranked, by_id, client)
    with (config.out / "sweep.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["placement", *_REPORT_COLUMNS])
        for mode in _SWEEP_MODES:
            for row in reports[mode.value].strategies:
                writer.writerow([mode.value, *astuple(row)])
    print(f"wrote {config.out / 'sweep.csv'}")
    return reports


def cmd_report(records_path: Path, nm_denominator: str = "pool") -> EvalReport:
    """Recompute and print aggregates from a stored records file (no client)."""
    path = records_path / "records.jsonl" if records_path.is_dir() else records_path
    if not path.exists():
        raise ValueError(f"records file not found: {path}")
    records = [
        EvalRecord(**{name: row[name] for name in _RECORD_TYPES})
        for _, row in read_rows(path, _RECORD_TYPES)
    ]
    report = aggregate(records, nm_denominator)
    print(format_report(report))
    return report


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, type=Path, help="YAML config file")
    shared.add_argument("--out", type=Path, help="output directory override")
    shared.add_argument("--backend", choices=_BACKENDS, help="backend override")
    shared.add_argument(
        "--max-response-tokens", dest="max_response_tokens", type=int,
        help="per-call response token cap",
    )
    parser = argparse.ArgumentParser(
        prog="ragfuse",
        description="Compare strategies for feeding top-k retrieved passages to an LLM.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser(
        "filter", parents=[shared], help="drop questions the model answers closed-book"
    )
    run = commands.add_parser("run", parents=[shared], help="run strategies and score them")
    run.add_argument("--k", type=int, help="number of passages override")
    run.add_argument("--seed", type=int, help="rng seed override")
    run.add_argument("--placement", choices=_PLACEMENTS, help="gold placement mode override")
    run.add_argument("--strategies", help="comma-separated strategy names, or 'all'")
    run.add_argument("--workers", type=int, help="question threads of a live run")
    run.add_argument(
        "--nm-denominator", dest="nm_denominator", choices=NM_DENOMINATORS,
        help="no-match rate denominator",
    )
    report = commands.add_parser("report", help="recompute aggregates from stored records")
    report.add_argument("records", type=Path, help="run output directory or records.jsonl path")
    report.add_argument(
        "--nm-denominator", dest="nm_denominator", choices=NM_DENOMINATORS, default="pool"
    )
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread: like KeyboardInterrupt, no
    ``except Exception`` stops it on its way to main."""


def _terminate(signum: int, frame: object) -> None:
    raise _Terminated(f"terminated by {signal.Signals(signum).name}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # SIGTERM ends a run as an interrupt does: its manifest says failed and
    # names the signal. Only the main thread may set a handler.
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if in_main else None
    try:
        if args.command == "report":
            cmd_report(args.records, args.nm_denominator)
        elif args.command == "filter":
            cmd_filter(apply_overrides(load_config(args.config), args))
        else:
            cmd_run(apply_overrides(load_config(args.config), args))
        # A reader that closed stdout early fails this flush, not the one at exit.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: send what is still buffered to
        # devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, BudgetError, TransportError, ScriptError, RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Terminated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        if in_main:  # None stands for a handler set outside Python
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
