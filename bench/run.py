"""The ragfuse benchmark: one command per workload, seed and mode.

    python3 bench/run.py --workload strategy_heavy --seed 0 --seconds 20 --trace 0

It generates the workload's inputs from the seed (bench/gen.py), runs the
unchanged ``ragfuse run`` on them as child processes, checks the outputs, and
prints every metric by name with its unit and sample count. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off: the median wall
time and peak RSS of complete runs, the median wall time of one-question
runs (set-up), and the backend calls and prompt tokens billed. Complete and
set-up runs alternate within the window. The calls and tokens come from two
extra complete runs, one before the window and one after it, where the
backend counts what it receives (bench/counted.py, or the stand-in); they
are not timed, and must agree exactly.
--trace 1 reports the per-layer split from one traced run (bench/traced.py);
untraced runs in the same invocation give the tracing overhead.

Workloads, their generator parameters, and which end-to-end metric each
per-layer metric should move are in bench/spec.json; bench/baseline.json
holds the figures measured at the commit that added the benchmark. A failed run or check
is counted in "failed", sets "correct" to false and makes the exit code 1.
Missing program sources, or a metric that could not be measured, make it
exit 2 without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen
from traced import WRAPPED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
STRATEGIES = ("concat", "post_fusion", "pruning", "summary", "concat_pf", "pf_concat")
MIN_SETUP_REPEATS = 7
MIN_FULL_REPEATS = 2
ORACLE_TOPK_SAMPLE = 2  # brute-force BM25 over the large corpus costs ~2 s a question
ORACLE_SLICE = 20  # questions in the run compared with simulate_rule_run
DEADLINE_S = 170.0  # children still running then are killed; the limit is 180 s
DIGESTED = ("records.jsonl", "report.json")
_MB = 1e6
_RUN_MAIN = "import sys; from ragfuse.cli import main; sys.exit(main(sys.argv[1:]))"


class Failures:
    """(question, strategy) pairs attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, pairs: int, missing: int, problems: list[str]) -> None:
        """Count one child run; a run with any problem counts as wholly failed."""
        self.attempted += pairs
        self.failed += pairs if problems else missing
        self.problems += problems

    def check(self, ok: bool, problem: str, pairs: int) -> None:
        """A failed check on a run already counted fails that run's pairs."""
        if not ok:
            self.failed = min(self.attempted, self.failed + pairs)
            self.problems.append(problem)


@dataclass
class Child:
    """One finished child process."""

    wall: float  # seconds from spawn to exit
    code: int
    rss_mb: float  # peak resident set size
    out: Path
    log: Path


def child_env() -> dict[str, str]:
    """The environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], out: Path, deadline: float) -> Child:
    """Run argv from the checkout root into an emptied out directory."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = out.parent / f"{out.name}.log"
    with log.open("w", encoding="utf-8") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=handle, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(wall, proc.returncode, usage.ru_maxrss * 1024 / _MB, out, log)


def ragfuse_run(config_path: Path) -> list[str]:
    """What the ``ragfuse run`` console script executes."""
    return [sys.executable, "-c", _RUN_MAIN, "run", "--config", str(config_path)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out: Path) -> dict[str, str | None]:
    return {name: sha256(out / name) if (out / name).exists() else None for name in DIGESTED}


def validate(child: Child, num_questions: int, what: str, failures: Failures) -> None:
    """Exit code 0, manifest status complete, one record per (question, strategy)."""
    pairs = num_questions * len(STRATEGIES)
    problems = []
    if child.code != 0:
        tail_text = child.log.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        problems.append(f"{what}: exit code {child.code}: {tail_text}")
    manifest = child.out / "manifest.json"
    status = json.loads(manifest.read_text(encoding="utf-8"))["status"] if manifest.exists() else None
    if status != "complete":
        problems.append(f"{what}: manifest status {status!r}")
    records = 0
    if (child.out / "records.jsonl").exists():
        with (child.out / "records.jsonl").open(encoding="utf-8") as handle:
            records = sum(1 for line in handle if line.strip())
    if records != pairs:
        problems.append(f"{what}: {records} records, expected {pairs}")
    failures.run(pairs, max(0, pairs - records), problems)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    pct = 50.0
    for candidate in (90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (100.0 - candidate) / 100.0 >= 10:
            pct = candidate
    return ordered[min(n - 1, max(0, math.ceil(n * pct / 100.0) - 1))], pct, n


class StandIn:
    """The loopback endpoint process; stopped on leaving the with-block."""

    def __init__(self, questions: Path, delay_ms: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "standin.py"), "--questions", str(questions), "--delay-ms", str(delay_ms)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError("stand-in endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.url + path, data=data, timeout=10) as reply:
            return json.loads(reply.read())

    def reset(self) -> None:
        self._call("/reset", data=b"")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.stdin.close()  # the stand-in exits when its stdin closes
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "StandIn":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Bench:
    """One invocation: generated inputs, the stand-in, and every child run."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float) -> None:
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.spec = SPEC["workloads"][name]
        self.run_spec = self.spec["run"]
        self.inputs = work / "inputs"
        self.input_stats = gen.generate(self.spec["inputs"], seed, self.inputs)
        lines = (self.inputs / "questions.jsonl").read_text(encoding="utf-8").splitlines(True)
        self.num_questions = len(lines)
        self.slices = {
            "questions.jsonl": self.num_questions,
            "setup.jsonl": 1,
            "slice.jsonl": min(ORACLE_SLICE, self.num_questions),
        }
        (self.inputs / "setup.jsonl").write_text(lines[0], encoding="utf-8")
        (self.inputs / "slice.jsonl").write_text("".join(lines[:ORACLE_SLICE]), encoding="utf-8")
        self.standin: StandIn | None = None
        self.failures = Failures()
        self.full_digests: dict[str, str | None] | None = None

    def run(self, what: str, questions: str = "questions.jsonl", launcher: str | None = None, **overrides: object) -> Child:
        """Spawn one ``ragfuse run``, plain or through bench/counted.py or bench/traced.py."""
        out = self.work / what
        config = {
            "corpus": str(self.inputs / "corpus.jsonl"),
            "questions": str(self.inputs / questions),
            "out": str(out),
            "backend": self.run_spec["backend"],
            "strategies": list(STRATEGIES),
            "k": self.run_spec["k"],
            "max_passage_words": self.spec["inputs"]["max_passage_words"],
            "placement": self.run_spec["placement"],
            "seed": self.seed,
            "workers": self.run_spec["workers"],
        }
        if self.standin is not None:
            config.update(
                endpoint=f"{self.standin.url}/v1/chat/completions",
                model="standin-rule",
                max_in_flight=self.run_spec["max_in_flight"],
                cache=str(out / "cache.jsonl"),  # fresh: out is emptied before each run
            )
        config.update(overrides)
        config_path = self.work / f"{what}.yaml"
        config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")  # JSON is YAML
        argv = ragfuse_run(config_path)
        if launcher == "counted":
            argv = [sys.executable, str(BENCH / "counted.py"), "--counts", str(self.work / f"{what}.counts"), *argv[3:]]
        elif launcher == "traced":
            argv = [
                sys.executable, str(BENCH / "traced.py"), "--spans", str(self.work / f"{what}.spans"),
                "--t0", repr(time.perf_counter()), *argv[3:],
            ]
        if self.standin is not None:
            self.standin.reset()
        child = spawn(argv, out, self.deadline)
        validate(child, self.slices[questions], what, self.failures)
        return child

    def billed(self, what: str) -> tuple[int, int]:
        """(calls, prompt tokens) the backend received during the counted run ``what``.

        The stand-in counts what reaches it over HTTP; the rule backend runs
        in the child, where bench/counted.py counts calls into it.
        """
        if self.standin is not None:
            stats = self.standin.stats()
            return stats["requests"], stats["prompt_tokens"]
        counts = json.loads((self.work / f"{what}.counts").read_text(encoding="utf-8"))
        return counts["calls"], counts["prompt_tokens"]

    def counted_run(self, what: str) -> tuple[Child, tuple[int, int] | None]:
        """One untimed complete run whose backend calls and prompt tokens are counted."""
        child = self.run(what, launcher=None if self.standin is not None else "counted")
        if child.code != 0:
            return child, None
        self.check_repeat(child)
        return child, self.billed(what)

    def check_repeat(self, child: Child) -> None:
        """Every complete run must write the same records.jsonl and report.json."""
        hashes = digests(child.out)
        if self.full_digests is None:
            self.full_digests = hashes
        for name in DIGESTED:
            self.failures.check(
                hashes[name] == self.full_digests[name],
                f"{child.out.name}: {name} differs from the first complete run",
                self.num_questions * len(STRATEGIES),
            )

    def timed_runs(self, window_end: float, with_setups: bool) -> tuple[list[Child], list[Child]]:
        """(complete runs, set-up runs) made until the window closes.

        While set-up runs are asked for, one goes next whenever set-up runs so
        far have taken less time than complete runs, so each kind gets about
        half the window and both see the machine in the same state. At least
        MIN_FULL_REPEATS complete and MIN_SETUP_REPEATS set-up runs are made;
        past those, no run starts that the previous run of its kind says
        would end after the window.
        """
        full: list[Child] = []
        setups: list[Child] = []
        while True:
            setup_next = with_setups and sum(c.wall for c in setups) < sum(c.wall for c in full)
            kind = setups if setup_next else full
            enough = len(full) >= MIN_FULL_REPEATS and (not with_setups or len(setups) >= MIN_SETUP_REPEATS)
            if enough and time.perf_counter() + kind[-1].wall > window_end:
                return full, setups
            child = self.run("setup", questions="setup.jsonl") if setup_next else self.run("full")
            kind.append(child)
            if child.code != 0:
                return full, setups
            if not setup_next:
                self.check_repeat(child)

    def check_outputs(self, full: Child) -> None:
        """Checks against independent references, made after the timed runs."""
        oracles = _import_oracles()
        k = self.run_spec["k"]
        if self.standin is not None:
            twin = self.run("rule_twin", backend="rule")
            self.failures.check(
                digests(twin.out)["records.jsonl"] == self.full_digests["records.jsonl"],
                "live records.jsonl differs from the rule-backend run on the same inputs",
                self.num_questions * len(STRATEGIES),
            )
        self.check_topk(oracles, full, k)
        # simulate_rule_run ranks every passage for every question by brute
        # force (~1 s a question on retrieval_heavy), so that workload skips it.
        if self.spec["oracle_slice"]:
            piece = self.run("oracle_slice", questions="slice.jsonl", backend="rule", placement="no_gold")
            if piece.code != 0:
                return
            want = oracles.simulate_rule_run(
                self.inputs / "corpus.jsonl", self.inputs / "slice.jsonl", k=k,
                max_words=self.spec["inputs"]["max_passage_words"],
            )
            report = json.loads((piece.out / "report.json").read_text(encoding="utf-8"))
            got = {row["strategy"]: row for row in report["strategies"]}
            for name in STRATEGIES:
                for key, value in want[name].items():
                    self.failures.check(
                        name in got and abs(got[name][key] - value) <= 1e-9,
                        f"slice report {name}.{key} != simulate_rule_run's {value}",
                        self.slices["slice.jsonl"] * len(STRATEGIES),
                    )

    def check_topk(self, oracles, full: Child, k: int) -> None:
        """Sampled questions: the passages concat saw are the brute-force BM25 top-k,
        with the gold passage inserted in place of the last one when it was missed."""
        texts = {}
        for doc in oracles.load_jsonl(self.inputs / "corpus.jsonl"):
            for i, chunk in enumerate(oracles.chunk_words(doc["text"], self.spec["inputs"]["max_passage_words"])):
                texts[f"{doc['id']}#{i}"] = chunk
        questions = oracles.load_jsonl(self.inputs / "questions.jsonl")
        sample = {q["id"]: q for q in random.Random(self.seed).sample(questions, ORACLE_TOPK_SAMPLE)}
        seen = {}
        with (full.out / "traces.jsonl").open(encoding="utf-8") as handle:
            for line in handle:
                trace = json.loads(line)
                if trace["strategy"] == "concat" and trace["question_id"] in sample:
                    seen[trace["question_id"]] = trace["passage_ids"]
        pairs = self.num_questions * len(STRATEGIES)
        for qid, question in sample.items():
            top = oracles.bm25_rank(texts, question["question"])[:k]
            got = seen.get(qid)
            gold = question["gold_passage_id"]
            if gold in top or self.run_spec["placement"] == "no_gold":
                ok = got == top
            else:
                ok = got is not None and gold in got and [p for p in got if p != gold] == top[: k - 1]
            self.failures.check(ok, f"question {qid}: top-{k} {got} != oracle {top} (gold {gold})", pairs)


def _import_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


def end_to_end(bench: Bench, seconds: float) -> dict[str, tuple[float, str, int]]:
    """A counted run, alternating complete and set-up runs until the window
    closes, another counted run, then the output checks."""
    window_end = time.perf_counter() + seconds
    first, first_counts = bench.counted_run("counted_first")
    if first.code != 0:
        return {}
    children, setups = bench.timed_runs(window_end, with_setups=True)
    if any(c.code != 0 for c in [*setups, *children]):
        return {}
    last, last_counts = bench.counted_run("counted_last")
    if last.code != 0:
        return {}
    bench.failures.check(
        last_counts == first_counts,
        f"billed counts {last_counts} differ from the first counted run's {first_counts}",
        bench.num_questions * len(STRATEGIES),
    )
    bench.check_outputs(last)
    return {
        "run_s": (statistics.median(c.wall for c in children), "s", len(children)),
        "setup_s": (statistics.median(c.wall for c in setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB", len(children)),
        "backend_calls": (first_counts[0], "count", 2),
        "prompt_tokens_billed": (first_counts[1], "count", 2),
    }


def per_layer(bench: Bench, seconds: float) -> dict[str, tuple[float, str, int]]:
    """Untraced complete runs for half the window, then one traced run."""
    children, _ = bench.timed_runs(time.perf_counter() + seconds / 2, with_setups=False)
    if children[-1].code != 0:
        return {}
    traced = bench.run("traced", launcher="traced")
    server = bench.standin.stats() if bench.standin is not None else None
    if traced.code != 0:
        return {}
    bench.check_repeat(traced)
    with (bench.work / "traced.spans").open("rb") as handle:
        data = pickle.load(handle)  # written by bench/traced.py in this invocation
    untraced_s = statistics.median(c.wall for c in children)
    metrics = layer_metrics(bench, data, server, traced)
    metrics["cli.trace_overhead_frac"] = (traced.wall / untraced_s - 1.0, "frac", 1)
    bench.check_outputs(children[-1])
    return metrics


def attribute(spans: list[tuple], t0: float, end: float) -> tuple[Counter, Counter]:
    """(seconds of wall time per metric, seconds attributed per thread).

    A span's self time is its duration minus its child spans. Where threads
    overlap, each instant is split evenly among the threads inside a span
    then. The remainder of the wall time is cli.other_s, so the shares add up
    to the traced wall time by construction.
    """
    events = []
    for metric, _, start, stop, span_id, _, thread, _, _ in spans:
        events.append((start, 1, span_id, thread, metric))  # parents start first
        events.append((stop, 0, -span_id, thread, metric))  # children end first
    events.sort()
    stacks: dict[int, list[str]] = defaultdict(list)
    busy: dict[int, str] = {}
    shares: Counter = Counter()
    per_thread: Counter = Counter()
    last = t0
    for moment, starting, _, thread, metric in events:
        if busy:
            share = (moment - last) / len(busy)
            for holder, name in busy.items():
                shares[name] += share
                per_thread[holder] += share
        last = moment
        stack = stacks[thread]
        if starting:
            stack.append(metric)
        else:
            stack.pop()
        if stack:
            busy[thread] = stack[-1]
        else:
            busy.pop(thread, None)
    shares["cli.other_s"] = (end - t0) - sum(shares.values())
    return shares, per_thread


def layer_metrics(bench: Bench, data: dict, server: dict | None, traced: Child) -> dict:
    spans = data["spans"]
    wall = data["end"] - data["t0"]
    metrics: dict[str, tuple[float, str, int]] = {}
    shares, per_thread = attribute(spans, data["t0"], data["end"])
    for metric in (*WRAPPED, "cli.other_s"):
        metrics[metric] = (shares[metric], "s", 1)
    # The shares sum to the wall time by construction; what can go wrong is
    # a span outside the run or time counted twice, which these catch.
    slack = 1e-6 * wall
    bench.failures.check(
        all(data["t0"] <= s[2] <= s[3] <= data["end"] for s in spans), "a span lies outside the traced run", 0
    )
    bench.failures.check(shares["cli.other_s"] >= -slack, f"cli.other_s is {shares['cli.other_s']} < 0", 0)
    bench.failures.check(
        all(seconds <= wall + slack for seconds in per_thread.values()),
        f"a thread was attributed more than the wall time {wall}: {max(per_thread.values(), default=0.0)}",
        0,
    )
    metrics["cli.traced_wall_s"] = (wall, "s", 1)

    names = {span[4]: span[1] for span in spans}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    metrics["corpus.documents"] = (sum(s[8] for s in by_name["load_corpus"]), "count", 1)
    metrics["corpus.passages"] = (sum(s[8] for s in by_name["chunk_corpus"]), "count", 1)
    metrics["retriever.postings"] = (bench.input_stats["postings"], "count", 1)
    _timing(metrics, "retriever.query", [s[3] - s[2] for s in by_name["retrieve_top_k"]])
    golds = [s[8] for s in by_name["apply_gold_placement"] if s[8] is not None]
    metrics["retriever.gold_in_topk_frac"] = (sum(golds) / len(golds) if golds else 0.0, "frac", len(golds))

    renders = [
        s for name, group in by_name.items() if name.startswith("render_")
        for s in group if not names.get(s[5], "").startswith("render_")
    ]
    metrics["prompts.renders"] = (len(renders), "count", 1)

    calls = [s for s in by_name["CompletionClient.complete"] if names.get(s[5]) != "CompletionClient.complete"]
    n_calls = len(calls)
    metrics["llm.calls"] = (n_calls, "count", 1)
    metrics["llm.unique_prompt_frac"] = (len({s[8][0] for s in calls}) / max(1, n_calls), "frac", n_calls)
    metrics["llm.prompt_tokens_attributed"] = (sum(s[8][1] for s in calls), "count", n_calls)
    hits = [s for s in calls if s[8][2]]
    sent = [s[3] - s[2] for s in calls if not s[8][2]]  # calls that reached the backend
    _timing(metrics, "llm.call", sent)
    metrics["llm.cache_hit_frac"] = (len(hits) / max(1, n_calls), "frac", n_calls)
    server = server or {"requests": 0, "handle_s": 0.0, "inflight_mean": 0.0, "inflight_max": 0, "errors": 0}
    overhead = (sum(sent) - server["handle_s"]) / server["requests"] * 1000 if server["requests"] else 0.0
    metrics["llm.http_overhead_ms"] = (overhead, "ms", server["requests"])
    metrics["llm.server_inflight_mean"] = (server["inflight_mean"], "count", 1)
    metrics["llm.server_inflight_max"] = (server["inflight_max"], "count", 1)
    metrics["llm.server_errors"] = (server["errors"], "count", server["requests"])

    runs = by_name["run_strategy"]
    metrics["strategies.calls_per_question"] = (n_calls / bench.num_questions, "count", bench.num_questions)
    for strategy, metric, predicate in (
        ("concat", "strategies.concat.abstain_frac", lambda s: s[8][2]),
        ("concat_pf", "strategies.concat_pf.fallback_frac", lambda s: s[8][1] == 2),
        ("pf_concat", "strategies.pf_concat.distill_frac", lambda s: s[8][1] == 2),
    ):
        group = [s for s in runs if s[8][0] == strategy]
        metrics[metric] = (sum(1 for s in group if predicate(s)) / max(1, len(group)), "frac", len(group))

    metrics["cli.traces_mb"] = ((traced.out / "traces.jsonl").stat().st_size / _MB, "MB", 1)
    work = [s for s in spans if s[5] == 0 and s[7] is not None]
    if work:
        span = max(s[3] for s in work) - min(s[2] for s in work)
        busy = sum(s[3] - s[2] for s in work) / (bench.run_spec["workers"] * span)
    else:
        busy = 0.0
    metrics["cli.worker_busy_frac"] = (busy, "frac", len(work))
    metrics["cli.unwrapped_names"] = (len(data["missing"]), "count", 1)
    return metrics


def _timing(metrics: dict, prefix: str, durations: list[float]) -> None:
    if not durations:
        durations = [0.0]
    value, pct, n = tail(durations)
    metrics[f"{prefix}_p50_ms"] = (statistics.median(durations) * 1000, "ms", n)
    metrics[f"{prefix}_tail_ms"] = (value * 1000, "ms", n)
    metrics[f"{prefix}_tail_pct"] = (pct, "%", n)
    metrics[f"{prefix}_samples"] = (n, "count", n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for required in (ROOT / "src" / "ragfuse" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found; run from a ragfuse checkout", file=sys.stderr)
            return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work, deadline)
        with contextlib.ExitStack() as stack:
            if bench.run_spec["backend"] == "live":
                bench.standin = stack.enter_context(
                    StandIn(work / "inputs" / "questions.jsonl", bench.run_spec["delay_ms"])
                )
            measure = per_layer if args.trace else end_to_end
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = bench.failures
    for problem in failures.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not metrics:
        print("error: a run failed before every metric was measured", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} nproc={os.cpu_count()} "
          f"inputs={json.dumps(bench.input_stats, sort_keys=True)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit:<6} samples={samples}")
    fraction = failures.failed / failures.attempted if failures.attempted else 1.0
    print(f"{'failed_frac':<36} {fraction:>16.6g} frac   samples={failures.attempted}")
    result = {
        "correct": not failures.problems,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
