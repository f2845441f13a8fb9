"""Run ``ragfuse run`` and count the calls that reach the rule backend.

The rule backend answers inside the run's own process, so what it receives
is counted at its entry point, ``RuleClient._respond``: a completion served
without it (a memo, a dedup) is not counted. Prompt tokens are whitespace
tokens of the prompt text, the same unit the loopback stand-in bills. The
counts are written as JSON once the run has ended.

    PYTHONPATH=src python3 bench/counted.py --counts counts.json run --config run.yaml
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import ragfuse.cli
import ragfuse.llm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", required=True)
    args, argv = parser.parse_known_args()
    counts = {"calls": 0, "prompt_tokens": 0}
    lock = threading.Lock()
    respond = ragfuse.llm.RuleClient._respond

    def counted(self, request):
        tokens = len(request.prompt_text.split())
        with lock:
            counts["calls"] += 1
            counts["prompt_tokens"] += tokens
        return respond(self, request)

    ragfuse.llm.RuleClient._respond = counted
    code = ragfuse.cli.main(argv)
    with open(args.counts, "w", encoding="utf-8") as handle:
        json.dump(counts, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
