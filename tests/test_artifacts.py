"""Pins the bytes of every artifact a toy-fixture run writes.

A change that alters any of them must say why and update the digests here.
"""

import hashlib
import json

import pytest
import yaml

from conftest import FIXTURES
from ragfuse.cli import main

EXPECTED_SHA256 = {
    "records.jsonl": "0376358d02c2511283aaf6f69a2b0cc67660db82c2531ef23eb2490fe7c5d27c",
    "report.json": "c5acebf066eeaaa7e894649a9d947cd41886012c58d0272a386bf78439bf0971",
    "report.csv": "ba9d81c0644512c9441b9a1abb53aa3ad8fcf1edff740b66dac843b94486b413",
    "tokens.csv": "72fa16b408c8f8806a844c3c5d2b5769eb6d9baa33188aa5e64c60df26467296",
    "traces.jsonl": "6570d87d49c326a1781ed83c0313adfbb3b6ced4918ca5ecf0b39325d2d21232",
    "exchanges.jsonl": "49d16fb702bfca9efb6aef5b4d2cf521d2101c1880b43380bc5d4697dc199f69",
}
SWEEP_SHA256 = "b3c8fa03c6a32ec4d78a7c267843902b5e9d41b79b00b59a84cdf7b7e3383433"

# manifest.json without config.out, which is the run's own output path.
EXPECTED_MANIFEST = {
    "command": "run",
    "config": {
        "api_key_env": "RAGFUSE_API_KEY",
        "backend": "rule",
        "bm25_b": 0.75,
        "bm25_k1": 1.2,
        "cache": None,
        "corpus": str(FIXTURES / "toy_corpus.jsonl"),
        "endpoint": None,
        "k": 3,
        "max_in_flight": 4,
        "max_passage_words": 100,
        "max_response_tokens": 64,
        "model": None,
        "model_input_budget": 2048,
        "nm_denominator": "pool",
        "placement": "no_gold",
        "questions": str(FIXTURES / "toy_questions.jsonl"),
        "rankings": None,
        "script": None,
        "seed": 7,
        "strategies": ["concat", "post_fusion", "pruning", "summary", "concat_pf", "pf_concat"],
        "timeout": 60.0,
        "unknown_patterns": [],
        "unknown_sentinel": "unknown",
        "workers": 1,
    },
    "error": None,
    "num_questions": 20,
    "outputs": [
        "traces.jsonl", "exchanges.jsonl", "records.jsonl", "report.json", "report.csv",
        "tokens.csv",
    ],
    "seed": 7,
    "status": "complete",
    "template_version": "1",
}


@pytest.fixture
def toy_config_path(tmp_path):
    config = yaml.safe_load((FIXTURES / "toy_config.yaml").read_text(encoding="utf-8"))
    config["corpus"] = str(FIXTURES / "toy_corpus.jsonl")
    config["questions"] = str(FIXTURES / "toy_questions.jsonl")
    path = tmp_path / "toy.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_toy_run_artifacts_are_pinned(tmp_path, toy_config_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(toy_config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert {name: sha256_of(out / name) for name in EXPECTED_SHA256} == EXPECTED_SHA256
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"].pop("out") == str(out)
    assert manifest == EXPECTED_MANIFEST


def test_toy_sweep_csv_is_pinned(tmp_path, toy_config_path, capsys):
    out = tmp_path / "sweep"
    argv = ["run", "--config", str(toy_config_path), "--out", str(out), "--placement", "sweep"]
    assert main(argv) == 0
    capsys.readouterr()
    assert sha256_of(out / "sweep.csv") == SWEEP_SHA256
