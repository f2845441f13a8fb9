"""Harness for comparing passage-integration strategies in retrieval-augmented QA."""

__version__ = "0.1.0"
