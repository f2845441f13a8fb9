"""Harness for comparing passage-integration strategies in retrieval-augmented QA."""

from .corpus import (
    CorpusError,
    Document,
    Passage,
    Question,
    chunk_corpus,
    chunk_document,
    load_corpus,
    load_questions,
)
from .evaluation import (
    EvalRecord,
    EvalReport,
    StrategyReport,
    aggregate,
    exact_match,
    f1_score,
    normalize_answer,
    score_trace,
)
from .llm import (
    BudgetError,
    CompletionRequest,
    CompletionResponse,
    LiveClient,
    ResponseCache,
    RuleClient,
    RuleError,
    ScriptClient,
    ScriptError,
    TransportError,
    count_tokens,
    load_script,
)
from .prompts import (
    UNKNOWN,
    Answer,
    UnknownPolicy,
    classify_response,
    render_closed_book,
    render_concatenation,
    render_distill,
    render_post_fusion_single,
    render_pruning,
    render_summary,
)
from .retriever import (
    Bm25Index,
    PlacementMode,
    RankedList,
    RetrievalConfig,
    apply_gold_placement,
    build_index,
    load_rankings,
    retrieve_top_k,
    tokenize,
)
from .strategies import (
    Exchange,
    Strategy,
    StrategyTrace,
    filter_dataset,
    majority_vote,
    run_strategy,
)

__version__ = "0.1.0"
