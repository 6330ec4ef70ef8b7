"""User-evidence cascade classification pipeline."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Bucket,
    Comment,
    Corpus,
    CorpusError,
    Sample,
    Split,
    bucket_of,
    corpus_users,
    load_corpus,
    overlap_ratio,
    save_corpus,
    temporal_split,
)
from .embedding import EmbeddingTable, FormatError  # noqa: F401
from .graph import InteractionGraph, build_interaction_graph, graph_stats  # noqa: F401
from .node2vec import Node2VecConfig, learn_user_embeddings  # noqa: F401
from .text import TextEmbedConfig, hash_embed  # noqa: F401
from .gnn import GnnConfig, forward, loss_and_grads, predict, train  # noqa: F401
from .coldmap import (  # noqa: F401
    ColdMapConfig,
    SimIndex,
    build_index,
    map_cold_author,
    map_cold_commenter,
    make_resolver,
    topk,
)
from .evaluation import (  # noqa: F401
    EvalReport,
    accuracy,
    bucketed_report,
    macro_f1,
    mann_whitney_u,
    tune,
)
from .synth import SynthConfig, describe, generate  # noqa: F401
