"""Asymmetric learning-to-hash toolkit.

Database codes are learned directly by exact bit-by-bit coordinate
descent; a feed-forward encoder trained alongside them hashes queries.
Includes Hamming-ranking evaluation, brute-force verification oracles,
binary file formats, and a CLI for reproducible experiments.
"""

from .dataio import (
    DatasetSplit,
    FileFormatError,
    gen_synthetic_clusters,
    read_codes,
    read_features,
    read_labels,
    read_model,
    split,
    write_codes,
    write_features,
    write_labels,
    write_model,
)
from .encoder import (
    EncoderModel,
    NonFiniteError,
    OptimizerState,
    encode_queries,
    forward,
    init_encoder,
    minibatch_step,
)
from .evaluate import (
    mean_average_precision,
    precision_recall_by_radius,
    rank_by_hamming,
    relevance_from_labels,
    retrieval_metrics,
    topk_precision_curve,
)
from .hashcore import CodeMatrix, binarize, pairwise_hamming
from .simgraph import (
    LabelMatrix,
    SimilarityBlock,
    build_sampled_similarity,
    build_similarity,
    sample_query_indices,
)
from .solver import (
    ProbeResult,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    complexity_probe,
    history_to_csv,
    objective,
    train,
    v_step,
)

__all__ = [
    "CodeMatrix",
    "DatasetSplit",
    "EncoderModel",
    "FileFormatError",
    "LabelMatrix",
    "NonFiniteError",
    "OptimizerState",
    "ProbeResult",
    "SimilarityBlock",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "binarize",
    "build_sampled_similarity",
    "build_similarity",
    "complexity_probe",
    "encode_queries",
    "forward",
    "gen_synthetic_clusters",
    "history_to_csv",
    "init_encoder",
    "mean_average_precision",
    "minibatch_step",
    "objective",
    "pairwise_hamming",
    "precision_recall_by_radius",
    "rank_by_hamming",
    "read_codes",
    "read_features",
    "read_labels",
    "read_model",
    "relevance_from_labels",
    "retrieval_metrics",
    "sample_query_indices",
    "split",
    "topk_precision_curve",
    "train",
    "v_step",
    "write_codes",
    "write_features",
    "write_labels",
    "write_model",
]
