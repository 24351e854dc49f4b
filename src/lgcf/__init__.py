"""Localized-graph collaborative filtering and its evaluation harness."""

from .errors import DomainError, LgcfError, ParseError
from .rng import seed_stream
from .evaluation import (EvalProtocol, EvalReport, MetricStats, degree_probe,
                         dump_cases, evaluate, hr_at_k, make_synthetic,
                         metrics_csv, ndcg_at_k)
from .graph import (BipartiteGraph, IngestResult, SplitSpec, build_graph,
                    ingest_interactions, load_graph_dir, load_split,
                    normal_split, save_graph_dir, save_split, sparse_split,
                    sparsity_levels)
from .labeling import (UNREACHABLE, LabelEncoding, drnl_label, extract_block,
                       label_graph, one_hot_features)
from .models import (MODEL_KINDS, EmbeddingTable, EpochRecord, Propagation,
                     TrainConfig, TrainedModel, TrainResult, init_embeddings,
                     lgcf_logits, load_model, run_gradcheck, sample_negative,
                     save_model, sparsity_sweep, train)
from .nn import (AdamState, GnnParameters, GradCheckReport, adam_step,
                 gcn_backward, gcn_forward, grad_check, init_adam,
                 init_gnn_params, normalize_adjacency, sigmoid, softplus)
from .subgraph import (LocalizedGraph, WalkConfig, dump_localized_graph,
                       extract, induce_subgraph, parse_localized_graph,
                       rwr_trace, union_nodes)

__version__ = "0.1.0"
