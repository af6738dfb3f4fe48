"""Baselines for two-ending story classification.

The pipeline: load pre-trained word embeddings, turn (story, ending1,
ending2) instances into centroid/similarity features for a logistic
regression, or feed token embeddings through a from-scratch LSTM with
optional attention. Training data can be generated from five-sentence
stories and consensus-filtered by previously trained models.
"""
from .annotate import (AnnotatedToken, Annotator, CoarseClass,
                       SidecarAnnotations, coarse_class, heuristic_tag,
                       tokenize)
from .corpus import (ENDING1, ENDING2, ClozeInstance, DevSplit, RocStory,
                     augment_swap, parse_cloze_csv, parse_roc_csv, split_dev,
                     swap_endings, write_cloze_csv, write_roc_csv)
from .datagen import (EndingIndex, build_ending_index, consensus_filter,
                      gen_random, gen_random_coherent, gen_shared_args)
from .embeddings import (EmbeddingFormat, EmbeddingTable, centroid, cosine,
                         load_embeddings, lookup, make_table)
from .errors import ParseError
from .features import (FeatureConfig, FeatureVector, Scaler, aligned_sim,
                       apply_scaler, extract, feature_names, fit_scaler,
                       load_features, max_sim_topn, pos_sims, save_features,
                       sim_story_ending)
from .harness import (AblationReport, EvalResult, accuracy, evaluate_linear,
                      load_ablation_report, majority_baseline, run_ablation,
                      run_neural_comparison, save_ablation_report,
                      train_linear_cell)
from .linear import (CvReport, LinearModel, cv_tune_c, load_model, predict,
                     save_model, train_logreg)
from .neural import (AttentionParams, ClassifierHead, EmbeddedInstance,
                     LstmParams, ModelParams, TrainConfig, Variant, attend,
                     backward, backward_batch, embed_instance, encode,
                     evaluate_model, forward, forward_batch, grid_search,
                     init_params, load_checkpoint, lstm_step, predict_neural,
                     save_checkpoint, train_model)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedToken", "Annotator", "CoarseClass", "SidecarAnnotations",
    "coarse_class", "heuristic_tag", "tokenize",
    "ENDING1", "ENDING2", "ClozeInstance", "DevSplit", "RocStory",
    "augment_swap", "parse_cloze_csv", "parse_roc_csv", "split_dev",
    "swap_endings", "write_cloze_csv", "write_roc_csv",
    "EndingIndex", "build_ending_index", "consensus_filter", "gen_random",
    "gen_random_coherent", "gen_shared_args",
    "EmbeddingFormat", "EmbeddingTable", "centroid", "cosine",
    "load_embeddings", "lookup", "make_table",
    "ParseError",
    "FeatureConfig", "FeatureVector", "Scaler", "aligned_sim", "apply_scaler",
    "extract", "feature_names", "fit_scaler", "load_features", "max_sim_topn",
    "pos_sims", "save_features", "sim_story_ending",
    "AblationReport", "EvalResult", "accuracy", "evaluate_linear",
    "load_ablation_report", "majority_baseline", "run_ablation",
    "run_neural_comparison", "save_ablation_report", "train_linear_cell",
    "CvReport", "LinearModel", "cv_tune_c", "load_model", "predict",
    "save_model", "train_logreg",
    "AttentionParams", "ClassifierHead", "EmbeddedInstance", "LstmParams",
    "ModelParams", "TrainConfig", "Variant", "attend", "backward",
    "backward_batch", "embed_instance", "encode", "evaluate_model", "forward",
    "forward_batch", "grid_search",
    "init_params", "load_checkpoint", "lstm_step", "predict_neural",
    "save_checkpoint", "train_model",
    "__version__",
]
