"""harlab: a desk-scale Wi-Fi CSI human-activity-recognition laboratory.

Synthetic channel-state-information generation, the amplitude/impute/
low-pass preprocessing chain, three from-scratch sequence classifiers
(LSTM, CNN, LSTM+CNN), and a deterministic evaluation harness.
"""
from .core import ActivityClass, CsiSample, Dataset, FeatureTensor
from .dsp import (amplitude, anova_f_scores, butter_design, filter_apply,
                  impute_mean, pca_fit_transform, run_pipeline, select_k_best)
from .evaluate import MetricsReport, SplitSpec, compute_metrics, run_grid, split
from .models import ModelSpec, TrainedModel, build, decimate, predict, train
from .storage import load_dataset, load_model, save_dataset, save_model
from .synth import GeneratorConfig, generate_dataset, generate_sample

__version__ = "0.1.0"

__all__ = [
    "ActivityClass", "CsiSample", "Dataset", "FeatureTensor",
    "GeneratorConfig", "MetricsReport", "ModelSpec", "SplitSpec", "TrainedModel",
    "amplitude", "anova_f_scores", "build", "butter_design", "compute_metrics",
    "decimate", "filter_apply", "generate_dataset",
    "generate_sample", "impute_mean", "load_dataset", "load_model",
    "pca_fit_transform", "predict", "run_grid", "run_pipeline", "save_dataset",
    "save_model", "select_k_best", "split", "train",
]
