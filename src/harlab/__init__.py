"""harlab: a desk-scale Wi-Fi CSI human-activity-recognition laboratory.

Synthetic channel-state-information generation, the amplitude/impute/
low-pass preprocessing chain, three from-scratch sequence classifiers
(LSTM, CNN, LSTM+CNN), and a deterministic evaluation harness.  Each
name in __all__ is imported from its submodule on first use.
"""
import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "core": "ActivityClass CsiSample Dataset FeatureTensor",
    "dsp": "amplitude anova_f_scores butter_design filter_apply impute_mean "
           "pca_fit_transform run_pipeline select_k_best",
    "evaluate": "MetricsReport SplitSpec compute_metrics run_grid split",
    "models": "ModelSpec TrainedModel build decimate train",
    "storage": "load_dataset load_model save_dataset save_model",
    "synth": "GeneratorConfig generate_dataset generate_sample",
}.items() for name in names.split()}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
