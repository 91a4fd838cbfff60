"""Stage registry + config merge: the user-extension surface.

Analogue of the reference's model catalog (``/root/reference/src/yomitoku/
base.py:60-142``: ``register(name, config, model)``) and its OmegaConf-style
per-module override merge (``document_analyzer.py:256-268``
``recursive_update``). A stage registration maps a name to (default config
dict, stage callable/class); pipelines resolve names at the driver and pass
merged configs as actor constructor kwargs.
"""

from __future__ import annotations

_STAGE_REGISTRY: dict[str, tuple[dict, object]] = {}


def recursive_update(original: dict, new_data: dict) -> dict:
    """Nested dict merge. Parity: document_analyzer.py:256-268."""
    for key, value in new_data.items():
        if (
            isinstance(value, dict)
            and key in original
            and isinstance(original[key], dict)
        ):
            recursive_update(original[key], value)
        else:
            original[key] = value
    return original


def register_stage(name: str, default_config: dict, stage):
    """Register a stage under a catalog name. Parity: base.py:124-142."""
    _STAGE_REGISTRY[name.lower()] = (default_config, stage)
    return stage


def get_stage(name: str, overrides: dict | None = None):
    """Resolve (merged_config, stage) for a registered name."""
    key = name.lower()
    if key not in _STAGE_REGISTRY:
        raise KeyError(
            f"stage '{name}' not registered; available: {sorted(_STAGE_REGISTRY)}"
        )
    default_config, stage = _STAGE_REGISTRY[key]
    config = {k: (dict(v) if isinstance(v, dict) else v) for k, v in default_config.items()}
    if overrides:
        recursive_update(config, overrides)
    return config, stage


def list_stages():
    return sorted(_STAGE_REGISTRY)


def _register_builtins():
    from .stages.fused_stage import FusedExtractStage
    from .stages.multimodal import ImageFeatureStage, ImageMetaStage
    from .stages.semantic_stage import SemanticExtractStage
    from .pipelines.ocr import OcrStage

    register_stage(
        "extract",
        {
            "classifier_config": {},
            "reading_order": "auto",
            "ignore_meta": False,
            "ignore_ruby": False,
            "ruby_threshold": 2.0,
        },
        FusedExtractStage,
    )
    register_stage(
        "semantic",
        {"extraction_schema": None, "classifier_config": {}, "merge_same_column_values": False},
        SemanticExtractStage,
    )
    register_stage("ocr", {"classifier_config": {}}, OcrStage)
    register_stage("image_meta", {"blob_column": "image"}, ImageMetaStage)
    register_stage(
        "image_features", {"blob_column": "image", "backend_mode": "fake"}, ImageFeatureStage
    )
    from .stages.multimodal import FrameSampleStage, ImageResizeStage

    register_stage(
        "image_resize",
        {"out_w": 64, "out_h": 64, "blob_column": "image"},
        ImageResizeStage,
    )
    register_stage(
        "frame_sample",
        {"n_frames": 4, "blob_column": "doc_bytes", "key_column": "doc_url"},
        FrameSampleStage,
    )
    from .stages.multimodal import AudioFeatureStage

    register_stage("audio_features", {"blob_column": "audio"}, AudioFeatureStage)


_register_builtins()
