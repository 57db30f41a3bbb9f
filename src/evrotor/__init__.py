"""Training-free rotor detection in event-camera streams.

The pipeline slices an event period and counts, per pixel, the slices in
which the pixel fired both polarities; one sorted (slice, pixel, polarity)
key per event finds them. The saliency map holds only the pixels with such
a slice. The components of its pixels above a gray threshold are clustered
and scored for blade-pass periodicity.
Each candidate is refined with one Gaussian shape prior over its pixels,
which cuts the member components that fall outside the prior's 2-sigma
ellipse.
"""

import importlib

from .detector import (
    Cluster,
    Detection,
    PipelineResult,
    cluster_regions,
    detect_period,
    gaussian_fine_refine,
    run_pipeline,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    EventFormatError,
    EvrotorError,
    ValidationError,
)
from .events import BBox, DetectorConfig, EventPeriod, SensorGeometry
from .features import (
    FeatureSeries,
    LocalSlices,
    RegionScores,
    compute_features,
    extract_local_slices,
    periodicity_score,
    saliency_score,
)
from .io import (
    AnnotationRecord,
    BoxRecord,
    load_annotations,
    load_events,
    write_annotation,
    write_detections,
    write_events,
)
from .saliency import (
    Region,
    SaliencyMap,
    connected_components,
    saliency_map,
    threshold_mask,
)

__version__ = "0.1.0"

# The scene generator's and the metrics' names load their module on first
# use, so detecting alone imports neither.
_LAZY = {
    "metrics": ("MetricsReport", "evaluate_dataset", "match_detections"),
    "synth": (
        "BackgroundSpec", "PropellerSpec", "SynthScene", "benchmark_period",
        "generate_background_events", "generate_propeller_events", "generate_scene",
    ),
}


def __getattr__(name: str) -> object:
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnnotationRecord",
    "BBox",
    "BackgroundSpec",
    "BoxRecord",
    "Cluster",
    "ConfigurationError",
    "DegenerateInputError",
    "Detection",
    "DetectorConfig",
    "EventFormatError",
    "EventPeriod",
    "EvrotorError",
    "FeatureSeries",
    "LocalSlices",
    "MetricsReport",
    "PipelineResult",
    "PropellerSpec",
    "Region",
    "RegionScores",
    "SaliencyMap",
    "SensorGeometry",
    "SynthScene",
    "ValidationError",
    "benchmark_period",
    "cluster_regions",
    "compute_features",
    "connected_components",
    "detect_period",
    "evaluate_dataset",
    "extract_local_slices",
    "gaussian_fine_refine",
    "generate_background_events",
    "generate_propeller_events",
    "generate_scene",
    "load_annotations",
    "load_events",
    "match_detections",
    "periodicity_score",
    "run_pipeline",
    "saliency_map",
    "saliency_score",
    "threshold_mask",
    "write_annotation",
    "write_detections",
    "write_events",
]
