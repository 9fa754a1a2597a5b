"""Automatic cinematography for 360-degree video.

Converts per-frame object tracks of an equirectangular source into a
shot list and per-frame viewport path, then renders the corresponding
perspective frames.
"""

from .config import ConfigError, DirectorConfig, load_config
from .director import (
    DirectorOutput,
    direct,
    eligible_types,
    output_to_document,
    parse_camera_path,
    plan_next_shot,
    segment_timeline,
    smooth_path,
)
from .geometry import (
    Direction,
    EquirectBBox,
    Viewport,
    angular_distance,
    bbox_center_direction,
    bbox_solid_angle,
    direction_to_equirect_pixel,
    equirect_pixel_to_direction,
    project_to_viewport,
    unproject_from_viewport,
)
from .hypotheses import ShotHypothesis, centered_weight, generate_hypotheses, score_hypothesis
from .measures import (
    MeasureConfig,
    ObjectMeasures,
    VisitedHistory,
    compute_measures,
    update_history,
)
from .renderer import (
    KERNEL_BACKEND,
    Image,
    read_image,
    render_sequence,
    render_viewport,
    write_image,
)
from .saliency import SaliencyWeights, ShotType, object_saliency
from .synth import ActorSpec, ScenarioSpec, parse_scenario, synth_panorama, synth_scene
from .tracks import ObjectTrack, Scene, TrackFileError, interpolated_bbox, parse_scene

__version__ = "0.1.0"

__all__ = [
    "ActorSpec",
    "ConfigError",
    "Direction",
    "DirectorConfig",
    "DirectorOutput",
    "EquirectBBox",
    "Image",
    "KERNEL_BACKEND",
    "MeasureConfig",
    "ObjectMeasures",
    "ObjectTrack",
    "SaliencyWeights",
    "ScenarioSpec",
    "Scene",
    "ShotHypothesis",
    "ShotType",
    "TrackFileError",
    "Viewport",
    "VisitedHistory",
    "angular_distance",
    "bbox_center_direction",
    "bbox_solid_angle",
    "centered_weight",
    "compute_measures",
    "direct",
    "direction_to_equirect_pixel",
    "eligible_types",
    "equirect_pixel_to_direction",
    "generate_hypotheses",
    "interpolated_bbox",
    "load_config",
    "object_saliency",
    "output_to_document",
    "parse_camera_path",
    "parse_scenario",
    "parse_scene",
    "plan_next_shot",
    "project_to_viewport",
    "read_image",
    "render_sequence",
    "render_viewport",
    "score_hypothesis",
    "segment_timeline",
    "smooth_path",
    "synth_panorama",
    "synth_scene",
    "unproject_from_viewport",
    "update_history",
    "write_image",
]
