"""Weakly supervised detection with optimized region selection.

Trains a two-branch linear detection head (region classification +
cross-region importance weighting) from image-level labels only, with
class-specific top-M region selection, a progressive pruning schedule,
and CorLoc / VOC-style mAP evaluation.
"""

from wsdsel.data import Dataset, ImageBag, SynthConfig, generate_synthetic, load_dataset, save_dataset, split_dataset
from wsdsel.evaluation import EvalOptions, EvalReport, corloc, detect, evaluate_map, infer_image, voc_ap, weight_concentration
from wsdsel.geometry import BBox, Detection, box_vote, iou, iou_matrix, nms
from wsdsel.head import ForwardTrace, HeadParams, backward_image, finite_diff_grads, forward_image
from wsdsel.schedule import PruneSchedule, epochs_per_halving, pos_budget
from wsdsel.trainer import TrainConfig, TrainState, init_params, load_checkpoint, save_checkpoint, train, train_epoch

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "Detection",
    "Dataset",
    "EvalOptions",
    "EvalReport",
    "ForwardTrace",
    "HeadParams",
    "ImageBag",
    "PruneSchedule",
    "SynthConfig",
    "TrainConfig",
    "TrainState",
    "backward_image",
    "box_vote",
    "corloc",
    "detect",
    "epochs_per_halving",
    "evaluate_map",
    "finite_diff_grads",
    "forward_image",
    "generate_synthetic",
    "infer_image",
    "init_params",
    "iou",
    "iou_matrix",
    "load_checkpoint",
    "load_dataset",
    "nms",
    "pos_budget",
    "save_checkpoint",
    "save_dataset",
    "split_dataset",
    "train",
    "train_epoch",
    "voc_ap",
    "weight_concentration",
]
