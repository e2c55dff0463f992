"""Numerical laboratory for loss-surface flatness and its reparametrizations.

Small dense rectifier networks, exact function-preserving transforms of
their parameters, and the flatness measures those transforms manipulate.
"""

from .errors import KinkProximityError, TrainingDivergedError
from .experiments import (Demo1D, TrainConfig, TrainResult, alpha_sweep,
                          make_teacher_student, reparam_demo_1d, train_sgd)
from .metrics import (FlatnessReport, HessianMeasures, SharpnessConfig,
                      SharpnessResult, VolumeCertificate,
                      epsilon_sharpness, flatness_report, hessian_measures,
                      second_order_sharpness, volume_flatness_certificate)
from .nets import (Architecture, Dataset, FlatIndex, ParamVector, forward,
                   gradient, hessian, kink_distance, load_checkpoint, loss,
                   unvec, vec)
from .rng import SeededRng
from .transforms import (AlphaScaleDeep, AlphaScaleTwoLayer, InputAffine,
                         PowerStretch, Radial, ScaleMap, TransformSpec,
                         alpha_scale_two_layer, apply_transform,
                         epsilon_sharp_alpha, radial_forward, radial_inverse,
                         radial_jacobian, sharpening_alpha,
                         transform_from_dict, zero_first_layer)
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Architecture", "Dataset", "FlatIndex", "ParamVector", "SeededRng",
    "KinkProximityError", "TrainingDivergedError",
    "forward", "loss", "gradient", "hessian", "kink_distance",
    "vec", "unvec", "load_checkpoint",
    "TransformSpec", "AlphaScaleTwoLayer", "AlphaScaleDeep",
    "Radial", "PowerStretch", "InputAffine", "ScaleMap",
    "transform_from_dict", "alpha_scale_two_layer", "apply_transform",
    "sharpening_alpha", "epsilon_sharp_alpha", "zero_first_layer",
    "radial_forward", "radial_inverse", "radial_jacobian",
    "SharpnessConfig", "SharpnessResult", "HessianMeasures",
    "VolumeCertificate", "FlatnessReport",
    "epsilon_sharpness", "second_order_sharpness", "hessian_measures",
    "volume_flatness_certificate", "flatness_report",
    "TrainConfig", "TrainResult", "Demo1D", "make_teacher_student",
    "train_sgd", "alpha_sweep", "reparam_demo_1d",
    "SuiteReport", "SUITES", "run_suite",
]
