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
from .transforms import (AlphaScaleDeep, AlphaScaleTwoLayer, DiagonalScaling,
                         InputAffine, PowerStretch, Radial, TransformSpec,
                         WeightNormScale, alpha_scale_deep,
                         alpha_scale_two_layer, apply_transform,
                         diagonal_scaling, epsilon_sharp_alpha,
                         first_last_alphas, many_directions_alphas,
                         predicted_gradient, predicted_hessian,
                         radial_forward, radial_inverse, radial_jacobian,
                         sharpening_alpha, transform_from_dict,
                         transform_to_dict, weight_norm_scale,
                         zero_first_layer)
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Architecture", "Dataset", "FlatIndex", "ParamVector", "SeededRng",
    "KinkProximityError", "TrainingDivergedError",
    "forward", "loss", "gradient", "hessian", "kink_distance",
    "vec", "unvec", "load_checkpoint",
    "TransformSpec", "AlphaScaleTwoLayer", "AlphaScaleDeep",
    "WeightNormScale", "Radial", "PowerStretch", "InputAffine",
    "DiagonalScaling", "transform_to_dict", "transform_from_dict",
    "alpha_scale_two_layer", "alpha_scale_deep", "weight_norm_scale",
    "apply_transform", "diagonal_scaling",
    "predicted_gradient", "predicted_hessian", "sharpening_alpha",
    "epsilon_sharp_alpha", "zero_first_layer", "first_last_alphas",
    "many_directions_alphas", "radial_forward", "radial_inverse",
    "radial_jacobian",
    "SharpnessConfig", "SharpnessResult", "HessianMeasures",
    "VolumeCertificate", "FlatnessReport",
    "epsilon_sharpness", "second_order_sharpness", "hessian_measures",
    "volume_flatness_certificate", "flatness_report",
    "TrainConfig", "TrainResult", "Demo1D", "make_teacher_student",
    "train_sgd", "alpha_sweep", "reparam_demo_1d",
    "SuiteReport", "SUITES", "run_suite",
]
