import flatlab

# names the scale map replaced; none of them may come back as an attribute
REMOVED = ("transform_multipliers", "first_last_alphas",
           "many_directions_alphas", "alpha_scale_deep", "DiagonalScaling",
           "diagonal_scaling", "predicted_gradient", "predicted_hessian")


def test_every_public_name_resolves():
    missing = [name for name in flatlab.__all__
               if not hasattr(flatlab, name)]
    assert missing == []
    assert len(set(flatlab.__all__)) == len(flatlab.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from flatlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(flatlab.__all__)


def test_removed_scale_helpers_are_gone():
    assert [name for name in REMOVED if hasattr(flatlab, name)] == []
    assert [name for name in REMOVED
            if hasattr(flatlab.transforms, name)] == []
