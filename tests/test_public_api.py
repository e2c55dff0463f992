import re
from dataclasses import fields
from pathlib import Path

import flatlab
from flatlab.transforms import _TRANSFORM_KINDS

README = Path(__file__).resolve().parents[1] / "README.md"

# names the scale map replaced, the weight-norm transform that moved no
# point, and the spec encoder only tests called; none may come back as an
# attribute
REMOVED = ("transform_multipliers", "first_last_alphas",
           "many_directions_alphas", "alpha_scale_deep", "DiagonalScaling",
           "diagonal_scaling", "predicted_gradient", "predicted_hessian",
           "WeightNormScale", "weight_norm_scale", "transform_to_dict")


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


def test_readme_spec_list_names_every_kind_with_its_fields():
    # the README's list is the one description of the spec file format,
    # so it must name each kind the decoder takes, with its fields in order
    text = README.read_text()
    start = text.index("The kinds and their fields:")
    section = text[start:text.index("\n\n", text.index("\n- ", start))]
    listed = {kind: re.findall(r"`(\w+)`", rest) for kind, rest in
              re.findall(r"^- `(\w+)`: (.*)$", section, re.MULTILINE)}
    assert listed == {kind: [f.name for f in fields(cls)]
                      for kind, cls in _TRANSFORM_KINDS.items()}
