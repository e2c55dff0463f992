"""
A sharper twin of the same function
===================================

Start from an exact minimum of a small rectifier network, then rescale
the first and last layers against each other. The network computes the
same function afterwards, so every probe input returns the same output,
yet the curvature measured at the new parameter point can be made as
large as we ask for.
"""

import numpy as np

from flatlab import (Architecture, ScaleMap, SharpnessConfig,
                     flatness_report, forward, make_teacher_student,
                     sharpening_alpha, hessian)
from flatlab.experiments import probe_inputs

arch = Architecture((2, 8, 1))
data, params = make_teacher_student(arch, seed=3, m=48)
cfg = SharpnessConfig(epsilon=1e-2, seed=3)

before = flatness_report(arch, params, data, cfg)
print("at the minimum itself:")
print(f"  loss          {before.loss:.3e}")
print(f"  spectral norm {before.spec_norm:.6f}")
print(f"  eps-sharpness {before.eps_sharp:.3e}")

# pick the layer rescaling that pushes the predicted spectral norm
# past one million
target = 1e6
hess = hessian(arch, params, data)
alpha = sharpening_alpha(arch, hess, target)
scale = ScaleMap.first_last(arch, alpha)
moved = scale.apply(params)

print(f"\nrescale first layer by {alpha:.4g}, last by {1 / alpha:.4g}")

# same function: compare outputs on a fixed probe grid
probes = probe_inputs(arch, seed=3)
dev = np.max(np.abs(forward(arch, moved, probes) - forward(arch, params, probes)))
print(f"largest output change over {len(probes)} probes: {dev:.3e}")

# curvature at the new point, propagated through the exact scaling law
scaled = scale.hessian(hess)
top = float(np.max(np.abs(np.linalg.eigvalsh(scaled))))
print(f"spectral norm after the move: {top:.4e}  (target was {target:.0e})")

# the epsilon-ball measure agrees that the new point is worse
after = flatness_report(arch, moved, data, cfg)
print(f"eps-sharpness after the move: {after.eps_sharp:.3e}")
print(f"ratio: {after.eps_sharp / max(before.eps_sharp, 1e-300):.3e}")
