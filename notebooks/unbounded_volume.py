"""
Boxes all the way out
=====================

Around a two-layer minimum, each first-layer rescaling by alpha produces
another parameter point computing the same function. Spacing the alphas
geometrically gives pairwise disjoint boxes in which the loss stays
within epsilon of the minimum, and the summed box volume keeps growing
with every box added. A region of near-minimal loss therefore has no
finite volume, which is awkward for any notion of flatness that counts
volume.

The certificate below is checked, not assumed: the base box is sampled
for the loss deviation, and the disjointness spacing is verified before
a box may contribute. alpha is a power of two, so every later box is the
exact image of the base box: its samples' losses are the base box's, bit
for bit, wherever a guard on the sampled values proves it, and a box the
guard cannot prove is sampled too.
"""

from flatlab import (Architecture, SeededRng, make_teacher_student,
                     volume_flatness_certificate)

arch = Architecture((2, 5, 1))
data, params = make_teacher_student(arch, seed=11, m=32)

cert = volume_flatness_certificate(arch, params, data, epsilon=1e-2,
                                   boxes=12, samples_per_box=64,
                                   rng=SeededRng(11, 99))

print(f"box half-width r = {cert.r:.4g}, spacing alpha = {cert.alpha:.4g}")
print(f"disjointness verified: {cert.disjointness_verified}")
print()
print("box   worst loss deviation   cumulative volume bound")
for k, (dev, lb) in enumerate(zip(cert.max_deviations, cert.lower_bounds)):
    print(f"{k:3d}   {dev:.3e}             {lb:.6e}")

growth = [b / a for a, b in zip(cert.lower_bounds, cert.lower_bounds[1:])]
print(f"\nevery increment positive: {all(g > 1 for g in growth)}")

# with a single input and a single output the per-box volume is exactly
# constant, so the bound grows linearly forever
arch1 = Architecture((1, 6, 1))
data1, params1 = make_teacher_student(arch1, seed=5, m=24)
cert1 = volume_flatness_certificate(arch1, params1, data1, epsilon=1e-2,
                                    boxes=6, samples_per_box=64,
                                    rng=SeededRng(5, 99))
inc = [b - a for a, b in zip(cert1.lower_bounds, cert1.lower_bounds[1:])]
print("\nconstant-increment case (1 input, 1 output):")
print("  increments:", ", ".join(f"{x:.6e}" for x in inc))
