"""
Gradient norms under layer rescaling
====================================

At a generic point (not a minimum), rescaling layer one by alpha and
layer two by 1/alpha leaves the function alone but multiplies the
layer-two gradient block by alpha. As alpha shrinks, the gradient norm
grows like 1/alpha, so gradient size at an equivalent parameter point
can be dialed to any value. The sweep below fits the log-log slope.
"""

import csv
import io

import numpy as np

from flatlab import Architecture, SeededRng, SharpnessConfig, alpha_sweep
from flatlab.nets import Dataset, uniform_params

arch = Architecture((2, 6, 1))
gen = SeededRng(21, 7).generator()
data = Dataset(gen.uniform(-1, 1, (32, 2)), gen.uniform(-1, 1, 32))
params = uniform_params(arch, SeededRng(21, 8).generator())

alphas = tuple(10.0 ** e for e in np.linspace(0, -3, 7))
report = alpha_sweep(arch, params, data, alphas,
                     SharpnessConfig(epsilon=1e-2, seed=21))
table = csv.DictReader(io.StringIO(report))

print("alpha        loss         gradient norm")
rows = list(table)
for row in rows:
    print(f"{float(row['alpha']):.4e}   {float(row['loss']):.6f}     "
          f"{float(row['grad_norm']):.4e}")

xs = np.log10([float(r["alpha"]) for r in rows])
ys = np.log10([float(r["grad_norm"]) for r in rows])
slope = np.polyfit(xs, ys, 1)[0]
# near alpha = 1 the untouched gradient block still contributes; the
# asymptote shows once the rescaled block dominates
tail = [(x, y) for x, y in zip(xs, ys) if x <= -1]
tail_slope = np.polyfit(*zip(*tail), 1)[0]
print(f"\nloss spread across the sweep: "
      f"{max(float(r['loss']) for r in rows) - min(float(r['loss']) for r in rows):.3e}")
print(f"log-log slope over the whole sweep: {slope:.4f}")
print(f"log-log slope over alpha <= 0.1:    {tail_slope:.4f}")
