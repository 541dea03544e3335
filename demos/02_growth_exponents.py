"""Growth-exponent fits over the window R in [16, 256].

Least squares on (log R, log value) over geometric circles, smallest circle
dropped.  The dual family converges fast; the primal family carries an
R^(-2/3) correction, so its fit sits within but near the 2% band.
"""
import numpy as np

from ma2d import analysis, oracle

print(f"{'alpha':>8} {'kind':>8} {'fitted':>9} {'theory':>8} {'rel dev':>9} {'ratio proxy':>12}")
for alpha in (1 / 8, 1 / 6, 1 / 5):
    for kind, theory in (
        ("primal", 1 / (1 - 2 * alpha)),
        ("dual", 1 / (2 * alpha)),
    ):
        prof = oracle.RadialProfile(alpha=alpha, kind=f"{kind}_translator")
        fit = analysis.growth_exponent(prof, 16.0, 256.0, 5, slope_theory=theory)
        print(
            f"{alpha:8.4f} {kind:>8} {fit.slope:9.4f} {theory:8.4f} "
            f"{abs(fit.slope - theory) / theory:9.4%} {fit.ratio_proxy:12.6f}"
        )

print("\nquadratic sanity check:")
fit = analysis.growth_exponent(
    lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), 16.0, 256.0, 8, slope_theory=2.0
)
print(f"  fitted slope {fit.slope:.8f} (exact power 2)")
