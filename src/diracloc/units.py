"""Unit conventions used throughout the package.

Everything internal works in natural units hbar = c = m = 1:

    lengths   in Compton wavelengths  lambda_C = hbar/(m c)
    momenta   in m c
    times     in lambda_C / c
    energies  in m c^2

so the free-particle dispersion is E(p) = sqrt(p^2 + 1) and the rest
energy is exactly 1.  Conversion to laboratory units is a presentation
concern and happens (if at all) at the command-line boundary, never
inside the numerical kernels.
"""

# Tautological in natural units; it exists so that formulas can spell
# out where a mass would appear.
MASS = 1.0
