"""measure-lab: push-forward measures of Parry measures on sofic shifts
under Pisot digit maps.

Construct the maximal-entropy measure of a labelled automaton, push it to
the reals through (x_k) -> sum x_k beta^-k for a Pisot number beta, then
classify the result as purely atomic or continuous, compute exact atom
values and masses, evaluate the Fourier transform through truncated
infinite matrix products, and scan the limit coefficients along
beta-power sequences for singularity evidence.

Import from the modules (``measure_lab.parry``, ``measure_lab.classify``,
...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
