"""Time- and frequency-domain causality, isolation, and autonomy measures
for bivariate stochastic processes, with surrogate significance testing and
benchmark simulators."""

__version__ = "0.1.0"
