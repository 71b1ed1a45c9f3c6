"""ircnet: longitudinal co-authorship network analysis.

Pipeline: yearly weighted co-authorship networks from publication records,
disparity-filter binary backbones, actor-oriented models of network
evolution estimated by stochastic approximation, and simulation-based
goodness of fit.
"""

__version__ = "0.1.0"
