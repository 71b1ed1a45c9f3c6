"""ircnet: longitudinal co-authorship network analysis.

Pipeline: yearly weighted co-authorship networks from publication records,
disparity-filter binary backbones, actor-oriented models of network
evolution estimated by stochastic approximation, and simulation-based
goodness of fit.
"""

__version__ = "0.1.0"


def script():
    """The `ircnet` script: runs `ircnet.cli` as `python -m ircnet.cli` does,
    so the layers load with the collector paused (see `cli.run`)."""
    import runpy
    runpy.run_module("ircnet.cli", run_name="__main__", alter_sys=True)
