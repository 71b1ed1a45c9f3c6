"""ircnet: longitudinal co-authorship network analysis.

Pipeline: yearly weighted co-authorship networks from publication records,
disparity-filter binary backbones, actor-oriented models of network
evolution estimated by stochastic approximation, and simulation-based
goodness of fit.
"""

import gc as _gc

# The imports below (numpy, scipy.stats, networkx) allocate objects that live
# until the process exits; the cyclic collector would scan them again and
# again while they load. It is paused for the import alone, and the caller's
# state comes back even when an import fails.
_gc_was_enabled = _gc.isenabled()
_gc.disable()
try:
    from .panel import (ActorSet, WeightedNetwork, BinaryNetwork,
                        WeightedNetSeries, BinaryNetSeries, ActorCovariate,
                        DyadCovariate, CovariateSet, degree_sequence, density,
                        isolate_count)
    from .ingest import (ArticleRecord, DisambiguationDictionary, disambiguate,
                         expand_pairs, aggregate, describe)
    from .backbone import disparity_scores, extract_backbone
    from .effects import EffectSpec, ModelSpec, statistic, change_statistic, \
        target_statistics
    from .simulate import ministep, simulate_period, simulate_panel
    from .estimate import (EstimationOptions, EstimationResult, estimate,
                           initialize, phase1_derivative, phase2_update,
                           phase3_finalize, p_value, p_values, stars)
    from .gof import degree_distribution_aux, triad_census_undirected, gof_test
    from . import fileio
finally:
    if _gc_was_enabled:
        _gc.enable()

__version__ = "0.1.0"
