"""Free-space optical link analysis toolkit.

Models irradiance fading as a finite mixture of two-gamma product channels
with an optional line-of-sight blockage state, plus the Gaussian-beam
geometry that drives the blockage classification, outage probability with
its large-SNR behaviour, and a Monte Carlo validation layer.
"""

__version__ = "0.1.0"

from .beam import (
    BeamScenario,
    BlockageClass,
    PlaneWaveValidityWarning,
    beam_radius,
    classify_blockage,
    coherence_radius,
    effective_beam_radius,
    rytov_variance,
)
from .errors import (
    AccuracyError,
    BracketError,
    DegenerateModelError,
    DegenerateParameterError,
    DomainError,
    GofFailure,
)
from .malaga import (
    BlockageConfig,
    MalagaParams,
    MixtureExpansion,
    coupling_probability,
    gk_cdf,
    gk_mgf,
    gk_pdf,
    malaga_blockage_cdf,
    malaga_blockage_mgf,
    malaga_blockage_pdf,
    mixture_weights,
)
from .montecarlo import (
    GofResult,
    McConfig,
    McOutageEstimate,
    McSummary,
    chunk_plan,
    chunk_rng,
    collect_samples,
    empirical_outage,
    gof_chisquare,
    gof_ks,
    sample_chunk,
    sample_irradiance,
    summarize,
    summarize_values,
)
from .outage import (
    OutageResult,
    SnrPoint,
    asymptotic_outage,
    gain_coefficient,
    max_power_penalty,
    outage_curve,
    outage_exact,
    power_penalty,
    required_gamma_n,
    subchannel_diversity,
)
from .special_math import AccuracyBudget

__all__ = [
    "__version__",
    # fading statistics
    "MalagaParams", "BlockageConfig", "MixtureExpansion", "mixture_weights",
    "coupling_probability", "gk_pdf", "gk_cdf", "gk_mgf",
    "malaga_blockage_pdf", "malaga_blockage_cdf", "malaga_blockage_mgf",
    # beam geometry
    "BeamScenario", "BlockageClass", "PlaneWaveValidityWarning",
    "beam_radius", "effective_beam_radius", "rytov_variance",
    "coherence_radius", "classify_blockage",
    # outage
    "SnrPoint", "OutageResult", "outage_exact", "outage_curve", "asymptotic_outage",
    "gain_coefficient", "subchannel_diversity",
    "power_penalty", "max_power_penalty", "required_gamma_n",
    # Monte Carlo
    "McConfig", "McSummary", "McOutageEstimate", "GofResult",
    "chunk_plan", "chunk_rng", "sample_chunk", "sample_irradiance",
    "collect_samples", "summarize", "summarize_values", "empirical_outage",
    "gof_chisquare", "gof_ks",
    # accuracy
    "AccuracyBudget",
    # errors
    "DomainError", "DegenerateModelError", "DegenerateParameterError",
    "AccuracyError", "BracketError", "GofFailure",
]
