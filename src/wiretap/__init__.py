"""Secure MIMO beamforming with synthetic interference.

Library for studying a multi-antenna transmitter that steers data at an
intended receiver along the strongest channel direction while filling the
remaining directions with synthetic noise, so that an eavesdropper cannot
decode.  Includes closed-form second-order predictions of how channel-state
errors at the transmitter degrade the received SINR, robust receive
beamformers that claw most of that loss back, and a Monte Carlo harness plus
CLI for reproducing the headline experiments.
"""
from __future__ import annotations

from .channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    SvdStack,
    align_singular_vectors,
    complex_gaussian,
    generate_channels,
    partition_svd,
    perturb_ecsi,
    sample_csi_error,
)
from .exceptions import (
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    IllConditionedGapError,
    OrientationError,
    ParameterError,
    ValidityRangeError,
)
from .harness import (
    SCENARIOS,
    SCHEMES,
    ExperimentConfig,
    SweepResult,
    preset_config,
    run_experiment,
)
from .perturbation import (
    PerturbMoments,
    compute_moments,
    first_vector_leak,
    naive_sinr_terms,
    naive_trial,
    predict_naive_sinr,
    simulate_naive,
)
from .robust import fdd_receiver, tdd_receiver
from .transmit import (
    LinkSinr,
    RxBeamformer,
    SinrReport,
    TxScheme,
    bob_matched_beamformer,
    design_artificial_noise,
    design_known_ecsi,
    eve_mmse_beamformer,
    evaluate_sinr,
    link_sinr,
    perfect_csi_trial,
    required_rho,
    secrecy_capacity_full,
    secrecy_capacity_proxy,
    secure_goodput,
)
from .units import from_db, to_db
from .version import __version__

__all__ = [
    "ChannelMatrix",
    "ChannelSet",
    "ConfigError",
    "CsiErrorModel",
    "DegenerateChannelError",
    "DimensionError",
    "ExperimentConfig",
    "IllConditionedGapError",
    "LinkSinr",
    "OrientationError",
    "ParameterError",
    "PerturbMoments",
    "RxBeamformer",
    "SCENARIOS",
    "SCHEMES",
    "SinrReport",
    "SvdStack",
    "SweepResult",
    "TxScheme",
    "ValidityRangeError",
    "__version__",
    "align_singular_vectors",
    "bob_matched_beamformer",
    "complex_gaussian",
    "compute_moments",
    "design_artificial_noise",
    "design_known_ecsi",
    "eve_mmse_beamformer",
    "evaluate_sinr",
    "fdd_receiver",
    "first_vector_leak",
    "from_db",
    "generate_channels",
    "link_sinr",
    "naive_sinr_terms",
    "naive_trial",
    "partition_svd",
    "perfect_csi_trial",
    "perturb_ecsi",
    "predict_naive_sinr",
    "preset_config",
    "required_rho",
    "run_experiment",
    "sample_csi_error",
    "secrecy_capacity_full",
    "secrecy_capacity_proxy",
    "secure_goodput",
    "simulate_naive",
    "tdd_receiver",
    "to_db",
]
