"""Annealed split-Gibbs plug-and-play posterior sampling for linear inverse imaging.

Provides block-averaging super-resolution / denoising forward operators with
one scalar singular value, an exact image-space Gaussian likelihood sampler, a
reverse-diffusion prior step driven by a pluggable denoiser, analytic
(Gaussian / Gaussian-mixture) priors with closed-form posterior oracles, a
synthetic speckled-phantom benchmark, and PSNR/SSIM evaluation.
"""

from pnpdm.images import ImageFormatError, as_image, read_image, write_image
from pnpdm.operators import SvdOperator, block_average_downsample
from pnpdm.likelihood import LikelihoodModel, conditional_moments, data_fidelity, sample_conditional
from pnpdm.prior_step import SdeConfig, prior_refine, sigma_grid
from pnpdm.sgs import AnnealSchedule, RunConfig, initialize, rho_at, run_chain
from pnpdm.analytic import GaussianPrior, GmmPrior, gaussian_posterior_oracle
from pnpdm.metrics import bicubic_upsample, psnr, ssim
from pnpdm.phantom import Layer, PhantomSpec, degrade, generate_phantom

__all__ = [
    "AnnealSchedule",
    "GaussianPrior",
    "GmmPrior",
    "ImageFormatError",
    "Layer",
    "LikelihoodModel",
    "PhantomSpec",
    "RunConfig",
    "SdeConfig",
    "SvdOperator",
    "as_image",
    "bicubic_upsample",
    "block_average_downsample",
    "conditional_moments",
    "data_fidelity",
    "degrade",
    "gaussian_posterior_oracle",
    "generate_phantom",
    "initialize",
    "prior_refine",
    "psnr",
    "read_image",
    "rho_at",
    "run_chain",
    "sample_conditional",
    "sigma_grid",
    "ssim",
    "write_image",
]

__version__ = "0.1.0"
