"""Annealed split-Gibbs plug-and-play posterior sampling for linear inverse imaging.

Provides block-averaging super-resolution / denoising forward operators with
one scalar singular value, an exact image-space Gaussian likelihood sampler, a
reverse-diffusion prior step driven by a pluggable denoiser, analytic
(Gaussian / Gaussian-mixture) priors with closed-form posterior oracles, a
synthetic speckled-phantom benchmark, and PSNR/SSIM evaluation.
"""
