"""Command-line entry point.

Subcommands::

    pnpdm simulate <config>            generate phantom + degraded measurement
    pnpdm reconstruct <config>         run the posterior sampler
    pnpdm evaluate <ref> <test>...     PSNR/SSIM table against a reference

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric error,
3 bridge/external failure.
"""

from __future__ import annotations

import argparse
import re
import shlex
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from pnpdm.analytic import GaussianPrior, GmmPrior
from pnpdm.bridge import BridgeConfig, BridgeDenoiser, BridgeError
from pnpdm.config import (
    ConfigError,
    get_value,
    load_config,
    parse_bool,
    parse_float_list,
    parse_number,
    validate_keys,
)
from pnpdm.images import read_image, write_image
from pnpdm.likelihood import LikelihoodModel, data_fidelity
from pnpdm.metrics import psnr, ssim
from pnpdm.operators import block_average_downsample
from pnpdm.phantom import Layer, PhantomSpec, degrade, generate_phantom
from pnpdm.prior_step import SdeConfig, sigma_grid
from pnpdm.sgs import AnnealSchedule, RunConfig, initialize, run_chain, sample_mean

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_BRIDGE = 3

_LAYER_KEY = re.compile(r"^layer\d+$")

SIMULATE_SCHEMA = {
    "phantom": lambda k: k in {"height", "width", "background", "speckle_shape", "seed"}
    or bool(_LAYER_KEY.match(k)),
    "measurement": {"factor", "sigma_y", "seed"},
    "io": {"output_dir"},
}

RECONSTRUCT_SCHEMA = {
    "measurement": {"factor", "sigma_y"},
    "schedule": {"rho0", "rho_min", "alpha"},
    "sde": {"steps", "curvature", "sigma_floor", "stochastic"},
    "run": {"iterations", "burn_in", "collect_every", "chains", "seed", "init",
            "paper_strict"},
    "prior": {"kind", "mean", "variance", "means", "weights", "variances",
              "command", "timeout", "restart_on_crash"},
    "io": {"input", "output", "log", "samples_dir"},
}

# Default phantom geometry: three gently curved tissue bands on a dark
# background, in the spirit of layered cross-sectional scans.
def _default_layers(height: int, width: int) -> tuple[Layer, ...]:
    h, w = float(height), float(width)
    return (
        Layer(depth=(0.22 * h, 0.0, 0.12 * h / (w * w)), brightness=0.75),
        Layer(depth=(0.45 * h, -0.02, 0.10 * h / (w * w)), brightness=0.45),
        Layer(depth=(0.72 * h, 0.01, 0.06 * h / (w * w)), brightness=0.60),
    )


def _build(section: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), reporting a ValueError it raises on a bad
    [section] value as a ConfigError, so the run exits with EXIT_USAGE."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _phantom_spec(sections, seed_override=None) -> PhantomSpec:
    section = sections.get("phantom", {})
    height = parse_number(section.get("height", "256"), "phantom.height", int)
    width = parse_number(section.get("width", "256"), "phantom.width", int)
    seed = parse_number(section.get("seed", "0"), "phantom.seed", int)
    if seed_override is not None:
        seed = seed_override
    layer_keys = sorted(
        (k for k in section if _LAYER_KEY.match(k)),
        key=lambda k: int(k[5:]),
    )
    layers = []
    for key in layer_keys:
        values = parse_float_list(section[key], f"phantom.{key}")
        if len(values) != 4:
            raise ConfigError(f"phantom.{key}: expected 'c0,c1,c2,brightness'")
        layers.append(Layer(depth=(values[0], values[1], values[2]), brightness=values[3]))
    if not layer_keys:
        layers = list(_default_layers(height, width))
    return _build(
        "phantom", PhantomSpec,
        height=height,
        width=width,
        layers=tuple(layers),
        speckle_shape=parse_number(section.get("speckle_shape", "6.0"),
                                   "phantom.speckle_shape"),
        background=parse_number(section.get("background", "0.05"), "phantom.background"),
        seed=seed,
    )


def cmd_simulate(config_path: str, seed_override=None) -> int:
    sections = load_config(config_path)
    validate_keys(sections, SIMULATE_SCHEMA)
    spec = _phantom_spec(sections, seed_override)
    factor = parse_number(get_value(sections, "measurement", "factor", "4"),
                          "measurement.factor", int)
    sigma_y = parse_number(get_value(sections, "measurement", "sigma_y", "0.03"),
                           "measurement.sigma_y")
    noise_seed = parse_number(get_value(sections, "measurement", "seed", str(spec.seed + 1)),
                              "measurement.seed", int)
    out_dir = Path(get_value(sections, "io", "output_dir", "."))

    clean, speckled = generate_phantom(spec)
    lr = _build("measurement", degrade, speckled, factor, sigma_y, noise_seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    paths = {
        "clean": out_dir / "clean.pnpi",
        "speckled": out_dir / "speckled.pnpi",
        "lr": out_dir / "lr.pnpi",
    }
    write_image(paths["clean"], clean)
    write_image(paths["speckled"], speckled)
    write_image(paths["lr"], lr)
    manifest = out_dir / "manifest.txt"
    manifest.write_text(
        "\n".join(
            [
                f"clean = {paths['clean']}",
                f"speckled = {paths['speckled']}",
                f"lr = {paths['lr']}",
                f"factor = {factor}",
                f"sigma_y = {sigma_y}",
                f"phantom_seed = {spec.seed}",
                f"noise_seed = {noise_seed}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {paths['clean']}, {paths['speckled']}, {paths['lr']}, {manifest}")
    return EXIT_OK


def _build_denoiser(sections):
    """Returns (denoise callable, closer callable)."""
    section = sections.get("prior", {})
    kind = section.get("kind", "gaussian")
    if kind == "gaussian":
        prior = GaussianPrior(
            mean=parse_number(section.get("mean", "0.5"), "prior.mean"),
            variance=parse_number(section.get("variance", "0.04"), "prior.variance"),
        )
        return prior.denoise, lambda: None
    if kind == "gmm":
        means = parse_float_list(section.get("means", "0.05,0.45,0.75"), "prior.means")
        weights = parse_float_list(section.get("weights", ",".join(["1"] * len(means))),
                                   "prior.weights")
        variances = parse_float_list(
            section.get("variances", ",".join(["0.0009"] * len(means))),
            "prior.variances",
        )
        prior = _build("prior", GmmPrior, weights=np.array(weights), means=np.array(means),
                       variances=np.array(variances))
        return prior.denoise, lambda: None
    if kind.startswith("bridge:") or kind == "bridge":
        command = kind[len("bridge:"):] if kind.startswith("bridge:") \
            else section.get("command", "")
        if not command:
            raise ConfigError("prior.kind = bridge requires prior.command")
        bridge = BridgeDenoiser(
            BridgeConfig(
                command=shlex.split(command),
                timeout=parse_number(section.get("timeout", "30"), "prior.timeout"),
                restart_on_crash=parse_bool(section.get("restart_on_crash", "false"),
                                            "prior.restart_on_crash"),
            )
        )
        return bridge.denoise, bridge.close
    raise ConfigError(f"unknown prior kind {kind!r}")


def cmd_reconstruct(config_path: str, seed_override=None, threads: int = 1) -> int:
    sections = load_config(config_path)
    validate_keys(sections, RECONSTRUCT_SCHEMA)

    input_path = get_value(sections, "io", "input")
    if input_path is None:
        raise ConfigError("io.input is required for reconstruct")
    output_path = Path(get_value(sections, "io", "output", "reconstruction.pnpi"))
    log_path = get_value(sections, "io", "log")
    samples_dir = get_value(sections, "io", "samples_dir")

    measurement = read_image(input_path)
    factor = parse_number(get_value(sections, "measurement", "factor", "4"),
                          "measurement.factor", int)
    sigma_y = parse_number(get_value(sections, "measurement", "sigma_y", "0.03"),
                           "measurement.sigma_y")
    operator = _build("measurement", block_average_downsample,
                      factor, measurement.shape[0] * factor, measurement.shape[1] * factor)
    model = _build("measurement", LikelihoodModel, operator=operator, noise_sigma=sigma_y,
                   measurement=measurement)

    schedule = _build(
        "schedule", AnnealSchedule,
        rho0=parse_number(get_value(sections, "schedule", "rho0", "10"), "schedule.rho0"),
        rho_min=parse_number(get_value(sections, "schedule", "rho_min", "0.3"),
                             "schedule.rho_min"),
        alpha=parse_number(get_value(sections, "schedule", "alpha", "0.9"),
                           "schedule.alpha"),
    )
    sde = _build(
        "sde", SdeConfig,
        num_steps=parse_number(get_value(sections, "sde", "steps", "20"), "sde.steps", int),
        curvature=parse_number(get_value(sections, "sde", "curvature", "7"),
                               "sde.curvature"),
        sigma_floor=parse_number(get_value(sections, "sde", "sigma_floor", "0.01"),
                                 "sde.sigma_floor"),
        stochastic=parse_bool(get_value(sections, "sde", "stochastic", "true"),
                              "sde.stochastic"),
    )
    # every prior step's grid starts at a rho >= rho_min: reject
    # sigma_floor >= rho_min before any chain starts
    _build("sde", sigma_grid, schedule.rho_min, sde)

    run_section = sections.get("run", {})
    seed = parse_number(run_section.get("seed", "0"), "run.seed", int)
    if seed_override is not None:
        seed = seed_override
    if parse_bool(run_section.get("paper_strict", "false"), "run.paper_strict"):
        iterations, burn_in = 100, 0
    else:
        burn_in_default = schedule.clamp_iteration()
        iterations = parse_number(run_section.get("iterations", str(burn_in_default + 100)),
                                  "run.iterations", int)
        burn_in = parse_number(run_section.get("burn_in", str(burn_in_default)),
                               "run.burn_in", int)
    chains = parse_number(run_section.get("chains", "1"), "run.chains", int)
    if chains < 1:
        raise ConfigError(f"run.chains must be >= 1, got {chains}")
    run_cfg = _build(
        "run", RunConfig,
        iterations=iterations,
        burn_in=burn_in,
        collect_every=parse_number(run_section.get("collect_every", "1"),
                                   "run.collect_every", int),
        seed=seed,
    )
    x_init = _build("run", initialize, model, run_section.get("init", "adjoint-upsample"),
                    np.random.default_rng(seed))

    denoise, close = _build_denoiser(sections)
    log_lines: list[str] = []

    def log_iteration(q, rho, x):
        log_lines.append(f"{q}\t{rho:.10g}\t{data_fidelity(model, x):.10g}")

    def one_chain(index: int):
        cfg_i = RunConfig(iterations=run_cfg.iterations, burn_in=run_cfg.burn_in,
                          collect_every=run_cfg.collect_every,
                          seed=run_cfg.seed + index)
        callback = log_iteration if index == 0 and log_path is not None else None
        return run_chain(model, denoise, schedule, sde, cfg_i, x_init, callback)

    try:
        if chains == 1 or threads <= 1:
            results = [one_chain(i) for i in range(chains)]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one_chain, range(chains)))
    finally:
        close()

    all_samples = [s for samples, _ in results for s in samples]
    mean = sample_mean(all_samples)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    write_image(output_path, mean)
    if samples_dir is not None:
        sample_root = Path(samples_dir)
        sample_root.mkdir(parents=True, exist_ok=True)
        for i, sample in enumerate(all_samples):
            write_image(sample_root / f"sample_{i:05d}.pnpi", sample)
    if log_path is not None:
        Path(log_path).write_text(
            "# q\trho\tdata_fidelity\n" + "\n".join(log_lines) + "\n", encoding="utf-8"
        )
    print(f"wrote {output_path} (mean of {len(all_samples)} samples)")
    return EXIT_OK


def cmd_evaluate(ref_path: str, test_paths: list[str]) -> int:
    ref = read_image(ref_path)
    rows = []
    failed = False
    for path in test_paths:
        try:
            test = read_image(path)
            rows.append((path, f"{psnr(ref, test):.6g}", f"{ssim(ref, test):.6g}", "n/a"))
        except (OSError, ValueError) as exc:
            rows.append((path, f"error: {exc}", "", ""))
            failed = True
    name_width = max(len("name"), *(len(r[0]) for r in rows)) if rows else len("name")
    header = f"{'name':<{name_width}}  {'PSNR':>10}  {'SSIM':>10}  {'LPIPS':>6}"
    print(header)
    for name, p, s, l in rows:
        print(f"{name:<{name_width}}  {p:>10}  {s:>10}  {l:>6}")
    return EXIT_RUNTIME if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpdm",
        description="Split-Gibbs plug-and-play posterior sampling for "
                    "super-resolution and denoising",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for multi-chain reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="generate a phantom benchmark")
    p_sim.add_argument("config")
    p_rec = sub.add_parser("reconstruct", help="run the posterior sampler")
    p_rec.add_argument("config")
    p_eval = sub.add_parser("evaluate", help="PSNR/SSIM table vs a reference")
    p_eval.add_argument("ref")
    p_eval.add_argument("tests", nargs="+")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.seed)
        if args.command == "reconstruct":
            return cmd_reconstruct(args.config, args.seed, args.threads)
        return cmd_evaluate(args.ref, args.tests)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BridgeError as exc:
        print(f"bridge error: {exc}", file=sys.stderr)
        return EXIT_BRIDGE
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
