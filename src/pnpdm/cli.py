"""Command-line entry point.

Subcommands::

    pnpdm simulate <config>            generate phantom + degraded measurement
    pnpdm reconstruct <config>         run the posterior sampler
    pnpdm evaluate <ref> <test>...     PSNR/SSIM table against a reference

Each subcommand reads its config against one schema, ``{section: {key:
parser}}`` (``SIMULATE_SCHEMA``, ``RECONSTRUCT_SCHEMA``), and builds each
object from its own section; a key left unset takes the default of the
dataclass it feeds, except for the few defaults that belong to the CLI
(measurement, prior parameters, phantom size, run length, chains).

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric error,
3 bridge/external failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import shlex
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from pnpdm.analytic import GaussianPrior, GmmPrior
from pnpdm.bridge import BridgeConfig, BridgeDenoiser, BridgeError
from pnpdm.config import ConfigError, boolean, finite_float, float_list, read_config
from pnpdm.images import MAX_DIM, read_image, write_image
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

_LAYER_KEY = r"layer\d+"

SIMULATE_SCHEMA = {
    "phantom": {"height": int, "width": int, "background": finite_float,
                "speckle_shape": finite_float, "seed": int, _LAYER_KEY: float_list},
    "measurement": {"factor": int, "sigma_y": finite_float, "seed": int},
    "io": {"output_dir": str},
}

# [prior] keys by kind; a key of another kind is an error.
PRIOR_KEYS = {
    "gaussian": {"mean": finite_float, "variance": finite_float},
    "gmm": {"means": float_list, "weights": float_list, "variances": float_list},
    "bridge": {"command": shlex.split, "timeout": finite_float},
}

RECONSTRUCT_SCHEMA = {
    "measurement": {"factor": int, "sigma_y": finite_float},
    "schedule": {"rho0": finite_float, "rho_min": finite_float, "alpha": finite_float},
    "sde": {"steps": int, "sigma_floor": finite_float, "stochastic": boolean},
    "run": {"iterations": int, "burn_in": int, "collect_every": int, "chains": int,
            "seed": int},
    "prior": {"kind": str, **{k: p for keys in PRIOR_KEYS.values() for k, p in keys.items()}},
    "io": {"input": str, "output": str, "log": str, "samples_dir": str},
}

def _build(section: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), reporting a ValueError it raises on a bad
    [section] value as a ConfigError, so the run exits with EXIT_USAGE."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _phantom_spec(section: dict) -> PhantomSpec:
    fields = {"height": 256, "width": 256, **section}
    layers = []
    for key in sorted((k for k in section if k.startswith("layer")), key=lambda k: int(k[5:])):
        values = fields.pop(key)
        if len(values) != 4:
            raise ConfigError(f"phantom.{key}: expected 'c0,c1,c2,brightness'")
        layers.append(Layer(depth=tuple(values[:3]), brightness=values[3]))
    return _build("phantom", PhantomSpec, layers=tuple(layers), **fields)


def cmd_simulate(config_path: str) -> int:
    cfg = read_config(config_path, SIMULATE_SCHEMA)
    spec = _phantom_spec(cfg["phantom"])
    factor = cfg["measurement"].get("factor", 4)
    sigma_y = cfg["measurement"].get("sigma_y", 0.03)
    noise_seed = cfg["measurement"].get("seed", spec.seed + 1)
    out_dir = Path(cfg["io"].get("output_dir", "."))

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


def _build_denoiser(section: dict):
    """Returns (denoise callable, closer callable)."""
    keys = dict(section)
    kind = keys.pop("kind", "gaussian")
    if kind not in PRIOR_KEYS:
        raise ConfigError(f"unknown prior kind {kind!r}")
    stray = keys.keys() - PRIOR_KEYS[kind].keys()
    if stray:
        raise ConfigError(f"prior.{min(stray)} does not apply to kind = {kind}")
    if kind == "gaussian":
        prior = _build("prior", GaussianPrior, **{"mean": 0.5, "variance": 0.04, **keys})
        return prior.denoise, lambda: None
    if kind == "gmm":
        means = keys.get("means", [0.05, 0.45, 0.75])
        prior = _build("prior", GmmPrior, means=means,
                       weights=keys.get("weights", [1.0] * len(means)),
                       variances=keys.get("variances", [0.0009] * len(means)))
        return prior.denoise, lambda: None
    if "command" not in keys:
        raise ConfigError("prior.kind = bridge requires prior.command")
    bridge = BridgeDenoiser(_build("prior", BridgeConfig, **keys))
    return bridge.denoise, bridge.close


def cmd_reconstruct(config_path: str, threads: int = 1) -> int:
    cfg = read_config(config_path, RECONSTRUCT_SCHEMA)

    io = cfg["io"]
    if "input" not in io:
        raise ConfigError("io.input is required for reconstruct")
    output_path = Path(io.get("output", "reconstruction.pnpi"))
    log_path = Path(io["log"]) if "log" in io else None
    samples_dir = Path(io["samples_dir"]) if "samples_dir" in io else None
    # paths the run cannot write fail now, not after every chain has run
    for key, path in (("output", output_path), ("log", log_path)):
        if path is not None and path.is_dir():
            raise IsADirectoryError(errno.EISDIR, f"io.{key} is a directory", str(path))
    if samples_dir is not None and samples_dir.exists() and not samples_dir.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "io.samples_dir is not a directory",
                                 str(samples_dir))

    measurement = read_image(io["input"])
    factor = cfg["measurement"].get("factor", 4)
    operator = _build("measurement", block_average_downsample,
                      factor, measurement.shape[0] * factor, measurement.shape[1] * factor)
    model = _build("measurement", LikelihoodModel, operator=operator,
                   noise_sigma=cfg["measurement"].get("sigma_y", 0.03),
                   measurement=measurement)
    if max(operator.in_shape) > MAX_DIM:  # refused before the start image is allocated
        raise ValueError(f"io.output: a {operator.in_shape} reconstruction exceeds the "
                         f"PNPI limit of {MAX_DIM} rows and columns")

    schedule = _build("schedule", AnnealSchedule, **cfg["schedule"])
    sde_keys = {"num_steps" if k == "steps" else k: v for k, v in cfg["sde"].items()}
    if not sde_keys.pop("stochastic", True):  # read only so older configs keep working
        raise ConfigError("sde.stochastic = false: the probability-flow refine is removed")
    sde = _build("sde", SdeConfig, **sde_keys)
    # every prior step's grid starts at a rho >= rho_min: reject
    # sigma_floor >= rho_min before any chain starts
    _build("sde", sigma_grid, schedule.rho_min, sde)

    run = dict(cfg["run"])
    chains = run.pop("chains", 1)
    if chains < 1:
        raise ConfigError(f"run.chains must be >= 1, got {chains}")
    burn_in = run.setdefault("burn_in", schedule.clamp_iteration())
    run_cfg = _build("run", RunConfig, **{"iterations": burn_in + 100, **run})
    x_init = initialize(model)

    denoise, close = _build_denoiser(cfg["prior"])
    log_lines: list[str] = []

    def log_iteration(q, rho, x):
        log_lines.append(f"{q}\t{rho:.10g}\t{data_fidelity(model, x):.10g}")

    def one_chain(index: int):
        cfg_i = dataclasses.replace(run_cfg, seed=run_cfg.seed + index)
        callback = log_iteration if index == 0 and log_path is not None else None
        # the chain's mean is never read: drop it as the chain returns
        return run_chain(model, denoise, schedule, sde, cfg_i, x_init, callback)[0]

    try:
        # directories are made once the run is set up, so a path that cannot
        # be one fails before any chain runs
        for directory in (output_path.parent, log_path and log_path.parent, samples_dir):
            if directory is not None:
                directory.mkdir(parents=True, exist_ok=True)
        if chains == 1 or threads <= 1:
            results = [one_chain(i) for i in range(chains)]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one_chain, range(chains)))
    finally:
        close()

    all_samples = [s for samples in results for s in samples]
    mean = sample_mean(all_samples)
    write_image(output_path, mean)
    if samples_dir is not None:
        for i, sample in enumerate(all_samples):
            write_image(samples_dir / f"sample_{i:05d}.pnpi", sample)
    if log_path is not None:
        log_path.write_text(
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
    name_width = max(len("name"), *(len(r[0]) for r in rows))
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
        if args.threads < 1:
            parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "reconstruct":
            return cmd_reconstruct(args.config, args.threads)
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
