"""Reconstruction benchmark: drives `pnpdm simulate | reconstruct | evaluate`.

Run from the repository root::

    python3 bench/run_bench.py --workload phantom-256-gmm --seed 1 --seconds 40 --trace 0

One run makes the workload's inputs from the seed, launches five set-up probes,
then repeats closed-loop rounds (reconstruct, then evaluate, each in a fresh
interpreter) until the time is up, and checks every output against
``closed_form``.  With ``--trace 1`` every round pair is one untraced and one
traced round, and the per-layer metrics come from the traced one.  The last
line of standard output is the JSON result; the line before it is the run's
context.  See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import closed_form as cf

SETUP_PROBES = 5
CALIBRATION_TRIPS = 40
PROCESS_TIMEOUT_S = 90.0  # kills a hung command well inside a run's 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    size: int            # reconstruction is size x size
    chains: int
    threads: int
    iterations: int
    burn_in: int
    rho: float           # fixed coupling: rho0 = rho_min
    sde_steps: int
    sigma_floor: float
    sigma_y: float       # noise added to the measurement
    model_sigma_y: float  # noise level given to reconstruct
    prior: str           # [prior] section body; empty for the bridge
    reconstruct_repeats: int = 1  # reconstruct launches per round
    evaluate_repeats: int = 1  # evaluate launches per round, for a steadier median
    phantom: bool = False  # phantom input, else a draw from the Gaussian prior
    bridge: bool = False
    factor: int = 4


# A3's intensity ladder: background mode, band mode at 0.75, small bridges.
_GMM_MEANS = [round(0.05 + 0.1 * k, 2) for k in range(10)]
_GMM_WEIGHTS = [0.93] + [0.0025] * 6 + [0.05] + [0.0025] * 2
_GMM_PRIOR = (
    "kind = gmm\n"
    f"means = {','.join(map(str, _GMM_MEANS))}\n"
    f"weights = {','.join(map(str, _GMM_WEIGHTS))}\n"
    f"variances = {','.join(['0.0004'] * 10)}\n"
)
GAUSS_MEAN, GAUSS_VAR = 0.5, 0.01
_GAUSS_ARGS = f"--prior gaussian --mean {GAUSS_MEAN} --variance {GAUSS_VAR}"

WORKLOADS = {
    w.name: w for w in (
        Workload("phantom-256-gmm", size=256, chains=4, threads=2, iterations=3,
                 burn_in=1, rho=0.04, sde_steps=20, sigma_floor=0.008,
                 sigma_y=0.03, model_sigma_y=0.02, prior=_GMM_PRIOR, phantom=True,
                 evaluate_repeats=8),
        Workload("scan-1024-gaussian", size=1024, chains=1, threads=1, iterations=6,
                 burn_in=1, rho=0.1, sde_steps=4, sigma_floor=0.01, sigma_y=0.03,
                 model_sigma_y=0.03, reconstruct_repeats=3,
                 prior=f"kind = gaussian\nmean = {GAUSS_MEAN}\nvariance = {GAUSS_VAR}\n"),
        Workload("bridge-1024-gaussian", size=1024, chains=1, threads=1, iterations=6,
                 burn_in=1, rho=0.1, sde_steps=4, sigma_floor=0.01, sigma_y=0.03,
                 model_sigma_y=0.03, prior="", bridge=True, reconstruct_repeats=3),
    )
}

# Phantom geometry is fixed (two bright bands on the block grid, as in A3);
# the seed draws the speckle, the measurement noise and the chains.
PHANTOM_LAYERS = [(68, 0.75), (80, 0.05), (160, 0.75), (172, 0.05)]
PHANTOM_BACKGROUND = 0.05


@dataclass
class Launch:
    code: int
    started: float
    wall_s: float
    peak_rss_mb: float
    stdout: str


class Runner:
    """Launches pnpdm commands in fresh interpreters and counts operations."""

    def __init__(self, root: Path, out: Path):
        self.root = root
        self.out = out
        # one BLAS thread per process: the chain threads are the only workers
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def launch(self, argv: list[str]) -> Launch:
        """Run argv to completion; wall time and peak RSS come from wait4."""
        self.attempted += 1
        log = self.out / "stdout.txt"
        with open(log, "w+b") as out, open(self.out / "stderr.txt", "w+b") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()
        result = Launch(proc.returncode, started, ended - started,
                        usage.ru_maxrss * 1024 / 1e6, log.read_text("utf-8"))
        if result.code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv[1:4])}: exit {result.code}: {message[-300:]}")
        return result

    def pnpdm(self, args: list[str], trace: Path | None = None) -> Launch:
        if trace is None:
            return self.launch([sys.executable, "-m", "pnpdm.cli", *args])
        return self.launch([sys.executable, str(self.root / "bench" / "probe.py"),
                            "trace", str(trace), "--", *args])


@dataclass
class Inputs:
    lr: Path
    reference: Path       # what evaluate scores against
    reference_img: np.ndarray
    bicubic: Path
    bicubic_scores: tuple[float, float]  # own PSNR, SSIM against the reference
    bicubic_ms: float
    lr_img: np.ndarray
    posterior_mean: np.ndarray | None = None  # Gaussian workloads only
    expected_sse: tuple[float, float] = (0.0, 0.0)  # its mean and sd, ditto


def _layers_image(size: int) -> np.ndarray:
    rows = np.arange(size)[:, None] * np.ones((1, size))
    clean = np.full((size, size), PHANTOM_BACKGROUND)
    for top, brightness in PHANTOM_LAYERS:
        clean[rows >= top] = brightness
    return clean


def make_inputs(wl: Workload, runner: Runner, seed: int, checks: list[str]) -> Inputs:
    out = runner.out
    f = wl.factor
    if not wl.phantom:
        rng = np.random.default_rng([seed, wl.size])
        truth = GAUSS_MEAN + GAUSS_VAR**0.5 * rng.standard_normal((wl.size, wl.size))
        lr = cf.block_mean(truth, f) + wl.sigma_y * rng.standard_normal((wl.size // f,) * 2)
        cf.write_pnpi(out / "lr.pnpi", lr)
        lr = cf.read_pnpi(out / "lr.pnpi")
        posterior_mean, _ = cf.gaussian_block_posterior(
            GAUSS_MEAN, GAUSS_VAR, lr, f, cf.coupled_noise_var(wl.model_sigma_y, wl.rho, f))
        reference = out / "posterior_mean.pnpi"
        cf.write_pnpi(reference, posterior_mean)
    else:
        layers = "".join(f"layer{i + 1} = {top},0,0,{b}\n"
                         for i, (top, b) in enumerate(PHANTOM_LAYERS))
        (out / "simulate.cfg").write_text(
            f"[phantom]\nheight = {wl.size}\nwidth = {wl.size}\nseed = {seed}\n{layers}"
            f"speckle_shape = 6\nbackground = {PHANTOM_BACKGROUND}\n"
            f"[measurement]\nfactor = {f}\nsigma_y = {wl.sigma_y}\nseed = {seed + 10_000}\n"
            f"[io]\noutput_dir = {out.relative_to(runner.root)}\n", encoding="utf-8")
        if runner.pnpdm(["simulate", str(out / "simulate.cfg")]).code != 0:
            raise RuntimeError("pnpdm simulate failed")
        lr = cf.read_pnpi(out / "lr.pnpi")
        reference = out / "clean.pnpi"
        clean = cf.read_pnpi(reference)
        speckled = cf.read_pnpi(out / "speckled.pnpi")
        if not np.array_equal(clean, cf.to_f32(_layers_image(wl.size))):
            checks.append("simulate: clean phantom differs from the configured layers")
        noise_rms = float(np.sqrt(np.mean((lr - cf.block_mean(speckled, f)) ** 2)))
        if abs(noise_rms / wl.sigma_y - 1.0) > 5.0 / np.sqrt(2 * lr.size):
            checks.append(f"simulate: measurement noise rms {noise_rms:.5f} != {wl.sigma_y}")
        posterior_mean = None

    from pnpdm.metrics import bicubic_upsample
    started = time.monotonic()
    bicubic = np.clip(bicubic_upsample(lr, f), 0.0, 1.0)
    bicubic_ms = 1e3 * (time.monotonic() - started)
    if np.max(np.abs(bicubic - np.clip(cf.bicubic_upsample(lr, f), 0.0, 1.0))) > 1e-9:
        checks.append("pnpdm.metrics.bicubic_upsample differs from the Catmull-Rom reference")
    cf.write_pnpi(out / "bicubic.pnpi", bicubic)
    ref, bicubic = cf.read_pnpi(reference), cf.read_pnpi(out / "bicubic.pnpi")
    expected_sse = (0.0, 0.0)
    if posterior_mean is not None:
        expected_sse = cf.chain_mean_error(GAUSS_MEAN, GAUSS_VAR, lr, f, wl.model_sigma_y,
                                           wl.rho, wl.sigma_floor, wl.burn_in,
                                           wl.iterations - wl.burn_in)
    return Inputs(lr=out / "lr.pnpi", reference=reference, reference_img=ref,
                  bicubic=out / "bicubic.pnpi",
                  bicubic_scores=(cf.psnr(ref, bicubic), cf.ssim(ref, bicubic)),
                  bicubic_ms=bicubic_ms, lr_img=lr, posterior_mean=posterior_mean,
                  expected_sse=expected_sse)


def write_config(wl: Workload, runner: Runner, inputs: Inputs, seed: int, tag: str,
                 helper_trace: Path | None = None) -> Path:
    out = runner.out
    prior = wl.prior
    if wl.bridge:
        if helper_trace is None:
            command = f"{shlex.quote(sys.executable)} -m pnpdm.bridge_helper {_GAUSS_ARGS}"
        else:
            command = (f"{shlex.quote(sys.executable)} "
                       f"{shlex.quote(str(runner.root / 'bench' / 'probe.py'))} helper "
                       f"{shlex.quote(str(helper_trace))} -- {_GAUSS_ARGS}")
        prior = f"kind = bridge\ncommand = {command}\ntimeout = 30\n"
    samples = "" if wl.phantom else f"samples_dir = {out / ('samples_' + tag)}\n"
    path = out / f"reconstruct_{tag}.cfg"
    path.write_text(
        f"[measurement]\nfactor = {wl.factor}\nsigma_y = {wl.model_sigma_y}\n"
        f"[schedule]\nrho0 = {wl.rho}\nrho_min = {wl.rho}\nalpha = 0.9\n"
        f"[sde]\nsteps = {wl.sde_steps}\nsigma_floor = {wl.sigma_floor}\nstochastic = true\n"
        f"[run]\niterations = {wl.iterations}\nburn_in = {wl.burn_in}\n"
        f"chains = {wl.chains}\nseed = {seed}\n"
        f"[prior]\n{prior}"
        f"[io]\ninput = {inputs.lr}\noutput = {out / ('recon_' + tag + '.pnpi')}\n{samples}",
        encoding="utf-8")
    return path


def setup_probe(wl: Workload, runner: Runner, config: Path) -> float | None:
    probe = runner.launch([sys.executable, str(runner.root / "bench" / "probe.py"), "setup",
                           "--", "--threads", str(wl.threads), "reconstruct", str(config)])
    for line in probe.stdout.splitlines():
        if line.startswith("ready "):
            return float(line.split()[1]) - probe.started
    return None


def _agrees(printed: str, value: float) -> bool:
    """True when value rounds to the 6 significant digits pnpdm prints."""
    p = float(printed)
    unit = 10.0 ** (np.floor(np.log10(abs(p))) - 5) if p else 1e-6
    return abs(p - value) <= 0.5 * unit * (1 + 1e-6)


def check_output(wl: Workload, runner: Runner, inputs: Inputs,
                 tag: str, checks: list[str]) -> tuple[float, float]:
    """Score one reconstruction against the workload's reference; append a
    message to checks for each failure.  Returns its own PSNR and SSIM."""
    out = cf.read_pnpi(runner.out / f"recon_{tag}.pnpi")
    ref = inputs.reference_img
    psnr_out, ssim_out = cf.psnr(ref, out), cf.ssim(ref, out)
    psnr_bic, ssim_bic = inputs.bicubic_scores

    f = wl.factor
    if inputs.posterior_mean is None:
        if psnr_out - psnr_bic < 1.0 or ssim_out - ssim_bic < 0.02:
            checks.append(f"phantom: PSNR {psnr_out:.2f} vs bicubic {psnr_bic:.2f}, "
                          f"SSIM {ssim_out:.4f} vs {ssim_bic:.4f}")
        m = inputs.lr_img.size
        residual = float(np.sqrt(np.mean((cf.block_mean(out, f) - inputs.lr_img) ** 2)))
        if residual > wl.sigma_y * (1.0 + 4.0 / np.sqrt(2 * m)):
            checks.append(f"phantom: block means miss the measurement by {residual:.4f} rms")
    else:
        samples = wl.iterations - wl.burn_in
        expected, sd = inputs.expected_sse
        sse = float(np.sum((out - inputs.posterior_mean) ** 2))
        if abs(sse - expected) > 6.0 * sd:
            checks.append(f"gaussian: squared error {sse:.4f}, expected {expected:.4f} "
                          f"+- {6 * sd:.4f} (6 sd)")
        files = sorted((runner.out / f"samples_{tag}").glob("*.pnpi"))
        if len(files) != samples:
            checks.append(f"gaussian: {len(files)} sample files, expected {samples}")
        else:
            mean = np.clip(np.mean([cf.read_pnpi(p) for p in files], axis=0), 0.0, 1.0)
            if np.max(np.abs(mean - out)) > 1e-5:
                checks.append("gaussian: written samples do not average to the output")
    return psnr_out, ssim_out


def check_evaluate(runner: Runner, inputs: Inputs, tag: str, own: tuple[float, float],
                   evaluate: Launch, checks: list[str]) -> None:
    """The PSNR and SSIM that `pnpdm evaluate` printed must be the benchmark's own."""
    rows = {}
    for line in evaluate.stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4:
            rows[parts[0]] = parts[1:3]
    output = runner.out / f"recon_{tag}.pnpi"
    for path, scores in ((output, own), (inputs.bicubic, inputs.bicubic_scores)):
        printed = rows.get(str(path.relative_to(runner.root)))
        if printed is None or not (_agrees(printed[0], scores[0])
                                   and _agrees(printed[1], scores[1])):
            checks.append(f"evaluate printed {printed} for {path.name}, expected "
                          f"{scores[0]:.6g} {scores[1]:.6g}")


def run_round(wl, runner, inputs, config, tag, checks, trace_dir=None):
    """reconstruct_repeats times reconstruct, each output checked, then
    evaluate_repeats times evaluate on the last output (each command once when
    traced).  Returns the reconstruct rows and the evaluate launches."""
    output = runner.out / f"recon_{tag}.pnpi"
    traces = (None, None) if trace_dir is None else \
        (trace_dir / "reconstruct.json", trace_dir / "evaluate.json")
    recs = []
    for _ in range(1 if trace_dir else wl.reconstruct_repeats):
        rec = runner.pnpdm(["--threads", str(wl.threads), "reconstruct", str(config)],
                           traces[0])
        if rec.code != 0:
            return recs, []
        psnr, ssim = check_output(wl, runner, inputs, tag, checks)
        recs.append({"reconstruct_s": rec.wall_s, "peak_rss_mb": rec.peak_rss_mb,
                     "psnr_db": psnr, "ssim": ssim})
    paths = [str(p.relative_to(runner.root)) for p in (inputs.reference, output, inputs.bicubic)]
    evs = [runner.pnpdm(["evaluate", *paths], traces[1])
           for _ in range(1 if trace_dir else wl.evaluate_repeats)]
    evs = [ev for ev in evs if ev.code == 0]
    for ev in evs:
        check_evaluate(runner, inputs, tag, (recs[-1]["psnr_db"], recs[-1]["ssim"]), ev, checks)
    return recs, evs


def _load_spans(path: Path) -> tuple[list[dict], dict]:
    if not path.exists():
        return [], {}
    data = json.loads(path.read_text("utf-8"))
    return data["spans"], data["marks"]


def _self_time(spans: list[dict], name: str) -> float:
    ids = {s["id"] for s in spans if s["name"] == name}
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return total - sum(s["end"] - s["start"] for s in spans if s["parent"] in ids)


def _stats(spans: list[dict], name: str) -> tuple[int, float, float]:
    """count, median ms, total s of the spans with this name."""
    d = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return len(d), (1e3 * statistics.median(d) if d else 0.0), sum(d)


def bridge_metrics(spans: list[dict], ready: float | None) -> dict:
    trips = [s for s in spans if s["name"] == "bridge.denoise"]
    d = sorted(s["end"] - s["start"] for s in trips)
    busy = sum(d)
    sent = sum(s["sent"] for s in trips)
    received = sum(s["received"] for s in trips)
    spawn = min((s["start"] for s in spans if s["name"] == "bridge.spawn"), default=None)
    return {
        "bridge.spawn_ms": 1e3 * (ready - spawn) if ready and spawn else 0.0,
        "bridge.round_trips": len(d),
        "bridge.round_trip_ms": 1e3 * statistics.median(d) if d else 0.0,
        # the value with ten round trips above it
        "bridge.round_trip_tail_ms": 1e3 * d[max(len(d) - 11, 0)] if d else 0.0,
        "bridge.bytes_sent": sent,
        "bridge.bytes_received": received,
        "bridge.mb_per_s": (sent + received) / busy / 1e6 if busy else 0.0,
        "bridge.busy_s": busy,
    }


def layer_metrics(wl: Workload, trace_dir: Path) -> dict:
    spans, _ = _load_spans(trace_dir / "reconstruct.json")
    helper, marks = _load_spans(trace_dir / "helper.json")
    evaluate, _ = _load_spans(trace_dir / "evaluate.json")
    m = {}
    calls, ms, busy = _stats(spans + helper, "analytic.denoise")
    refines, refine_ms, _ = _stats(spans, "prior_step.prior_refine")
    m.update({"analytic.denoise.calls": calls,
              "analytic.denoise.calls_per_refine": calls / refines if refines else 0.0,
              "analytic.denoise.ms": ms, "analytic.busy_s": busy,
              "prior_step.prior_refine.calls": refines, "prior_step.prior_refine.ms": refine_ms,
              "prior_step.self_s": _self_time(spans, "prior_step.prior_refine")})
    calls, ms, _ = _stats(spans, "likelihood.sample_conditional")
    m.update({"likelihood.sample_conditional.calls": calls,
              "likelihood.sample_conditional.ms": ms,
              "likelihood.sample_conditional.self_s":
                  _self_time(spans, "likelihood.sample_conditional")})
    for name in ("operators.spectral", "likelihood.data_fidelity", "images.write_image"):
        calls, ms, _ = _stats(spans, name)
        m[f"{name}.calls"], m[f"{name}.ms"] = calls, ms
    if wl.bridge:
        m.update(bridge_metrics(spans, marks.get("ready")))
    chains = [s for s in spans if s["name"] == "sgs.run_chain"]
    wall = max(s["end"] for s in chains) - min(s["start"] for s in chains)
    workers = min(wl.threads, wl.chains)
    durations = [s["end"] - s["start"] for s in chains]
    m["cli.chain_parallel_efficiency"] = sum(durations) / (wall * workers)
    m["sgs.run_chain.s"] = statistics.median(durations)
    m["sgs.iterations"], m["sgs.sgs_step.ms"], _ = _stats(spans, "sgs.sgs_step")
    m["sgs.samples_held_mb"] = sum(s["samples"] for s in chains) * 8 * wl.size**2 / 1e6
    m["images.bytes_written"] = sum(s["bytes"] for s in spans
                                    if s["name"] == "images.write_image")
    m["images.read_image.ms"] = _stats(spans, "images.read_image")[1]
    m["metrics.ssim.ms"] = _stats(evaluate, "metrics.ssim")[1]
    m["metrics.psnr.ms"] = _stats(evaluate, "metrics.psnr")[1]
    return m


def calibrate_bridge(wl: Workload, runner: Runner, trace_dir: Path) -> dict:
    """Bridge cost at this workload's frame size, for workloads whose prior
    runs in process: spawn the reference helper and make round trips."""
    probe = [sys.executable, str(runner.root / "bench" / "probe.py")]
    runner.launch([*probe, "calibrate", str(trace_dir / "calibrate.json"), str(wl.size),
                   str(wl.size), str(CALIBRATION_TRIPS), "--", *probe, "helper",
                   str(trace_dir / "calibrate_helper.json"), "--", *_GAUSS_ARGS.split()])
    spans, _ = _load_spans(trace_dir / "calibrate.json")
    _, marks = _load_spans(trace_dir / "calibrate_helper.json")
    return bridge_metrics(spans, marks.get("ready"))


def context(root: Path, wl: Workload) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    src_lines = sum(len(p.read_text("utf-8").splitlines())
                    for p in (root / "src").rglob("*.py"))
    cores = os.cpu_count() or 1
    note = (f"{wl.chains} chains on {cores} cores: chains share cores"
            if wl.chains > cores else "")
    return {"git_rev": rev, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": cores, "src_lines": src_lines, "note": note}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pnpdm" / "cli.py").is_file():
        print("run from the repository root: src/pnpdm is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    wl = WORKLOADS[args.workload]
    seed = args.seed & 0x7FFFFFFF
    # One directory per workload, whatever the seed: the paths pnpdm reads
    # have the same length in every run, so its heap layout, and peak RSS
    # with it, does not change with the number of digits in the seed.
    out = root / "bench" / "out" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if wl.threads == 1:
        # One core for the run and every process it starts.  The bridge hands
        # each 4 MB frame over in 64 KiB pipe writes; on two cores each one
        # wakes the other core, and on a shared VM that wake-up time varied
        # by up to half a reconstruction between runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, out)
    checks: list[str] = []
    print("context " + json.dumps(context(root, wl)), flush=True)

    started = time.monotonic()
    inputs = make_inputs(wl, runner, seed, checks)
    config = write_config(wl, runner, inputs, seed, "plain")
    setups = [setup_probe(wl, runner, config) for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]

    # Whole rounds until the time is up: a round starts only when, going by
    # the previous round, at least half of it falls before the deadline, so
    # runs last --seconds on average and never much longer.
    rows, evaluates, traced, rounds = [], [], [], 0
    deadline = started + args.seconds
    attempts, last_round = 0, 0.0
    while attempts == 0 or time.monotonic() + last_round / 2 <= deadline:
        attempts += 1
        round_start = time.monotonic()
        recs, evs = run_round(wl, runner, inputs, config, "plain", checks)
        if evs:
            rows.extend(recs)
            evaluates.extend({"evaluate_s": ev.wall_s} for ev in evs)
            rounds += 1
            reference_output = (out / "recon_plain.pnpi").read_bytes()
        if evs and args.trace:
            trace_dir = out / f"trace{len(traced)}"
            trace_dir.mkdir()
            cfg = write_config(wl, runner, inputs, seed, "traced", trace_dir / "helper.json")
            recs, evs = run_round(wl, runner, inputs, cfg, "traced", checks, trace_dir)
            if evs:
                if (out / "recon_traced.pnpi").read_bytes() != reference_output:
                    checks.append("traced reconstruction differs from the untraced one")
                layers = layer_metrics(wl, trace_dir)
                layers["trace.wall_s"] = recs[0]["reconstruct_s"]
                traced.append(layers)
        last_round = time.monotonic() - round_start

    if not evaluates or (args.trace and not traced):
        print("no round completed: " + "; ".join(runner.failures), file=sys.stderr)
        return 3
    median = lambda key, rows: statistics.median(r[key] for r in rows)  # noqa: E731
    if args.trace:
        metrics = {k: median(k, traced) for k in traced[0] if k != "trace.wall_s"}
        metrics["trace.overhead_pct"] = 100.0 * (
            median("trace.wall_s", traced) / median("reconstruct_s", rows) - 1.0)
        metrics["metrics.bicubic_upsample.ms"] = inputs.bicubic_ms
        if not wl.bridge:
            metrics.update(calibrate_bridge(wl, runner, out / "trace0"))
        wanted = spec["per_layer"]
    else:
        metrics = {k: median(k, rows) for k in rows[0]}
        metrics["evaluate_s"] = median("evaluate_s", evaluates)
        metrics["setup_s"] = statistics.median(setups) if setups else float("nan")
        pixel_iters = wl.chains * wl.iterations * wl.size**2
        metrics["mpix_iter_per_s"] = pixel_iters / 1e6 / metrics["reconstruct_s"]
        wanted = spec["end_to_end"]

    if len(setups) < SETUP_PROBES:
        checks.append("a set-up probe did not reach iteration 0")
    for message in runner.failures + checks:
        print(f"check failed: {message}", file=sys.stderr)
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
              for m in wanted}
    for i, r in enumerate(rows):
        print(f"reconstruct {i}: " + ", ".join(f"{k} {v:.4g}" for k, v in r.items()))
    print("evaluate_s: " + ", ".join(f"{r['evaluate_s']:.4g}" for r in evaluates))
    for name, entry in result.items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"rounds {rounds}, operations attempted {runner.attempted}, "
          f"failed {runner.failed}")
    print(json.dumps({"correct": not checks, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
