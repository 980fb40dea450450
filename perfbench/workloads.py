"""The benchmark's workloads: set-up, the timed closed loop and output checks.

One client drives each workload from this process and sends its next op
only when the previous one has returned (a closed loop). An op is one
``cli.main(["infer", ...])`` call on one stereo pair, or one training step
inside a ``training.train`` call. Inputs are random-dot stereograms made by
``datasets.gen_rds`` from the run's seed; the program sees only the
generated files (infer) or arrays (train).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

import shiftstereo
from shiftstereo import baseline, cli, datasets, model, tensor, training
from shiftstereo.errors import ShiftStereoError

import spans

_clock = time.perf_counter

# Float32 output against a float64 run of the same weights and inputs:
# |float32 - float64| <= ATOL + RTOL * |float64|, in px for disparities and
# in loss units for the first-step loss. Fixed before any measurement; the
# seed code stays more than 100x inside it.
ATOL = 1e-3
RTOL = 1e-4
SETUP_REPEATS = 5
MAX_PROBLEMS = 10


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str              # "infer" or "train"
    profile: str           # "full" or "tiny" ModelConfig profile
    max_disparity: int
    height: int
    width: int
    pairs: int = 0         # distinct stereo pairs an infer run cycles through
    train_n: int = 0
    val_n: int = 0

    def config(self) -> model.ModelConfig:
        make = model.ModelConfig.full if self.profile == "full" else model.ModelConfig.tiny
        return make(in_channels=1, max_disparity=self.max_disparity)

    def rds(self, seed: int) -> datasets.RdsConfig:
        return datasets.RdsConfig(width=self.width, height=self.height,
                                  disparity_range=(6, self.max_disparity - 6), seed=seed)


WORKLOADS = {
    "infer-full": Spec("infer-full", "infer", "full", 48, 144, 240, pairs=4),
    "infer-tiny": Spec("infer-tiny", "infer", "tiny", 24, 96, 96, pairs=16),
    "train-tiny": Spec("train-tiny", "train", "tiny", 24, 96, 96, train_n=8, val_n=2),
}
# The smallest inputs every stage accepts, for the self-test.
MINIMAL = {name: replace(spec, height=48, width=48, pairs=2, train_n=2, val_n=1)
           for name, spec in WORKLOADS.items()}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    conv_layers: set[str] = field(default_factory=set)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def sgemm_gflops(n: int = 1024, reps: int = 5) -> float:
    """Best-of-``reps`` float32 matmul rate: the roof for conv throughput."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    np.matmul(a, b)
    best = math.inf
    for _ in range(reps):
        t0 = _clock()
        np.matmul(a, b)
        best = min(best, _clock() - t0)
    return 2 * n ** 3 / best / 1e9


class Yardstick:
    """A fixed numpy kernel that measures how fast the machine is right now.

    One pass runs the three kinds of work a forward pass is made of: a
    512x512 float32 matmul (BLAS threads), a 2M-element float32 stream
    (memory bandwidth) and 200 small elementwise ops (interpreter and op
    dispatch). It is timed between ops, and the median op latency divided
    by the median yardstick time is the op's cost in yardsticks: neighbours
    on a shared host slow both alike, so the ratio varies far less from
    run to run than the latency does.
    """

    REPS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((512, 512), dtype=np.float32)
        self.stream = rng.standard_normal(2_000_000, dtype=np.float32)
        self.small = rng.standard_normal((8, 32, 32), dtype=np.float32)
        self.seconds()

    def seconds(self) -> float:
        t0 = _clock()
        for _ in range(self.REPS):
            np.matmul(self.matrix, self.matrix)
            np.add(np.multiply(self.stream, 1.5), 1.0)
            x = self.small
            for _ in range(200):
                x = np.maximum(x * 0.5 + 0.1, 0.0)
        return (_clock() - t0) / self.REPS


def seeded_weights(cfg: model.ModelConfig, seed: int) -> model.ModelWeights:
    """Seed-initialised weights with no tensor left at a constant.

    ``ModelWeights.initialize`` zeroes ``refine.out`` and starts every norm
    at the identity; then the refine net cannot change the output and the
    float64 check would not see it. Those tensors are drawn from the seed too.
    """
    weights = model.ModelWeights.initialize(cfg, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE7C)))
    for name, t in list(weights.params.items()) + list(weights.buffers.items()):
        if name.endswith(".w"):
            if np.any(t.data):
                continue
            bound = 1.0 / math.sqrt(t.data[0].size)
            low, high = -bound, bound
        elif name.endswith((".gamma", ".var")):
            low, high = 0.5, 1.5
        else:
            low, high = -0.1, 0.1
        t.data = rng.uniform(low, high, size=t.data.shape).astype(t.data.dtype)
    return weights


def _as_high(weights: model.ModelWeights) -> model.ModelWeights:
    def cast(store):
        return {k: tensor.Tensor(v.data, dtype=tensor.HIGH) for k, v in store.items()}
    return model.ModelWeights(weights.config, cast(weights.params), cast(weights.buffers))


def _within_tolerance(value, reference) -> bool:
    return bool(np.all(np.abs(value - reference) <= ATOL + RTOL * np.abs(reference)))


def _perturbed(reference):
    """A reference moved well outside the tolerance (self-test only)."""
    return reference + 10 * (ATOL + RTOL * np.abs(reference))


def _peak_bytes(fn) -> int:
    """tracemalloc peak of the allocations ``fn`` makes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _median_setup(setup, spec: Spec, seed: int, workdir: str, repeats: int):
    """Run the set-up ``repeats`` times; median seconds and the last state."""
    times = []
    for i in range(repeats):
        seconds, state = setup(spec, seed, os.path.join(workdir, f"setup{i}"))
        times.append(seconds)
    return statistics.median(times), state


def _peak_elements(report, mode: str) -> int:
    return report.peak_elements.get(mode) or max(report.peak_elements.values())


def _loop(run_op, ref: Yardstick, budget: float) -> tuple[list[float], list[float]]:
    """Closed loop: ops until their summed time reaches ``budget`` seconds.
    Returns each op's seconds and the yardstick times taken before the
    first op and after each one. Each op's checks run outside its timing."""
    times: list[float] = []
    yardsticks = [ref.seconds()]
    while sum(times) < budget:
        times.append(run_op(len(times), None))
        yardsticks.append(ref.seconds())
    return times, yardsticks


def _cost(times, yardsticks) -> float:
    """Median op time in yardsticks: the ratio of the two medians."""
    return statistics.median(times) / statistics.median(yardsticks)


def _traced_phase(run_op, seconds: float, out: Outcome, ops_per_call: int):
    """Ops in pairs, each run once untraced and then again traced, until the
    untraced ones have taken half the budget. Pairing keeps the overhead
    estimate clear of the machine's drift."""
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    while sum(plain) < seconds / 2:
        plain.append(run_op(len(traced), None))
        with spans.instrumented(tracer, shiftstereo):
            traced.append(run_op(len(traced), tracer))
    for problem in tracer.check():
        out.problems.append("trace: " + problem)
    out.metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    out.conv_layers = {s[0][5:-4] for s in tracer.spans if s[0].startswith("conv.")
                       and s[0].endswith(".fwd")}
    return tracer, len(traced) * ops_per_call


def _end_to_end(m: dict, setup_s: float, times, yardsticks, steps: int,
                peak: int) -> None:
    """End-to-end metrics from per-call seconds, where each call is ``steps``
    ops, and the yardstick times taken between calls."""
    m["setup_s"] = (setup_s, "s")
    m["op_cost_p50"] = (_cost(times, yardsticks) / steps, "yardstick")
    m["op_ms_p50"] = (statistics.median(times) / steps * 1e3, "ms")
    m["ops_per_s"] = (len(times) * steps / sum(times), "1/s")
    m["peak_mb"] = (peak / 1e6, "MB")
    m["yardstick_ms_p50"] = (statistics.median(yardsticks) * 1e3, "ms")


def _layer_context(out: Outcome, tracer, names, ops_done: int, passes: int,
                   report, mode: str, peak: int, roof: float) -> None:
    m = out.metrics
    m.update(spans.per_layer(tracer, ops_done, names))
    macs = m.pop("conv.macs_total")[0] / passes
    m["conv.macs"] = (macs, "count")
    m["conv.macs_vs_estimate"] = (macs / (report.conv_flops["total"] / 2), "ratio")
    m["conv.roof_frac"] = (m.pop("conv.fwd_gflops_all")[0] / roof, "ratio")
    m["mem.peak_vs_estimate"] = (peak / (4 * _peak_elements(report, mode)), "ratio")


# ---------------------------------------------------------------------------
# infer-full / infer-tiny: `shiftstereo infer` on one pair per op
# ---------------------------------------------------------------------------

@dataclass
class _InferState:
    argvs: list[list[str]]
    lefts: list[str]
    rights: list[str]
    outs: list[str]
    samples: list
    ckpt: str


def _cli(argv: list[str]) -> tuple[int, str]:
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash fails the op; the loop goes on
            rc = -1
            print(f"{type(e).__name__}: {e}")
    return rc, log.getvalue()


def _setup_infer(spec: Spec, seed: int, d: str):
    t0 = _clock()
    samples = datasets.gen_rds(spec.rds(seed), spec.pairs)
    manifest = datasets.save_samples(samples, d)
    ckpt = os.path.join(d, "model.ckpt")
    weights = seeded_weights(spec.config(), seed)
    training.save_checkpoint(training.Checkpoint.from_weights(weights), ckpt)
    state = _InferState([], [], [], [], samples, ckpt)
    for i, (left, right, _) in enumerate(datasets.read_manifest(manifest)):
        out = os.path.join(d, f"disp_{i:05d}.pfm")
        state.argvs.append(["infer", "--ckpt", ckpt, "--left", left, "--right", right,
                            "--out-disp", out])
        state.lefts.append(left)
        state.rights.append(right)
        state.outs.append(out)
    _cli(state.argvs[0])  # warm-up
    return _clock() - t0, state


def _infer_references(state: _InferState, cfg) -> list[np.ndarray]:
    """Refined disparity of a float64 forward pass on the checkpoint's weights."""
    weights = _as_high(training.load_weights(training.load_checkpoint(state.ckpt)))

    def image(path):
        return tensor.Tensor(datasets.normalize_image(datasets.read_pnm(path))[None],
                             dtype=tensor.HIGH)

    return [model.forward_tensors(image(l), image(r), weights, cfg)["refined"].data[0, 0]
            for l, r in zip(state.lefts, state.rights)]


def _check_disparity(rc: int, log: str, path: str, reference) -> str | None:
    if rc != 0:
        lines = log.strip().splitlines()
        return f"exit code {rc}: {lines[-1] if lines else ''}"
    if not os.path.exists(path):
        return "no output written"
    out = datasets.read_pfm(path)
    if out.shape != reference.shape:
        return f"output shape {out.shape} != {reference.shape}"
    if not np.all(np.isfinite(out)):
        return "non-finite disparity"
    if not _within_tolerance(out, reference):
        return f"differs from float64 by {np.max(np.abs(out - reference)):.3g} px"
    return None


def _epe(state: _InferState, cfg) -> float:
    """Pixel-weighted mean |disparity - truth| of the last outputs written."""
    err, count = 0.0, 0
    for path, sample in zip(state.outs, state.samples):
        if not os.path.exists(path):
            continue
        mask = sample.valid & np.isfinite(sample.gt) & (sample.gt < cfg.max_disparity)
        err += float(np.abs(datasets.read_pfm(path)[mask] - sample.gt[mask]).sum())
        count += int(mask.sum())
    return err / count if count else math.nan


def run_infer(spec: Spec, seed: int, seconds: float, trace: bool, workdir: str,
              names, corrupt: bool = False) -> Outcome:
    out = Outcome()
    cfg = spec.config()
    setup_s, state = _median_setup(_setup_infer, spec, seed, workdir,
                                   1 if trace else SETUP_REPEATS)
    refs = _infer_references(state, cfg)
    if corrupt:
        refs = [_perturbed(r) for r in refs]

    def run_op(i: int, tracer) -> float:
        k = i % len(state.argvs)
        if os.path.exists(state.outs[k]):
            os.remove(state.outs[k])
        with tracer.op() if tracer else contextlib.nullcontext():
            t0 = _clock()
            rc, log = _cli(state.argvs[k])
            elapsed = _clock() - t0
        out.attempted += 1
        problem = _check_disparity(rc, log, state.outs[k], refs[k])
        if problem:
            out.fail(1, f"pair {k}: {problem}")
        return elapsed

    roof = sgemm_gflops()
    m = out.metrics
    if trace:
        tracer, ops_done = _traced_phase(run_op, seconds, out, 1)
        peak = _peak_bytes(lambda: _cli(state.argvs[0]))
        report = baseline.estimate_resources(cfg, spec.height, spec.width)
        _layer_context(out, tracer, names, ops_done, ops_done, report,
                       "sequential", peak, roof)
    else:
        times, yardsticks = _loop(run_op, Yardstick(), seconds)
        peak = _peak_bytes(lambda: _cli(state.argvs[0]))
        _end_to_end(m, setup_s, times, yardsticks, 1, peak)
        m["infer_ms_p50"] = m["op_ms_p50"]
        if len(times) >= 100:
            m["infer_ms_p90"] = (statistics.quantiles(times, n=10)[-1] * 1e3, "ms")
    m["quality.val_epe"] = (_epe(state, cfg), "px")
    m["blas.sgemm_gflops"] = (roof, "GFLOP/s")
    return out


# ---------------------------------------------------------------------------
# train-tiny: `training.train`, one epoch per call
# ---------------------------------------------------------------------------

@dataclass
class _TrainState:
    train: list
    val: list
    first_loss: float
    dir: str


def _train(samples, spec: Spec, seed: int, path: str, val=None):
    """One ``train()`` call of one epoch, checkpointing to ``path``."""
    return training.train(samples, spec.config(), epochs=1, seed=seed,
                          val_samples=val, checkpoint_path=path)


def _setup_train(spec: Spec, seed: int, d: str):
    t0 = _clock()
    os.makedirs(d, exist_ok=True)
    samples = datasets.gen_rds(spec.rds(seed), spec.train_n + spec.val_n)
    try:  # warm-up: one step; its loss is the first-step loss of that sample
        first_loss = _train(samples[:1], spec, seed,
                            os.path.join(d, "warmup.ckpt"))[2][0].mean_loss
    except ShiftStereoError:
        first_loss = math.nan
    state = _TrainState(samples[:spec.train_n], samples[spec.train_n:], first_loss, d)
    return _clock() - t0, state


def _first_loss_high(spec: Spec, state: _TrainState, seed: int) -> float:
    """The first training step's loss, in float64 from the same seed."""
    cfg = spec.config()
    weights = model.ModelWeights.initialize(cfg, seed=seed, dtype=tensor.HIGH)
    s = state.train[0]
    out = model.forward_tensors(tensor.Tensor(s.left[None], dtype=tensor.HIGH),
                                tensor.Tensor(s.right[None], dtype=tensor.HIGH),
                                weights, cfg, training=True)
    return training.total_loss(out["coarse"], out["refined"], s.gt, s.valid,
                               training.LossConfig(),
                               max_disparity=cfg.max_disparity).item()


def _check_training(weights, stats, path: str) -> str | None:
    for s in stats:
        if not (math.isfinite(s.mean_loss) and math.isfinite(s.val_epe)):
            return f"epoch {s.epoch}: non-finite loss or validation EPE"
    saved = training.load_weights(training.load_checkpoint(path))
    for store, loaded in ((weights.params, saved.params), (weights.buffers, saved.buffers)):
        for name, t in store.items():
            if (name not in loaded or loaded[name].data.dtype != t.data.dtype
                    or not np.array_equal(loaded[name].data, t.data)):
                return f"checkpoint entry {name!r} does not reload bit-equal"
    return None


def run_train(spec: Spec, seed: int, seconds: float, trace: bool, workdir: str,
              names, corrupt: bool = False) -> Outcome:
    out = Outcome()
    setup_s, state = _median_setup(_setup_train, spec, seed, workdir,
                                   1 if trace else SETUP_REPEATS)
    reference = _first_loss_high(spec, state, seed)
    if corrupt:
        reference = _perturbed(reference)
    steps = len(state.train)
    ckpt = os.path.join(state.dir, "train.ckpt")
    val_epe = [math.nan]

    def run_op(i: int, tracer) -> float:
        problem = None
        with tracer.op() if tracer else contextlib.nullcontext():
            t0 = _clock()
            try:
                weights, _, stats = _train(state.train, spec, seed, ckpt, val=state.val)
            except ShiftStereoError as e:
                problem = f"train raised {type(e).__name__}: {e}"
            elapsed = _clock() - t0
        out.attempted += steps
        problem = problem or _check_training(weights, stats, ckpt)
        if problem:
            out.fail(steps, f"call {i}: {problem}")
        else:
            val_epe[0] = stats[-1].val_epe
        return elapsed

    roof = sgemm_gflops()
    m = out.metrics
    if trace:
        tracer, ops_done = _traced_phase(run_op, seconds, out, steps)
        passes = ops_done // steps * (len(state.train) + len(state.val))
        peak = _peak_bytes(lambda: _train(state.train[:2], spec, seed, ckpt,
                                          val=state.val[:1]))
        report = baseline.estimate_resources(spec.config(), spec.height, spec.width)
        _layer_context(out, tracer, names, ops_done, passes, report, "parallel",
                       peak, roof)
    else:
        times, yardsticks = _loop(run_op, Yardstick(), seconds)
        peak = _peak_bytes(lambda: _train(state.train[:2], spec, seed, ckpt,
                                          val=state.val[:1]))
        _end_to_end(m, setup_s, times, yardsticks, steps, peak)
        m["train_samples_per_s"] = m["ops_per_s"]
    if not _within_tolerance(state.first_loss, reference):
        out.fail(out.attempted - out.failed,
                 f"first-step loss {state.first_loss!r} differs from float64 {reference!r}")
    m["quality.val_epe"] = (val_epe[0], "px")
    m["blas.sgemm_gflops"] = (roof, "GFLOP/s")
    return out


def run(spec: Spec, seed: int, seconds: float, trace: bool, workdir: str,
        names, corrupt: bool = False) -> Outcome:
    runner = run_infer if spec.kind == "infer" else run_train
    return runner(spec, seed, seconds, trace, workdir, names, corrupt)
