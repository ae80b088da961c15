"""khnn benchmark: three training workloads.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload xor-fit --seed 1 --seconds 40 --trace 0

or every workload, one process each, with a summary table:

    python3 bench/run.py --workload all --seconds 40

A run repeats whole episodes (``workloads.py``) for at most ``--seconds``.
The seed draws each workload's inputs: the dense workload's data, teacher
and initial weights, and synth's extra probe images. xor-fit and
synth-conv-fit train on the CLI's own data at its default seed 42, so
their training is the same for every seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines
give the metrics as a table, the machine (numpy, BLAS and its thread
count, cores, Python) and, for a traced run, every traced function.

``--trace 0`` gives the end-to-end metrics, measured without tracing:

* ``setup_s``: import, data generation, model build and one warm-up
  step. The measuring process times it once and six fresh processes
  time it again; the median of the seven is reported.
* ``samples_per_s``: training rows per second of step time.
* ``step_ms_p50``, ``step_ms_p90``: one training step (see
  ``workloads.StepClock``).
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process after set-up
  and the first episode, which is one whole training run as the CLI
  makes it in a process. Later episodes only add heap fragmentation,
  which made the end-of-run figure depend on how many episodes fit.
* ``accuracy``: final training accuracy.

The error rate is ``failed / attempted`` in the result line. An
operation is a training step or a correctness check. A
failure is an exception (a non-finite loss raises one in ``fit``) or a
failed check.

``--trace 1`` first measures ``samples_per_s`` untraced for half the
time, then installs ``tracer.Tracer`` and measures the other half
traced. Timings are per step and counts are calls per step, except
``model.save_model.ms``, ``model.load_model.ms``,
``model.Sequential.predict_ms`` (the checks' predict calls) and
``datasets.motif_splits.ms``, which are per call, and
``algebra.setup_ms``, which is the whole traced set-up. Units ending in
``-computed`` are derived from array shapes, not measured.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads; one thread was as fast as two and steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 6          # fresh processes timing set-up, besides this one
CHILD_TIMEOUT_S = 170


def import_khnn():
    """Import khnn from this checkout's sources, never from elsewhere."""
    if not (SRC / "khnn" / "__init__.py").is_file():
        sys.exit(f"error: khnn sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import khnn
    if Path(khnn.__file__).resolve().parent != (SRC / "khnn").resolve():
        sys.exit(f"error: imported khnn from {khnn.__file__}, not from {SRC}")


def machine_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "blas_version": blas_version,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Measured:
    checks: list = field(default_factory=list)
    errors: int = 0
    fit_s: list = field(default_factory=list)    # summed step time of each episode
    first_episode_rss_mb: float = 0.0


def measure(workload, seconds, clock):
    """Run whole episodes for at most `seconds`.

    Another episode starts only if one as long as the longest so far
    would still end in time, so a run never overshoots by an episode.
    """
    out = Measured()
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        first_step = len(clock.durations)
        try:
            out.checks += workload.episode(clock)
        except Exception:                       # counted, reported, run goes on
            traceback.print_exc()
            out.errors += 1
        out.fit_s.append(sum(clock.durations[first_step:]))
        if len(out.fit_s) == 1:
            out.first_episode_rss_mb = peak_rss_mb()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return out


def step_metrics(clock):
    """samples_per_s, step_ms_p50 and step_ms_p90 of the timed steps."""
    import numpy as np
    if not clock.durations:
        return 0.0, 0.0, 0.0
    p50, p90 = np.percentile(clock.durations, [50, 90]) * 1e3
    return clock.samples / sum(clock.durations), float(p50), float(p90)


def setup_in_fresh_processes(args, count):
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, W, workdir):
    from workloads import StepClock
    workload = W(args.seed, workdir)
    workload.setup()
    setup_times = [time.perf_counter() - T_START]
    # half the set-up samples before the timed loop and half after it, so
    # that one slow spell of the machine does not hold them all
    setup_times += setup_in_fresh_processes(args, SETUP_PROCESSES // 2)
    clock = StepClock()
    run = measure(workload, args.seconds, clock)
    setup_times += setup_in_fresh_processes(args, SETUP_PROCESSES - SETUP_PROCESSES // 2)
    samples_per_s, p50, p90 = step_metrics(clock)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (samples_per_s, "1/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "peak_rss_mb": (run.first_episode_rss_mb, "MB"),
        "accuracy": (workload.accuracy or 0.0, "ratio"),
    }
    notes = {"steps": len(clock.durations), "episodes": len(run.fit_s),
             "episode_fit_s_median": statistics.median(run.fit_s),
             "peak_rss_mb_at_end": peak_rss_mb(), "setup_samples_s": setup_times}
    return metrics, run.checks, run.errors, len(clock.durations), notes


def traced(args, W, workdir):
    """Half the time untraced, then set-up and half the time traced."""
    from tracer import Tracer
    from workloads import StepClock

    plain = W(args.seed, workdir)
    plain.setup()
    plain_clock = StepClock()
    plain_run = measure(plain, args.seconds / 2, plain_clock)

    tracer = Tracer()
    tracer.install()
    try:
        workload = W(args.seed, workdir, tracer)
        workload.setup()
        clock = StepClock()
        with tracer.section("episode"):
            run = measure(workload, args.seconds / 2, clock)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, len(clock.durations), workload.last_model)
    untraced_sps, traced_sps = step_metrics(plain_clock)[0], step_metrics(clock)[0]
    metrics["trace.untraced_samples_per_s"] = (untraced_sps, "1/s")
    metrics["trace.traced_samples_per_s"] = (traced_sps, "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced_sps / traced_sps - 1.0) * 100.0 if traced_sps else 0.0, "%")
    metrics["trace.step_ms"] = (sum(clock.durations) / max(len(clock.durations), 1) * 1e3, "ms")
    spans = {section: {name: {"calls": c, "ms": t * 1e3, "self_ms": s * 1e3}
                       for name, (c, t, s) in sorted(tracer.totals(section).items())}
             for section in tracer.stats}
    notes = {"steps": len(clock.durations), "untraced_steps": len(plain_clock.durations),
             "counters": tracer.counters, "spans": spans}
    ops = len(clock.durations) + len(plain_clock.durations)
    return metrics, plain_run.checks + run.checks, plain_run.errors + run.errors, ops, notes


def layer_metrics(tracer, steps, model):
    """Per-layer metrics from the traced spans: per step unless named otherwise."""
    from tracer import MODULES
    step, setup, check = (tracer.totals(s) for s in ("step", "setup", "check"))
    counts = tracer.counts("step")
    steps = max(steps, 1)
    none = (0, 0.0, 0.0)

    def calls(name):
        return step.get(name, none)[0] / steps

    def ms(name):
        return step.get(name, none)[1] / steps * 1e3

    def self_ms(name):
        return step.get(name, none)[2] / steps * 1e3

    def per_call_ms(section, name):
        n, total, _ = section.get(name, none)
        return total / n * 1e3 if n else 0.0

    def per_step(key, scale=1.0):
        return counts.get(key, 0) / steps * scale

    m = {}
    for module in MODULES:
        m[f"{module}.self_ms"] = (sum(self_ms(name) for name in step
                                      if name.startswith(module + ".")), "ms")
    m["tensor.calls_per_step"] = (sum(calls(name) for name in step if name.startswith("tensor.")
                                      and not name.endswith(".bwd")), "count")
    m["tensor.tape_nodes_per_step"] = (per_step("tensor.tape_nodes"), "count")

    m["tensor.backward.ms"] = (ms("tensor.Tensor.backward"), "ms")
    m["tensor.backward.self_ms"] = (self_ms("tensor.Tensor.backward"), "ms")
    m["tensor.backward.calls_per_step"] = (calls("tensor.Tensor.backward"), "count")
    m["tensor.backward.grads_held_per_step"] = (per_step("tensor.backward.grads_held"), "count")
    m["tensor.backward.tape_mb_per_step"] = (per_step("tensor.backward.tape_bytes", 1e-6),
                                             "MB-computed")
    m["tensor.backward.grad_mb_per_step"] = (per_step("tensor.backward.grad_bytes", 1e-6),
                                             "MB-computed")

    for op in ("conv_nd", "matmul", "einsum_linear", "transpose", "add_bias"):
        name = f"tensor.{op}"
        m[f"{name}.fwd_ms"] = (ms(name), "ms")
        m[f"{name}.bwd_ms"] = (ms(name + ".bwd"), "ms")
        m[f"{name}.calls_per_step"] = (calls(name), "count")
    for op in ("conv_nd", "matmul"):
        name = f"tensor.{op}"
        gflop = per_step(name + ".flop", 1e-9) + per_step(name + ".bwd.flop", 1e-9)
        busy_s = (ms(name) + ms(name + ".bwd")) / 1e3
        m[f"{name}.gflop"] = (gflop, "GFLOP-computed")
        m[f"{name}.mb_moved"] = (per_step(name + ".bytes", 1e-6)
                                 + per_step(name + ".bwd.bytes", 1e-6), "MB-computed")
        m[f"{name}.gflop_per_s"] = (gflop / busy_s if busy_s else 0.0, "GFLOP/s")

    for fn in ("assemble_block_matrix", "assemble_conv_kernel"):
        m[f"layers.{fn}.ms"] = (ms(f"layers.{fn}"), "ms")
        m[f"layers.{fn}.calls_per_step"] = (calls(f"layers.{fn}"), "count")
    layers = {f"{i}.{type(layer).__name__}": layer for i, layer in enumerate(model.layers)}
    for slot in layer_slots():
        layer = layers.get(slot)
        m[f"layers.{slot}.fwd_ms"] = (ms(f"layers.{slot}"), "ms")
        m[f"layers.{slot}.params"] = (layer.param_count() if layer else 0, "count")

    m["training.fit.self_ms"] = (self_ms("training.fit"), "ms")
    for name in ("training.bce_loss", "training.Adam.step"):
        m[f"{name}.ms"] = (ms(name), "ms")
        m[f"{name}.calls_per_step"] = (calls(name), "count")
    m["training.evaluate.ms"] = (ms("training.evaluate"), "ms")

    m["model.Sequential.forward.ms"] = (ms("model.Sequential.forward"), "ms")
    m["model.Sequential.forward.calls_per_step"] = (calls("model.Sequential.forward"), "count")
    m["model.Sequential.predict_ms"] = (per_call_ms(check, "model.Sequential.predict"), "ms")
    m["model.params"] = (sum(layer.param_count() for layer in model.layers), "count")
    m["model.save_model.ms"] = (per_call_ms(check, "model.save_model"), "ms")
    m["model.load_model.ms"] = (per_call_ms(check, "model.load_model"), "ms")

    m["datasets.motif_splits.ms"] = (per_call_ms(setup, "datasets.motif_splits"), "ms")
    m["datasets.motif_splits.calls"] = (setup.get("datasets.motif_splits", none)[0], "count")
    m["algebra.setup_ms"] = (sum(s for name, (_, _, s) in setup.items()
                                 if name.startswith("algebra.")) * 1e3, "ms")
    return m


def layer_slots():
    """index.class of every layer of every workload's model, in order."""
    from workloads import WORKLOADS
    slots = []
    for W in WORKLOADS.values():
        for i, layer in enumerate(W(0, None).build().layers):
            slot = f"{i}.{type(layer).__name__}"
            if slot not in slots:
                slots.append(slot)
    return slots


def check_against_spec(metrics, trace):
    """The emitted metric names must be exactly those BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(names))} differ from "
                 "BENCHMARK.json")


def run_one(args):
    import_khnn()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    W = WORKLOADS[args.workload]
    if args.setup_only:
        W(args.seed, None).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as workdir:
        measure_fn = traced if args.trace else end_to_end
        metrics, checks, errors, ops, notes = measure_fn(args, W, workdir)
    check_against_spec(metrics, args.trace)

    failed_checks = [name for name, ok in checks if not ok]
    attempted = ops + len(checks) + errors
    failed = len(failed_checks) + errors
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine_info()))
    for name in sorted(set(failed_checks)):
        print(f"FAILED {name} ({failed_checks.count(name)}x)")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print(f"  {'error_rate':<{width}}  {failed / attempted:>14.6g}  ({failed}/{attempted})")
    print("notes " + json.dumps(notes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload["name"], "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: workload {workload['name']} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload['name']}/{name}"] = metric
            rows.append((workload["name"], name, metric["value"], metric["unit"]))
        rows.append((workload["name"], "error_rate",
                     result["failed"] / result["attempted"], "ratio"))
    print("machine " + json.dumps(machine_info()))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<30} {name:<{width}}  {value:>14.6g}  {unit}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used by the set-up metric)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
