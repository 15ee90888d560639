"""phylodist benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory.  Each
workload runs in fresh child processes with one caller and one BLAS thread:
set-up runs in ``SETUP_RUNS`` processes (set-up time is their median), and the
last of them goes on to warm up, time operations for ``--seconds`` and check
every output outside the timed region.  Timed metrics, except train's, are
scaled by a speed probe to a reference machine speed.  ``--trace 1`` then replays the timed
operations with spans around the library's public functions and reports
per-layer metrics instead.  The last line of output is one JSON object;
the metric names and units come from BENCHMARK.json.  Without ``--workload``
every workload runs in turn.  See NOTES.md for the workloads and what each
layer metric is expected to move.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 3
CHILD_DEADLINE_S = 170  # the whole run must end within 180 s
MAX_BUSY_S = 60  # a timed loop stops here even before it covers its pool
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOAD_NAMES = ("pipeline", "infer-alignments", "infer-matrices", "train")

# Layers whose combined self time should exceed that of any other layer.
PREDICTED_DOMINANT = {
    "pipeline": ("simulate.evolve_alignment",),
    "infer-alignments": ("distances.distance_matrix.",),
    "infer-matrices": ("nj.",),
    "train": ("net.", "autodiff."),
}


# -- child: one process of one workload --------------------------------------------


class Ops:
    """Runs operations by index; counts attempts and failures and keeps each
    pool item's RF from its check."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.rf = {}

    def attempt(self, i, check=True):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.w.run(i)
        except Exception:  # an operation that raises is a failed operation
            lat = time.perf_counter() - start
            self._fail(i)
            return lat, None
        lat = time.perf_counter() - start
        if check:
            try:
                key, rf = self.w.check(i, out)
                if self.rf.setdefault(key, rf) != rf:
                    raise ValueError(f"input {key}: RF {rf} differs from its first run")
            except Exception:
                self._fail(i)
        return lat, out

    def _fail(self, i):
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {i} of {self.w.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def _small_array_kernel(np, rng):
    """Many numpy calls on 1000-element arrays, as in evolve_alignment and distances."""
    x, y = rng.integers(0, 4, size=(2, 1000)).astype(np.int8)

    def kernel():
        for _ in range(600):
            np.count_nonzero(np.minimum(x, y)[x != y] == 0)

    return kernel


def _matrix_kernel(np, rng):
    """NJ-like passes over a 400x400 matrix and float parsing, as in nj and read_tsv."""
    m = rng.random((400, 400))
    q, r, shrunk = np.empty_like(m), np.empty(400), np.empty((399, 399))
    words = [repr(float(v)) for v in rng.random(4000)]

    def kernel():
        for _ in range(5):
            np.sum(m, axis=1, out=r)
            np.multiply(m, 398.0, out=q)
            np.subtract(q, r[:, None], out=q)
            np.subtract(q, r[None, :], out=q)
            np.argmin(q)
            np.copyto(shrunk, m[1:, 1:])
        [float(w) for w in words]

    return kernel


# Per workload: the probe kernel and its median time (ms) on the host the
# bounds were set on.  Timed metrics are scaled to a machine running the
# kernel in that time.  train has none: the allocation-free kernel tried for
# it did not track its speed, and scaling by it widened the spread (NOTES.md).
PROBES = {
    "pipeline": (_small_array_kernel, 3.5),
    "infer-alignments": (_small_array_kernel, 3.5),
    "infer-matrices": (_matrix_kernel, 4.3),
}


class SpeedProbe:
    """A fixed numpy kernel like the workload's hot loop but independent of
    the library, timed between operations to measure how fast the machine
    runs this kind of work at the time.  The kernels allocate nothing, so
    their time does not depend on the allocator state the library leaves."""

    def __init__(self, workload):
        import numpy as np

        make_kernel, self.reference_ms = PROBES[workload]
        self.kernel = make_kernel(np, np.random.default_rng(0))
        self.samples = []
        self.last = -1.0

    def scale(self):
        """Reference time ÷ median probe time in this run."""
        return self.reference_ms / (statistics.median(self.samples) * 1000)

    def maybe(self):
        if time.perf_counter() - self.last < 0.5:
            return
        start = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)


def timed_loop(w, ops, seconds, probe):
    """Closed loop: each op starts when the previous one ends.  Runs until the
    pool is covered and ``seconds`` of op time have passed, rounded to the
    nearest round boundary."""
    lats = []
    while True:
        lats.append(ops.attempt(len(lats))[0])
        if probe:
            probe.maybe()
        if len(lats) % w.round:
            continue
        busy = sum(lats)
        half_round = 0.5 * busy * w.round / len(lats)
        if (len(lats) >= w.pool and busy + half_round >= seconds) or busy >= MAX_BUSY_S:
            return lats


def end_to_end(w, lats, ops, probe):
    """Timed metrics scaled by the probe to the reference machine speed, and
    as measured (``raw_*``)."""
    # One latency sample per round: train's items differ tenfold by
    # architecture, so its sample is a round's time per optimizer step.
    per_op = [sum(lats[r : r + w.round]) / (w.round * w.steps) for r in range(0, len(lats), w.round)]
    scale = probe.scale() if probe else 1.0
    raw_ops_per_s = len(lats) * w.steps / sum(lats)
    raw_p50_ms = statistics.median(per_op) * 1000
    p90_ms = (statistics.quantiles(per_op, n=10)[-1] if len(per_op) > 1 else per_op[0]) * 1000
    return {
        "ops_per_s": raw_ops_per_s / scale,
        "op_p50_ms": raw_p50_ms * scale,
        "op_p90_ms": p90_ms * scale,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_op_p50_ms": raw_p50_ms,
        "probe_scale": scale,
        "samples": len(per_op),
        "rf_mean": statistics.fmean(ops.rf.values()) if ops.rf else float("nan"),
    }


def traced_replay(w, ops, count, spans_path):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    lats = []
    try:
        for i in range(count):
            tracer.op = i
            lats.append(ops.attempt(i, check=False)[0])
    finally:
        tracer.remove()
    tracer.write(spans_path)
    return lats, tracer.layer_totals()


def train_memory(w):
    """tracemalloc peak (MB) of one ``train()`` call per architecture."""
    import tracemalloc

    peaks = {}
    for c in range(w.pool):
        tracemalloc.start()
        try:
            w.run(c)
            peaks[w.arch(c)] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return peaks


def per_layer(names, w, lats, traced_lats, totals, peaks):
    """Per-layer metrics by name: ``<layer>.calls``, ``.self_s``, ``.share``
    and ``.<work>_per_s``; ``train.<arch>.s`` and ``.peak_mb``; ``trace.*``."""
    layers = {}
    for name, (calls, own, work) in totals.items():
        for key in {name, name.rsplit(".", 1)[0]}:
            acc = layers.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += own
            acc[2] += work
    traced_wall = sum(traced_lats)
    arch_s = {}
    if hasattr(w, "arch"):
        for i, lat in enumerate(lats):
            arch_s.setdefault(w.arch(i), []).append(lat)
    values = {
        "trace.overhead_frac": traced_wall / sum(lats) - 1.0,
        "trace.unattributed_frac": 1.0 - sum(t[1] for t in totals.values()) / traced_wall,
    }
    for name in names:
        if name in values:
            continue
        layer, metric = name.rsplit(".", 1)
        calls, own, work = layers.get(layer, (0, 0.0, 0.0))
        if layer.startswith("train.") and metric in ("s", "peak_mb"):
            arch = layer.split(".", 1)[1]
            if metric == "s":
                values[name] = statistics.fmean(arch_s[arch]) if arch in arch_s else 0.0
            else:
                values[name] = peaks.get(arch, 0.0)
        elif metric == "calls":
            values[name] = calls
        elif metric == "self_s":
            values[name] = own
        elif metric == "share":
            values[name] = own / traced_wall
        elif metric.endswith("_per_s"):
            values[name] = work / own if own > 0 else 0.0
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values


def dominance(workload, totals, traced_wall):
    """(predicted share, largest other layer and its share, holds)."""
    prefixes = PREDICTED_DOMINANT[workload]
    predicted, others = 0.0, {}
    for name, (_, own, _) in totals.items():
        if name.startswith(prefixes):
            predicted += own
        else:
            others[name] = own
    top = max(others, key=others.get) if others else "-"
    top_s = others.get(top, 0.0)
    return predicted / traced_wall, top, top_s / traced_wall, predicted > top_s


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def child(args):
    start = time.perf_counter()
    import workloads  # numpy and the library: import time is part of set-up

    w = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    digest = w.setup()
    result = {"setup_s": time.perf_counter() - start, "digest": digest}
    if args.child == "measure":
        result["canaries_ok"] = check_canaries(workloads)
        ops = Ops(w)
        for i in range(w.warmup):
            ops.attempt(i)
        probe = SpeedProbe(args.workload) if args.workload in PROBES else None
        lats = timed_loop(w, ops, args.seconds, probe)
        result["e2e"] = end_to_end(w, lats, ops, probe)
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            traced, totals = traced_replay(w, ops, len(lats), spans)
            peaks = train_memory(w) if hasattr(w, "arch") else {}
            names = [m["name"] for m in load_spec()["per_layer"]]
            result["layers"] = per_layer(names, w, lats, traced, totals, peaks)
            result["dominance"] = dominance(args.workload, totals, sum(traced))
            result["spans"] = os.path.relpath(spans, ROOT)
        result.update(attempted=ops.attempted, failed=ops.failed, env=environment())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def check_canaries(workloads):
    """Simulations whose digests were recorded with the benchmark must
    reproduce bit for bit: bit-identical simulation per seed is a library promise."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
        canaries = json.load(fh)
    ok = True
    for c in canaries:
        if workloads.canary_digest(c) != c["sha256"]:
            print(f"simulation canary {c} changed", file=sys.stderr)
            ok = False
    return ok


# -- parent: spawns children, aggregates, prints -------------------------------------


class ChildFailed(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(mode, args, workload, deadline):
    """Run one child to completion; returns (result dict, peak RSS in MB)."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, "--result", result_path]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise ChildFailed(f"{workload} {mode} did not finish in time")
            time.sleep(0.05)
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} {mode} exited with {proc.returncode}")
        with open(result_path) as fh:
            return json.load(fh), usage.ru_maxrss / 1024.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workload, spec):
    deadline = time.monotonic() + CHILD_DEADLINE_S
    setups = [spawn("setup", args, workload, deadline)[0] for _ in range(SETUP_RUNS - 1)]
    res, rss_mb = spawn("measure", args, workload, deadline)
    setups.append(res)
    same_inputs = len({s["digest"] for s in setups}) == 1
    if not same_inputs:
        print(f"{workload}: set-up made different inputs from one seed", file=sys.stderr)
    e2e = res["e2e"]
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"# {workload} seed {args.seed}: {res['attempted']} ops attempted, "
          f"{res['failed']} failed, failed_frac {failed_frac}")
    values = {
        "ops_per_s": e2e["ops_per_s"],
        "op_p50_ms": e2e["op_p50_ms"],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "rf_mean": e2e["rf_mean"],
    }
    if args.trace:
        values = res["layers"]
        share, top, top_share, holds = res["dominance"]
        print(f"# predicted dominant {'+'.join(PREDICTED_DOMINANT[workload])}: share {share:.3f}; "
              f"largest other {top} {top_share:.3f}; prediction "
              f"{'holds' if holds else 'DOES NOT HOLD'}")
        print(f"# self times leave {values['trace.unattributed_frac']:.4f} of traced wall "
              f"unattributed; tracing overhead {values['trace.overhead_frac']:.4f}; spans in {res['spans']}")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if not args.trace or values[m["name"]]:
            print(f"{m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"# speed probe scale {e2e['probe_scale']:.4g}; as measured: "
              f"ops_per_s {e2e['raw_ops_per_s']:.6g}, op_p50_ms {e2e['raw_op_p50_ms']:.6g}")
        print(f"# op_p50_ms over {e2e['samples']} samples; op_p90_ms {e2e['op_p90_ms']:.6g} ms, "
              f"{'resolved' if e2e['samples'] >= 100 else 'unresolved'} "
              f"({e2e['samples'] // 10} samples beyond p90)")
    correct = res["failed"] == 0 and same_inputs and res["canaries_ok"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "phylodist", "__init__.py")):
        print(f"no phylodist sources under {ROOT}/src", file=sys.stderr)
        return 2
    # A terminated run still stops and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
            run_workload(args, workload, spec)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
