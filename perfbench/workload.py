"""The workload process: set up one workload, run its closed loop, report JSON.

Started by run.py in a fresh interpreter with src/ on PYTHONPATH and
LYAP_THREADS removed. It imports shelyap.cli and writes the workload's inputs
(the set-up, timed from the parent's launch), then calls shelyap.cli.main(argv)
in-process, one op after another, checking each op's output. With --setup-only
it stops after set-up. With --trace 1 it runs untraced for a third of the
time, then replays the same ops with every layer wrapped.

setup_s is the median over this process's own set-up and fresh --setup-only
interpreters launched between ops, one every SETUP_EVERY_S of the run, so the
samples spread over the run rather than catching one moment of the machine.
The loop waits for each launch; it is not timed as an op.

The shared 2-vCPU machines this was built on run the same code up to ~70%
slower in phases lasting from seconds to minutes, with no stolen time: the
process keeps its vCPU but the vCPU runs slower. So the loop runs a fixed
reference kernel (reference_work, part of this file and never of the
program) after every op, and reports each op's time scaled to reference
speed: raw time x REF_MS / (mean time of the reference runs just before and
after it). A slow phase slows the op and its reference runs together, and
the ratio stays. The process stays on one CPU, so an op and its reference
runs share it.

The loop cycles the workload's pool of distinct ops; each op's latency is
the median of its scaled repetitions. op_ms_p50 and op_ms_tail are taken
over the distinct ops run, each counted once, as Harrell-Davis estimates (a
weighted mean of neighbouring order statistics), and ops_per_s is the
distinct ops run over the sum of their latencies. Only time inside cli.main
counts, not the harness's output checks. The plain wall-clock rate, the raw
latencies and the reference times stay in the record as ops_per_s_as_run,
latencies and ref_ms.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HASHED_OPS = 8  # outputs of the first ops form the run's sha256 diagnostic
SETUP_EVERY_S = 2.5
REF_MS = 6.0  # reported times are scaled so that reference_work takes this long


def reference_work() -> int:
    """Fixed pure-Python work: a float and dict loop, then merging on a list
    stack as the solvers' pooling does. It is not the program and never changes."""
    acc, table = 0.0, {}
    for i in range(16000):
        v = (i * 0.37) ** 0.5 - acc * 1e-9
        acc += v
        table[i & 511] = v
    vals, wts = [], []
    for i in range(8000):
        v, w = ((i * 7919) % 2003) / 2003.0, 1.0
        while vals and vals[-1] < v:
            pv, pw = vals.pop(), wts.pop()
            v, w = (v * w + pv * pw) / (w + pw), w + pw
        vals.append(v)
        wts.append(w)
    return len(table) + len(vals)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def to_reference_speed(seconds: float, ref_seconds: float) -> float:
    """A time measured while reference_work took `ref_seconds`, at reference speed."""
    return seconds * REF_MS / (1e3 * ref_seconds)


def _run_op(cli, op) -> tuple[float, int, str, str | None]:
    """Time one cli.main call; return (seconds, rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = -1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):  # an op that raises is a failed op, not a dead run
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return elapsed, rc, out.getvalue(), error


def sample_setup(setup_argv: list[str], workdir: Path) -> float:
    """Set-up time of a fresh --setup-only interpreter, waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), *setup_argv, "--setup-only",
           "--workdir", str(workdir), "--launched-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Closed loop over a cyclic op schedule with per-op output checks.

    The process is pinned to one CPU, and reference_work runs once before
    the first op and once after every op; refs[k + 1] follows op k. Set-up
    samples are scaled by the reference runs just before and after them.
    """

    def __init__(self, cli, ops, check):
        self.cli, self.ops, self.check = cli, ops, check
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
        self.setup_raw: list[float] = []
        self.setup_samples: list[float] = []
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.hash = hashlib.sha256()
        self.output_bytes = 0
        self.refs.append(time_reference())

    def run_one(self, k: int) -> None:
        op = self.ops[k % len(self.ops)]
        elapsed, rc, out, error = _run_op(self.cli, op)
        self.refs.append(time_reference())
        self.latencies.append(elapsed)
        raw = out.encode()
        self.output_bytes += len(raw)
        if error is None:
            error = self.check(op, rc, out)
        digest = hashlib.sha256(raw).hexdigest()
        if error is None and self.digests.setdefault(op.argv, digest) != digest:
            error = "output differs from an earlier run of the same argv"
        if len(self.latencies) <= HASHED_OPS:
            self.hash.update(digest.encode())
        if error is not None:
            self.failures.append(f"op {k} {' '.join(op.argv)}: {error}")

    def run_for(self, seconds: float, setup=None) -> int:
        """Run ops for `seconds`; with `setup`, sample it every SETUP_EVERY_S."""
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            self.run_one(k)
            k += 1
            if setup and time.perf_counter() - start >= SETUP_EVERY_S * (len(self.setup_raw) + 1):
                raw = setup(len(self.setup_raw))
                ref = (self.refs[-1] + time_reference()) / 2
                self.setup_raw.append(raw)
                self.setup_samples.append(to_reference_speed(raw, ref))
        return k


def _env_info() -> dict:
    import numpy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": "unknown"}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
    return info


def scaled_latencies(latencies: list[float], refs: list[float]) -> list[float]:
    """Each op's latency at reference speed.

    refs[k] and refs[k + 1] are the reference runs just before and just after
    op k, and it is scaled by their mean; wider windows tracked ops less well.
    """
    return [to_reference_speed(raw, (refs[k] + refs[k + 1]) / 2)
            for k, raw in enumerate(latencies)]


def scaled_by_op(latencies: list[float], refs: list[float], pool: int) -> dict[int, list[float]]:
    """scaled_latencies grouped by pool index."""
    by_op: dict[int, list[float]] = {}
    for k, lat in enumerate(scaled_latencies(latencies, refs)):
        by_op.setdefault(k % pool, []).append(lat)
    return by_op


def hd_quantile(vals: list[float], p: float, grid: int = 20000) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted `vals`.

    It is the mean of the order statistics weighted by a Beta(p(n+1),
    (1-p)(n+1)) law, so neighbouring values share the weight one order
    statistic would carry alone, and one op's noise moves it less.
    """
    import numpy as np

    n = len(vals)
    if n == 1 or p >= 1.0:
        return vals[-1]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    u = (np.arange(grid) + 0.5) / grid
    logw = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logw - logw.max()))))
    edges = np.interp(np.arange(n + 1) / n, np.arange(grid + 1) / grid, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), vals))


def latency_metrics(by_op: dict[int, list[float]]) -> dict:
    """Rate, median and tail over the distinct ops run, each at its median
    repetition.

    Every op counts once, as if each had run the same number of times, so the
    part of the last pass a run reaches does not weight the ops it covers, and
    the count of samples does not depend on how fast the machine ran. The
    tail is at the highest percentile with at least 10 ops beyond it. Both
    percentiles are Harrell-Davis estimates.
    """
    vals = sorted(statistics.median(lat) for lat in by_op.values())
    m = len(vals)
    beyond = 10 if m > 10 else 0
    return {"ops_per_s": m / sum(vals), "op_ms_p50": 1e3 * hd_quantile(vals, 0.5),
            "op_ms_tail": 1e3 * hd_quantile(vals, (m - beyond) / m),
            "tail_percentile": 100.0 * (m - beyond) / m, "tail_beyond": beyond, "samples": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launched-ns", type=int, required=True,
                    help="parent's time.monotonic_ns() just before launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes for the self-check")
    args = ap.parse_args(argv)

    import shelyap.cli as cli
    from workloads import check_output, make_ops

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = make_ops(args.workload, args.seed, workdir, args.tiny)
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "env": _env_info()}  # before Loop pins the process
    loop = Loop(cli, ops, check_output)
    if args.trace:
        import layertrace

        done = loop.run_for(args.seconds / 3.0)
        tracer = layertrace.Tracer()
        tracer.install()
        bytes_before = loop.output_bytes
        for k in range(done):
            tracer.op = k
            loop.run_one(k)
        tracer.uninstall()
        traced_s = sum(loop.latencies[done:])
        scaled = scaled_latencies(loop.latencies, loop.refs)
        result["layers"] = layertrace.summarize(
            tracer.spans, done, round(traced_s * 1e9), loop.output_bytes - bytes_before,
            overhead=sum(scaled[:done]) / sum(scaled[done:]))
        tracer.write(workdir / "spans.jsonl")
    else:
        setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", "0", *(["--tiny"] if args.tiny else [])]
        loop.run_for(args.seconds,
                     lambda i: sample_setup(setup_argv, workdir / f"setup{i}"))
        samples = [to_reference_speed(setup_s, loop.refs[0]), *loop.setup_samples]
        result.update(setup_s=statistics.median(samples), setup_samples=samples,
                      setup_raw=[setup_s, *loop.setup_raw])
        by_op = scaled_by_op(loop.latencies, loop.refs, len(ops))
        result.update(latency_metrics(by_op), latencies=loop.latencies,
                      ref_ms=[1e3 * r for r in loop.refs],
                      ops_per_s_as_run=len(loop.latencies) / sum(loop.latencies))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=len(loop.latencies), failed=len(loop.failures),
                  failures=loop.failures[:20], outputs_sha256=loop.hash.hexdigest(),
                  hashed_ops=min(HASHED_OPS, len(loop.latencies)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
