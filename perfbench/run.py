"""Benchmark of the shelyap command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file's checkout, and the
program is imported from its src/ directory (pure Python, nothing to build).
NAME is one of verify-small, gamma-large, clusters-large, gamma-high-nu, or
`all` to run the four in turn.

Each call launches one fresh interpreter running perfbench/workload.py, which
sets up (imports shelyap.cli and writes the seeded inputs) and runs the closed
loop: a single client calling shelyap.cli.main(argv) in-process, each op after
the previous one returns. It gets src/ as PYTHONPATH and no LYAP_THREADS.
Reported times are scaled to reference speed, as workload.py explains; the
report prints the as-run figures beside them.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. The
last stdout line is a JSON object with the keys correct, attempted, failed
and metrics; failed_frac is failed / attempted. Scratch files go to
perfbench/.work/, and the last run's record and spans stay in
perfbench/.work/last/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
from workload import REF_MS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
BUDGET_S = 170.0  # one call must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LYAP_THREADS", None)  # an inherited thread cap would change the program
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """Run one workload process to completion and return its record."""
    if not (ROOT / "src" / "shelyap" / "cli.py").is_file():
        raise BenchError(f"no shelyap sources under {ROOT / 'src'}")
    workdir = WORK / f"run-{os.getpid()}-{name}"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *(["--tiny"] if tiny else []),
           "--workdir", str(workdir), "--launched-ns", str(time.monotonic_ns())]
    try:
        try:
            proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                                  timeout=BUDGET_S, cwd=ROOT)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            raise BenchError("workload process ran past the time budget") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        rec = json.loads(lines[-1])
        rec.update(workload=name, seed=seed, seconds=seconds, trace=trace)
        last = WORK / "last"
        last.mkdir(parents=True, exist_ok=True)
        (last / f"{name}-trace{trace}.json").write_text(json.dumps(rec, indent=1) + "\n")
        if trace:
            shutil.copyfile(workdir / "spans.jsonl", last / f"{name}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rec


def metrics_of(rec: dict) -> dict:
    if rec["trace"]:
        return {name: {"value": rec["layers"][name], "unit": unit}
                for name, unit, _ in layertrace.PER_LAYER}
    return {name: {"value": rec[name], "unit": unit} for name, unit in END_TO_END}


def report(rec: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    env = rec["env"]
    attempted, failed = rec["attempted"], rec["failed"]
    lines = [
        f"# {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  "
        f"trace {rec['trace']}",
        f"# env python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']}, L2 {env.get('l2', '?')}, L3 {env.get('l3', '?')}",
        f"  failed_frac            {failed / attempted:.4g}  ({failed} of {attempted} ops)",
        f"  outputs_sha256         {rec['outputs_sha256'][:16]}  "
        f"(first {rec['hashed_ops']} ops)",
    ]
    lines += [f"  ! {f}" for f in rec["failures"]]
    if not rec["trace"]:
        notes = {
            "setup_s": f"median of {len(rec['setup_samples'])} fresh interpreters "
                       f"({statistics.median(rec['setup_raw']):.4g} s as run)",
            "ops_per_s": f"({rec['ops_per_s_as_run']:.4g} as run)",
            "op_ms_tail": f"p{rec['tail_percentile']:.1f}, {rec['tail_beyond']} of "
                          f"{rec['samples']} ops beyond",
        }
        lines.append(f"  times at reference speed: reference_work median "
                     f"{statistics.median(rec['ref_ms']):.3f} ms as run, {REF_MS} ms scaled")
        for name, unit in END_TO_END:
            lines.append(f"  {name:<22} {rec[name]:<12.6g} {unit:<4} {notes.get(name, '')}")
        return lines
    layers = rec["layers"]
    total = layers["traced_wall_ms"]
    lines.append("  self-time share per op (largest first):")
    own = [(layers[f"{f}.self_ms"], f) for f in layertrace.FUNCTIONS]
    own.append((layers["uninstrumented.self_ms"], "uninstrumented"))
    for ms, f in sorted(own, reverse=True)[:8]:
        lines.append(f"    {f:<44} {ms:10.3f} ms  {100 * ms / total:5.1f}%")
    for name, unit, _ in layertrace.PER_LAYER:
        lines.append(f"  {name:<52} {layers[name]:<14.6g} {unit}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (the harness self-check)")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        recs = [run_workload(n, args.seed, args.seconds, args.trace, args.tiny) for n in names]
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for rec in recs:
        print("\n".join(report(rec)))
    if len(recs) == 1:
        metrics = metrics_of(recs[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in recs for k, v in metrics_of(r).items()}
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
