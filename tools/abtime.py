"""A/B timing of two checkouts' command line, in one process.

    python tools/abtime.py BEFORE AFTER --workload clusters-large

BEFORE and AFTER are checkout roots, each with src/shelyap. The op pool is
the benchmark workload's own at seed SEED, built by
perfbench/workloads.make_ops (read only, into a temporary directory). Each
checkout's package is loaded under its own name, and every op runs on both
sides in each of ROUNDS rounds, the side that goes first alternating from op
to op and from round to round, so that a slow phase of the machine falls on
both alike. The tool asserts that both sides give the same exit code,
stdout and stderr (so error objects too) on every op. It prints each side's
per-op-minimum ms/op (the mean over the pool of each op's fastest run), the
ops/s ratio AFTER/BEFORE, and on how many ops AFTER's minimum was lower.
It uses only the standard library and NumPy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 0
ROUNDS = 7


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import the file at path as module name (a package if package_dir is given)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(root: Path, name: str):
    """The cli module of the shelyap package under root/src, imported as name."""
    package = root / "src" / "shelyap"
    load_module(name, package / "__init__.py", package)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: tuple[str, ...]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", default="clusters-large")
    args = parser.parse_args(argv)
    workloads = load_module("_abtime_workloads", WORKLOADS)
    sides = [load_cli(args.before.resolve(), "_abtime_before"),
             load_cli(args.after.resolve(), "_abtime_after")]
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.make_ops(args.workload, SEED, Path(tmp))
        best = [[float("inf")] * len(ops) for _ in sides]
        for r in range(ROUNDS):
            for i, op in enumerate(ops):
                order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
                results = {}
                for side in order:
                    seconds, code, out, err = run(sides[side], op.argv)
                    best[side][i] = min(best[side][i], seconds)
                    results[side] = (code, out, err)
                if results[0] != results[1]:
                    raise SystemExit(f"outputs differ on op {i}: {' '.join(op.argv)}")
    ms = [1e3 * sum(b) / len(ops) for b in best]
    faster = sum(a < b for b, a in zip(*best))
    print(f"{args.workload} seed {SEED}: {len(ops)} ops x {ROUNDS} rounds, "
          f"stdout and stderr identical on every op")
    print(f"before {ms[0]:.3f} ms/op ({1e3 / ms[0]:.2f} ops/s), "
          f"after {ms[1]:.3f} ms/op ({1e3 / ms[1]:.2f} ops/s)")
    print(f"ops/s after/before {ms[0] / ms[1]:.4f}; after faster on {faster}/{len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
