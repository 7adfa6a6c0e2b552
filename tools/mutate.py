"""Mutation runner: how many one-operator mutants of a function does verify kill?

    python tools/mutate.py clusters:_Paths.__init__ clusters:_Paths._zeta

Each TARGET is MODULE:QUALNAME, a function of src/shelyap/MODULE.py. In its
body, one mutant at a time swaps + and -, * and /, < and <=, or > and >=, or
adds 1 to a number literal. Each mutant is written into a temporary copy of
src/ (src/ itself is never edited) and judged by one run of

    python -m shelyap.cli verify --seed 0 --count 60

with a 60 s timeout, since a mutated event loop can spin forever. A mutant
is killed when that run exits non-zero, times out, or does not end in the
line VERIFY PASS. A suite kills it when its line `name: p/q pass` reads
p < q; a run that times out, or ends without VERIFY PASS and with no failing
suite (a traceback, say), counts as a timeout or a crash. The runner prints
each survivor by its site: the site's ordinal among the function's sites,
its line and column, the mutation and the mutated node, as in

    survived clusters:_simulate site 9/111 line 276 col 31: 1 -> 2 (2)

so that mutants of one operator on one line can be told apart. Then it
prints for each target killed/total, the timeouts and crashes,
and each suite's kills and sole kills: those of its mutants that no other
suite, timeout or crash killed. It uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMAND = [sys.executable, "-m", "shelyap.cli", "verify", "--seed", "0", "--count", "60"]
TIMEOUT = 60.0
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
SUITE_LINE = re.compile(r"(\w+): (\d+)/(\d+) pass")


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: ast.AST = tree
    for name in qualname.split("."):
        scope = next((node for node in ast.iter_child_nodes(scope)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                     None)
        if scope is None:
            raise SystemExit(f"no {qualname} in the module")
    return scope


def sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """The mutable places in func's body, in source order: (node, comparison index)."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, None))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def mutate(node: ast.AST, index: int | None) -> str:
    """Apply one mutation in place; return what it did."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[index])
        node.ops[index] = SWAPS[old]()
    elif isinstance(node, ast.Constant):
        old_value = node.value
        node.value += 1
        return f"{old_value!r} -> {node.value!r}"
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def verify(workdir: Path) -> subprocess.CompletedProcess | None:
    """One verify run of the tree at workdir; None if it times out."""
    env = dict(os.environ, PYTHONPATH=str(workdir), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(COMMAND, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def killers(proc: subprocess.CompletedProcess | None) -> set[str]:
    """What kills a verify run: its failing suites, else "timeout" or "crash";
    empty if it passes."""
    if proc is None:
        return {"timeout"}
    lines = proc.stdout.splitlines()
    failed = {m[1] for m in map(SUITE_LINE.match, lines) if m and int(m[2]) < int(m[3])}
    if failed or (proc.returncode == 0 and lines and lines[-1] == "VERIFY PASS"):
        return failed
    return {"crash"}


def report(target: str, count: int, kills: list[set[str]], suites: list[str]) -> None:
    """killed/total, timeouts and crashes, then each suite's kills and sole kills."""
    dead = sum(map(bool, kills))
    tally = {k: sum(k in ks for ks in kills) for k in ("timeout", "crash")}
    print(f"{target}: {dead}/{count} killed; {tally['timeout']} timeouts, "
          f"{tally['crash']} crashes", flush=True)
    for suite in suites:
        print(f"  {suite}: {sum(suite in ks for ks in kills)} kills, "
              f"{sum(ks == {suite} for ks in kills)} sole", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE:QUALNAME")
    parser.add_argument("--src", type=Path, default=SRC, help="the tree to mutate a copy of")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "src"
        shutil.copytree(args.src, work, ignore=shutil.ignore_patterns("__pycache__"))
        base = verify(work)
        if killers(base):
            raise SystemExit("verify fails on the unmutated tree")
        suites = [m[1] for m in map(SUITE_LINE.match, base.stdout.splitlines()) if m]
        for target in args.targets:
            module, qualname = target.split(":")
            path = work / "shelyap" / f"{module}.py"
            original = path.read_text()
            count = len(sites(find_function(ast.parse(original), qualname)))
            kills = []
            for k in range(count):
                tree = ast.parse(original)
                node, index = sites(find_function(tree, qualname))[k]
                what = mutate(node, index)
                path.write_text(ast.unparse(tree))
                kills.append(killers(verify(work)))
                if not kills[-1]:
                    print(f"survived {target} site {k + 1}/{count} line {node.lineno} "
                          f"col {node.col_offset}: {what} ({ast.unparse(node)})", flush=True)
            path.write_text(original)
            report(target, count, kills, suites)
    return 0


if __name__ == "__main__":
    sys.exit(main())
