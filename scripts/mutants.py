"""Mutation testing: how many one-token changes to a module its tests catch.

Each mutant changes one token of one module of ``src/latticeops``:

* a binary operator: + and -, * and /, // to *, % to //, ** to *;
* a comparison: < and <=, > and >=, == and !=, is and is not, in and not in;
* ``and`` and ``or``;
* a dropped unary minus or ``not``;
* an integer literal k to k + 1.

Nothing inside an f-string is mutated.  The mutants are written into a
temporary copy of the package, never into ``src/``.  Each one runs
against that copy in two stages, stopping at the first failure, under one
timeout: first the module's own ``tests/test_<module>.py``, if there is
one, then the rest of the given pytest selection.  A mutant counts as

* killed: the selection fails (an import error included);
* survived: the selection passes;
* timed out: the run outlasts ``--timeout``.  A mutant can turn exact
  arithmetic into huge unreduced integers, so a run may never end.

Both stages must pass on the unmutated copy first.  ``--sample N`` runs
N mutants per module, drawn with ``--seed``; ``--list`` prints the mutants
without running them.

    python scripts/mutants.py classical --list
    python scripts/mutants.py classical characterize --sample 24 --seed 26
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticeops"

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult}
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
          ast.Mod: "%", ast.Pow: "**", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
          ast.USub: "-", ast.Not: "not"}


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    start: int  # byte offsets into the module's source
    end: int
    old: str
    new: str

    def __str__(self):
        return f"{self.module}.py:{self.line}: {self.old!r} -> {self.new!r}"

    def apply(self, source: bytes) -> bytes:
        assert source[self.start:self.end].decode() == self.old, self
        return source[:self.start] + self.new.encode() + source[self.end:]


def _offsets(source: bytes):
    """Byte offset of (line, col) as ast reports it: col counts UTF-8 bytes."""
    starts, at = [], 0
    for line in source.splitlines(keepends=True):
        starts.append(at)
        at += len(line)
    return lambda line, col: starts[line - 1] + col


def _between(source: bytes, start: int, end: int, token: str):
    """The span of `token` between two operands, or None unless the gap holds
    only brackets, whitespace and line continuations besides it."""
    gap = source[start:end].decode()
    words = " ".join(gap.replace("(", " ").replace(")", " ").replace("\\", " ").split())
    if words != token:
        return None
    at = start + len(gap[:gap.index(token.split()[0])].encode())
    last = token.split()[-1]
    return at, start + len(gap[:gap.rindex(last)].encode()) + len(last)


def mutants_of(module: str) -> list:
    """Every mutant of ``src/latticeops/<module>.py``, in source order."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    tree = ast.parse(source)
    offset = _offsets(source)
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = []

    def swap(line, start, end, op, table):
        span = _between(source, start, end, SYMBOL[type(op)])
        if span is not None:
            found.append(Mutant(module, line, *span, SYMBOL[type(op)], SYMBOL[table[type(op)]]))

    def end_of(n):
        return offset(n.end_lineno, n.end_col_offset)

    def start_of(n):
        return offset(n.lineno, n.col_offset)

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            swap(node.lineno, end_of(node.left), start_of(node.right), node.op, BINARY)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if type(op) in COMPARE:
                    swap(node.lineno, end_of(a), start_of(b), op, COMPARE)
        elif isinstance(node, ast.BoolOp):
            for a, b in zip(node.values, node.values[1:]):
                swap(node.lineno, end_of(a), start_of(b), node.op, BOOLEAN)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
            start, end = start_of(node), start_of(node.operand)
            old = source[start:end].decode()  # "-", "not " or "not (", say
            found.append(Mutant(module, node.lineno, start, end, old,
                                old[len(SYMBOL[type(node.op)]):].lstrip()))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.end_lineno == node.lineno):
            start, end = start_of(node), end_of(node)
            found.append(Mutant(module, node.lineno, start, end,
                                source[start:end].decode(), str(node.value + 1)))
    return sorted(found, key=lambda m: (m.start, m.new))


def run_selection(package: Path, tests: list, timeout: float) -> str:
    """'killed', 'survived' or 'timed out' for the package copy at `package`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={package.parent}", *tests]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"
    return "survived" if code == 0 else "killed"


def run_stages(package: Path, module: str, tests: list, timeout: float) -> str:
    """The module's own test file first, then the selection without it, within one timeout.

    pytest orders a selection by directory, so without the first stage a
    slow battery elsewhere can run before the tests that read the module.
    """
    own = Path("tests") / f"test_{module}.py"
    if not (ROOT / own).is_file():
        return run_selection(package, tests, timeout)
    deadline = time.monotonic() + timeout
    verdict = run_selection(package, [str(own)], timeout)
    if verdict != "survived":
        return verdict
    return run_selection(package, [*tests, f"--ignore={own}"],
                         max(deadline - time.monotonic(), 0.0))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="+", help="module names under src/latticeops")
    ap.add_argument("--tests", nargs="+", default=["tests"], help="the pytest selection")
    ap.add_argument("--sample", type=int, default=None, help="mutants per module (default all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    ap.add_argument("--list", action="store_true", help="print the mutants, run nothing")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    chosen = {}
    for module in args.modules:
        if not (PACKAGE / f"{module}.py").is_file():
            ap.error(f"no module src/latticeops/{module}.py")
        every = mutants_of(module)
        if args.sample is not None and args.sample < len(every):
            every = sorted(rng.sample(every, args.sample), key=lambda m: m.start)
        chosen[module] = every
    if args.list:
        for mutants in chosen.values():
            for m in mutants:
                print(m)
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        package = Path(tmp) / "src" / "latticeops"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        for module, mutants in chosen.items():
            if run_stages(package, module, args.tests, args.timeout) != "survived":
                print(f"error: the selection for {module} does not pass on the unmutated"
                      " package", file=sys.stderr)
                return 2
            path = package / f"{module}.py"
            source = path.read_bytes()
            counts = Counter()
            for m in mutants:
                path.write_bytes(m.apply(source))
                verdict = run_stages(package, module, args.tests, args.timeout)
                path.write_bytes(source)
                counts[verdict] += 1
                if verdict != "killed":
                    print(f"{verdict}: {m}", flush=True)
            total = len(mutants)
            rate = f"{counts['killed'] / total:.0%}" if total else "n/a"
            print(f"{module}: {total} mutants, {counts['killed']} killed, "
                  f"{counts['survived']} survived, {counts['timed out']} timed out "
                  f"(kill rate {rate})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
