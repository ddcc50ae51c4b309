#!/usr/bin/env python3
"""Sample small mutants of modules and report those the test suite misses.

Each mutant makes one small change to one module (DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 1978):

* swap a comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
* swap ``and`` and ``or``;
* swap an arithmetic or bit operator, in an expression or an augmented
  assignment (``+`` and ``-``, ``*`` and ``/``, ``//`` to ``*``, ``%`` to
  ``//``, ``**`` to ``*``, ``<<`` and ``>>``, ``&`` and ``|``, ``^`` to
  ``|``);
* drop a ``not``;
* add 1 to an int literal;
* flip a bool literal.

The sites come from the standard library's ``ast``; the mutated
expression is spliced into the source in parentheses, so the rest of the
file keeps its text.  Sites inside f-strings are skipped.  Each module's
sample is drawn with ``random.Random(12345)``, so a module's mutants stay
the same as long as the module does.

Every mutant is tested on a copy of the tree, with the tier-1 command plus
``-x``; a failing or timed-out run kills it.  The script prints each
mutant's fate and then the survivors.  It is not part of tier-1.

    python scripts/mutation_sample.py src/msms/simulation.py src/msms/cli.py
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 12345
TIMEOUT_S = 600  # a mutant that makes the suite hang is killed after this
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# Left out of the copy: version control and what runs leave behind.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_tmp", "*.egg-info"
)

COMPARE_SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAP = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
BOOLOP_SWAP = {ast.And: ast.Or, ast.Or: ast.And}


def _symbol(op: ast.AST) -> str:
    """The operator's text, read back from a one-node unparse."""
    if isinstance(op, ast.cmpop):
        return ast.unparse(ast.Compare(ast.Name("a"), [op], [ast.Name("b")]))[2:-2]
    if isinstance(op, ast.boolop):
        return ast.unparse(ast.BoolOp(op, [ast.Name("a"), ast.Name("b")]))[2:-2]
    return ast.unparse(ast.BinOp(ast.Name("a"), op, ast.Name("b")))[2:-2]


def _sites(node: ast.AST):
    """Yield ``(description, mutated copy of node)`` for each mutation of node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_SWAP:
                new = COMPARE_SWAP[type(op)]()
                ops = node.ops[:i] + [new] + node.ops[i + 1:]
                which = f" (comparison {i + 1})" if len(node.ops) > 1 else ""
                yield f"{_symbol(op)} -> {_symbol(new)}{which}", ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        new = BOOLOP_SWAP[type(node.op)]()
        yield f"{_symbol(node.op)} -> {_symbol(new)}", ast.BoolOp(new, node.values)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAP:
        new = BINOP_SWAP[type(node.op)]()
        what = f"{_symbol(node.op)} -> {_symbol(new)}"
        if isinstance(node, ast.BinOp):
            yield what, ast.BinOp(node.left, new, node.right)
        else:
            yield f"{_symbol(node.op)}= -> {_symbol(new)}=", ast.AugAssign(node.target, new, node.value)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "drop not", node.operand
    elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
        yield f"{node.value} -> {not node.value}", ast.Constant(not node.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} -> {node.value + 1}", ast.Constant(node.value + 1)


def mutants(source: str):
    """Every single-site mutant of a module, as ``(line, description, new source)``."""
    tree = ast.parse(source)
    in_fstring = {
        id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    lines = source.encode().splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    data = source.encode()
    for node in ast.walk(tree):
        if id(node) in in_fstring or not hasattr(node, "end_col_offset"):
            continue
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        for what, new in _sites(node):
            text = ast.unparse(new)
            if isinstance(node, ast.expr):
                text = f"({text})"
            yield node.lineno, what, (data[:begin] + text.encode() + data[end:]).decode()


def run_suite(tree: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("modules", nargs="+", help="module paths, relative to the repository root")
    ap.add_argument("--count", type=int, default=10, help="mutants sampled per module (default 10)")
    args = ap.parse_args()

    survivors = []
    with tempfile.TemporaryDirectory(prefix="msms-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        for module in args.modules:
            source = (ROOT / module).read_text()
            pool = list(mutants(source))
            sample = random.Random(SEED).sample(pool, min(args.count, len(pool)))
            print(f"{module}: {len(sample)} of {len(pool)} mutants", flush=True)
            for line, what, mutated in sample:
                label = f"{module}:{line}: {what}"
                target = tree / module
                target.write_text(mutated)
                started = time.perf_counter()
                fate = run_suite(tree)
                target.write_text(source)
                print(f"  {label}  {fate} ({time.perf_counter() - started:.0f} s)", flush=True)
                if fate == "survived":
                    survivors.append(label)
    print(f"{len(survivors)} survivors")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
