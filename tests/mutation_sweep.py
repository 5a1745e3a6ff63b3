"""An AST mutation sweep over modules of the package, run by hand.

    python tests/mutation_sweep.py [--timeout SECONDS] [MODULE ...]

MODULE defaults to ``miner advisor catalog report cli``; ``workload`` is
left out of the default and has not been swept. Four kinds of mutant
are made from each module's syntax tree, one site at a time:

- flip a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``in`` and ``not in``, ``is`` and ``is not`` trade places;
- swap ``and`` and ``or``;
- add 1 to an integer constant;
- drop a ``not``.

Each mutant runs alone in a child process: the child compiles the mutated
source with ``test_mutants.compiled``, installs it as ``idxminer.<module>``
before any other part of the package or any test module is imported, and
runs the suite under ``tests/`` but for ``test_mutants.py`` (whose rows
read the module source from disk), stopping at the first failure. A failing
suite kills the mutant, and so does a child that runs past ``--timeout`` or
past ``MEMORY_CAP`` bytes of address space.
Tests that launch the command line in a fresh interpreter read the real
module, so only in-process tests can kill a mutant. Survivors are listed at
the end; each is either a gap in the tests or a mutant equivalent to the
original. Before its mutants, each module runs once unchanged but reprinted
from its tree, so a suite that fails on the reprint stops the sweep. The
script needs nothing beyond the standard library and the suite's own pytest,
and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
# Address space a child may map: a mutant that loops appending fails with
# MemoryError, a kill, rather than taking the machine's memory.
MEMORY_CAP = 1 << 30

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def sites(tree: ast.AST) -> Iterator[tuple[ast.AST, int]]:
    """Every (node, operand index) a mutant can change, in a fixed order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    yield node, k
        elif isinstance(node, ast.BoolOp):
            yield node, 0
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, 0
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, 0


class _Mutate(ast.NodeTransformer):
    """Change the one site ``(target, k)``; leave every other node alone."""

    def __init__(self, target: ast.AST, k: int):
        self.target, self.k = target, k
        self.before = self.after = ""

    def visit(self, node: ast.AST) -> ast.AST:
        if node is not self.target:
            return self.generic_visit(node)
        self.before = ast.unparse(node)
        if isinstance(node, ast.Compare):
            node.ops[self.k] = FLIPS[type(node.ops[self.k])]()
        elif isinstance(node, ast.BoolOp):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif isinstance(node, ast.Constant):
            node.value += 1
        else:
            node = node.operand
        self.after = ast.unparse(node)
        return node


def mutant(name: str, index: int) -> tuple[str, int, str, str]:
    """The source of mutant ``index`` of ``idxminer/<name>.py``, with the line
    of its site and the site's text before and after. Index -1 is the module
    unchanged, printed from the same tree."""
    tree = ast.parse((SRC / "idxminer" / f"{name}.py").read_text(encoding="utf-8"))
    if index < 0:
        return ast.unparse(tree), 0, "", ""
    target, k = list(sites(tree))[index]
    change = _Mutate(target, k)
    tree = ast.fix_missing_locations(change.visit(tree))
    return ast.unparse(tree), target.lineno, change.before, change.after


def count(name: str) -> int:
    return len(list(sites(ast.parse((SRC / "idxminer" / f"{name}.py").read_text("utf-8")))))


def survives(name: str, index: int, timeout: float) -> tuple[bool, str]:
    """Whether the suite passes on the mutant, and how it ended: the first
    failing test, or the exit code when pytest names none."""
    try:
        done = subprocess.run([sys.executable, __file__, "--child", name, str(index)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "killed (timeout)"
    if done.returncode == 0:
        return True, "survived"
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return False, f"killed by {failed[0]}" if failed else f"killed (exit {done.returncode})"


def run_child(name: str, index: int) -> int:
    """Install mutant ``index`` of ``name`` and run the suite on it."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import pytest

    source = mutant(name, index)[0]

    class Install:
        """Puts the mutant in place once pytest has loaded its plugins and the
        suite's conftest, before any test module is collected."""

        @staticmethod
        def pytest_sessionstart(session: pytest.Session) -> None:
            sys.path.insert(0, str(TESTS))
            from test_mutants import compiled

            package = sys.modules["idxminer"]
            for key, module in list(sys.modules.items()):
                if key.startswith("idxminer.") or \
                        Path(getattr(module, "__file__", None) or "/").parent == TESTS:
                    del sys.modules[key]
                    if key.startswith("idxminer."):
                        delattr(package, key.split(".")[1])
            changed = compiled(name, source)
            sys.modules[f"idxminer.{name}"] = changed
            setattr(package, name, changed)

    return int(pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                            "--ignore", str(TESTS / "test_mutants.py"), str(TESTS)],
                           plugins=[Install()]))


def sweep(names: list[str], timeout: float) -> int:
    started = time.monotonic()
    survivors = []
    total = 0
    for name in names:
        passed, verdict = survives(name, -1, timeout)
        if not passed:
            print(f"{name}.py unchanged but reprinted: the suite fails, {verdict}")
            return 1
        for index in range(count(name)):
            _, line, before, after = mutant(name, index)
            began = time.monotonic()
            survived, verdict = survives(name, index, timeout)
            total += 1
            label = f"{name}.py:{line} #{index}: {before!r} -> {after!r}"
            print(f"{label}  {verdict}  {time.monotonic() - began:.1f}s", flush=True)
            if survived:
                survivors.append(label)
    print(f"\n{total} mutants, {len(survivors)} survived, "
          f"{time.monotonic() - started:.0f}s in all")
    for label in survivors:
        print(f"  survived: {label}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*",
                        default=["miner", "advisor", "catalog", "report", "cli"])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds a mutant may run before it counts as killed")
    parser.add_argument("--child", nargs=2, metavar=("MODULE", "INDEX"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return run_child(args.child[0], int(args.child[1]))
    return sweep(args.modules, args.timeout)


if __name__ == "__main__":
    sys.exit(main())
