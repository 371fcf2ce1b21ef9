"""What the installed package holds: the brute-force references the tests
check the fast paths against live in tests/oracles.py, h1loc.oracles
keeps only cocycle_counts, the benchmark's brute-force counter, and every
module stays under the token count where compiling it costs more memory."""

import ast
import tokenize
from pathlib import Path

import h1loc

PACKAGE = Path(h1loc.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_package_defines_no_reference_functions():
    found = [f"{name}:{node.lineno} {node.name}"
             for name, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("reference_")]
    assert not found


def test_package_oracles_define_only_cocycle_counts():
    tree = _trees()["oracles.py"]
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    assert {n for n in names if not n.startswith("_")} == {"cocycle_counts"}


def test_every_module_is_at_most_8192_tokens():
    """Every process compiles the package from source when no bytecode is
    written, and Python 3.11 takes about 0.45 MB more peak memory to
    compile a module past 8,192 tokens.  Tokens are counted as tokenize
    yields them, less comments, NL and the encoding marker."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    sizes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as fh:
            sizes[path.name] = sum(tok.type not in skip for tok in
                                   tokenize.tokenize(fh.readline))
    assert sizes["groups.py"] > 7000
    assert {name: n for name, n in sizes.items() if n > 8192} == {}
