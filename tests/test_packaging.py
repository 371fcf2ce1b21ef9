"""What the installed package holds: the brute-force references the tests
check the fast paths against live in tests/oracles.py, h1loc.oracles
keeps only cocycle_counts, the benchmark's brute-force counter, names
and options no command, criterion or script uses are gone, and every
module stays under the token count where compiling it costs more memory."""

import ast
import inspect
import tokenize
from pathlib import Path

import h1loc
from h1loc import criteria, groups, ringmat, symplectic

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


def test_names_and_options_without_a_caller_are_gone():
    """The test-only functions live in tests/oracles.py, names nothing
    calls are deleted, and options with one value in use are constants:
    the closure cap of an image or a Sylow comes from the group."""
    moved = {"find_normalized_sylow": groups,
             "fixed_point_spectrum": criteria,
             "projective_order": symplectic}
    for name, module in moved.items():
        assert not hasattr(h1loc, name) and not hasattr(module, name)
    for cls, name in ((groups.MatGroup, "inverse"),
                      (groups.MatGroup, "scalar_elements"),
                      (symplectic.SymplecticSpace, "pair")):
        assert not hasattr(cls, name)
    for fn, name in ((groups.MatGroup.reduce_mod, "cap"),
                     (groups.element_order, "cap"),
                     (ringmat.quotient_structure, "modulus")):
        assert name not in inspect.signature(fn).parameters
    cap = inspect.signature(groups._greedy_generators).parameters["cap"]
    assert cap.default is inspect.Parameter.empty
    add_common = [node for node in ast.walk(_trees()["cli.py"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "add_common"]
    assert [[a.arg for a in f.args.args] for f in add_common] == [["sp"]]
