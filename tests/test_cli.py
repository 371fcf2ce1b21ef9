"""CLI: parsing, serialization round trip, commands, exit codes, JSON."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import h1loc

from corpus import twist_corpus
from h1loc.cli import (EXIT_CAP, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK,
                       GroupDescription, parse_group, run)
from h1loc.criteria import sylow_normalizer_criterion
from h1loc.errors import InputError

CYCLIC = """\
# a cyclic group mod 25
p=5 n=2 rank=2
gen:
1 1
0 1
"""

FAMILY = """\
p=5 n=2 rank=2
gen:
1 -3
1 -2
gen:
6 10
0 21
gen:
16 15
20 11
"""

GL2F5 = """\
p=5 n=1 rank=2 symplectic
gen:
2 0
0 1
gen:
4 1
4 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_and_roundtrip():
    desc = parse_group(CYCLIC)
    assert (desc.p, desc.n, desc.rank) == (5, 2, 2)
    assert len(desc.generators) == 1
    again = parse_group(desc.serialize())
    assert again == desc
    sym = parse_group(GL2F5)
    assert sym.symplectic
    assert parse_group(sym.serialize()) == sym


def test_parse_errors_are_distinct():
    with pytest.raises(InputError, match="header"):
        parse_group("q=5 n=2 rank=2\n")
    with pytest.raises(InputError, match="non-square"):
        parse_group("p=5 n=2 rank=2\ngen:\n1 0 0\n0 1 0\n")
    with pytest.raises(InputError, match="not invertible"):
        parse_group("p=5 n=2 rank=2\ngen:\n5 0\n0 1\n")
    with pytest.raises(InputError, match="empty"):
        parse_group("# nothing\n")
    with pytest.raises(InputError, match="truncated"):
        parse_group("p=5 n=2 rank=2\ngen:\n1 0\n")


def test_h1loc_cyclic_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "cyclic.grp", CYCLIC)
    assert run(["h1loc", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "trivial" in out


def test_h1loc_family_exit_one(tmp_path):
    path = write(tmp_path, "family.grp", FAMILY)
    assert run(["h1loc", path]) == EXIT_NEGATIVE


def test_h1_json_schema_stable(tmp_path, capsys):
    path = write(tmp_path, "cyclic.grp", CYCLIC)
    assert run(["h1", path, "--json"]) in (EXIT_OK, EXIT_NEGATIVE)
    first = capsys.readouterr().out
    run(["h1", path, "--json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "h1"
    assert payload["h1"]["invariant_factors"] == [25]


def test_criteria_command(tmp_path, capsys):
    path = write(tmp_path, "family.grp", FAMILY)
    code = run(["criteria", path, "--json"])
    assert code == EXIT_NEGATIVE  # no criterion certifies the family
    payload = json.loads(capsys.readouterr().out)
    assert all(r["conclusion"] != "certified" for r in payload["reports"])
    assert any(r["direct_h1_loc"] == [5, 5] for r in payload["reports"])

    sym = write(tmp_path, "gl2.grp", GL2F5)
    code2 = run(["criteria", sym, "--json"])
    assert code2 == EXIT_OK
    payload2 = json.loads(capsys.readouterr().out)
    assert any(r["conclusion"] == "certified" for r in payload2["reports"])


def test_criteria_outputs_frozen(tmp_path, capsys):
    # sha256 digests taken before the Sylow normalizer was read off the
    # p-element count, so a changed verdict, detail or witness fails here:
    # the exit code and `criteria --json` output of every twist-corpus
    # group, unconjugated, in corpus order; the witnesses of the
    # Sylow-normalizer criterion on the same groups; and both outputs on
    # GL2F5, whose 5-Sylow is not normal
    outputs, witnesses = hashlib.sha256(), hashlib.sha256()
    for i, (label, p, _g, G) in enumerate(twist_corpus()):
        desc = GroupDescription(p, 2, 2, [[list(row) for row in g.entries]
                                          for g in G.generators])
        path = write(tmp_path, f"twist{i:03d}.grp", desc.serialize())
        code = run(["criteria", path, "--json"])
        outputs.update(f"{label}\n{code}\n{capsys.readouterr().out}".encode())
        found = [item.witness.key() for item in sylow_normalizer_criterion(
            G, compute_cross_check=False).items if item.witness is not None]
        witnesses.update(f"{label}\n{found}\n".encode())
    sym = write(tmp_path, "gl2.grp", GL2F5)
    gl2 = hashlib.sha256()
    for argv in (["criteria", sym, "--json"], ["criteria", sym]):
        code = run(argv)
        gl2.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert outputs.hexdigest() == \
        "4fd6b1a5879fd95695cf3f209ab7abb1cdddcef4179081c5c19be63e9ae27b85"
    assert witnesses.hexdigest() == \
        "273348438f4e71630a729415582bc58636d84f61024e96e43f57108a05a4fe41"
    assert gl2.hexdigest() == \
        "05793b7c9ec7e272254ececd19167ea1bd788fd39d92264d9e74a1926670b260"


def test_counterexample_command(capsys):
    code = run(["counterexample", "--p", "5", "--json"])
    assert code == EXIT_NEGATIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["h1_loc"] == [5, 5]
    assert [x % 5 for x in payload["witness_h11"]] == [1, 1]
    assert [x % 5 for x in payload["witness_h21"]] == [4, 0]


def test_counterexample_bad_prime():
    assert run(["counterexample", "--p", "7"]) == EXIT_INPUT


def test_gsp4_formula_only(capsys):
    assert run(["gsp4", "--p", "3"]) == EXIT_OK
    assert "103680" in capsys.readouterr().out


def test_gsp4_needs_a_prime(capsys):
    """GSp_4(F_6) does not exist: the formula alone refuses p = 6 as
    --enumerate does, and p = 3 still prints its order."""
    for argv in (["gsp4", "--p", "6", "--json"],
                 ["gsp4", "--p", "6", "--enumerate", "--json"]):
        assert run(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "prime" in captured.err
    assert run(["gsp4", "--p", "3", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["order_formula"] == 103680


def test_gsp4_enumerate(capsys):
    assert run(["gsp4", "--p", "3", "--enumerate", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_enumerated"] == 103680
    assert payload["pairing_failures"] == 0
    assert payload["match"] is True


def test_decompose_command(tmp_path, capsys):
    text = """\
p=5 n=1 rank=2
gen:
2 0
0 1
gen:
1 1
0 1
"""
    path = write(tmp_path, "dec.grp", text)
    assert run(["decompose", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs"][0]["exponent"] == 2
    # the whole payload, frozen
    assert payload == {"command": "decompose",
                       "pairs": [{"h": [[1, 1], [0, 1]], "exponent": 2}]}


def test_decompose_precondition_exit_code(tmp_path):
    text = """\
p=5 n=1 rank=2
gen:
1 1
0 1
gen:
1 1
0 1
"""
    path = write(tmp_path, "bad.grp", text)
    assert run(["decompose", path]) == EXIT_INPUT


def test_cap_exit_code(tmp_path):
    path = write(tmp_path, "gl2.grp", GL2F5)
    assert run(["h1", path, "--cap", "10"]) == EXIT_CAP


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_an_input_error(tmp_path, capsys, cap):
    # 0 must not fall back to the default cap, and -1 is no cap to exceed:
    # the parser rejects both, with the exit code of an input error
    path = write(tmp_path, "cyclic.grp", CYCLIC)
    for argv in (["h1", path], ["decompose", path],
                 ["gsp4", "--p", "3", "--enumerate"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--cap", cap])
        assert exc.value.code == EXIT_INPUT
        assert f"closure cap {cap} is below 1" in capsys.readouterr().err


def test_huge_prime_header_exits_two(tmp_path, capsys):
    # 2^61 - 1 is prime, and the int64 bound of the closure refuses it
    text = "p=2305843009213693951 n=1 rank=2\ngen:\n1 1\n0 1\n"
    path = write(tmp_path, "huge.grp", text)
    assert run(["h1", path]) == EXIT_INPUT
    assert "too large" in capsys.readouterr().err


def test_missing_file():
    assert run(["h1", "/nonexistent/file.grp"]) == EXIT_INPUT


def test_shared_parser_leaks_nothing_between_runs(tmp_path, capsys):
    # run() reuses one parser: no default, --json or --cap of one call may
    # reach the next, so each output equals that of a fresh process
    sym = write(tmp_path, "gl2.grp", GL2F5)
    calls = [["criteria", sym, "--json"],
             ["gsp4", "--p", "3", "--enumerate", "--cap", "10"],
             ["h1loc", sym],       # 480 elements: a leaked cap would refuse
             ["criteria", sym]]
    in_process = []
    for argv in calls:
        code = run(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [c for c, _, _ in in_process] == [EXIT_OK, EXIT_CAP, EXIT_OK,
                                             EXIT_OK]
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    for argv, got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "h1loc.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_cli_commands_do_not_import_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma, about 14 ms of every process
    fam = write(tmp_path, "family.grp", FAMILY)
    sym = write(tmp_path, "gl2.grp", GL2F5)
    script = (
        "import contextlib, io, sys\n"
        "from h1loc.cli import run\n"
        "for argv in ([sys.argv[1], '--json'], [sys.argv[2], '--json'],\n"
        "             ['counterexample', '--p', '5', '--json'],\n"
        "             ['gsp4', '--p', '3', '--enumerate', '--json']):\n"
        "    if argv[0].endswith('.grp'):\n"
        "        argv = ['criteria'] + argv\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        run(argv)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, fam, sym],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
