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
from h1loc.cli import (EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL, EXIT_NEGATIVE,
                       EXIT_OK, GroupDescription, parse_group, run)
from h1loc.criteria import sylow_normalizer_criterion
from h1loc.errors import InputError
from h1loc.groups import MatGroup

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


def test_criteria_cross_checks_every_report_at_n1(tmp_path, capsys):
    """At n = 1 every report carries its direct H^1_loc as well: the
    fixed-point-free report read null here, so a certified verdict went
    out with no cross-check."""
    diag = write(tmp_path, "diag.grp", "p=5 n=1 rank=2\ngen:\n2 0\n0 3\n")
    sym = write(tmp_path, "gl2.grp", GL2F5)
    for path, count in ((diag, 2), (sym, 3)):
        assert run(["criteria", path, "--json"]) == EXIT_OK
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert len(reports) == count
        assert all(isinstance(r["direct_h1_loc"], list) for r in reports)
        assert any(r["conclusion"] == "certified" for r in reports)
        assert all(r["direct_h1_loc"] == [] for r in reports
                   if r["conclusion"] == "certified")
        assert run(["criteria", path]) == EXIT_OK
        assert capsys.readouterr().out.count(
            "  direct H1_loc: trivial\n") == count


def test_criteria_closes_the_mod_p_image_once(tmp_path, monkeypatch,
                                              capsys):
    """On a symplectic file with n >= 2 the fixed-point-free and the
    similitude criteria read the same mod-p image, closed once."""
    calls = []
    reduce_mod = MatGroup.reduce_mod

    def counting(self, j, *args, **kwargs):
        calls.append(j)
        return reduce_mod(self, j, *args, **kwargs)

    monkeypatch.setattr(MatGroup, "reduce_mod", counting)
    path = write(tmp_path, "family_sym.grp",
                 FAMILY.replace("rank=2", "rank=2 symplectic"))
    run(["criteria", path, "--json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["criterion"] for r in reports][1:] == [
        "fixed-point-free element mod p with trivial H^1",
        "surjective similitude multiplier"]
    assert calls == [1]


def test_criteria_outputs_frozen(tmp_path, capsys):
    # sha256 digests taken before the Sylow normalizer was read off the
    # p-element count, so a changed verdict, detail or witness fails here:
    # the exit code and `criteria --json` output of every twist-corpus
    # group, unconjugated, in corpus order; the witnesses of the
    # Sylow-normalizer criterion on the same groups; and both outputs on
    # GL2F5, whose 5-Sylow is not normal.  The GL2F5 digest was re-taken
    # once every report carried its direct H^1_loc: the fixed-point-free
    # report there, at n = 1, went from "direct_h1_loc": null to [] and
    # gained the plain line "direct H1_loc: trivial"
    outputs, witnesses = hashlib.sha256(), hashlib.sha256()
    for i, (label, p, _g, G) in enumerate(twist_corpus()):
        desc = GroupDescription(p, 2, 2, [[list(row) for row in g.entries]
                                          for g in G.generators])
        path = write(tmp_path, f"twist{i:03d}.grp", desc.serialize())
        code = run(["criteria", path, "--json"])
        outputs.update(f"{label}\n{code}\n{capsys.readouterr().out}".encode())
        found = [item.witness.key() for item in sylow_normalizer_criterion(
            G).items if item.witness is not None]
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
        "afa58f29dbf00c3f1888ca7030bedecac13d1ff2029d09e02e68278581a6a0d9"


def test_counterexample_command(capsys):
    code = run(["counterexample", "--p", "5", "--json"])
    assert code == EXIT_NEGATIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["h1_loc"] == [5, 5]
    assert [x % 5 for x in payload["witness_h11"]] == [1, 1]
    assert [x % 5 for x in payload["witness_h21"]] == [4, 0]


# sha256 of the stdout of `counterexample --p P --json` and of the plain
# output, taken while verify still read its witnesses off the per-element
# dict of satisfies_local_conditions and H^1_loc off h1_loc
COUNTEREXAMPLE_STDOUT = {
    (5, True): "776185a09d2b06d2ef0cb5a4fe34b2fc3ae88ca951e2b0bcf6e5f444f3d4f031",
    (5, False): "f566fbcaf1568a76bb860feb2c6e0c13fa3cc40d58e36a83e0f38fa9bf8303b0",
    (11, True): "e94c6c24e863582485fe12af5af8f847953273af7e416511f18d0802c87e919d",
    (11, False): "c4869f99c14f0c08778582218e0756ab7e302c75bf8ac54471e1a029fc3552d7",
    (17, True): "5cd5687480bddc8e331ba22f25d4022e32e845c3d2948446489149069fb66abc",
    (17, False): "3edd263c7be6caad1ad71c2dda6d05a15aca9f6127bff96d8d74fb46afbfbe45",
}


@pytest.mark.parametrize("p, as_json", sorted(COUNTEREXAMPLE_STDOUT))
def test_counterexample_outputs_frozen(capsys, p, as_json):
    argv = ["counterexample", "--p", str(p)] + (["--json"] if as_json else [])
    assert run(argv) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        COUNTEREXAMPLE_STDOUT[p, as_json]


def test_counterexample_bad_prime():
    assert run(["counterexample", "--p", "7"]) == EXIT_INPUT


def test_counterexample_past_the_cap_closes_nothing(capsys, monkeypatch):
    """G has 3 p^2 elements, past the default cap of 200,000 at p = 263
    (207,507): the op exits 3 before any closure, where it would otherwise
    close about 1 KB per element.  At p = 257 G has 198,147 elements, under
    the cap."""
    from h1loc import counterexample

    def refuse(*args, **kwargs):
        raise AssertionError("closure started past the cap")
    monkeypatch.setattr(MatGroup, "close", classmethod(refuse))
    assert run(["counterexample", "--p", "263", "--json"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == \
        "error: group closure exceeded cap of 200000"
    with pytest.raises(AssertionError, match="closure started"):
        counterexample.build(257)


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
    # a huge n is refused before p^n is formed, which would not finish
    path = write(tmp_path, "huge_n.grp", "p=5 n=10000000000 rank=2\n")
    assert run(["h1", path]) == EXIT_INPUT
    assert capsys.readouterr().err == \
        "error: line 1: n = 10000000000 too large: p^n >= 2^63\n"


@pytest.mark.parametrize("command", ["h1", "criteria"])
def test_odd_rank_symplectic_header_exits_two(tmp_path, capsys, monkeypatch,
                                              command):
    """A symplectic form needs an even rank: the parser refuses an odd one
    with the header's line number, before any closure, where criteria
    would otherwise compute two criteria and H^1_loc first."""
    def refuse(*args, **kwargs):
        raise AssertionError("closure started on an odd symplectic rank")
    monkeypatch.setattr(MatGroup, "close", classmethod(refuse))
    path = write(tmp_path, "odd.grp",
                 "# odd rank\np=5 n=1 rank=1 symplectic\ngen:\n2\n")
    assert run([command, path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: symplectic rank must be even\n"


def test_missing_file():
    assert run(["h1", "/nonexistent/file.grp"]) == EXIT_INPUT


def test_non_utf8_file_exits_two(tmp_path, capsys):
    # a traceback would exit 1, which reads as nonvanishing cohomology
    path = tmp_path / "bytes.grp"
    path.write_bytes(b"p=5 n=2 rank=2\ngen:\n1 1\n0 \xff\n")
    assert run(["h1loc", str(path), "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "utf-8" in captured.err


def test_directory_as_group_file_exits_two(tmp_path, capsys):
    assert run(["h1loc", str(tmp_path), "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "Is a directory" in captured.err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_as_group_file_exits_two(tmp_path):
    # open would wait for a writer forever; a subprocess with a timeout
    # makes a regression fail instead of hanging the suite
    fifo = tmp_path / "pipe.grp"
    os.mkfifo(fifo)
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "h1loc.cli", "h1loc",
                           str(fifo), "--json"], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == EXIT_INPUT and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read group file")


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root reads a file whatever its mode")
def test_unreadable_file_exits_two(tmp_path, capsys):
    path = write(tmp_path, "locked.grp", "p=5 n=1 rank=1\ngen:\n2\n")
    os.chmod(path, 0)
    try:
        assert run(["h1loc", path, "--json"]) == EXIT_INPUT
    finally:
        os.chmod(path, 0o600)
    captured = capsys.readouterr()
    assert captured.out == "" and "Permission denied" in captured.err


def test_repeated_header_key_exits_two(tmp_path, capsys):
    # the last key would win: p=3 ... p=5 answered for p = 5
    path = write(tmp_path, "dup.grp", "p=3 n=1 rank=2 p=5\ngen:\n1 1\n0 1\n")
    assert run(["h1loc", path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "repeated header key 'p'" in captured.err
    with pytest.raises(InputError, match="repeated header key 'rank'"):
        parse_group("p=3 n=1 rank=2 rank=1\ngen:\n1\n")


def test_unexpected_exception_exits_four(monkeypatch, capsys):
    # an exception no command expects is a bug, not a negative answer: it
    # exits 4 with "internal:", never the traceback's 1, while an
    # interrupt still propagates
    def broken(p):
        raise ValueError("boom")

    monkeypatch.setattr("h1loc.cli.gsp4_order", broken)
    assert run(["gsp4", "--p", "3"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ValueError: boom\n")

    def interrupted(p):
        raise KeyboardInterrupt

    monkeypatch.setattr("h1loc.cli.gsp4_order", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(["gsp4", "--p", "3"])


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
