"""The CLI's input contract, fuzzed: mutated group files exit 0, 1, 2 or 3
with no traceback, print JSON on 0 and 1, every criteria report carries its
direct H^1_loc (trivial when certified), and where the brute-force counter
can enumerate the generator values, h1loc agrees with it."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from h1loc.cli import parse_group, run
from h1loc.oracles import cocycle_counts

# valid group files, each small enough that the criteria run in a few ms
BASES = [
    "# cyclic mod 25\np=5 n=2 rank=2\ngen:\n1 1\n0 1\n",
    "p=5 n=2 rank=2\ngen:\n1 -3\n1 -2\ngen:\n6 10\n0 21\ngen:\n16 15\n20 11\n",
    "p=3 n=1 rank=2 symplectic\ngen:\n1 1\n0 1\ngen:\n0 1\n1 0\n",
    "p=5 n=1 rank=2\ngen:\n2 0\n0 3\n",
    "p=7 n=1 rank=1\ngen:\n3\n",
    "p=3 n=2 rank=1\ngen:\n2\n",
    "p=2 n=2 rank=2\ngen:\n1 1\n0 1\ngen:\n3 0\n0 1\n",
    "p=2 n=1 rank=3\ngen:\n0 1 0\n0 0 1\n1 0 0\ngen:\n0 1 0\n1 0 0\n0 0 1\n",
]

# huge and negative integers only: a moderate rank in a file with no
# generator left runs into the determinant that is exponential in the rank
# (ROADMAP item 8), and does not finish
HUGE = st.sampled_from([2 ** 63, 2 ** 64 + 13, 10 ** 30, 3 ** 100,
                        -1, -7, -(2 ** 63), -(10 ** 30)])

MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10 ** 4), st.integers(1, 255)),
    st.tuples(st.sampled_from(["drop", "repeat", "cut"]),
              st.integers(0, 10 ** 4), st.none()),
    st.tuples(st.just("int"), st.integers(0, 10 ** 4), HUGE),
    st.tuples(st.just("token"), st.integers(0, 10 ** 4),
              st.sampled_from(["0", "7", "x", "gen:", "symplectic", "p=3",
                               "-1", "1e3", "99999999999999999999"])),
)


def mutate(data: bytes, ops) -> bytes:
    """Apply the mutations in order: a byte flip, a dropped or repeated
    line, a line's last token cut off (a non-square row), an integer
    replaced by a huge or negative one (a header value or a matrix entry),
    or an extra token at the end of a line."""
    for kind, at, arg in ops:
        if kind == "flip":
            buf = bytearray(data)
            buf[at % len(buf)] ^= arg
            data = bytes(buf)
            continue
        lines = data.split(b"\n")
        i = at % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "cut":
            lines[i] = b" ".join(lines[i].split()[:-1])
        elif kind == "token":
            lines[i] += b" " + arg.encode()
        else:
            ints = [(j, k) for j, line in enumerate(lines)
                    for k, tok in enumerate(line.split())
                    if tok.lstrip(b"-").isdigit() or b"=" in tok]
            if ints:
                j, k = ints[at % len(ints)]
                toks = lines[j].split()
                key, eq, _ = toks[k].rpartition(b"=")
                toks[k] = key + eq + str(arg).encode()
                lines[j] = b" ".join(toks)
        data = b"\n".join(lines)
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(base=st.sampled_from(BASES),
       ops=st.lists(MUTATION, max_size=3))
def test_mutated_group_files_keep_the_exit_code_contract(base, ops):
    data = mutate(base.encode(), ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.grp")
        with open(path, "wb") as fh:
            fh.write(data)
        results = {cmd: _run([cmd, path, "--json", "--cap", "2000"])
                   for cmd in ("h1", "h1loc", "criteria")}
    for cmd, (code, out, err) in results.items():
        assert code in (0, 1, 2, 3), (cmd, data, err)
        assert "Traceback" not in err, (cmd, data, err)
        if code in (0, 1):
            payload = json.loads(out)
            assert payload["command"] == cmd
        else:
            assert out == "" and err.startswith("error: "), (cmd, data, err)
    code, out, _ = results["criteria"]
    if code in (0, 1):
        for rep in json.loads(out)["reports"]:
            assert isinstance(rep["direct_h1_loc"], list), (data, rep)
            assert rep["conclusion"] != "certified" or \
                rep["direct_h1_loc"] == [], (data, rep)
    code, out, _ = results["h1loc"]
    if code in (0, 1):
        G = parse_group(data.decode()).group(cap=2000)
        q, r, k = G.spec.modulus, G.spec.rank, len(G.generators)
        if (q ** r) ** k <= 4096:
            assert cocycle_counts(G)[3] == \
                json.loads(out)["h1_loc"]["order"], data
