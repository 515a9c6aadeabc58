"""Seeded mutation fuzz of the three file formats through the command line.

Each run picks one of 13 commands, or a command given a file of the wrong
kind, mutates one or two of the files it reads (lines deleted, duplicated,
swapped or inserted; tokens shifted or replaced; truncation; raw bytes such
as 0xff, NUL and CR) and runs ``posrel.cli.main`` in process.  Every run must
exit 0, 1 or 2; a non-zero exit prints exactly one ``error: <Class>: ...``
line, of a ``LawFailure`` class for exit 1; no run raises out of ``main``
(a traceback at the command line) or takes more than 2 s; and the text that
``poset check`` and ``rel check`` print on exit 0 reads back to the same
object, which serializes to the same text.

Tier-1 runs a fixed slice of seeds.  The long run prints the exit table per
command and a digest of every run's exit code, stdout and stderr:

    PYTHONPATH=src python tests/test_file_fuzz.py --seeds 0-19999
"""

import argparse
import collections
import hashlib
import io
import random
import re
import sys
import tempfile
import time
from pathlib import Path

from posrel import cli
from posrel.exreg import ExRegObject, gamma_morphism
from posrel.formats import (
    load_poset,
    load_rel,
    parse_poset,
    parse_rel,
    serialize_exreg_morphism,
    serialize_exreg_object,
    serialize_poset,
    serialize_rel,
)
from posrel.poset import FinPoset, LawFailure, MonotoneMap
from posrel.relation import Relation, hypergraph


def base_files():
    """The unmutated inputs: a V-shaped poset x and a labelled 2-chain y, the hypergraph
    of a map x -> y, an object on x with a congruence and Γ-objects on x and y, the full
    congruence on x, two Γ-morphisms x -> y, and both of those kinds behind comments."""
    X, Y = FinPoset.from_covers(3, [(0, 1), (0, 2)]), FinPoset.chain(2)
    f, g = MonotoneMap(X, Y, [0, 1, 1]), MonotoneMap(X, Y, [1, 1, 1])
    obj = ExRegObject.from_pairs(X, [(1, 2)])
    text = {
        "x.poset": "poset 3\n0 < 1\n0 < 2\n",
        "y.poset": "poset 2\n0 < 1\nlabel 0 lo\nlabel 1 hi\n",
        "r.rel": serialize_rel(hypergraph(f), "x.poset", "y.poset"),
        "s.rel": serialize_rel(Relation.full(X, X), "x.poset", "x.poset"),
        "ox.exreg": serialize_exreg_object(obj, "x.poset"),
        "gx.exreg": "object x.poset\n",
        "gy.exreg": "object y.poset\n",
        "m.exreg": serialize_exreg_morphism(gamma_morphism(f), "gx.exreg", "gy.exreg"),
        "n.exreg": serialize_exreg_morphism(gamma_morphism(g), "gx.exreg", "gy.exreg"),
    }
    text["wm.exreg"] = "# a morphism\n" + text["m.exreg"]
    text["wo.exreg"] = "# an object\n\n" + text["ox.exreg"]
    return {name: body.encode() for name, body in text.items()}


BASE = base_files()
# the files each file names, read with it
REFERS = {
    "r.rel": ["x.poset", "y.poset"], "s.rel": ["x.poset"], "ox.exreg": ["x.poset"],
    "gx.exreg": ["x.poset"], "gy.exreg": ["y.poset"], "wo.exreg": ["x.poset"],
    "m.exreg": ["gx.exreg", "gy.exreg"], "n.exreg": ["gx.exreg", "gy.exreg"],
    "wm.exreg": ["gx.exreg", "gy.exreg"],
}
RUNS = {
    "poset check": ["poset", "check", "y.poset"],
    "dot poset": ["dot", "x.poset"],
    "dot rel": ["dot", "r.rel"],
    "rel check": ["rel", "check", "r.rel"],
    "exreg check object": ["exreg", "check", "ox.exreg"],
    "exreg check morphism": ["exreg", "check", "m.exreg"],
    "tabulate": ["tabulate", "r.rel", "gx.exreg", "gy.exreg"],
    "factorize": ["factorize", "m.exreg"],
    "split": ["split", "ox.exreg", "s.rel"],
    "present": ["present", "ox.exreg"],
    "limit product": ["limit", "product", "ox.exreg", "gy.exreg"],
    "limit comma": ["limit", "comma", "m.exreg", "n.exreg"],
    "limit pullback": ["limit", "pullback", "m.exreg", "n.exreg"],
    # a file of the other kind where an object or a morphism is wanted
    "tabulate, wrong kind": ["tabulate", "r.rel", "wm.exreg", "gy.exreg"],
    "split, wrong kind": ["split", "wm.exreg", "s.rel"],
    "present, wrong kind": ["present", "wm.exreg"],
    "limit product, wrong kind": ["limit", "product", "gx.exreg", "wm.exreg"],
    "factorize, wrong kind": ["factorize", "wo.exreg"],
    "limit comma, wrong kind": ["limit", "comma", "wo.exreg", "n.exreg"],
}
NEW_LINES = [b"", b"# c", b"0 < 1", b"1 < 0", b"2 ~ 1", b"cong 2 ~ 0", b"lower 0 ~ 1",
             b"upper 1 ~ 0", b"label 0 z", b"poset 2", b"object y.poset",
             b"morphism gx.exreg gy.exreg", b"rel x.poset x.poset"]
NEW_TOKENS = [b"x", b"-1", b"7", b"0" * 30 + b"1", b"1" * 30, "٣".encode(), b"~", b"<", b"cong",
              b"upper", b"x.poset", b"y.poset", b"m.exreg", b"ox.exreg", b"r.rel", b"nowhere.exreg"]
RAW_BYTES = [b"\xff", b"\x00", b"\r", b"\t", b"\x0b", b"\xc2\x85", b"#"]


def mutate(rng, data):
    """``data`` with one mutation."""
    lines = data.split(b"\n")
    k = rng.randrange(len(lines))
    edit = rng.randrange(9)
    if edit == 0:
        del lines[k]
    elif edit == 1:
        lines.insert(k, lines[k])
    elif edit == 2:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif edit == 3:
        lines.insert(k, rng.choice(NEW_LINES))
    elif edit in (4, 5):
        toks = lines[k].split(b" ")
        t = rng.randrange(len(toks))
        if edit == 4 and toks[t].isdigit():
            toks[t] = str(int(toks[t]) + rng.choice((-1, 1, 2))).encode()
        else:
            toks[t] = rng.choice(NEW_TOKENS)
        lines[k] = b" ".join(toks)
    elif edit == 6:
        return data[:rng.randrange(len(data) + 1)]
    elif edit == 7:
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice(RAW_BYTES) + data[at:]
    else:
        return data.replace(b"\n", b"\r\n")
    return b"\n".join(lines)


def reads(names):
    """The files that reading ``names`` reads, the named files first."""
    out = []
    for name in names:
        for file in [name, *reads(REFERS.get(name, []))]:
            if file not in out:
                out.append(file)
    return out


def run(seed, directory):
    """(run name, exit code, stdout, stderr, seconds) of one seeded run in ``directory``;
    an exception out of ``main`` gives the exit code ``"raised"`` and its repr as stderr."""
    rng = random.Random(seed)
    name = rng.choice(sorted(RUNS))
    argv = RUNS[name]
    files = dict(BASE)
    targets = reads([a for a in argv if a in BASE])
    for target in rng.sample(targets, min(len(targets), rng.choice((1, 2)))):
        for _ in range(rng.choice((1, 1, 2))):
            files[target] = mutate(rng, files[target])
    for file, data in files.items():
        (directory / file).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main([str(directory / a) if a in BASE else a for a in argv], out, err)
    except Exception as exc:  # any exception out of main is a traceback at the command line
        code, err = "raised", io.StringIO(repr(exc))
    seconds = time.perf_counter() - start
    return name, code, out.getvalue(), err.getvalue().replace(str(directory), "<dir>"), seconds


def law_failures(cls=LawFailure):
    return {cls.__name__} | {name for sub in cls.__subclasses__() for name in law_failures(sub)}


LAW_FAILURES = law_failures()


def reads_back(name, out, directory):
    """Whether the text a read verb printed reads back to the object it read, and
    that object serializes to the same text."""
    try:
        if name == "poset check":
            P, Q = load_poset(str(directory / "y.poset")), parse_poset(out)
            labels = [P.label(i) for i in range(P.n)] == [Q.label(i) for i in range(Q.n)]
            return P == Q and labels and serialize_poset(Q) == out
        text = out[:out.rindex("# weakening-closed")]
        R, S = load_rel(str(directory / "r.rel")), parse_rel(text, str(directory / "r.rel"))
        return R == S and serialize_rel(S, *text.split("\n", 1)[0].split()[1:]) == text
    except Exception:  # a read-back that fails in any way breaks the rule
        return False


def broken_rules(name, code, out, err, seconds, directory):
    """The rules of the module docstring that a run in ``directory`` breaks."""
    broken = []
    if code == 0 and name in ("poset check", "rel check") and not reads_back(name, out, directory):
        broken.append("its output does not read back")
    if code not in (0, 1, 2):
        broken.append(f"exit {code}")
    elif code:
        line = re.fullmatch(r"error: (\w+): [^\n]*\n", err)
        if not line:
            broken.append("not one error line")
        elif code == 1 and line[1] not in LAW_FAILURES:
            broken.append(f"exit 1 for {line[1]}")
    if seconds > 2:
        broken.append(f"took {seconds:.2f} s")
    return broken


def test_a_fixed_slice_of_the_fuzz_keeps_every_rule(tmp_path):
    codes = collections.defaultdict(set)
    for seed in range(1000):
        name, code, out, err, seconds = run(seed, tmp_path)
        assert not broken_rules(name, code, out, err, seconds, tmp_path), (seed, name, code, err)
        codes[name].add(code)
    # every run is reached, and mutations both break files and leave them readable
    assert set(codes) == set(RUNS)
    assert set().union(*codes.values()) == {0, 1, 2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19999", help="an inclusive range, first-last")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    table = collections.defaultdict(collections.Counter)
    digest = hashlib.sha256()
    broken, slowest = [], (0.0, None)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(first, last + 1):
            name, code, out, err, seconds = run(seed, Path(tmp))
            table[name][code] += 1
            digest.update(repr((seed, name, code, out, err)).encode())
            broken += [(seed, name, rule)
                       for rule in broken_rules(name, code, out, err, seconds, Path(tmp))]
            slowest = max(slowest, (seconds, seed))
    print(f"seeds {first}-{last}: exits 0/1/2 per run")
    for name in sorted(table):
        counts = table[name]
        print(f"  {name}: {counts[0]}/{counts[1]}/{counts[2]}")
    print(f"digest of every exit code, stdout and stderr: {digest.hexdigest()}")
    for seed, name, rule in broken:
        print(f"broken: seed {seed}, {name}: {rule}")
    print(f"longest run: {slowest[0]:.3f} s (seed {slowest[1]})", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
