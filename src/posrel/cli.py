"""Command-line front end.

Files are read, and files and standard output written, as UTF-8 whatever
the locale.

Exit codes: 0 on success, 1 when a law or property check fails, 2 for
input errors (parse failures, invalid structures, bad shapes), 141 when
the reader of standard output closes it early.  All
output is deterministic and sorted; timing goes to stderr only.

An exception exits 1 if it is a ``poset.LawFailure`` and 2 if it is a
``poset.InputError`` or an ``OSError``; a new exception class for a failed
law or for bad input subclasses one of the two.  Anything else is a bug
in this package and ends in a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import equivalence, exreg, formats, harness
from .poset import InputError, LawFailure
from .relation import DomainMismatch
from .exreg import ExRegMorphism, ExRegObject
from .formats import ParseError


class Emitter:
    """Writes named artifacts to a directory, or to stdout as sections."""

    def __init__(self, out_dir, stdout):
        self.out_dir = out_dir
        self.stdout = stdout
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

    def emit(self, name, text):
        if self.out_dir:
            with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            self.stdout.write(f"# file: {name}\n")
            self.stdout.write(text)


def _emit_object(em, obj, stem):
    em.emit(f"{stem}.poset", formats.serialize_poset(obj.X))
    em.emit(f"{stem}.exreg", formats.serialize_exreg_object(obj, f"{stem}.poset"))


def _emit_morphism(em, R, stem, src_ref, tgt_ref):
    em.emit(f"{stem}.exreg", formats.serialize_exreg_morphism(R, src_ref, tgt_ref))


def _emit_tabulation(em, tab, src_ref, tgt_ref):
    _emit_object(em, tab.apex, "apex")
    _emit_morphism(em, tab.leg0, "leg0", "apex.exreg", src_ref)
    _emit_morphism(em, tab.leg1, "leg1", "apex.exreg", tgt_ref)


def _load(path, cls):
    value = formats.load_exreg(path)
    if not isinstance(value, cls):
        kind = "an object" if cls is ExRegObject else "a morphism"
        raise ParseError(path, 1, f"expected {kind} file")
    return value


def cmd_poset(args, out, err):
    P = formats.load_poset(args.file)
    out.write(formats.serialize_poset(P))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(formats.dot_poset(P))
    return 0


def cmd_rel(args, out, err):
    R = formats.load_rel(args.file)
    out.write(formats.serialize_rel(R, *formats.rel_refs(args.file)))
    out.write(f"# weakening-closed: {'yes' if R.is_weakening else 'no'}\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(formats.dot_relation(R))
    return 0


def cmd_exreg_check(args, out, err):
    value = formats.load_exreg(args.file)
    kind = "object" if isinstance(value, ExRegObject) else "morphism"
    out.write(f"# valid {kind}\n")
    return 0


def cmd_tabulate(args, out, err):
    phi = formats.load_rel(args.phi)
    src = _load(args.src, ExRegObject)
    tgt = _load(args.tgt, ExRegObject)
    tab = exreg.tabulate(phi, src, tgt)
    em = Emitter(args.out_dir, out)
    _emit_object(em, src, "src")
    _emit_object(em, tgt, "tgt")
    _emit_tabulation(em, tab, "src.exreg", "tgt.exreg")
    return 0


def cmd_factorize(args, out, err):
    R = _load(args.morphism, ExRegMorphism)
    Q, M = exreg.factorize(R)
    em = Emitter(args.out_dir, out)
    _emit_object(em, Q.tgt, "image")
    _emit_object(em, R.src, "src")
    _emit_object(em, R.tgt, "tgt")
    _emit_morphism(em, Q, "so-part", "src.exreg", "image.exreg")
    _emit_morphism(em, M, "ff-part", "image.exreg", "tgt.exreg")
    return 0


def cmd_limit(args, out, err):
    em = Emitter(args.out_dir, out)
    cls = ExRegObject if args.kind in ("terminal", "product") else ExRegMorphism
    values = [_load(path, cls) for path in args.args]
    result = exreg.limit(args.kind, *values)
    if args.kind == "terminal":
        _emit_object(em, result, "terminal")
        return 0
    A, B = values if args.kind == "product" else (values[0].src, values[1].src)
    _emit_object(em, A, "src0")
    _emit_object(em, B, "src1")
    _emit_tabulation(em, result, "src0.exreg", "src1.exreg")
    return 0


def cmd_split(args, out, err):
    obj = _load(args.object, ExRegObject)
    R = formats.load_rel(args.congruence)
    if R.dom != obj.X or R.cod != obj.X:
        raise DomainMismatch("congruence is not a relation on the object's carrier")
    q, m = exreg.split_congruence(obj, R.pairs)
    em = Emitter(args.out_dir, out)
    _emit_object(em, obj, "base")
    _emit_object(em, q.tgt, "through")
    _emit_morphism(em, q, "quotient", "base.exreg", "through.exreg")
    em.emit("section.rel", formats.serialize_rel(m.rel, "through.poset", "base.poset"))
    return 0


def cmd_present(args, out, err):
    obj = _load(args.object, ExRegObject)
    pres = exreg.canonical_presentation(obj)
    em = Emitter(args.out_dir, out)
    _emit_object(em, obj, "base")
    _emit_object(em, pres.kernel, "kernel")
    _emit_object(em, exreg.gamma_object(obj.X), "carrier")
    _emit_morphism(em, pres.e0, "e0", "kernel.exreg", "carrier.exreg")
    _emit_morphism(em, pres.e1, "e1", "kernel.exreg", "carrier.exreg")
    _emit_morphism(em, pres.quotient, "quotient", "carrier.exreg", "base.exreg")
    return 0


def cmd_equiv(args, out, err):
    if args.what == "set-pos":
        reports = equivalence.characterize(equivalence.discrete_inclusion_functor(), args.bound)
    elif args.what == "ord":
        reports = [equivalence.commutation_check(args.bound)]
    else:
        reports = [equivalence.discrete_check(args.bound)]
    for report in reports:
        out.write(report.render() + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_harness(args, out, err):
    names = sorted(harness.SUITES) if args.suite == "all" else [args.suite]
    # a process pool forks all its workers up front, so never ask for idle ones
    jobs = min(args.jobs, len(names), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(
                pool.map(harness.run_suite, names, [args.trials] * len(names),
                         [args.seed] * len(names), [args.bound] * len(names))
            )
    else:
        reports = [harness.run_suite(n, args.trials, args.seed, args.bound) for n in names]
    failures = 0
    for report in reports:
        out.write(report.render() + "\n")
        err.write(f"# {report.name}: {report.wall_time:.3f}s\n")
        failures += len(report.failures)
    out.write(f"total: {len(reports)} suite(s), {failures} failure(s)\n")
    return 0 if failures == 0 else 1


def cmd_dot(args, out, err):
    if args.file.endswith(".rel"):
        text = formats.dot_relation(formats.load_rel(args.file))
    else:
        text = formats.dot_poset(formats.load_poset(args.file))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


# Verbs spelled both `posrel <verb>` and `posrel exreg <verb>`: handler and
# arguments, in the form `_verb` takes; each also takes --out-dir.
CONSTRUCTION_VERBS = {
    "tabulate": (cmd_tabulate, {"phi": {}, "src": {}, "tgt": {}}),
    "factorize": (cmd_factorize, {"morphism": {}}),
    "split": (cmd_split, {"object": {}, "congruence": {}}),
    "present": (cmd_present, {"object": {}}),
    "limit": (
        cmd_limit,
        {
            "kind": {"choices": ["terminal", "product", "inserter", "comma", "pullback"]},
            "args": {"nargs": "*"},
        },
    ),
}


def _verb(handler, arguments):
    """A verb run by `handler`.  `arguments` maps each argument's names,
    space-separated (``"-o --out"``), to its ``add_argument`` keywords."""

    def add(p):
        for names, kwargs in arguments.items():
            p.add_argument(*names.split(), **kwargs)
        p.set_defaults(run=handler)

    return add


def _verbs():
    """The command tree, read afresh so that it follows CONSTRUCTION_VERBS.

    Each name maps to (help, command), where command is a function that adds
    the verb's arguments to a parser, or a dict of sub-verbs of the same form.
    Every verb's arguments and defaults are given here.
    """
    construction = {
        name: (None, _verb(handler, {**arguments, "--out-dir": {}}))
        for name, (handler, arguments) in CONSTRUCTION_VERBS.items()
    }
    return {
        "poset": (
            "validate and print a poset file",
            {"check": (None, _verb(cmd_poset, {"file": {}, "--dot": {}}))},
        ),
        "rel": (
            "validate and print a relation file",
            {"check": (None, _verb(cmd_rel, {"file": {}, "--dot": {}}))},
        ),
        "exreg": (
            "work with objects-with-congruence",
            {"check": (None, _verb(cmd_exreg_check, {"file": {}})), **construction},
        ),
        **construction,
        "equiv": (None, _verb(cmd_equiv, {
            "what": {"choices": ["set-pos", "ord", "discrete"]},
            "--bound": {"type": _int_at_least(0), "default": 4},
        })),
        "harness": (None, {"run": (None, _verb(cmd_harness, {
            "suite": {},
            "--trials": {"type": _int_at_least(0), "default": 100},
            "--seed": {"type": int, "default": 0},
            "--bound": {"type": _int_at_least(1), "default": harness.DEFAULT_RELATION_CAP},
            "--jobs": {"type": _int_at_least(1), "default": 1},
        }))}),
        "dot": (None, _verb(cmd_dot, {"file": {}, "-o --out": {}})),
    }


# The namespace attribute naming the chosen sub-verb at each depth.
_DESTS = ("verb", "action")


def _add_verbs(parser, verbs, depth=0):
    sub = parser.add_subparsers(dest=_DESTS[depth], required=True)
    for name, (text, command) in verbs.items():
        # help=None would still list the verb in the help text
        p = sub.add_parser(name, **({"help": text} if text else {}))
        if callable(command):
            command(p)
        else:
            _add_verbs(p, command, depth + 1)


def build_parser():
    """The whole command tree: used for help and errors, and as the reference for `parse`."""
    parser = argparse.ArgumentParser(
        prog="posrel",
        description="relational calculus and exact-completion engine over finite posets",
    )
    _add_verbs(parser, _verbs())
    return parser


def parse(argv=None):
    """`build_parser().parse_args(argv)`, building only the named verb's parser.

    argv that names no complete verb, or that leaves arguments over, goes to
    the full parser, so help and error text are the full parser's.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command, path = _verbs(), []
    for word in argv:
        if callable(command) or word not in command:
            break
        path.append(word)
        command = command[word][1]
    if callable(command):
        # the same prog and arguments as the full tree's parser for this verb
        parser = argparse.ArgumentParser(prog=" ".join(["posrel", *path]))
        command(parser)
        args, extras = parser.parse_known_args(
            argv[len(path):], argparse.Namespace(**dict(zip(_DESTS, path)))
        )
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None, stdout=None, stderr=None):
    if stdout is None and sys.stdout is sys.__stdout__:
        # output is UTF-8 whatever the locale, on standard output as in files
        sys.stdout.reconfigure(encoding="utf-8")
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    args = parse(argv)
    try:
        code = args.run(args, out, err)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader of our output has gone (`posrel ... | head`). Python
        # flushes sys.stdout again at exit; pointing its descriptor at devnull
        # makes that flush succeed (see the note on SIGPIPE in the `signal`
        # module docs). 141 = 128 + SIGPIPE, as a shell reports such an exit.
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 141
    except LawFailure as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except harness.UnknownSuite as exc:
        err.write(f"error: unknown suite {exc}\n")
        return 2
    # OSError: an input path that is missing, a directory or unreadable
    except (InputError, OSError) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
