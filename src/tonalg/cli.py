"""Batch command line front end with stable machine-readable output.

Subcommands: compose, basis, gamma, module, gram, bratteli, structure,
verify.  All JSON output is emitted with sorted keys so identical inputs
produce byte-identical output.  The evaluation point is always parsed as an
exact rational p/q, never as a float.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

# Each cmd_* imports the one module it runs: where no bytecode is written,
# every process compiles each source it imports anew.
from . import diagram as dg


def parse_mu(text, l, n):
    """Multipartition syntax: components separated by |, parts by commas,
    empty component written as - (e.g. "2,1|1").  ValueError naming --mu
    and the text unless it is one whose vector is in the index set at
    (l, n)."""
    comps = text.split("|")
    if len(comps) != l:
        raise ValueError("--mu %r: expected %d components separated by |" % (text, l))
    out = []
    for comp in comps:
        comp = comp.strip()
        if comp.startswith("(") and comp.endswith(")"):
            comp = comp[1:-1].strip()
        if comp in ("-", ""):
            out.append(())
            continue
        bad = ValueError("--mu %r: component %r is not a partition" % (text, comp))
        try:
            parts = tuple(int(f) for f in comp.split(","))
        except ValueError:
            raise bad from None
        if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
            raise bad
        out.append(parts)
    mvec = tuple(sum(parts) for parts in out)
    if dg.gamma_member(mvec, l, n) is None:
        raise ValueError(
            "--mu %r: vector %r is not in the index set for l=%d, n=%d" % (text, mvec, l, n)
        )
    return tuple(out)


def parse_rational(text):
    """The --at point p or p/q as an exact Fraction; ValueError naming --at
    and the text unless p and q are integers and q is nonzero."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--at %r: expected an exact rational p or p/q, q nonzero" % text) from None


def validate(args):
    """Refuse out-of-range sizes and parse --at, before any work starts."""
    if getattr(args, "l", 1) < 1:
        raise ValueError("--l must be at least 1, got %d" % args.l)
    for name in ("n", "m", "n_max"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError("--%s must be nonnegative, got %d" % (name.replace("_", "-"), value))
    at = getattr(args, "at", None)
    args.at = None if at is None else parse_rational(at)


def _emit(args, pieces):
    """Write the pieces of one output, then a newline, to --out or standard
    output.  --out is opened before the first piece is asked for, so a
    generator of pieces starts no work for an unwritable path."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
            fh.write("\n")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


def _json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_diagram(flag, text):
    """dg.parse(text); a DiagramError names the flag and the text."""
    try:
        return dg.parse(text)
    except dg.DiagramError as exc:
        raise dg.DiagramError("%s %r: %s" % (flag, text, exc)) from None


def cmd_compose(args):
    p = _parse_diagram("--p", args.p)
    q = _parse_diagram("--q", args.q)
    k, d = dg.compose(p, q)
    _emit(args, [_json({"delta_exponent": k, "diagram": dg.serialize(d)})])
    return 0


def cmd_basis(args):
    m = args.n if args.m is None else args.m
    _emit(args, _basis_pieces(args.l, args.n, m, args.format))
    return 0


def _basis_pieces(l, n, m, fmt):
    """The basis output, written as the tone walk makes it: one piece per
    chunk of `basis_texts`, so no piece holds the whole basis.  A generator,
    so the walk starts once `_emit` has opened the output.

    The JSON is `_json` of {"l", "n", "m", "count", "diagrams"} with the
    texts quoted by hand.  That is exact: a diagram text uses only T, B,
    digits, ',', ';' and '|', which json.dumps leaves unchanged.  A chunk
    is never empty, and there are chunks exactly when count > 0."""
    from .algebra import basis_texts

    # texts straight from the tone-partition walk: no Diagram, no block tuples
    count, chunks = basis_texts(l, n, m)
    if fmt == "csv":
        yield "diagram"
        for chunk in chunks:
            yield "\n"
            yield "\n".join(chunk)
        return
    yield '{"count":%d,"diagrams":[' % count
    sep = '"'
    for chunk in chunks:
        yield sep
        yield '","'.join(chunk)
        sep = '","'
    yield '%s],"l":%d,"m":%d,"n":%d}' % ('"' if count else "", l, m, n)


def cmd_gamma(args):
    from . import gamma

    if args.format == "dot":
        _emit(args, [gamma.hasse_dot(args.l, args.n)])
    else:
        _emit(args, [_json(gamma.gamma_report(args.l, args.n))])
    return 0


def cmd_module(args):
    from .exactla import poly_json
    from .standard_modules import standard_module, generator_diagrams

    mu = parse_mu(args.mu, args.l, args.n)
    mod = standard_module(mu, args.l, args.n)
    out = {
        "mu": [list(x) for x in mod.mu],
        "l": args.l,
        "n": args.n,
        "vector": list(mod.mvec),
        "dim": mod.dim,
        "transversal_size": len(mod.profiles),
        "tableau_dim": mod.rep.dim,
    }
    if args.matrices:
        out["generators"] = {
            name: [[poly_json(e) for e in row] for row in mod.dense_action(d)]
            for name, d in sorted(generator_diagrams(args.l, args.n).items())
        }
    _emit(args, [_json(out)])
    return 0


def cmd_gram(args):
    from .gram import gram_report

    mu = parse_mu(args.mu, args.l, args.n)
    rep = gram_report(mu, args.l, args.n, point=args.at, want_det=args.det)
    _emit(args, [_json(rep)])
    return 0


def cmd_bratteli(args):
    from .branching import BratteliGraph

    graph = BratteliGraph(args.l, args.n_max)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot() + "\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(graph.to_csv() + "\n")
    _emit(args, [_json(graph.to_json())])
    return 0


def cmd_structure(args):
    from .structure import structure_report

    _emit(args, [_json(structure_report(args.l, args.n, args.at))])
    return 0


def cmd_verify(args):
    from .verify import run_verify, CHECK_NAMES

    names = None
    # an empty --only names the check '', which is refused like any unknown
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",")]
        unknown = [s for s in names if s not in CHECK_NAMES]
        if unknown:
            raise ValueError("unknown checks: %s" % ", ".join(map(repr, unknown)))
    results = run_verify(args.l, args.n_max, names)
    for res in results:
        status = "ERROR" if res.error else "PASS" if res.ok else "FAIL"
        detail = ": " + res.error if res.error else ""
        print("%s %s (%s)%s" % (status, res.name, res.params, detail))
    passed = sum(res.ok for res in results)
    print("%d/%d checks passed" % (passed, len(results)))
    if any(res.error for res in results):
        return 3
    return 0 if passed == len(results) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tonalg",
        description="Exact computations with tonal partition algebras over Z[delta].",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two serialized diagrams")
    p.add_argument("--p", required=True, help="first diagram, e.g. '2,2|T1,T2;B1,B2'")
    p.add_argument("--q", required=True, help="second diagram")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("basis", help="enumerate the tone-diagram basis")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("gamma", help="index set, poset, orders, and levels")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("module", help="standard module data")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True, help="multipartition, e.g. '2,1|1' or '2|-'")
    p.add_argument("--matrices", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("gram", help="Gram matrix, determinant, ranks")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--at", help="exact rational evaluation point p/q")
    p.add_argument("--det", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("bratteli", help="restriction graph over a tower")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--dot", help="write DOT to this path")
    p.add_argument("--csv", help="write layer dims CSV to this path")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bratteli)

    p = sub.add_parser("structure", help="heredity chains and section checks")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", help="exact rational point p/q (flags delta=0 cases)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("verify", help="run the named invariant battery")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--only", help="comma-separated subset of check names")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        validate(args)
        code = args.fn(args)
        # a reader that has gone shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except (dg.DiagramError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # send what is still buffered to /dev/null, so the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
