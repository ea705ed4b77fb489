"""Run one tonalg command line step with per-layer tracing.

    python perfbench/tracer.py TRACE.json -- <tonalg cli arguments>

Wraps the public functions of each `tonalg` module from outside the
library, runs `tonalg.cli.main` on the arguments, and writes per-function
aggregates to TRACE.json:

    {"spans": {name: [calls, inclusive_s, self_s]}, "counters": {name: n}}

Hot functions such as `diagram.compose` are kept as aggregates, never as
per-call spans, so memory stays bounded.  Self time is a call's duration
minus the time spent in wrapped calls nested inside it.
"""

import functools
import importlib
import json
import sys
import time

MODULES = (
    "diagram", "algebra", "gamma", "symmetric", "standard_modules", "gram",
    "exactla", "deltapoly", "branching", "structure", "verify", "cli",
)

# (module, function); lru_cached ones are wrapped inside their cache, so
# their counts are computations, not lookups.
FUNCTIONS = [
    ("diagram", "compose"),
    ("diagram", "prop_vector"),
    ("diagram", "serialize"),
    ("gamma", "poset_leq"),
    ("symmetric", "specht_rep"),
    ("standard_modules", "transversal"),
    ("standard_modules", "standard_module"),
    ("standard_modules", "decompose_left_term"),
    ("standard_modules", "corner_basis"),
    ("exactla", "bareiss_det"),
    ("exactla", "poly_rank"),
    ("exactla", "fraction_rank"),
    ("exactla", "poly_mat_mul"),
    ("branching", "submodule_closure_check"),
    ("branching", "quotient_exactness_check"),
    ("structure", "corner_group_check"),
    ("structure", "section_checks"),
    ("fastops", "pairwise_tone_and_bottleneck"),
]

# (module, class, method, span name); the __init__ span counts builds.
METHODS = [
    ("symmetric", "SpechtRep", "matrix", "symmetric.SpechtRep.matrix"),
    ("standard_modules", "StandardModule", "action_matrix", "standard_modules.action_matrix"),
    ("gram", "GramMatrix", "__init__", "gram.GramMatrix"),
    ("deltapoly", "DeltaPoly", "divexact", "deltapoly.divexact"),
]


class Tracer:
    def __init__(self):
        self.spans = {}
        self.counters = {}
        # child-time accumulators of the wrapped calls now running
        self.stack = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name, fn):
        acc = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def to_json(self):
        return {"spans": self.spans, "counters": self.counters}


def _rebind(old, new):
    """Point every tonalg namespace that holds `old` at `new`; modules that
    did `from .x import y` hold their own binding."""
    for modname, mod in list(sys.modules.items()):
        if modname == "tonalg" or modname.startswith("tonalg."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def _unwrap_cache(fn):
    """(function, rewrap): for an lru_cached fn its undecorated function and
    a fresh cache of the same size, so spans count computations, not
    lookups; for any other fn, fn itself and no cache."""
    if hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
        return fn.__wrapped__, functools.lru_cache(maxsize=fn.cache_info().maxsize)
    return fn, lambda f: f


def install(tracer):
    """Wrap every target that exists.  A target that a later version of the
    library removes is skipped and reads 0, so a refactor can still be
    measured with this file unchanged."""
    mods = {}
    for name in MODULES + ("fastops",):
        try:
            mods[name] = importlib.import_module("tonalg." + name)
        except ImportError:
            # fastops needs numpy; verify imports it lazily
            pass

    for modname, fname in FUNCTIONS:
        old = getattr(mods.get(modname), fname, None)
        if old is not None:
            inner, rewrap = _unwrap_cache(old)
            _rebind(old, rewrap(tracer.span("%s.%s" % (modname, fname), inner)))

    for modname, cls_name, meth, name in METHODS:
        cls = getattr(mods.get(modname), cls_name, None)
        if cls is not None and hasattr(cls, meth):
            setattr(cls, meth, tracer.span(name, getattr(cls, meth)))

    _install_counters(tracer, mods)


def _install_counters(tracer, mods):
    algebra = mods.get("algebra")
    raw_partitions = getattr(algebra, "set_partitions", None)
    if raw_partitions is not None:

        def set_partitions(items):
            for blocks in raw_partitions(items):
                tracer.count("algebra.set_partitions.yielded")
                yield blocks

        _rebind(raw_partitions, set_partitions)

    old_basis = getattr(algebra, "enumerate_basis", None)
    if old_basis is not None:
        raw_basis, rewrap = _unwrap_cache(old_basis)

        @functools.wraps(raw_basis)
        def enumerate_basis(*args, **kwargs):
            # kept_ratio: diagrams kept over the partitions this call walked
            before = tracer.counters.get("algebra.set_partitions.yielded", 0)
            out = raw_basis(*args, **kwargs)
            walked = tracer.counters.get("algebra.set_partitions.yielded", 0) - before
            tracer.count("algebra.enumerate_basis.walked", walked)
            tracer.count("algebra.enumerate_basis.kept", len(out))
            return out

        _rebind(old_basis, rewrap(tracer.span("algebra.enumerate_basis", enumerate_basis)))

    gram_matrix = getattr(mods.get("gram"), "GramMatrix", None)
    if gram_matrix is not None:
        init = gram_matrix.__init__

        def gram_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.counters["gram.dim_max"] = max(tracer.counters.get("gram.dim_max", 0), self.dim)

        gram_matrix.__init__ = gram_init

    verify = mods.get("verify")
    check_map = getattr(verify, "_CHECK_MAP", {})
    for check, fn in list(check_map.items()):
        # run_verify looks checks up here; the check_* globals are not used
        check_map[check] = tracer.span("verify." + check, fn)
    run_one = getattr(verify, "_run_one", None)
    if run_one is not None:

        def counted_run_one(job):
            res = run_one(job)
            tracer.count("verify.checks_run")
            tracer.count("verify.checks_failed", 0 if res.ok else 1)
            return res

        verify._run_one = counted_run_one


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <tonalg cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from tonalg import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
