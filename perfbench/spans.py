"""Run-time tracing of the merohecke layers, from outside the library.

A Tracer patches public functions and methods of the library modules with
wrappers that record one span per call (name, start, end, parent span, job
id) and a few counters computed from arguments and results.  Spans stay in
memory in parallel arrays; `dump` writes them out when the run ends, and
`restore` puts every patched attribute back.

Self time of a span is its duration minus the part of it covered by its
child spans, minus the time the wrappers spent computing counters right
after a child returned (recorded per span as `excl`), so that bookkeeping
is not charged to the library.
"""

import functools
import json
import math
import time
from array import array

LAYERS = ("cli", "meroforms", "forms", "qseries", "hecke", "linalg",
          "whbasis", "quotient", "numeval")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excl = array("d")
        self.stack = []
        self.current_job = -1
        self.counts = {}
        self._patches = []

    # -- span store ---------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.excl.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    def add_span(self, name, start, end, parent=-1, job=-1):
        """Append a finished span; spans must come in order of start.
        Tests build synthetic span trees with it."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.job.append(job)
        self.start.append(start)
        self.end.append(end)
        self.excl.append(0.0)
        return idx

    def count(self, key, v=1):
        self.counts[key] = self.counts.get(key, 0) + v

    # -- patching -----------------------------------------------------------

    def _swap(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        wrapper = functools.wraps(raw)(make(raw))
        setattr(owner, attr, wrapper)
        return wrapper

    def patch(self, owner, attr, name, after=None, on_error=None):
        """Replace owner.attr by a wrapper that records a span per call.
        `after(args, kwargs, result)` computes counters once the call
        returned; `on_error(exc)` sees an exception on its way out."""
        nid = self.name_id(name)
        tracer = self
        clock = self.clock

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(idx)
                    if on_error is not None:
                        on_error(exc)
                    raise
                tracer.close(idx)
                if after is not None:
                    t0 = clock()
                    after(args, kwargs, result)
                    if tracer.stack:
                        tracer.excl[tracer.stack[-1]] += clock() - t0
                return result
            return wrapper

        return self._swap(owner, attr, make)

    def hook(self, owner, attr, around):
        """Replace owner.attr by `around(fn, args, kwargs)`, without a span;
        for counters that must look at state before and after the call."""
        return self._swap(owner, attr,
                          lambda fn: lambda *args, **kwargs: around(fn, args, kwargs))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the union of its children's intervals
        (clipped to the span) minus its excluded bookkeeping time.

        Children are visited in index order; spans are appended in order of
        their start, so each parent's children arrive sorted by start and
        their union is merged in one pass."""
        n = len(self.name)
        covered = [0.0] * n
        reach = [-math.inf] * n
        for c in range(n):
            p = self.parent[c]
            if p < 0:
                continue
            s = max(self.start[c], self.start[p])
            e = min(self.end[c], self.end[p])
            if e <= s:
                continue
            r = reach[p]
            if s >= r:
                covered[p] += e - s
                reach[p] = e
            elif e > r:
                covered[p] += e - r
                reach[p] = e
        return [max(0.0, self.end[i] - self.start[i] - covered[i] - self.excl[i])
                for i in range(n)]

    def by_name(self):
        """{span name: [calls, total self seconds]}."""
        selfs = self.self_times()
        out = {}
        for i, s in enumerate(selfs):
            rec = out.setdefault(self.names[self.name[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += s
        return out

    def layer_self(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, s) in self.by_name().items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + s
        return totals

    def library_time(self):
        """Seconds under outermost spans of the library layers (not cli)."""
        cli_ids = {i for i, nm in enumerate(self.names) if nm.startswith("cli.")}
        total = 0.0
        for i in range(len(self.name)):
            if self.name[i] in cli_ids:
                continue
            p = self.parent[i]
            if p < 0 or self.name[p] in cli_ids:
                total += self.end[i] - self.start[i]
        return total

    def dump(self, path):
        """Write the spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "job", "start", "end", "excl"],
                       "name": list(self.name), "parent": list(self.parent),
                       "job": list(self.job), "start": list(self.start),
                       "end": list(self.end), "excl": list(self.excl),
                       "counts": self.counts}, fh)


# -- the merohecke instrumentation --------------------------------------------

# Public functions wrapped per module.  Cheap accessors (coefficient,
# valuation, as_coeff) and serialisation stay unwrapped: they run once per
# coefficient, and their time is charged to the caller's layer.  cli.main
# self time therefore holds argparse, dispatch, str/JSON emit and cache I/O.
FUNCTIONS = {
    "forms": ("eisenstein", "delta", "j_function", "basis", "echelonize",
              "hecke_matrix_on_space", "hecke_charpoly_on_space"),
    "meroforms": ("build_expression", "build", "verify_identity"),
    "hecke": ("t_op", "u_op", "v_op", "t_op_via_uv"),
    "linalg": ("rref", "charpoly", "mat_mul", "mat_solve", "mat_inverse"),
    "whbasis": ("wh_slice_basis", "obstruction", "solve_principal_part",
                "j_polynomial_decompose", "bol_image_membership"),
    "quotient": ("quotient_hecke_matrix", "theorem_check", "hecke_on_principal_part",
                 "class_of", "eigen_witness"),
    "numeval": ("eval_series", "psi_truncated", "alpha_constant", "cm_checks",
                "verify_f6i_eigen", "psi_two_variable_check", "hecke_value",
                "slash_value", "script_g_coefficient"),
    "cli": ("main",),
}
SERIES_METHODS = ("add", "neg", "sub", "scale", "shift", "truncate", "d_power",
                  "mul", "invert", "div", "pow")
SHORT = 64


def _coeff_bits(c):
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def psi_summands(bound):
    """Summands of the truncated Poincare sum: coprime bottom rows (c, d)
    with max(|c|, |d|) <= bound, times 2*bound + 1 translates."""
    rows = sum(1 for c in range(-bound, bound + 1) for d in range(-bound, bound + 1)
               if math.gcd(abs(c), abs(d)) == 1)
    return rows * (2 * bound + 1)


def instrument(tracer, mods):
    """Patch the library modules in `mods` (name -> module)."""
    count = tracer.count
    series = mods["qseries"].LaurentSeries

    def after_init(args, kwargs, result):
        count("qseries.init.coeffs", len(args[0].coeffs))

    def after_mul(args, kwargs, result):
        la, lb = len(args[0].coeffs), len(args[1].coeffs)
        count("qseries.mul.pairs", la * lb)
        count("qseries.mul.out_bits", sum(map(_coeff_bits, result.coeffs)))
        if min(la, lb) < SHORT:
            count("qseries.mul.short")

    def after_invert(args, kwargs, result):
        count("qseries.invert.terms", len(result.coeffs))

    after = {"mul": after_mul, "invert": after_invert}
    tracer.patch(series, "__init__", "qseries.init", after_init)
    for meth in SERIES_METHODS:
        tracer.patch(series, meth, "qseries." + meth, after.get(meth))

    def after_rref(args, kwargs, result):
        rows = args[0]
        count("linalg.rref.cells", len(rows) * (len(rows[0]) if rows else 0))

    def after_t_op(args, kwargs, result):
        count("hecke.t_op.out_terms", len(result.coeffs))

    def after_eval(args, kwargs, result):
        f = args[0]
        count("numeval.eval_series.terms", max(0, f.prec - f.val))

    summands = {}

    def after_psi(args, kwargs, result):
        if result.tail_note and result.tail_note.startswith("VanishingSeries"):
            return
        bound = args[2] if len(args) > 2 else kwargs.get("bound", 40)
        if bound not in summands:
            summands[bound] = psi_summands(bound)
        count("numeval.psi_truncated.summands", summands[bound])

    refusal_types = (mods["numeval"].RegionGuard, mods["numeval"].DivergentTail)

    def on_eval_error(exc):
        if isinstance(exc, refusal_types):
            count("numeval.refusals")

    hooks = {("linalg", "rref"): (after_rref, None),
             ("hecke", "t_op"): (after_t_op, None),
             ("numeval", "eval_series"): (after_eval, on_eval_error),
             ("numeval", "psi_truncated"): (after_psi, None)}
    for modname, names in FUNCTIONS.items():
        for fname in names:
            a, e = hooks.get((modname, fname), (None, None))
            tracer.patch(mods[modname], fname, "%s.%s" % (modname, fname), a, e)

    memo = mods["forms"]._cache

    def around_cached(fn, args, kwargs):
        key, precision = args[0], args[1]
        before = memo.get(key)
        result = fn(*args, **kwargs)
        count("forms.cache.lookups")
        if before is not None and memo.get(key) is before and before[0] >= precision:
            count("forms.cache.hits")
        return result

    tracer.hook(mods["forms"], "_cached", around_cached)
