"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification mismatch or
obstructed request, 2 usage or parse error, 3 numeric guard tripped
(validity-height or divergent-tail errors).

Set MEROHECKE_CACHE_DIR to enable a flat-file series cache with one entry
per construction string, holding the longest window built so far as the
decimal text `expand` prints; every shorter precision is served from it,
and a hit reads only the header and the lines below its precision (see
_cache_load).  A longer request resumes the build's division after the
entry's rows when the entry passes the checks on a seed, then replaces
the entry (see _build_form).  An entry is named by the hash of its
construction alone, so bumping the format version makes it a miss that is
rewritten in place.

Each command builds only the output it prints: the JSON object under
--json, the text otherwise (see _emit).
"""

import argparse
import hashlib
import itertools
import json
import os
import re
import sys
import tempfile

from . import hecke, linalg, meroforms, numeval, qseries, quotient, whbasis
from .forms import ModularForm
from .numeval import HPoint, PoincareSeed, RegionGuard, DivergentTail
from .whbasis import ObstructionWitness, PrincipalPart

FORMAT_VERSION = 5

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


# -- cache ---------------------------------------------------------------

def _cache_dir():
    return os.environ.get("MEROHECKE_CACHE_DIR")


def _cache_path(construction):
    d = _cache_dir()
    if not d:
        return None
    key = hashlib.sha256(construction.encode()).hexdigest()
    return os.path.join(d, key + ".json")


# Served entry lines: each the decimal text str() gives an int or, with a
# "/", a Fraction, reduced and not integral (a round trip checks those lines).
_CANONICAL_LINES = re.compile(r"(?:(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?\n)*")


def _cache_load(construction, precision):
    """The entry (weight, val, texts) of construction to precision, or None.

    An entry holds the longest window [val, prec) built so far: one JSON
    header line, then each coefficient's canonical decimal text on a line.
    A build truncated to P gives what a build at P gives (the invariant
    forms._cached serves its hits on too), so every val < P <= prec is a
    hit, and only the header and the P - val lines below P are read, as one
    block.  An entry that ends below P is read whole: the build resumes
    from it (see _build_form).  An empty window, P <= val, is a miss: the
    builder decides whether it exists (the constant 7 has none at P = 0).
    So is an entry whose file size is not its header line's plus the body
    size the header declares, which catches a short or long entry without
    reading its tail, and one whose lines read are not all canonical
    (_CANONICAL_LINES)."""
    path = _cache_path(construction)
    if not path:
        return None
    try:
        with open(path) as fh:
            line = fh.readline()
            head = json.loads(line)
            if head.get("format") != FORMAT_VERSION:
                return None
            val, prec = int(head["valuation"]), int(head["precision"])
            if not val < precision \
                    or os.fstat(fh.fileno()).st_size != len(line) + int(head["size"]):
                return None
            lines = min(precision, prec) - val
            block = "".join(itertools.islice(fh, lines))
        texts = block.split("\n")
        if not _CANONICAL_LINES.fullmatch(block) or texts.pop() or len(texts) != lines \
                or "/" in block and any(qseries._dec_str(qseries.as_coeff(t)) != t
                                        for t in texts if "/" in t):
            return None
        return int(head["weight"]), val, texts
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        # a missing, corrupt or malformed entry is a miss
        return None


def _cache_store(construction, entry):
    """Make entry, (weight, val, texts) as _cache_load returns it, the entry
    of construction, replacing any shorter one.

    Writers do not lock: a concurrent writer may replace a longer entry with
    a shorter one, which costs later requests a hit but never gives a wrong
    answer, since each entry is written whole and renamed into place."""
    path = _cache_path(construction)
    if not path:
        return
    weight, val, texts = entry
    head = json.dumps({"format": FORMAT_VERSION, "construction": construction,
                       "weight": weight, "valuation": val, "precision": val + len(texts),
                       "size": sum(map(len, texts)) + len(texts)})
    tmp = None
    try:
        # an unusable cache directory is a store skipped, like a failed write
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        # line by line, so that no copy of the whole body is made
        with os.fdopen(fd, "w") as fh:
            fh.write(head + "\n")
            fh.writelines(t + "\n" for t in texts)
        os.replace(tmp, path)
    except (OSError, ValueError):
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _build_form(name_or_expr, precision, as_text=False):
    """Named form or whitelisted expression, through the flat-file cache: a
    ModularForm, or under as_text its entry (weight, val, texts).

    A miss on an entry that ends below precision passes its series to the
    build as a seed, so that the division resumes after its rows; the
    quotient's recurrence checks the seed's last row first (see
    qseries._divide).  A miss converts its coefficients to text once, and
    only if one of them needs it."""
    construction = meroforms.CONSTRUCTIONS.get(name_or_expr, name_or_expr)
    entry = _cache_load(construction, precision)
    hit = entry is not None and entry[1] + len(entry[2]) == precision
    if hit and as_text:
        return entry
    seed = None
    if entry is not None:
        weight, val, texts = entry
        seed = qseries.LaurentSeries(val, texts, val + len(texts))
        if hit:
            return ModularForm(weight, seed)
    build = meroforms.build if name_or_expr in meroforms.CONSTRUCTIONS \
        else meroforms.build_expression
    form = build(name_or_expr, precision, seed)
    # an empty window serves nothing and would replace a longer entry
    store = _cache_dir() and form.series.prec > form.series.val
    if as_text or store:
        entry = form.weight, form.series.val, qseries.coeff_texts(form.series)
    if store:
        _cache_store(construction, entry)
    return entry if as_text else form


# -- helpers -------------------------------------------------------------

def _emit(args, obj, text):
    """Print obj as JSON under --json, else text.  Either may be a function
    that builds it, so that only the form asked for is built."""
    if getattr(args, "json", False):
        print(json.dumps(obj() if callable(obj) else obj, indent=2, default=str))
    else:
        print(text() if callable(text) else text)


def _series_json(series, weight=None, name=None):
    obj = {"series": series, "window": [series["valuation"], series["precision"]]}
    if weight is not None:
        obj["weight"] = weight
    if name is not None:
        obj["name"] = name
    return obj


def _parse_pp(text):
    terms = {}
    constant = 0
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError("principal part entries look like 'r:coeff', got %r" % chunk)
        r_s, c_s = chunk.split(":", 1)
        r = int(r_s)
        c = qseries.as_coeff(c_s.strip())
        if r == 0:
            constant = c
        else:
            terms[r] = c
    return PrincipalPart(terms, constant)


def _load_series_arg(target, weight_flag, precision):
    """A named form, an expression, or a path to a JSON series file."""
    if os.path.exists(target):
        with open(target) as fh:
            obj = json.load(fh)
        if "series" in obj:
            series = qseries.from_json_obj(obj["series"])
            weight = obj.get("weight", weight_flag)
        else:
            series = qseries.from_json_obj(obj)
            weight = weight_flag
        if weight is None:
            raise ValueError("series files without a weight field need --weight")
        return int(weight), series, target
    form = _build_form(target, precision)
    weight = form.weight if weight_flag is None else weight_flag
    return weight, form.series, target


# -- subcommands ---------------------------------------------------------

def _cmd_expand(args):
    weight, val, texts = _build_form(args.name, args.prec, as_text=True)
    _emit(args, lambda: _series_json(qseries.series_obj(val, texts), weight, args.name),
          lambda: qseries.series_str(val, texts))
    return EXIT_OK


def _cmd_hecke(args):
    weight, series, label = _load_series_arg(args.target, args.weight, args.prec)
    image = hecke.t_op(series, weight, args.m)
    _emit(args, lambda: _series_json(qseries.to_json_obj(image), weight),
          lambda: "window [%d, %d)\n%s" % (image.val, image.prec, image))
    return EXIT_OK


def _cmd_solve_pp(args):
    pp = _parse_pp(args.pp)
    sol = whbasis.solve_principal_part(args.weight, pp, args.sshriek, args.prec)
    if isinstance(sol, ObstructionWitness):
        vec = [qseries._dec_str(c) for c in sol.vector]
        _emit(args, {"obstruction": vec, "dual": sol.dual_kind},
              "obstructed: pairing vector %s against the weight-%d %s basis"
              % (vec, 2 - args.weight, "holomorphic" if sol.dual_kind == "M" else "cusp"))
        return EXIT_MISMATCH
    _emit(args, lambda: _series_json(qseries.to_json_obj(sol.series), sol.weight),
          lambda: str(sol.series))
    return EXIT_OK


def _matrix_strs(mat):
    return [[qseries._dec_str(x) for x in row] for row in mat]


def _cmd_quotient(args):
    kind = args.kind
    mat = quotient.quotient_hecke_matrix(args.weight2k, kind, args.m)
    cp = quotient.scaled_charpoly(mat, args.weight2k, args.m) if args.charpoly else None
    ok = quotient.intertwines(mat, args.weight2k, kind, args.m) if args.check else True

    def as_json():
        obj = {"weight2k": args.weight2k, "kind": kind, "m": args.m,
               "matrix": _matrix_strs(mat)}
        if args.charpoly:
            obj["scaled_charpoly"] = [qseries._dec_str(c) for c in cp]
        if args.check:
            obj["check"] = bool(ok)
        return obj

    def as_text():
        lines = ["%d x %d matrix of T_%d on the %s quotient in weight 2k=%d:"
                 % (len(mat), len(mat), args.m, kind, args.weight2k)]
        for row in mat:
            lines.append("  [" + ", ".join(map(qseries._dec_str, row)) + "]")
        if args.charpoly:
            lines.append("charpoly of %d^%d * matrix: %s"
                         % (args.m, args.weight2k - 1, linalg.poly_str(cp)))
        if args.check:
            lines.append("theorem check: %s" % ("pass" if ok else "FAIL"))
        return "\n".join(lines)

    _emit(args, as_json, as_text)
    return EXIT_OK if ok else EXIT_MISMATCH


def _theorem_grid():
    reports = []
    for weight2k in range(4, 30, 2):
        for m in (2, 3, 5):
            for kind in (quotient.MOD_M, quotient.MOD_S):
                ok = quotient.theorem_check(weight2k, kind, m)
                reports.append(meroforms.IdentityReport(
                    "quotient(%d,%s,T%d)" % (weight2k, kind, m), ok, None).to_json_obj())
    return reports


def _cmd_verify(args):
    if args.id == "all":
        reports = [meroforms.verify_identity(i).to_json_obj()
                   for i in meroforms.identity_ids()]
        reports += _theorem_grid()
    else:
        reports = [meroforms.verify_identity(args.id, args.prec).to_json_obj()]
    all_pass = all(r["pass"] for r in reports)
    if args.json:
        print(json.dumps({"reports": reports, "pass": all_pass}, indent=2))
    else:
        for r in reports:
            status = "pass" if r["pass"] else "FAIL"
            extra = "" if r["pass"] else "  %s" % (r["mismatch"],)
            print("%-28s %s%s" % (r["id"], status, extra))
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _cmd_eval(args):
    form = _build_form(args.name, args.prec)
    z = HPoint.parse(args.at)
    res = numeval.eval_series(form.series, z, args.bits,
                              min_height=meroforms.VALIDITY_HEIGHT.get(args.name))
    obj = res.to_json_obj()
    obj["name"] = args.name
    _emit(args, obj, "%s at %s = %s + %si  (err <= %s%s)"
          % (args.name, args.at, obj["value_re"], obj["value_im"],
             obj["err_bound"], ", " + res.tail_note if res.tail_note else ""))
    return EXIT_OK


def _cmd_cm_check(args):
    rep = numeval.cm_checks(args.bits, args.prec, args.tol)
    obj = {k: str(v) if not isinstance(v, (bool, str)) else v for k, v in rep.items()}
    lines = ["point %s" % rep["point"],
             "omega              = %s" % rep["omega"],
             "delta imag (rel)   = %s" % rep["delta_imag_rel"],
             "E4 vs 15*Omega^4   = %s" % rep["e4_rel"],
             "E6 vs 27*sqrt7*Om6 = %s" % rep["e6_rel"],
             "j vs -3375         = %s" % rep["j_rel"],
             "pass (tol %s): %s" % (args.tol, rep["pass"])]
    _emit(args, obj, "\n".join(lines))
    return EXIT_OK if rep["pass"] else EXIT_MISMATCH


def _cmd_eigen_num(args):
    rep = numeval.verify_f6i_eigen(args.m, args.nmax, args.bits, args.tol)
    obj = dict(rep)
    obj["rels"] = ["%.3e" % r for r in rep["rels"]]
    obj["max_rel"] = "%.3e" % rep["max_rel"]
    text = ("m=%d n<=%d bits=%d series precision %d: max relative error %.3e "
            "(tol %g): %s" % (rep["m"], rep["n_max"], rep["bits"],
                              rep["series_precision"], rep["max_rel"], rep["tol"],
                              "pass" if rep["pass"] else "FAIL"))
    _emit(args, obj, text)
    return EXIT_OK if rep["pass"] else EXIT_MISMATCH


def _cmd_psi_sum(args):
    seed = PoincareSeed(args.k, args.ell, HPoint.parse(args.zz))
    res = numeval.psi_truncated(seed, HPoint.parse(args.at), args.bound, args.bits)
    obj = res.to_json_obj()
    _emit(args, obj, "psi = %s + %si  (tail %s%s)"
          % (obj["value_re"], obj["value_im"], obj["err_bound"],
             ", " + res.tail_note if res.tail_note else ""))
    return EXIT_OK


def _cmd_psi_prop(args):
    if args.bits < 1:
        raise ValueError("bits must be >= 1")
    rep = numeval.psi_two_variable_check(
        args.k, args.ell, HPoint.parse(args.zz), HPoint.parse(args.at),
        args.n, args.bound, args.tol)
    obj = {"n": rep["n"], "lhs": str(rep["lhs"]), "rhs": str(rep["rhs"]),
           "rel": rep["rel"], "tail_sum": rep["tail_sum"], "pass": rep["pass"]}
    text = ("n=%d lhs=%s rhs=%s rel=%.3e (tol %g): %s"
            % (rep["n"], rep["lhs"], rep["rhs"], rep["rel"], rep["tol"],
               "pass" if rep["pass"] else "FAIL"))
    _emit(args, obj, text)
    return EXIT_OK if rep["pass"] else EXIT_MISMATCH


# -- parser --------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="merohecke",
        description="Exact q-expansions, Hecke operators, principal-part "
                    "solving, and numeric evaluation for level-one modular forms.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("expand", help="q-expansion of a named form or expression")
    sp.add_argument("name", help="named form (%s) or expression in E<k>, delta, j"
                    % ", ".join(sorted(meroforms.CONSTRUCTIONS)))
    sp.add_argument("--prec", type=int, default=60)
    add_json(sp)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("hecke", help="apply the index-m Hecke operator")
    sp.add_argument("target", help="named form, expression, or JSON series file")
    sp.add_argument("--weight", type=int, default=None)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--prec", type=int, default=60)
    add_json(sp)
    sp.set_defaults(func=_cmd_hecke)

    sp = sub.add_parser("solve-pp", help="solve a principal-part prescription")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--pp", required=True,
                    help="comma list r:coeff (r=0 for the constant term)")
    sp.add_argument("--sshriek", action="store_true",
                    help="require a zero constant term (S-shriek)")
    sp.add_argument("--prec", type=int, default=24)
    add_json(sp)
    sp.set_defaults(func=_cmd_solve_pp)

    sp = sub.add_parser("quotient", help="Hecke matrix on a principal-part quotient")
    sp.add_argument("--weight2k", type=int, required=True)
    sp.add_argument("--kind", required=True, choices=[quotient.MOD_M, quotient.MOD_S])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--charpoly", action="store_true")
    sp.add_argument("--check", action="store_true")
    add_json(sp)
    sp.set_defaults(func=_cmd_quotient)

    sp = sub.add_parser("verify", help="verify named identities")
    sp.add_argument("id", nargs="?", default="all")
    sp.add_argument("--prec", type=int, default=None)
    add_json(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("eval", help="evaluate a form at a point of the upper half-plane")
    sp.add_argument("name")
    sp.add_argument("--at", required=True, help="point as 'x,y'")
    sp.add_argument("--bits", type=int, default=200)
    sp.add_argument("--prec", type=int, default=60)
    add_json(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("cm-check", help="special-value checks at (1+sqrt(7)i)/2")
    sp.add_argument("--bits", type=int, default=200)
    sp.add_argument("--prec", type=int, default=40)
    sp.add_argument("--tol", type=float, default=1e-20)
    add_json(sp)
    sp.set_defaults(func=_cmd_cm_check)

    sp = sub.add_parser("eigen-num", help="numeric weight-6 eigenvalue identity check")
    sp.add_argument("--m", type=int, required=True, choices=[5, 7])
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--bits", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-10)
    add_json(sp)
    sp.set_defaults(func=_cmd_eigen_num)

    sp = sub.add_parser("psi-sum", help="truncated elliptic Poincare sum")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--zz", required=True, help="center as 'x,y'")
    sp.add_argument("--at", required=True, help="argument as 'x,y'")
    sp.add_argument("--bound", type=int, default=40)
    sp.add_argument("--bits", type=int, default=200)
    add_json(sp)
    sp.set_defaults(func=_cmd_psi_sum)

    sp = sub.add_parser("psi-prop-check", help="two-variable Hecke relation on psi sums")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--zz", required=True, help="center as 'x,y'")
    sp.add_argument("--at", required=True, help="argument as 'x,y'")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bound", type=int, default=40)
    sp.add_argument("--bits", type=int, default=53, help="no effect: the check is binary64 "
                    "throughout, since its points and centers are, so every psi sum is too")
    sp.add_argument("--tol", type=float, default=1e-2)
    add_json(sp)
    sp.set_defaults(func=_cmd_psi_prop)

    return p, sub.choices


_PARSER = _COMMANDS = None

# Options whose value is a point "x,y".  argparse takes a value with a
# negative x, such as "-0.4,2.1", for an option flag, so main joins it to
# its option ("--at=-0.4,2.1") before parsing.
_POINT_OPTIONS = ("--at", "--zz")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_point_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _POINT_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse(argv):
    """_PARSER.parse_args(argv), in one pass by the subcommand's parser when
    it takes every argument; else by _PARSER, whose messages stay its own."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None):
    global _PARSER, _COMMANDS
    if _PARSER is None:
        # built once per process: building it costs more than a small job
        _PARSER, _COMMANDS = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(_join_point_values(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (RegionGuard, DivergentTail) as e:
        print("numeric guard: %s" % e, file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, ZeroDivisionError, qseries.QSeriesError,
            whbasis.NonUniqueSolution, whbasis.NotPolynomialInJ) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
