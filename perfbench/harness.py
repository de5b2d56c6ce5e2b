"""Loading merohecke from the checkout and running one CLI job in-process."""

import contextlib
import gc
import hashlib
import importlib
import io
import os
import sys
import time
import traceback
from fractions import Fraction

MODULES = ("cli", "forms", "hecke", "linalg", "meroforms", "numeval", "qseries",
           "quotient", "whbasis")


class ProgramMissing(Exception):
    pass


def import_program(root):
    """Import merohecke from root/src, never from elsewhere on sys.path,
    afresh: modules of an earlier import are dropped first, so every call
    pays the whole import.  Returns ({module name: module}, seconds the
    import took)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "merohecke", "cli.py")):
        raise ProgramMissing("no merohecke sources under %s" % src)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "merohecke" or n.startswith("merohecke.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {name: importlib.import_module("merohecke." + name) for name in MODULES}
    import_s = time.perf_counter() - t0
    pkg_file = os.path.realpath(sys.modules["merohecke"].__file__)
    if not pkg_file.startswith(os.path.realpath(src) + os.sep):
        raise ProgramMissing("merohecke was imported from %s, not from %s" % (pkg_file, src))
    return mods, import_s


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(cli, argv):
    """Run `merohecke argv` through cli.main with captured output.
    Returns (exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        # a job boundary: record the traceback and go on with the next job
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


# Seconds the reference routine takes on the reference machine (a 2-vCPU
# Intel Xeon VM at 2.0 GHz with Python 3.11.7) in a quiet minute; the
# scale of calibrated seconds.
REFERENCE_S = 0.012
_REF_BASE = 7 ** 60000


def reference_routine():
    """Time a fixed piece of work shaped like merohecke's own, without
    touching merohecke: one big-integer product (the Kronecker kernels), an
    interpreter loop (series bookkeeping and mpmath) and a Fraction sum
    (exact linear algebra).  Collection is paused so that a collection of
    the benchmark's heap is not charged to it.  Returns seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        prod = _REF_BASE * (_REF_BASE + 1)
        total = 0
        for i in range(80000):
            total += i * i
        frac = Fraction(0)
        for i in range(1, 500):
            frac += Fraction(1, i)
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    del prod, total, frac
    return seconds
