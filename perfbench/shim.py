"""Run one pisotdyn CLI call with spans around the public functions.

    python -X importtime perfbench/shim.py SPANS_FILE -- ARGV...

The shim times `import pisotdyn.cli`, then wraps the traced functions in
every pisotdyn namespace that bound them (the CLI, substitution, geometry
and quantum modules import names from algebraic and substitution
directly), runs the CLI's `main` on ARGV and, when the call ends, writes
one JSON line per span: id, parent, name, start, end and a count.
Times are `time.perf_counter()` seconds, the clock the benchmark uses
around the child process.
"""

import sys
import time

PROG_NAME = "python -m pisotdyn.cli"

# (span name, module, attribute path, count of the work one call did)
TRACED = (
    ("algebraic.pv_verdict", "algebraic", "pv_verdict", None),
    ("algebraic.schur_cohn", "algebraic", "schur_cohn", None),
    ("algebraic.irreducible_over_q", "algebraic", "irreducible_over_q", None),
    ("algebraic.dominant_root_interval", "algebraic", "dominant_root_interval", None),
    ("algebraic.refine_root", "algebraic", "refine_root", None),
    ("algebraic.sturm_count", "algebraic", "sturm_count", None),
    ("algebraic.char_poly", "algebraic", "char_poly", None),
    ("algebraic.is_primitive", "algebraic", "is_primitive", None),
    ("substitution.classify_pisot", "substitution", "classify_pisot", None),
    ("substitution.iterate", "substitution", "iterate", lambda a, r: len(r)),
    ("words.prefix", "words", "PrefixStream.prefix", lambda a, r: len(r)),
    ("words.complexity_profile", "words", "complexity_profile", lambda a, r: len(a[0])),
    ("geometry.cusp_curve", "geometry", "cusp_curve", lambda a, r: len(r)),
    ("geometry.substitution_spacing", "geometry", "substitution_spacing", lambda a, r: len(r)),
    ("geometry.roots_of_unity", "geometry", "roots_of_unity", lambda a, r: len(r)),
    ("geometry.gap_statistics", "geometry", "gap_statistics", None),
    ("geometry.format", "geometry", "AngleList.to_csv", None),
    ("geometry.format", "geometry", "AngleList.to_svg", None),
    ("quantum.quantum_spacing_simulate", "quantum", "quantum_spacing_simulate", lambda a, r: a[3]),
    ("crystal.hiller", "crystal", "hiller", None),
    ("crystal.allowed_orders", "crystal", "allowed_orders", None),
    ("crystal.representation", "crystal", "representation", None),
)

spans = []  # [id, parent, name, start, end, count]
stack = []


def open_span(name):
    sid = len(spans)
    spans.append([sid, stack[-1] if stack else -1, name, time.perf_counter(), None, 0])
    stack.append(sid)
    return sid


def close_span(sid, count=0):
    spans[sid][4] = time.perf_counter()
    spans[sid][5] = count
    stack.pop()


def wrap(name, fn, count):
    def traced(*args, **kwargs):
        sid = open_span(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            close_span(sid, count(args, result) if count and result is not None else 0)

    traced.__wrapped__ = fn
    return traced


def install(modules):
    """Replace each traced function wherever a pisotdyn module bound it."""
    replaced = {}
    for name, mod, path, count in TRACED:
        owner = modules[f"pisotdyn.{mod}"]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        fn = getattr(owner, attr)
        replaced[id(fn)] = wrap(name, fn, count)
        setattr(owner, attr, replaced[id(fn)])
    for mod_name, mod in list(modules.items()):
        if mod_name == "pisotdyn" or mod_name.startswith("pisotdyn."):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])


def write(path):
    with open(path, "w") as fh:
        for sid, parent, name, start, end, count in spans:
            fh.write(f'{{"id":{sid},"parent":{parent},"name":"{name}","start":{start!r},'
                     f'"end":{end!r},"count":{count}}}\n')


def main():
    spans_path, argv = sys.argv[1], sys.argv[3:]
    sid = open_span("cli.import")
    import pisotdyn.cli as cli

    close_span(sid)
    install(sys.modules)
    code = 0
    sid = open_span("cli.command")
    try:
        cli.main.main(args=argv, prog_name=PROG_NAME)
    except SystemExit as e:
        code = e.code
    finally:
        while stack:
            close_span(stack[-1])
        write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
