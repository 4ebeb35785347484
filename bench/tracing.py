"""Spans around the program's own functions, for the per-layer metrics.

``Tracer.install`` wraps every public function of the ``autgeom``
modules in ``LAYERS`` in a span and binds the wrapper in its place in
every ``autgeom`` module that holds the function, so the program's own
internal calls (``gpq_check`` -> ``compose`` -> ``substitute``,
``trans_length_sq`` -> ``linalg.kernel``) record spans as well.
``Tracer.uninstall`` puts the original functions back.

A span is ``[name, request, parent, start, end, counts]``, listed in the
order the calls start; ``parent`` is the enclosing span (or None), and
``counts`` (or None) labels the span with sizes taken from the call's
arguments and result (see ``COUNTS``).  Spans stay in memory until the
run ends and are then reduced to the metrics in ``LAYER_METRICS`` and
``COUNT_METRICS``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from time import perf_counter

LAYERS = ("words", "automorphisms", "glrep", "latgeom", "flats", "linalg", "reports", "cli")
# Spans of these layers are the library calls; the rest of ``cli.run``
# is the CLI's own overhead.
LIBRARY = ("words.", "automorphisms.", "glrep.", "latgeom.", "flats.", "linalg.", "reports.")
# Called once per node of the Sanov search, where a span would cost more
# than the call itself; ``glrep.search_ns_per_node`` covers it.
UNTRACED = frozenset({"glrep.mat2_mul"})


def _image_letters(endo):
    return sum(map(len, endo.images))


def _search_counts(args, free):
    """Nodes of an exhaustive search, Σ 4·3^(k−1) over k <= max_len;
    a search that found a relation stopped early."""
    if not free:
        return {"found": 1}
    return {"nodes": sum(4 * 3 ** (k - 1) for k in range(1, args[2] + 1))}


COUNTS = {
    "words.parse_word": lambda args, out: {"tokens": len(args[0].split())},
    "words.mul": lambda args, out: {"letters": len(out)},
    "words.substitute": lambda args, out: {"letters": len(out)},
    "words.reduce": lambda args, out: {"letters": len(out)},
    "automorphisms.compose": lambda args, out: {"letters": _image_letters(out)},
    "automorphisms.endo_of": lambda args, out: {"letters": _image_letters(out)},
    "glrep.rewrite": lambda args, out: {"letters": len(args[0])},
    "glrep.no_short_relation": _search_counts,
    "latgeom.voronoi_cell": lambda args, out: {"vertices": len(out.vertices),
                                               "faces": len(out.faces)},
    "latgeom.lattice_from": lambda args, out: {"denominator_bits": max(
        c.denominator.bit_length() for v in args[0] for c in v.coords())},
    "flats.trans_length_sq": lambda args, out: {"d": args[0].dim},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._bindings = None

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.request, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, out)
            return out

        return traced

    def call(self, name, fn, *args, count=None):
        """Run ``fn(*args)`` inside a span of its own."""
        return self._wrap(name, fn, count)(*args)

    def _bind(self):
        """(module, attribute, original, wrapper) for every place an
        ``autgeom`` module holds a traced function."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"autgeom.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__ and name not in UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, COUNTS.get(name)))
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "autgeom" and not mod_name.startswith("autgeom."):
                continue
            for attr, value in vars(module).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    bindings.append((module, attr, value, entry[1]))
        return bindings

    def install(self):
        if self._bindings is None:
            self._bindings = self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings or ():
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics.
# ---------------------------------------------------------------------------


def _count(span, key):
    return span[5].get(key) if span[5] else None


def _durations(spans, name, parent=None, label=None):
    """Durations of the spans called ``name``, optionally only those
    whose parent span is called ``parent`` or that carry ``label``."""
    return [s[4] - s[3] for s in spans
            if s[0] == name
            and (parent is None or (s[2] is not None and s[2][0] == parent))
            and (label is None or _count(s, label))]


def _median_scaled(spans, name, scale, **where):
    values = _durations(spans, name, **where)
    return statistics.median(values) * scale if values else None


def _per_count(spans, name, count, scale=1e9):
    """Total span time per unit of ``count``, in ns by default."""
    chosen = [s for s in spans if s[0] == name and _count(s, count)]
    if not chosen:
        return None
    return sum(s[4] - s[3] for s in chosen) * scale / sum(s[5][count] for s in chosen)


def _total(spans, prefix, count, combine=sum):
    values = [s[5][count] for s in spans
              if s[0].startswith(prefix) and _count(s, count) is not None]
    return combine(values) if values else None


def _scaling_exponent(spans):
    """Least-squares slope of log(median time) against log d."""
    by_d = {}
    for s in spans:
        if s[0] == "flats.trans_length_sq":
            by_d.setdefault(s[5]["d"], []).append(s[4] - s[3])
    if len(by_d) < 2:
        return None
    xs = [math.log(d) for d in by_d]
    ys = [math.log(statistics.median(v)) for v in by_d.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs)


def cli_overheads(spans, requests):
    """Per ``cli.run`` span of the given requests: its duration minus
    that of the outermost library spans inside it."""
    seen = {}  # id(span) -> (its cli.run span, whether it is inside a library call)
    library = {}  # id(cli.run span) -> time in its outermost library spans
    for s in spans:
        root, nested = seen[id(s[2])] if s[2] is not None else (None, False)
        if s[0] == "cli.run":
            root = s
        is_library = s[0].startswith(LIBRARY)
        seen[id(s)] = (root, is_library or nested)
        if is_library and not nested and root is not None:
            library[id(root)] = library.get(id(root), 0.0) + s[4] - s[3]
    return [s[4] - s[3] - library.get(id(s), 0.0)
            for s in spans if s[0] == "cli.run" and s[1] in requests]


def _ms(name, **where):
    return "ms", lambda s: _median_scaled(s, name, 1e3, **where)


def _us(name, **where):
    return "us", lambda s: _median_scaled(s, name, 1e6, **where)


def _ns_per(name, count):
    return "ns", lambda s: _per_count(s, name, count)


LAYER_METRICS = {
    "words.parse_word_ns_per_token": _ns_per("words.parse_word", "tokens"),
    "words.mul_ns_per_letter": _ns_per("words.mul", "letters"),
    "words.substitute_ns_per_letter": _ns_per("words.substitute", "letters"),
    "words.reduce_ns_per_letter": _ns_per("words.reduce", "letters"),
    "automorphisms.parse_autexpr_us": _us("automorphisms.parse_autexpr"),
    # endo_of as the commands call it, not the many small calls inside
    # the identity suite.
    "automorphisms.endo_of_ms": _ms("automorphisms.endo_of", parent="cli.cmd_gl_rep"),
    "automorphisms.compose_ns_per_letter": _ns_per("automorphisms.compose", "letters"),
    "automorphisms.identity_suite_ms": _ms("automorphisms.identity_suite"),
    "automorphisms.gpq_check_ms": _ms("automorphisms.gpq_check"),
    "automorphisms.inner_gpq_check_ms": _ms("automorphisms.inner_gpq_check"),
    "glrep.rewrite_ns_per_letter": _ns_per("glrep.rewrite", "letters"),
    "glrep.ab5_ms": _ms("glrep.ab5"),
    "glrep.mu_ms": _ms("glrep.mu"),
    "glrep.lk_basis_ms": _ms("glrep.lk_basis"),
    "glrep.no_short_relation_ms": _ms("glrep.no_short_relation", label="nodes"),
    "glrep.search_ns_per_node": _ns_per("glrep.no_short_relation", "nodes"),
    "glrep.early_exit_ms": _ms("glrep.no_short_relation", label="found"),
    "latgeom.lattice_from_ms": _ms("latgeom.lattice_from"),
    "latgeom.voronoi_cell_ms": _ms("latgeom.voronoi_cell"),
    "latgeom.classify_ms": _ms("latgeom.classify"),
    "latgeom.polytope_volume_ms": _ms("latgeom.polytope_volume"),
    "latgeom.covolume_us": _us("latgeom.covolume"),
    "latgeom.export_off_ms": _ms("latgeom.export_off"),
    "latgeom.octo_check_us": _us("latgeom.octo_check"),
    "flats.nielsen_flat_ms": _ms("flats.nielsen_flat"),
    "flats.cyclic_induced_ms": _ms("flats.cyclic_induced"),
    "flats.trans_length_sq_ms": _ms("flats.trans_length_sq"),
    "flats.trans_length_sq_scaling_exponent": ("slope", _scaling_exponent),
    "flats.equidistant_forces_zero_us": _us("flats.equidistant_forces_zero"),
    # On the (O - I) systems that trans_length_sq builds.
    "linalg.kernel_ms": _ms("linalg.kernel", parent="flats.trans_length_sq"),
    "linalg.solve_ms": _ms("linalg.solve", parent="flats.trans_length_sq"),
}

# Counts over one pass of the request list (each request once).
COUNT_METRICS = {
    "words.letters_out": ("count", lambda s: _total(s, "words.", "letters")),
    "automorphisms.image_letters": ("count", lambda s: _total(s, "automorphisms.endo_of", "letters")),
    "glrep.search_nodes": ("count", lambda s: _total(s, "glrep.no_short_relation", "nodes")),
    "latgeom.vertices": ("count", lambda s: _total(s, "latgeom.voronoi_cell", "vertices")),
    "latgeom.faces": ("count", lambda s: _total(s, "latgeom.voronoi_cell", "faces")),
    "latgeom.input_denominator_bits": ("bits", lambda s: _total(
        s, "latgeom.lattice_from", "denominator_bits", max)),
}
