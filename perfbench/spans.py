"""Spans around calls into each layer, installed from outside the program.

``Tracer.install`` replaces public functions at module boundaries with
wrappers that record a span (id, parent, name, start, end, run id) and count
work at that boundary. A function is replaced under every name by which an
``ispaces`` module holds it, so ``normalize_table``, ``chain_complex`` and
``rank_and_torsion`` are traced as each module imports them. ``uninstall``
puts the originals back. Spans stay in memory until ``write``.

A span of ``normalize_table`` contains its caller's face and degeneracy
callbacks, so on hocolim-t4 it also carries the ``icat`` work of the face
maps. Separating them needs spans inside the program.
"""

import functools
import json
import time

from ispaces import cmon, gamma, icat, ispace, scenarios, simplicial, zlinalg

# Layers, named after the modules; ``util`` is a helper, not a layer.
MODULES = {"icat": icat, "simplicial": simplicial, "zlinalg": zlinalg,
           "ispace": ispace, "cmon": cmon, "gamma": gamma, "scenarios": scenarios}

FUNCTIONS = (
    ("icat", "comma_under"),
    ("simplicial", "nerve"),
    ("simplicial", "normalize_table"),
    ("simplicial", "chain_complex"),
    ("simplicial", "homology"),
    ("simplicial", "reduced_homology_trivial"),
    ("zlinalg", "rank_and_torsion"),
    ("ispace", "hocolim_I"),
    ("ispace", "semistability_diagnostic"),
    ("ispace", "is_flat"),
    ("cmon", "bar_of_hocolim"),
    ("cmon", "two_sided_bar_of_hocolim"),
    ("cmon", "bar_comparison"),
    ("cmon", "classifying_space_homology"),
    ("gamma", "gamma_of_monoid"),
    ("gamma", "is_special"),
    ("gamma", "eckmann_hilton_check"),
)

DEGREES = (1, 2, 3)
COUNTS = (("zlinalg.snf_calls", "count"), ("zlinalg.snf_nnz_in", "count"),
          ("zlinalg.rank", "count"), ("simplicial.raw_cells", "count"))
COUNTS += tuple((f"simplicial.cells.d{k}", "count") for k in (0,) + DEGREES)
COUNTS += tuple((f"simplicial.boundary_nnz.d{k}", "count") for k in DEGREES)
COUNT_NAMES = tuple(name for name, _ in COUNTS)

# Inclusive seconds of the outermost spans of each name, except nerve_s,
# which is the self time of nerve (its normalize_table and validate spans
# are reported on their own).
SPAN_SECONDS = (
    "zlinalg.snf", "simplicial.normalize_table", "simplicial.nerve",
    "simplicial.chain_complex", "icat.validate", "icat.comma_under",
    "ispace.hocolim_I", "ispace.semistability_diagnostic", "ispace.is_flat",
    "cmon.bar_of_hocolim", "cmon.two_sided_bar_of_hocolim", "cmon.bar_comparison",
    "gamma.gamma_of_monoid", "gamma.is_special", "gamma.eckmann_hilton_check",
)
SELF_TIMED = ("simplicial.nerve",)


def per_layer_metrics(scenario_names):
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{s}_s", "s", "lower") for s in SPAN_SECONDS]
    out.insert(1, ("zlinalg.snf_top_s", "s", "lower"))
    out += [(f"scenarios.{n}_s", "s", "lower") for n in scenario_names]
    out += [(f"{layer}.self_s", "s", "lower") for layer in MODULES]
    out += [(name, unit, "lower") for name, unit in COUNTS]
    out += [("trace.coverage", "%", "higher"), ("trace.overhead_s", "s", "lower")]
    return out


def _count_normalize(counts, args, kwargs, result):
    cells = args[0]
    top = args[3] if len(args) > 3 else kwargs["top_dim"]
    counts["simplicial.raw_cells"] += sum(len(cells[k]) for k in range(top + 1))
    card = result.sset.card
    for k in (0,) + DEGREES:
        if k < len(card):
            counts[f"simplicial.cells.d{k}"] += card[k]


def _count_chain_complex(counts, args, kwargs, result):
    for k in DEGREES:
        if k < len(result.boundaries):
            counts[f"simplicial.boundary_nnz.d{k}"] += len(result.boundaries[k])


def _count_snf(counts, args, kwargs, result):
    counts["zlinalg.snf_calls"] += 1
    counts["zlinalg.snf_nnz_in"] += len(args[0])
    counts["zlinalg.rank"] += result[0]


COUNTERS = {"simplicial.normalize_table": _count_normalize,
            "simplicial.chain_complex": _count_chain_complex,
            "zlinalg.rank_and_torsion": _count_snf}


class Tracer:
    """In-memory spans and boundary counts for one benchmark run."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock  # span start and end times, in seconds
        self.spans = []  # [id, parent, name, start, end, run_id]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    name, tracer.clock(), None, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = tracer.clock()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapper):
        for mod in MODULES.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        for layer, fname in FUNCTIONS:
            original = getattr(MODULES[layer], fname)
            self._replace_everywhere(original, self._wrap(f"{layer}.{fname}", original))
        validate = icat.FinCategory.validate
        icat.FinCategory.validate = self._wrap("icat.validate", validate)
        self._restore.append((icat.FinCategory, "validate", validate))
        for sname, (fn, min_trunc) in list(scenarios.REGISTRY.items()):
            scenarios.REGISTRY[sname] = (self._wrap(f"scenarios.{sname}", fn), min_trunc)
            self._restore.append((scenarios.REGISTRY, sname, (fn, min_trunc)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []

    def take_counts(self):
        """Return the counts since the last call and start again from zero."""
        counts = self.counts
        self.counts = dict.fromkeys(counts, 0)
        return counts

    def metrics(self, first_span, pass_s, scenario_names):
        """Span-derived per-layer seconds for spans[first_span:] of one pass.

        ``pass_s`` is the pass time on the tracer's clock.
        """
        spans = self.spans[first_span:]
        by_id = {s[0]: s for s in spans}
        child = dict.fromkeys(by_id, 0.0)
        for s in spans:
            if s[1] in child:
                child[s[1]] += s[4] - s[3]
        out = {name: 0.0 for name, unit, _ in per_layer_metrics(scenario_names) if unit == "s"}
        out.pop("trace.overhead_s")
        for s in spans:
            dur = s[4] - s[3]
            own = dur - child[s[0]]
            name = "zlinalg.snf" if s[2] == "zlinalg.rank_and_torsion" else s[2]
            out[s[2].split(".")[0] + ".self_s"] += own
            if name == "zlinalg.snf":
                out["zlinalg.snf_top_s"] = max(out["zlinalg.snf_top_s"], dur)
            key = name + "_s"
            if key not in out:
                continue
            if name in SELF_TIMED:
                out[key] += own
            elif not _nested_in_same(s, by_id):
                out[key] += dur
        roots = sum(s[4] - s[3] for s in spans if s[1] not in by_id)
        out["trace.coverage"] = 100.0 * roots / pass_s if pass_s > 0 else 0.0
        return out

    def write(self, path):
        keys = ("id", "parent", "name", "start", "end", "run_id")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _nested_in_same(span, by_id):
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] == span[2]:
            return True
        parent = by_id.get(parent[1])
    return False
