"""Span tracer installed around calls into the braidops modules.

The tracer wraps public functions (and, where no public boundary exists, a few
private ones) from outside the package.  Every wrapped call records a span
(name, start, end, parent) in memory; hooks add exact counts at the same
boundaries.  Nothing inside ``src/`` is changed.

A target that does not exist on the traced commit is reported as missing, so
its metrics read ``None`` rather than zero.  Metrics whose function exists but
was never called in the run are reported as 0 and listed as n/a.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# Span names are "<layer>.<what>"; the layer is the braidops module.
LAYERS = ("exact", "chords", "parenthesized", "associator", "braids", "trees",
          "colored", "mixed", "voronov", "coherence", "diagrams", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self._last_error: dict[str, int] = {}
        self.degree_s: dict[int, float] = {}
        self.solver_shapes: list[tuple[int, int, int]] = []
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _error(self, layer: str, exc: BaseException) -> None:
        # one exception escaping several wrapped calls of a layer counts once
        if self._last_error.get(layer) != id(exc):
            self._last_error[layer] = id(exc)
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def spanned(self, name: str, fn, on_exit=None, skip=None):
        """Wrap ``fn`` so each call records a span; ``skip(args)`` bypasses it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        layer = name.split(".", 1)[0]
        stack, sn, sp, ss, se = (self._stack, self.span_name, self.span_parent,
                                 self.span_start, self.span_end)

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            idx = len(sn)
            sn.append(name_id)
            sp.append(stack[-1] if stack else -1)
            ss.append(0.0)
            se.append(0.0)
            stack.append(idx)
            start = perf_counter()
            ss[idx] = start
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                se[idx] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(args, result, se[idx] - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, on_exit=None):
        """Wrap ``fn`` with a call counter only (for very frequent calls)."""
        layer = key.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, target: str, make) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with ``make(original)``.

        Module-level functions are also rebound in every braidops module that
        imported them by name.  A target that does not exist is recorded as
        missing.
        """
        mod_name, attr_path = target.split(":")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            self.missing.add(target)
            return
        parts = attr_path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.add(target)
                return
        attr = parts[-1]
        is_class = isinstance(owner, type)
        original = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
        if original is None:
            self.missing.add(target)
            return
        wrapped = make(original)
        self._rebind(owner, attr, wrapped)
        if not is_class:
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("braidops"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def _rebind(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def summary(self) -> dict:
        """What layer_metrics needs, as JSON; see merge()."""
        return {"totals": self.span_totals(), "counts": self.counts, "maxima": self.maxima,
                "errors": self.errors, "degree_s": sorted(self.degree_s.items()),
                "solver_shapes": self.solver_shapes, "missing": sorted(self.missing),
                "spans": len(self.span_name)}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\n")


def _rows_attempted(r: int, d: int) -> int:
    """Rows the degree-d echelon build feeds in: (d-1) g^(d-2) placements of each relation."""
    if d < 2:
        return 0
    g = r * (r - 1) // 2
    c3 = r * (r - 1) * (r - 2) // 6
    c4 = c3 * (r - 3) // 4
    return (d - 1) * g ** (d - 2) * (3 * c4 + 3 * c3)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported braidops package."""
    t = tracer
    span = t.spanned

    t.patch("braidops.exact:NCSeries.__init__",
            lambda fn: t.counted("exact.ncseries_init.calls", fn))
    for name in ("series_mul", "series_exp", "series_inverse"):
        t.patch(f"braidops.exact:{name}", lambda fn, name=name: span(f"exact.{name}", fn))

    def solver_shape(args, result, _dur):
        system = args[0]
        nullity = result.nullity if result.consistent else -1
        t.solver_shapes.append((len(system.rows), system.num_columns, nullity))

    t.patch("braidops.exact:solve_exact", lambda fn: span("exact.solve_exact", fn, solver_shape))

    chords = importlib.import_module("braidops.chords")
    cache = getattr(chords, "_REDUCER_CACHE", None)
    if cache is None:
        t.missing.add("braidops.chords:_REDUCER_CACHE")
    else:
        def table_built(args, result, _dur):
            r, d = args[:2]
            t.count("chords.tables.shapes")
            t.count("chords.tables.rows", len(result))
            t.count("chords.tables.attempted", _rows_attempted(r, d))

        t.patch("braidops.chords:_reducer",
                lambda fn: span("chords.tables.build", fn, table_built,
                                skip=lambda args: tuple(args[:2]) in cache))
    t.patch("braidops.chords:_reduce_terms", lambda fn: span("chords.normalize", fn))
    t.patch("braidops.chords:dk_insert", lambda fn: span("chords.dk_insert", fn))
    t.patch("braidops.chords:dk_coproduct", lambda fn: span("chords.coproduct", fn))

    def top_level_only(fn):
        # evaluate_word recurses through its module global; only outermost calls are spans
        spanned = span("parenthesized.evaluate_word", fn)
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    t.patch("braidops.parenthesized:evaluate_word", top_level_only)
    t.patch("braidops.parenthesized:to_generator_word",
            lambda fn: span("parenthesized.to_generator_word", fn))
    t.patch("braidops.parenthesized:decompose", lambda fn: span("parenthesized.decompose", fn))

    def degree_time(args, _result, dur):
        d = args[2]
        t.degree_s[d] = t.degree_s.get(d, 0.0) + dur

    t.patch("braidops.associator:solve_degree",
            lambda fn: span("associator.solve_degree", fn, degree_time))
    t.patch("braidops.associator:_residual_entries",
            lambda fn: t.counted("associator.residual_evals", fn))
    t.patch("braidops.associator:associator_valid", lambda fn: span("associator.verify", fn))

    def free_word(_args, result):
        t.count("braids.free_word.letters", len(result))
        t.peak("braids.free_word.max_len", len(result))

    t.patch("braidops.braids:artin_action", lambda fn: t.counted("braids.artin_action.calls", fn))
    t.patch("braidops.braids:_act_letter", lambda fn: t.counted("braids.act_letter.calls", fn,
                                                                free_word))

    def with_shortcut(fn):
        spanned = span("braids.braids_equal", fn)

        def wrapper(*args, **kwargs):
            before = t.counts.get("braids.artin_action.calls", 0)
            result = spanned(*args, **kwargs)
            if t.counts.get("braids.artin_action.calls", 0) == before:
                t.count("braids.braids_equal.shortcuts")
            return result

        return wrapper

    t.patch("braidops.braids:braids_equal", with_shortcut)

    t.patch("braidops.trees:enumerate_trees", lambda fn: span("trees.enumerate_trees", fn))
    t.patch("braidops.trees:omega", lambda fn: t.counted("trees.omega.calls", fn))
    for name in ("copb_compose", "copb_insert_closed", "copb_insert_open",
                 "restrict_unit_closed", "restrict_unit_open"):
        t.patch(f"braidops.colored:{name}", lambda fn: span("colored.copb", fn))
    t.patch("braidops.mixed:compose_prime", lambda fn: span("mixed.compose_prime", fn))
    t.patch("braidops.mixed:apply_phi", lambda fn: span("mixed.apply_phi", fn))
    for name in ("insert_open", "insert_closed"):
        t.patch(f"braidops.voronov:VoronovProduct.{name}",
                lambda fn: span("voronov.insert", fn))

    def instances(_args, report, _dur):
        t.count("coherence.instances", sum(report.instances_checked.values()))

    t.patch("braidops.coherence:check_coherence",
            lambda fn: span("coherence.check_coherence", fn, instances))
    t.patch("braidops.diagrams:family_word_pairs",
            lambda fn: span("diagrams.family_word_pairs", fn))
    t.patch("braidops.cli:run", lambda fn: span("cli.run", fn))


# metric -> (unit, wrapped targets it depends on)
_TARGETS = {
    "exact.ncseries_init": ["braidops.exact:NCSeries.__init__"],
    "exact.series_mul": ["braidops.exact:series_mul"],
    "exact.series_exp": ["braidops.exact:series_exp"],
    "exact.series_inverse": ["braidops.exact:series_inverse"],
    "exact.solve_exact": ["braidops.exact:solve_exact"],
    "chords.tables": ["braidops.chords:_reducer", "braidops.chords:_REDUCER_CACHE"],
    "chords.tables.build": ["braidops.chords:_reducer", "braidops.chords:_REDUCER_CACHE"],
    "chords.normalize": ["braidops.chords:_reduce_terms"],
    "chords.dk_insert": ["braidops.chords:dk_insert"],
    "chords.coproduct": ["braidops.chords:dk_coproduct"],
    "parenthesized.evaluate_word": ["braidops.parenthesized:evaluate_word"],
    "parenthesized.to_generator_word": ["braidops.parenthesized:to_generator_word"],
    "parenthesized.decompose": ["braidops.parenthesized:decompose"],
    "associator.solve_degree": ["braidops.associator:solve_degree"],
    "associator.residual_evals": ["braidops.associator:_residual_entries"],
    "associator.verify": ["braidops.associator:associator_valid"],
    "braids.braids_equal": ["braidops.braids:braids_equal", "braidops.braids:artin_action"],
    "braids.free_word": ["braidops.braids:_act_letter"],
    "trees.enumerate_trees": ["braidops.trees:enumerate_trees"],
    "trees.omega": ["braidops.trees:omega"],
    "colored.copb": ["braidops.colored:copb_compose"],
    "mixed.compose_prime": ["braidops.mixed:compose_prime"],
    "mixed.apply_phi": ["braidops.mixed:apply_phi"],
    "voronov.insert": ["braidops.voronov:VoronovProduct.insert_open"],
    "coherence.check_coherence": ["braidops.coherence:check_coherence"],
    "coherence.instances": ["braidops.coherence:check_coherence"],
    "diagrams.family_word_pairs": ["braidops.diagrams:family_word_pairs"],
    "cli.run": ["braidops.cli:run"],
}


def merge(summaries: list[dict]) -> dict:
    """One summary of a run whose requests ran in several interpreters."""
    out = {"totals": {}, "counts": {}, "maxima": {}, "errors": {}, "degree_s": {},
           "solver_shapes": [], "missing": set(), "spans": 0}
    for s in summaries:
        for name, rec in s["totals"].items():
            acc = out["totals"].setdefault(name, dict.fromkeys(rec, 0))
            for field, value in rec.items():
                acc[field] += value
        for key in ("counts", "errors"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, 0), value)
        for d, seconds in s["degree_s"]:
            out["degree_s"][d] = out["degree_s"].get(d, 0.0) + seconds
        out["solver_shapes"] += s["solver_shapes"]
        out["missing"] |= set(s["missing"])
        out["spans"] += s["spans"]
    return out


def layer_metrics(summary: dict) -> tuple[dict[str, tuple[float | None, str]], list[str]]:
    """Every per-layer metric of a merged summary as (value, unit), plus the n/a names.

    A value is None when the function it is measured at is missing; it is 0
    and listed as n/a when the function exists but the run never called it
    (or a ratio's base is zero).
    """
    totals = summary["totals"]
    out: dict[str, tuple[float | None, str]] = {}
    na: list[str] = []

    def put(metric, unit, group, value, used):
        if any(target in summary["missing"] for target in _TARGETS[group]):
            out[metric] = (None, unit)
        elif not used:
            out[metric] = (0, unit)
            na.append(metric)
        else:
            out[metric] = (value, unit)

    def spans(metric, group, field, unit):
        rec = totals.get(group)
        put(metric, unit, group, rec[field] if rec else 0, rec is not None)

    def counter(metric, group, key, unit="count"):
        value = summary["counts"].get(key, 0)
        put(metric, unit, group, value, value > 0)

    counter("exact.ncseries_init.calls", "exact.ncseries_init", "exact.ncseries_init.calls")
    spans("exact.series_mul.calls", "exact.series_mul", "calls", "count")
    for name in ("series_mul", "series_exp", "series_inverse", "solve_exact"):
        spans(f"exact.{name}.self_s", f"exact.{name}", "self_s", "s")
    spans("exact.solve_exact.calls", "exact.solve_exact", "calls", "count")
    shapes = summary["solver_shapes"]
    rows = sum(s[0] for s in shapes)
    cols = sum(s[1] for s in shapes)
    nullity = sum(max(s[2], 0) for s in shapes)
    put("exact.solve_exact.rows", "count", "exact.solve_exact", rows, bool(shapes))
    put("exact.solve_exact.cols", "count", "exact.solve_exact", cols, bool(shapes))
    put("exact.solve_exact.nullity", "count", "exact.solve_exact", nullity, bool(shapes))
    put("exact.solve_exact.rank_ratio", "ratio", "exact.solve_exact",
        (cols - nullity) / cols if cols else 0, cols > 0)

    built = summary["counts"].get("chords.tables.shapes", 0)
    kept = summary["counts"].get("chords.tables.rows", 0)
    dropped = summary["counts"].get("chords.tables.attempted", 0) - kept
    put("chords.tables.shapes", "count", "chords.tables", built, built > 0)
    spans("chords.tables.build_s", "chords.tables.build", "total_s", "s")
    put("chords.tables.rows", "count", "chords.tables", kept, built > 0)
    put("chords.tables.kept_ratio", "ratio", "chords.tables",
        kept / dropped if dropped > 0 else 0, dropped > 0)
    for name in ("normalize", "dk_insert"):
        spans(f"chords.{name}.calls", f"chords.{name}", "calls", "count")
        spans(f"chords.{name}.self_s", f"chords.{name}", "self_s", "s")
    spans("chords.coproduct.self_s", "chords.coproduct", "self_s", "s")

    spans("parenthesized.evaluate_word.calls", "parenthesized.evaluate_word", "calls", "count")
    for name in ("evaluate_word", "to_generator_word", "decompose"):
        spans(f"parenthesized.{name}.self_s", f"parenthesized.{name}", "self_s", "s")

    for d in range(1, 6):
        put(f"associator.solve_degree.d{d}_s", "s", "associator.solve_degree",
            summary["degree_s"].get(d, 0.0), d in summary["degree_s"])
    counter("associator.residual_evals", "associator.residual_evals",
            "associator.residual_evals")
    spans("associator.verify_s", "associator.verify", "total_s", "s")

    spans("braids.braids_equal.calls", "braids.braids_equal", "calls", "count")
    spans("braids.braids_equal.self_s", "braids.braids_equal", "self_s", "s")
    eq_calls = totals.get("braids.braids_equal", {}).get("calls", 0)
    put("braids.braids_equal.shortcut_ratio", "ratio", "braids.braids_equal",
        summary["counts"].get("braids.braids_equal.shortcuts", 0) / eq_calls if eq_calls else 0,
        eq_calls > 0)
    counter("braids.free_word.letters", "braids.free_word", "braids.free_word.letters")
    maxima = summary["maxima"]
    put("braids.free_word.max_len", "count", "braids.free_word",
        maxima.get("braids.free_word.max_len", 0), "braids.free_word.max_len" in maxima)

    spans("trees.enumerate_trees.self_s", "trees.enumerate_trees", "self_s", "s")
    counter("trees.omega.calls", "trees.omega", "trees.omega.calls")
    spans("colored.copb.self_s", "colored.copb", "self_s", "s")
    spans("mixed.compose_prime.self_s", "mixed.compose_prime", "self_s", "s")
    spans("mixed.apply_phi.self_s", "mixed.apply_phi", "self_s", "s")
    spans("voronov.insert.self_s", "voronov.insert", "self_s", "s")
    spans("coherence.check_coherence.self_s", "coherence.check_coherence", "self_s", "s")
    counter("coherence.instances", "coherence.instances", "coherence.instances")
    spans("diagrams.family_word_pairs.s", "diagrams.family_word_pairs", "total_s", "s")
    spans("cli.run.calls", "cli.run", "calls", "count")
    spans("cli.run.self_s", "cli.run", "self_s", "s")

    touched = {name.split(".", 1)[0] for name in totals} | {
        key.split(".", 1)[0] for key in summary["counts"]}
    for layer in LAYERS:
        metric = f"{layer}.errors"
        out[metric] = (summary["errors"].get(layer, 0), "count")
        if layer not in touched:
            na.append(metric)
    return out, na
