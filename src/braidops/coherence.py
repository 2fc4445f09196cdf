"""Coherence checking for candidate algebra data on finite categories.

The data of a candidate algebra is two finite categories, three functors
(two tensor products and a comparison functor), and five structure
isomorphisms given as object-indexed component tables.  Validation checks
category axioms and functor laws, then, for each generator of
``GENERATOR_SHAPES``, that its table is typed between the functors of the
generator's source and target trees, invertible and natural in every slot, all
by exhaustive enumeration.  The checker then evaluates
both composite paths of the six shared coherence families at every object
tuple and reports each failing instance.

Generator words evaluate to natural-transformation tables, so two different
generator-word decompositions of the same morphism can be compared on the
nose; well-definedness of that evaluation is exactly what the six diagram
families guarantee.  A tree's functor is compiled once per evaluator into a
function of the open and the closed argument tuples, and validation uses the
same compiled functors; an insertion splits its arguments by slices.
"""

from __future__ import annotations

import itertools

from .diagrams import family_word_pairs
from .parenthesized import GENERATOR_SHAPES, evaluate_word
from .trees import Record, Tree, arity, color, graft_closed, graft_open, relabel_tree


class CoherenceTypeError(Exception):
    """Structure data is ill-typed (missing or wrongly-shaped component)."""


class FiniteCategory:
    def __init__(self, name, objects, morphisms, src, tgt, compose, identities):
        self.name = name
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.compose_table = dict(compose)
        self.identities = dict(identities)
        self._inverses: dict = {}

    def validate(self) -> None:
        for o in self.objects:
            i = self.declared(self.identities.get(o), f"{self.name}: identity at {o!r}")
            if self.src[i] != o or self.tgt[i] != o:
                raise CoherenceTypeError(f"{self.name}: bad identity at {o!r}")
        for g in self.morphisms:
            for f in self.morphisms:
                if self.tgt[f] == self.src[g]:
                    if (g, f) not in self.compose_table:
                        raise CoherenceTypeError(f"{self.name}: composition not total at ({g!r}, {f!r})")
                    gf = self.declared(self.compose_table[(g, f)],
                                       f"{self.name}: composite at ({g!r}, {f!r})")
                    if self.src[gf] != self.src[f] or self.tgt[gf] != self.tgt[g]:
                        raise CoherenceTypeError(f"{self.name}: composite endpoints wrong at ({g!r}, {f!r})")
        for f in self.morphisms:
            if self.comp(f, self.identities[self.src[f]]) != f:
                raise CoherenceTypeError(f"{self.name}: right identity law fails at {f!r}")
            if self.comp(self.identities[self.tgt[f]], f) != f:
                raise CoherenceTypeError(f"{self.name}: left identity law fails at {f!r}")
        for h in self.morphisms:
            for g in self.morphisms:
                if self.tgt[g] != self.src[h]:
                    continue
                for f in self.morphisms:
                    if self.tgt[f] != self.src[g]:
                        continue
                    if self.comp(self.comp(h, g), f) != self.comp(h, self.comp(g, f)):
                        raise CoherenceTypeError(
                            f"{self.name}: associativity fails at ({h!r}, {g!r}, {f!r})")

    def declared(self, f, where: str):
        """``f``, if it is a declared morphism (each has a source); ``where`` names the reference."""
        if f not in self.src:
            raise CoherenceTypeError(f"{where} is {f!r}, not a morphism of {self.name}")
        return f

    def comp(self, g, f):
        assert self.tgt[f] == self.src[g], f"{self.name}: not composable"
        return self.compose_table[(g, f)]

    def identity(self, obj):
        return self.identities[obj]

    def inverse(self, f):
        if f in self._inverses:
            return self._inverses[f]
        for g in self.morphisms:
            if (self.src[g] == self.tgt[f] and self.tgt[g] == self.src[f]
                    and self.comp(g, f) == self.identities[self.src[f]]
                    and self.comp(f, g) == self.identities[self.tgt[f]]):
                self._inverses[f] = g
                return g
        raise CoherenceTypeError(f"{self.name}: morphism {f!r} is not invertible")


class FunctorTable(Record):
    """A functor of several typed arguments, given by total tables."""

    name: str
    sources: list          # list of FiniteCategory
    target: object         # FiniteCategory
    obj_map: dict          # tuple of objects -> object
    mor_map: dict          # tuple of morphisms -> morphism

    def on_objects(self, args: tuple):
        try:
            return self.obj_map[tuple(args)]
        except KeyError:
            raise CoherenceTypeError(f"functor {self.name}: no value at {args!r}")

    def on_morphisms(self, args: tuple):
        try:
            return self.mor_map[tuple(args)]
        except KeyError:
            raise CoherenceTypeError(f"functor {self.name}: no morphism value at {args!r}")

    def validate(self) -> None:
        for objs in itertools.product(*[c.objects for c in self.sources]):
            if tuple(objs) not in self.obj_map:
                raise CoherenceTypeError(f"functor {self.name}: missing object value at {objs!r}")
        for mors in itertools.product(*[c.morphisms for c in self.sources]):
            out = self.target.declared(self.on_morphisms(mors), f"functor {self.name}: value at {mors!r}")
            srcs = tuple(c.src[f] for c, f in zip(self.sources, mors))
            tgts = tuple(c.tgt[f] for c, f in zip(self.sources, mors))
            if self.target.src[out] != self.on_objects(srcs) or \
               self.target.tgt[out] != self.on_objects(tgts):
                raise CoherenceTypeError(f"functor {self.name}: endpoints wrong at {mors!r}")
        # identities and composition
        for objs in itertools.product(*[c.objects for c in self.sources]):
            ids = tuple(c.identity(o) for c, o in zip(self.sources, objs))
            if self.on_morphisms(ids) != self.target.identity(self.on_objects(objs)):
                raise CoherenceTypeError(f"functor {self.name}: identity law fails at {objs!r}")
        for gs in itertools.product(*[c.morphisms for c in self.sources]):
            for fs in itertools.product(*[c.morphisms for c in self.sources]):
                if all(c.tgt[f] == c.src[g] for c, g, f in zip(self.sources, gs, fs)):
                    comp_args = tuple(c.comp(g, f) for c, g, f in zip(self.sources, gs, fs))
                    if self.on_morphisms(comp_args) != \
                            self.target.comp(self.on_morphisms(gs), self.on_morphisms(fs)):
                        raise CoherenceTypeError(
                            f"functor {self.name}: composition law fails at ({gs!r}, {fs!r})")


#: Each generator's structure table is named by this label in messages and in JSON.
TABLE_LABELS = {"tau": "t", "alpha_c": "a_c", "alpha_o": "a_o", "p": "p", "psi": "psi"}


class AlgebraData:
    """Candidate structure: categories, functors, and the five isomorphisms.

    ``tables`` maps each generator of ``GENERATOR_SHAPES`` to its component
    table, keyed by the closed slot objects of the generator's shape, then its
    open slot objects.  ``unit_m``/``unit_n`` are optional unit objects; when
    both are present the strict-unit check verifies that they are strict units
    for the tensors and that the comparison functor preserves them.
    """

    def __init__(self, m_cat: FiniteCategory, n_cat: FiniteCategory,
                 m_c: FunctorTable, m_o: FunctorTable, f_functor: FunctorTable,
                 tables: dict, unit_m=None, unit_n=None):
        self.m_cat = m_cat
        self.n_cat = n_cat
        self.m_c = m_c
        self.m_o = m_o
        self.f_functor = f_functor
        self.tables = {name: dict(tables[name]) for name in TABLE_LABELS}
        self.unit_m = unit_m
        self.unit_n = unit_n

    def check_strict_units(self) -> None:
        if self.unit_m is None or self.unit_n is None:
            raise CoherenceTypeError("strict-unit check needs unit objects for both categories")
        one_m, one_n = self.unit_m, self.unit_n
        for X in self.m_cat.objects:
            if self.m_c.on_objects((one_m, X)) != X or self.m_c.on_objects((X, one_m)) != X:
                raise CoherenceTypeError(f"unit is not strict for the closed tensor at {X!r}")
        for Y in self.n_cat.objects:
            if self.m_o.on_objects((one_n, Y)) != Y or self.m_o.on_objects((Y, one_n)) != Y:
                raise CoherenceTypeError(f"unit is not strict for the open tensor at {Y!r}")
        if self.f_functor.on_objects((one_m,)) != one_n:
            raise CoherenceTypeError("comparison functor does not preserve the unit")

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the categories and functors, then each structure isomorphism.

        A component must exist at every key, be typed between the source and
        target functors of the generator's shape, and be invertible; the
        table must be natural in every slot.
        """
        self.m_cat.validate()
        self.n_cat.validate()
        self.m_c.validate()
        self.m_o.validate()
        self.f_functor.validate()
        for name, (src_tree, tgt_tree, _) in GENERATOR_SHAPES.items():
            label, table = TABLE_LABELS[name], self.tables[name]
            cat = self.m_cat if color(src_tree) == "c" else self.n_cat
            src, tgt = _compile(self, src_tree, True), _compile(self, tgt_tree, True)
            src_mor, tgt_mor = _compile(self, src_tree, False), _compile(self, tgt_tree, False)
            n, m = arity(src_tree)
            slot_cats = [self.m_cat] * m + [self.n_cat] * n
            for key in itertools.product(*(c.objects for c in slot_cats)):
                comp = table.get(key)
                if comp is None:
                    raise CoherenceTypeError(f"{label}: no component at {key!r}")
                a, b = src(key[m:], key[:m]), tgt(key[m:], key[:m])
                if comp not in cat.morphisms or cat.src[comp] != a or cat.tgt[comp] != b:
                    raise CoherenceTypeError(
                        f"{label}: component at {key!r} must be a morphism {a!r} -> {b!r}")
                cat.inverse(comp)
            for mors in itertools.product(*(c.morphisms for c in slot_cats)):
                key_src = tuple(c.src[f] for c, f in zip(slot_cats, mors))
                key_tgt = tuple(c.tgt[f] for c, f in zip(slot_cats, mors))
                if cat.comp(table[key_tgt], src_mor(mors[m:], mors[:m])) != \
                        cat.comp(tgt_mor(mors[m:], mors[:m]), table[key_src]):
                    raise CoherenceTypeError(f"naturality of {label} fails at {key_src!r}")


# -- evaluation of generator words -------------------------------------------------


def _compile(data: AlgebraData, tree: Tree, objects: bool):
    """The functor that ``tree`` carves out, on objects or on morphisms, as a
    function of the open and the closed argument tuples."""
    tag = tree[0]
    if tag == "x" or tag == "y":
        k = tree[1] - 1
        return (lambda o, c: c[k]) if tag == "x" else (lambda o, c: o[k])
    if tag == "f":
        inner = _compile(data, tree[1], objects)
        table = data.f_functor.on_objects if objects else data.f_functor.on_morphisms
        return lambda o, c: table((inner(o, c),))
    if tag == "mc" or tag == "mo":
        a, b = _compile(data, tree[1], objects), _compile(data, tree[2], objects)
        functor = data.m_c if tag == "mc" else data.m_o
        table = functor.on_objects if objects else functor.on_morphisms
        return lambda o, c: table((a(o, c), b(o, c)))
    raise CoherenceTypeError(f"cannot evaluate tree node {tag!r}")


class NatTransTable(Record):
    """Natural transformation between tree functors, as a component table."""

    src_tree: Tree
    tgt_tree: Tree
    components: dict  # (oargs tuple, cargs tuple) -> morphism

    def component(self, oargs: tuple, cargs: tuple):
        return self.components[(tuple(oargs), tuple(cargs))]


class FinCatAlgebra:
    """Evaluate generator words against candidate structure data.

    Each tree's functor is compiled once, on first use, and kept by tree.
    """

    def __init__(self, data: AlgebraData):
        self.data = data
        self._functors: dict = {}

    def _functor(self, tree: Tree, objects: bool):
        key = (tree, objects)
        if key not in self._functors:
            self._functors[key] = _compile(self.data, tree, objects)
        return self._functors[key]

    def _category(self, tree: Tree) -> FiniteCategory:
        return self.data.m_cat if color(tree) == "c" else self.data.n_cat

    def _table(self, src_tree: Tree, tgt_tree: Tree, fn) -> NatTransTable:
        n, m = arity(src_tree)
        args = itertools.product(itertools.product(self.data.n_cat.objects, repeat=n),
                                 itertools.product(self.data.m_cat.objects, repeat=m))
        return NatTransTable(src_tree, tgt_tree, {key: fn(*key) for key in args})

    def generator(self, name: str) -> NatTransTable:
        src, tgt, _ = GENERATOR_SHAPES[name]
        table = self.data.tables[name]
        return self._table(src, tgt, lambda oargs, cargs: table[cargs + oargs])

    def identity(self, tree: Tree) -> NatTransTable:
        functor, identity = self._functor(tree, True), self._category(tree).identity
        return self._table(tree, tree, lambda oargs, cargs: identity(functor(oargs, cargs)))

    def compose(self, g: NatTransTable, f: NatTransTable) -> NatTransTable:
        assert f.tgt_tree == g.src_tree, "object mismatch"
        comp, gs, fs = self._category(f.src_tree).comp, g.components, f.components
        return self._table(f.src_tree, g.tgt_tree,
                           lambda oargs, cargs: comp(gs[oargs, cargs], fs[oargs, cargs]))

    def invert(self, v: NatTransTable) -> NatTransTable:
        inverse, vs = self._category(v.src_tree).inverse, v.components
        return self._table(v.tgt_tree, v.src_tree, lambda oargs, cargs: inverse(vs[oargs, cargs]))

    def insert_closed(self, outer: NatTransTable, i: int, inner: NatTransTable) -> NatTransTable:
        src_tree = graft_closed(outer.src_tree, i, inner.src_tree)
        tgt_tree = graft_closed(outer.tgt_tree, i, inner.tgt_tree)
        return self._insert(outer, inner, src_tree, tgt_tree, i, "c")

    def insert_open(self, outer: NatTransTable, j: int, inner: NatTransTable) -> NatTransTable:
        src_tree = graft_open(outer.src_tree, j, inner.src_tree)
        tgt_tree = graft_open(outer.tgt_tree, j, inner.tgt_tree)
        return self._insert(outer, inner, src_tree, tgt_tree, j, "o")

    def _insert(self, outer, inner, src_tree, tgt_tree, slot, col) -> NatTransTable:
        """The outer component at the inner source object, then the inner
        component whiskered through the outer target functor.

        The composite's arguments of the slot's color are (before, inner,
        after) by slices; an open insertion's inner closed arguments come first.
        """
        n_in, m_in = arity(inner.src_tree)
        plug, whisker = self._functor(inner.src_tree, True), self._functor(outer.tgt_tree, False)
        comp, outs, ins = self._category(outer.tgt_tree).comp, outer.components, inner.components
        o_id, c_id = self.data.n_cat.identity, self.data.m_cat.identity
        lo = slot - 1
        if col == "o":
            hi = lo + n_in

            def fn(oargs, cargs):
                in_o, in_c, out_c = oargs[lo:hi], cargs[:m_in], cargs[m_in:]
                before, after = oargs[:lo], oargs[hi:]
                theta = outs[before + (plug(in_o, in_c),) + after, out_c]
                mor_o = (*map(o_id, before), ins[in_o, in_c], *map(o_id, after))
                return comp(whisker(mor_o, tuple(map(c_id, out_c))), theta)
        else:
            hi = lo + m_in

            def fn(oargs, cargs):
                in_c, before, after = cargs[lo:hi], cargs[:lo], cargs[hi:]
                theta = outs[oargs, before + (plug((), in_c),) + after]
                mor_c = (*map(c_id, before), ins[(), in_c], *map(c_id, after))
                return comp(whisker(tuple(map(o_id, oargs)), mor_c), theta)

        return self._table(src_tree, tgt_tree, fn)

    def relabel(self, v: NatTransTable, open_map, closed_map) -> NatTransTable:
        src_tree = relabel_tree(v.src_tree, open_map, closed_map)
        tgt_tree = relabel_tree(v.tgt_tree, open_map, closed_map)
        n, m = arity(src_tree)
        o_at = tuple((open_map or {}).get(k, k) - 1 for k in range(1, n + 1))
        c_at = tuple((closed_map or {}).get(k, k) - 1 for k in range(1, m + 1))
        vs = v.components

        def fn(oargs, cargs):
            return vs[tuple(oargs[k] for k in o_at), tuple(cargs[k] for k in c_at)]

        return self._table(src_tree, tgt_tree, fn)


# -- the checker --------------------------------------------------------------------


class CoherenceReport(Record):
    passed: bool
    families: dict           # name -> list of failing (instance, tuple)
    instances_checked: dict

    def failing_families(self):
        return sorted(name for name, fails in self.families.items() if fails)


def check_coherence(data: AlgebraData, strict_units: bool = False) -> CoherenceReport:
    data.validate()
    if strict_units:
        data.check_strict_units()
    algebra, memo = FinCatAlgebra(data), {}
    report = CoherenceReport(True, {}, {})
    for name, pairs in family_word_pairs().items():
        failures = []
        checked = 0
        for idx, (wl, wr, start, _end) in enumerate(pairs):
            left = evaluate_word(wl, algebra, memo)
            right = evaluate_word(wr, algebra, memo)
            for key in left.components:
                checked += 1
                if left.components[key] != right.components[key]:
                    failures.append((idx, key))
        report.families[name] = failures
        report.instances_checked[name] = checked
        if failures:
            report.passed = False
    return report


# -- shipped examples ------------------------------------------------------------------


def braided_sign_groupoid(name: str, elements, op, signs, braiding, unit) -> AlgebraData:
    """A group acting on itself through its braiding, with signs as automorphisms.

    The objects are the elements g of the group under ``op``, and the
    morphisms g -> g are the pairs (g, s) for s in ``signs``, a subgroup of
    {1, -1}.  Both tensors are (g, s)(h, t) = (gh, st), F is the identity,
    both associators and p are identities, and tau = psi = (gh, braiding(g, h)):
    a braided groupoid acting centrally on itself, with its braiding as the
    half-braiding.  tau is typed gh -> gh, which is gh -> hg only when g and h
    commute, so a nonabelian group is refused at typing.
    """
    elements = list(elements)
    morphisms = [(g, s) for g in elements for s in signs]
    ends = {m: m[0] for m in morphisms}
    cat = FiniteCategory(name, elements, morphisms, ends, ends,
                         {((g, s), (g, t)): (g, s * t) for g, s in morphisms for t in signs},
                         {g: (g, 1) for g in elements})
    tensor = FunctorTable("m", [cat, cat], cat, {(g, h): op(g, h) for g in elements for h in elements},
                          {((g, s), (h, t)): (op(g, h), s * t) for g, s in morphisms for h, t in morphisms})
    identity = FunctorTable("F", [cat], cat, {(g,): g for g in elements}, {(m,): m for m in morphisms})
    pairs = list(itertools.product(elements, repeat=2))
    braid = {(g, h): (op(g, h), braiding(g, h)) for g, h in pairs}
    assoc = {(g, h, k): (op(op(g, h), k), 1) for g, h, k in itertools.product(elements, repeat=3)}
    tables = {"tau": braid, "alpha_c": assoc, "alpha_o": assoc,
              "p": {(g, h): (op(g, h), 1) for g, h in pairs}, "psi": braid}
    return AlgebraData(cat, cat, tensor, tensor, identity, tables, unit_m=unit, unit_n=unit)


def build_z2_discrete() -> AlgebraData:
    return braided_sign_groupoid("Z2", [0, 1], lambda g, h: (g + h) % 2, (1,), lambda g, h: 1, 0)


def build_z2_graded() -> AlgebraData:
    """The sign groupoid of parities with the Koszul braiding."""
    return braided_sign_groupoid("sign", [0, 1], lambda g, h: (g + h) % 2, (1, -1),
                                 lambda g, h: (-1) ** (g * h), 0)


def build_s3_discrete() -> AlgebraData:
    """Nonabelian discrete example (g after h); validation must reject the braiding's typing."""
    return braided_sign_groupoid("S3", itertools.permutations((1, 2, 3)),
                                 lambda g, h: tuple(g[i - 1] for i in h), (1,), lambda g, h: 1, (1, 2, 3))


# -- JSON ------------------------------------------------------------------------------


def category_to_json(cat: FiniteCategory) -> dict:
    return {
        "name": cat.name,
        "objects": [repr(o) for o in cat.objects],
        "morphisms": [{"id": repr(m), "src": repr(cat.src[m]), "tgt": repr(cat.tgt[m])}
                      for m in cat.morphisms],
        "compose": [[repr(g), repr(f), repr(gf)] for (g, f), gf in cat.compose_table.items()],
        "identities": {repr(o): repr(m) for o, m in cat.identities.items()},
    }


def _table_json(table: dict) -> list:
    """A map from argument tuples to values, as rows [key reprs, value repr] sorted by repr."""
    return [[list(map(repr, key)), repr(val)] for key, val in sorted(table.items(), key=repr)]


def algebra_to_json(data: AlgebraData) -> dict:
    out = {"M": category_to_json(data.m_cat), "N": category_to_json(data.n_cat)}
    for key, ft in (("m_c", data.m_c), ("m_o", data.m_o), ("F", data.f_functor)):
        out[key] = {"objects": _table_json(ft.obj_map), "morphisms": _table_json(ft.mor_map)}
    for name, table in data.tables.items():
        out[TABLE_LABELS[name]] = _table_json(table)
    if data.unit_m is not None:
        out["unit_M"] = repr(data.unit_m)
    if data.unit_n is not None:
        out["unit_N"] = repr(data.unit_n)
    return out


def algebra_from_json(payload: dict) -> AlgebraData:
    import ast

    literals: dict = {}

    def parse(s):
        """Each distinct string is read once; only a string can be read, so only strings are stored."""
        if isinstance(s, str) and s in literals:
            return literals[s]
        try:
            value = literals[s] = ast.literal_eval(s)
        except (SyntaxError, ValueError, MemoryError, RecursionError):
            raise ValueError(f"cannot read {s!r} as a literal value") from None
        return value

    def category(d):
        objects = [parse(o) for o in d["objects"]]
        morphisms = [parse(m["id"]) for m in d["morphisms"]]
        src = {parse(m["id"]): parse(m["src"]) for m in d["morphisms"]}
        tgt = {parse(m["id"]): parse(m["tgt"]) for m in d["morphisms"]}
        compose = {(parse(g), parse(f)): parse(gf) for g, f, gf in d["compose"]}
        if not isinstance(d["identities"], dict):
            raise ValueError(f"identities must be an object, got {type(d['identities']).__name__}")
        identities = {parse(o): parse(m) for o, m in d["identities"].items()}
        return FiniteCategory(d["name"], objects, morphisms, src, tgt, compose, identities)

    mcat = category(payload["M"])
    ncat = category(payload["N"])

    def table(rows):
        return {tuple(parse(x) for x in k): parse(v) for k, v in rows}

    def functor(name, sources, target):
        return FunctorTable(name, sources, target, table(payload[name]["objects"]),
                            table(payload[name]["morphisms"]))

    return AlgebraData(mcat, ncat, functor("m_c", [mcat, mcat], mcat),
                       functor("m_o", [ncat, ncat], ncat), functor("F", [mcat], ncat),
                       {name: table(payload[label]) for name, label in TABLE_LABELS.items()},
                       unit_m=parse(payload["unit_M"]) if "unit_M" in payload else None,
                       unit_n=parse(payload["unit_N"]) if "unit_N" in payload else None)
