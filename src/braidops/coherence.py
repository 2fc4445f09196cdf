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
            i = self.identities.get(o)
            if i is None or self.src[i] != o or self.tgt[i] != o:
                raise CoherenceTypeError(f"{self.name}: bad identity at {o!r}")
        for g in self.morphisms:
            for f in self.morphisms:
                if self.tgt[f] == self.src[g]:
                    if (g, f) not in self.compose_table:
                        raise CoherenceTypeError(f"{self.name}: composition not total at ({g!r}, {f!r})")
                    gf = self.compose_table[(g, f)]
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
            out = self.on_morphisms(tuple(mors))
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


class AlgebraData:
    """Candidate structure: categories, functors, and the five isomorphisms.

    ``unit_m``/``unit_n`` are optional unit objects; when both are present the
    strict-unit check verifies that they are strict units for the tensors and
    that the comparison functor preserves them.
    """

    def __init__(self, m_cat: FiniteCategory, n_cat: FiniteCategory,
                 m_c: FunctorTable, m_o: FunctorTable, f_functor: FunctorTable,
                 a_c: dict, a_o: dict, t: dict, p_iso: dict, psi: dict,
                 unit_m=None, unit_n=None):
        self.m_cat = m_cat
        self.n_cat = n_cat
        self.m_c = m_c
        self.m_o = m_o
        self.f_functor = f_functor
        self.a_c = dict(a_c)
        self.a_o = dict(a_o)
        self.t = dict(t)
        self.p_iso = dict(p_iso)
        self.psi = dict(psi)
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

    def tables(self) -> dict:
        """Generator name -> (label in messages, component table).

        A component is keyed by the closed slot objects of the generator's
        shape, then its open slot objects.
        """
        return {"tau": ("t", self.t), "alpha_c": ("a_c", self.a_c), "alpha_o": ("a_o", self.a_o),
                "p": ("p", self.p_iso), "psi": ("psi", self.psi)}

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
            label, table = self.tables()[name]
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


class NatTransTable:
    """Natural transformation between tree functors, as a component table."""

    def __init__(self, src_tree: Tree, tgt_tree: Tree, components: dict):
        self.src_tree = src_tree
        self.tgt_tree = tgt_tree
        self.components = components  # (oargs tuple, cargs tuple) -> morphism

    def __eq__(self, other):
        return (isinstance(other, NatTransTable) and self.src_tree == other.src_tree
                and self.tgt_tree == other.tgt_tree and self.components == other.components)

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
        _, table = self.data.tables()[name]
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


def _group_category(name: str, elements) -> FiniteCategory:
    """Discrete category on the elements of a finite group (identities only)."""
    objects = list(elements)
    morphisms = [("id", o) for o in objects]
    src = {m: m[1] for m in morphisms}
    tgt = dict(src)
    compose = {((("id", o)), ("id", o)): ("id", o) for o in objects}
    identities = {o: ("id", o) for o in objects}
    return FiniteCategory(name, objects, morphisms, src, tgt, compose, identities)


def _discrete_group_algebra(name: str, elements, op) -> AlgebraData:
    cat = _group_category(name, elements)
    prod_obj = {(a, b): op(a, b) for a in elements for b in elements}
    prod_mor = {(("id", a), ("id", b)): ("id", op(a, b)) for a in elements for b in elements}
    tensor = FunctorTable("m", [cat, cat], cat, prod_obj, prod_mor)
    ident = FunctorTable("F", [cat], cat, {(a,): a for a in elements},
                         {(("id", a),): ("id", a) for a in elements})
    triples = list(itertools.product(elements, repeat=3))
    pairs = list(itertools.product(elements, repeat=2))
    a_table = {(x, y, z): ("id", op(op(x, y), z)) for x, y, z in triples}
    # the braiding wants a morphism xy -> yx, which a discrete category only
    # has when the group is abelian
    t_table = {(x, y): ("id", op(x, y)) for x, y in pairs}
    unit = next(e for e in elements if all(op(e, b) == b and op(b, e) == b for b in elements))
    return AlgebraData(cat, cat, tensor, tensor, ident,
                       a_table, a_table, t_table, t_table,
                       {(x, y): ("id", op(x, y)) for x, y in pairs},
                       unit_m=unit, unit_n=unit)


def build_z2_discrete() -> AlgebraData:
    return _discrete_group_algebra("Z2", [0, 1], lambda a, b: (a + b) % 2)


def build_s3_discrete() -> AlgebraData:
    """Nonabelian discrete example; validation must reject the braiding's typing."""
    elements = list(itertools.permutations((1, 2, 3)))

    def op(a, b):  # a after b
        return tuple(a[b[i] - 1] for i in range(3))

    return _discrete_group_algebra("S3", elements, op)


def build_z2_graded() -> AlgebraData:
    """Sign groupoid: objects are parities, morphisms are signs, braiding is Koszul."""
    objects = [0, 1]
    morphisms = [(a, s) for a in objects for s in (1, -1)]
    src = {m: m[0] for m in morphisms}
    tgt = dict(src)
    compose = {}
    for a in objects:
        for s1 in (1, -1):
            for s2 in (1, -1):
                compose[((a, s1), (a, s2))] = (a, s1 * s2)
    identities = {a: (a, 1) for a in objects}
    cat = FiniteCategory("sign", objects, morphisms, src, tgt, compose, identities)

    prod_obj = {(a, b): (a + b) % 2 for a in objects for b in objects}
    prod_mor = {((a, s1), (b, s2)): ((a + b) % 2, s1 * s2)
                for a in objects for b in objects for s1 in (1, -1) for s2 in (1, -1)}
    tensor = FunctorTable("m", [cat, cat], cat, prod_obj, prod_mor)
    ident = FunctorTable("F", [cat], cat, {(a,): a for a in objects},
                         {((a, s),): (a, s) for a in objects for s in (1, -1)})
    triples = list(itertools.product(objects, repeat=3))
    pairs = list(itertools.product(objects, repeat=2))
    a_table = {(x, y, z): ((x + y + z) % 2, 1) for x, y, z in triples}
    t_table = {(x, y): ((x + y) % 2, (-1) ** (x * y)) for x, y in pairs}
    p_table = {(x, y): ((x + y) % 2, 1) for x, y in pairs}
    psi_table = {(x, y): ((x + y) % 2, (-1) ** (x * y)) for x, y in pairs}
    return AlgebraData(cat, cat, tensor, tensor, ident,
                       a_table, a_table, t_table, p_table, psi_table,
                       unit_m=0, unit_n=0)


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


def algebra_to_json(data: AlgebraData) -> dict:
    def table_json(table):
        return [[list(map(repr, key)), repr(val)] for key, val in sorted(table.items(), key=repr)]

    def functor_json(ft: FunctorTable):
        return {"objects": [[list(map(repr, k)), repr(v)] for k, v in sorted(ft.obj_map.items(), key=repr)],
                "morphisms": [[list(map(repr, k)), repr(v)] for k, v in sorted(ft.mor_map.items(), key=repr)]}

    out = {
        "M": category_to_json(data.m_cat),
        "N": category_to_json(data.n_cat),
        "m_c": functor_json(data.m_c),
        "m_o": functor_json(data.m_o),
        "F": functor_json(data.f_functor),
        "a_c": table_json(data.a_c),
        "a_o": table_json(data.a_o),
        "t": table_json(data.t),
        "p": table_json(data.p_iso),
        "psi": table_json(data.psi),
    }
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

    def functor(name, d, sources, target):
        obj_map = {tuple(parse(x) for x in k): parse(v) for k, v in d["objects"]}
        mor_map = {tuple(parse(x) for x in k): parse(v) for k, v in d["morphisms"]}
        return FunctorTable(name, sources, target, obj_map, mor_map)

    def table(rows):
        return {tuple(parse(x) for x in k): parse(v) for k, v in rows}

    return AlgebraData(mcat, ncat,
                       functor("m_c", payload["m_c"], [mcat, mcat], mcat),
                       functor("m_o", payload["m_o"], [ncat, ncat], ncat),
                       functor("F", payload["F"], [mcat], ncat),
                       table(payload["a_c"]), table(payload["a_o"]),
                       table(payload["t"]), table(payload["p"]), table(payload["psi"]),
                       unit_m=parse(payload["unit_M"]) if "unit_M" in payload else None,
                       unit_n=parse(payload["unit_N"]) if "unit_N" in payload else None)
