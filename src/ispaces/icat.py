"""The category of finite sets and injections, truncated at a top object.

Objects are 0, 1, ..., N standing for the sets {1, ..., n}.  An injection is
stored as its image tuple: alpha maps i to image[i - 1].  Concatenation is
the block sum, and the block shuffles tau interchange the summands.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations


class Injection(tuple):
    """Injection {1..src} -> {1..dst}; entry i - 1 holds the image of i."""

    __slots__ = ()

    def __new__(cls, src, dst, image):
        image = tuple(image)
        if len(image) != src or len(set(image)) != src:
            raise ValueError(f"not an injection: {image}")
        if any(not 1 <= v <= dst for v in image):
            raise ValueError(f"image out of range for dst={dst}: {image}")
        self = super().__new__(cls, (src, dst, image))
        return self

    @property
    def src(self):
        return self[0]

    @property
    def dst(self):
        return self[1]

    @property
    def image(self):
        return self[2]

    def __call__(self, i):
        return self.image[i - 1]

    def __repr__(self):
        return f"Injection({self.src}->{self.dst}, {self.image})"


def unchecked(src, dst, image):
    """The Injection with an image tuple already known to be one, unchecked.

    For hot paths whose image tuples come from existing injections; every
    other caller builds an `Injection`, which checks.
    """
    return tuple.__new__(Injection, (src, dst, image))


def identity(n):
    return Injection(n, n, range(1, n + 1))


def subset_inclusion(m, n):
    """The standard inclusion {1..m} -> {1..n}."""
    return Injection(m, n, range(1, m + 1))


def compose(g, f):
    """g after f."""
    if f.dst != g.src:
        raise ValueError("composition mismatch")
    return Injection(f.src, g.dst, (g(f(i)) for i in range(1, f.src + 1)))


def concat(f, g):
    """Block sum f + g: acts as f on the first block, shifted g on the second."""
    image = f.image + tuple(v + f.dst for v in g.image)
    return Injection(f.src + g.src, f.dst + g.dst, image)


def shuffle(m, n):
    """The block transposition {1..m+n} -> {1..n+m} swapping the summands."""
    image = tuple(range(n + 1, n + m + 1)) + tuple(range(1, n + 1))
    return Injection(m + n, n + m, image)


def enumerate_injections(m, n):
    """All injections m -> n in lexicographic image order."""
    if m > n:
        return []
    return sorted(Injection(m, n, p) for p in permutations(range(1, n + 1), m))


@dataclass(frozen=True)
class TruncatedI:
    """The full subcategory on objects 0..N, with cached morphism tables."""

    N: int
    _homs: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def objects(self):
        return range(self.N + 1)

    def hom(self, m, n):
        key = (m, n)
        if key not in self._homs:
            self._homs[key] = enumerate_injections(m, n)
        return self._homs[key]

    def arrows(self):
        for m in self.objects:
            for n in self.objects:
                yield from self.hom(m, n)

    def as_fincategory(self):
        morphisms = list(self.arrows())
        comp = {}
        for g in morphisms:
            for f in morphisms:
                if f.dst == g.src:
                    comp[(g, f)] = compose(g, f)
        return FinCategory(
            objects=list(self.objects),
            morphisms=morphisms,
            src={f: f.src for f in morphisms},
            dst={f: f.dst for f in morphisms},
            comp=comp,
            ident={n: identity(n) for n in self.objects},
        )


@dataclass
class FinCategory:
    """Finite category as explicit tables.

    comp maps (g, f) to g o f for every composable pair; ident maps each
    object to its identity morphism.
    """

    objects: list
    morphisms: list
    src: dict
    dst: dict
    comp: dict
    ident: dict
    codes: tuple = field(default=None, init=False, compare=False, repr=False)  # set by validate

    def coded(self):
        """(code, src, dst, ident, after): the tables on dense integer codes.

        Object j is sorted(objects)[j] and morphism i is sorted(morphisms)[i];
        code maps each morphism to its code, in code order, and after[g] maps
        the code f of each morphism composable with g to the code of g o f.
        """
        obj = {o: j for j, o in enumerate(sorted(self.objects))}
        code = {f: i for i, f in enumerate(sorted(self.morphisms))}
        after = [{} for _ in code]
        for (g, f), gf in self.comp.items():
            after[code[g]][code[f]] = code[gf]
        return (code, [obj[self.src[f]] for f in code], [obj[self.dst[f]] for f in code],
                [code[self.ident[o]] for o in obj], after)

    def validate(self):
        """Identity, endpoint, unit and associativity diagnostics.

        Morphisms are bucketed by target, so the pair and triple loops visit
        composable pairs and triples only, in the order of `morphisms`.  The
        unit and associativity loops compare codes (`coded`, which sorts), and
        the tables are kept in `codes`, so a caller that validates codes once.
        """
        bad = []
        for obj in self.objects:
            e = self.ident.get(obj)
            if e is None or self.src.get(e) != obj or self.dst.get(e) != obj:
                bad.append(f"bad identity at object {obj}")
        into = {}
        for f in self.morphisms:
            if self.src[f] not in self.objects or self.dst[f] not in self.objects:
                bad.append(f"morphism {f} has endpoints outside the object set")
            into.setdefault(self.dst[f], []).append(f)
        for g in self.morphisms:
            for f in into.get(self.src[g], ()):
                gf = self.comp.get((g, f))
                if gf is None:
                    bad.append(f"missing composite of {g} after {f}")
                    continue
                if self.src[gf] != self.src[f] or self.dst[gf] != self.dst[g]:
                    bad.append(f"composite of {g} after {f} has wrong endpoints")
        if bad:
            return bad
        code, src, dst, ident, after = self.codes = self.coded()
        name = list(code)
        order = [code[f] for f in self.morphisms]
        into = [[f for f in order if dst[f] == j] for j in range(len(ident))]
        for f in order:
            if after[f][ident[src[f]]] != f:
                bad.append(f"right unit fails at {name[f]}")
            if after[ident[dst[f]]][f] != f:
                bad.append(f"left unit fails at {name[f]}")
        for h in order:
            h_after = after[h]
            for g in into[src[h]]:
                hg_after, g_after = after[h_after[g]], after[g]
                for f in into[src[g]]:
                    if hg_after[f] != h_after[g_after[f]]:
                        bad.append(f"associativity fails at ({name[h]}, {name[g]}, {name[f]})")
        return bad


class CodedI:
    """TruncatedI(N) on the integer codes of `FinCategory.coded`.

    arrow[c] is the injection of code c and code its inverse; src, dst,
    ident and after are the tables of `coded`, and plus[(f, g)] is the code
    of the block sum f + g (`concat`) wherever its target is at most N.
    """

    def __init__(self, N):
        code, self.src, self.dst, self.ident, self.after = TruncatedI(N).as_fincategory().coded()
        self.code, self.arrow = code, list(code)
        self.plus = {(f, g): code[concat(self.arrow[f], self.arrow[g])]
                     for f in code.values() for g in code.values()
                     if self.dst[f] + self.dst[g] <= N}


@lru_cache(maxsize=None)
def coded_injections(N):
    """The one coding of TruncatedI(N), built once per N; codes depend on N alone."""
    return CodedI(N)


def comma_under(n, N):
    """The comma category of objects under n inside the truncation at N.

    Objects are injections n -> m with m <= N; a morphism from alpha to beta
    is an injection g with g o alpha = beta, so each g out of the target of
    alpha is one, to beta = g o alpha.  Morphisms are listed in sorted order
    and composed as image tuples (`unchecked`), each only with the morphisms
    out of its target.
    """
    cat = TruncatedI(N)
    objects = [f for m in cat.objects for f in cat.hom(n, m)]
    out_of = {}
    for a in objects:
        out_of[a] = [(a, b, g) for b, g in sorted(
            (unchecked(n, m, tuple(g.image[v - 1] for v in a.image)), g)
            for m in range(a.dst, N + 1) for g in cat.hom(a.dst, m))]
    morphisms = [key for a in objects for key in out_of[a]]
    src = {key: key[0] for key in morphisms}
    dst = {key: key[1] for key in morphisms}
    comp = {}
    for m1 in morphisms:
        a, b, g1 = m1
        for m2 in out_of[b]:
            _, c, g2 = m2
            image = tuple(g2.image[v - 1] for v in g1.image)
            comp[(m2, m1)] = (a, c, unchecked(a.dst, c.dst, image))
    ident = {a: (a, a, identity(a.dst)) for a in objects}
    return FinCategory(objects, morphisms, src, dst, comp, ident)
