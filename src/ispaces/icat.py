"""The category of finite sets and injections, truncated at a top object.

Objects are 0, 1, ..., N standing for the sets {1, ..., n}.  An injection is
stored as its image tuple: alpha maps i to image[i - 1].  Concatenation is
the block sum, and the block shuffles tau interchange the summands.
"""

from dataclasses import dataclass, field, replace
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


def _composed(g, f):
    """g after f for injections known to compose, unchecked: for hot paths whose
    image tuples come from existing injections; every other caller uses
    `compose`, which builds an `Injection`, which checks."""
    return tuple.__new__(Injection, (f.src, g.dst, tuple(g.image[v - 1] for v in f.image)))


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


@dataclass
class CodedCategory:
    """A finite category on dense integer codes.

    objects[j] and morphisms[f] are the labels of codes j and f, each list in
    sorted label order; src[f] and dst[f] are object codes, ident[j] is the
    code of the identity of j, and after[g] maps the code f of each morphism
    into the source of g to the code of g o f.  `coded_category` builds it.
    """

    objects: list
    morphisms: list
    src: list
    dst: list
    ident: list
    after: list


def coded_category(objects, morphisms, ends, ident, compose):
    """The `CodedCategory` on sorted lists of object and morphism labels, for a
    category by construction: ends(f) is the (source, target) of f, ident(o)
    the identity of o and compose(g, f) is g o f, all as labels.  Nothing is
    checked; `FinCategory.coded` validates hand-built tables first."""
    obj = {o: j for j, o in enumerate(objects)}
    code = {f: i for i, f in enumerate(morphisms)}
    src, dst = ([obj[ends(f)[i]] for f in morphisms] for i in (0, 1))
    into = [[] for _ in objects]
    for i, j in enumerate(dst):
        into[j].append((i, morphisms[i]))
    return CodedCategory(objects, morphisms, src, dst, [code[ident(o)] for o in objects],
                         [{i: code[compose(g, f)] for i, f in into[j]}
                          for g, j in zip(morphisms, src)])


@dataclass
class FinCategory:
    """Finite category as explicit tables, checked on the way to its codes.

    comp maps (g, f) to g o f for every composable pair; ident maps each
    object to its identity morphism.
    """

    objects: list
    morphisms: list
    src: dict
    dst: dict
    comp: dict
    ident: dict

    def coded(self):
        """The `CodedCategory` of these tables, once `validate` finds no defect;
        otherwise a ValueError names every defect it found."""
        bad = self.validate()
        if bad:
            raise ValueError("composition table is not a category: " + "; ".join(bad))
        return coded_category(sorted(self.objects), sorted(self.morphisms),
                              lambda f: (self.src[f], self.dst[f]), self.ident.get,
                              lambda g, f: self.comp[(g, f)])

    def validate(self):
        """Identity, endpoint, unit and associativity diagnostics.

        Morphisms are bucketed by target, so the pair and triple loops visit
        composable pairs and triples only, in the order of `morphisms`.
        """
        bad = []
        comp, ident, src, dst = self.comp, self.ident, self.src, self.dst
        for obj in self.objects:
            e = ident.get(obj)
            if e is None or src.get(e) != obj or dst.get(e) != obj:
                bad.append(f"bad identity at object {obj}")
        into = {}
        for f in self.morphisms:
            if src[f] not in self.objects or dst[f] not in self.objects:
                bad.append(f"morphism {f} has endpoints outside the object set")
            into.setdefault(dst[f], []).append(f)
        for g in self.morphisms:
            for f in into.get(src[g], ()):
                gf = comp.get((g, f))
                if gf is None:
                    bad.append(f"missing composite of {g} after {f}")
                    continue
                if src[gf] != src[f] or dst[gf] != dst[g]:
                    bad.append(f"composite of {g} after {f} has wrong endpoints")
        if bad:
            return bad
        for f in self.morphisms:
            if comp[(f, ident[src[f]])] != f:
                bad.append(f"right unit fails at {f}")
            if comp[(ident[dst[f]], f)] != f:
                bad.append(f"left unit fails at {f}")
        for h in self.morphisms:
            for g in into.get(src[h], ()):
                hg = comp[(h, g)]
                for f in into.get(src[g], ()):
                    if comp[(hg, f)] != comp[(h, comp[(g, f)])]:
                        bad.append(f"associativity fails at ({h}, {g}, {f})")
        return bad


class CodedI(CodedCategory):
    """TruncatedI(N) as a `CodedCategory`, composed as image tuples (`_composed`).

    arrow is `morphisms`, the injection of each code, and code its inverse;
    plus[(f, g)] is the code of the block sum f + g (`concat`) wherever its
    target is at most N.
    """

    def __init__(self, N):
        arrow = list(TruncatedI(N).arrows())
        super().__init__(**vars(coded_category(list(range(N + 1)), arrow,
                                               lambda f: (f.src, f.dst), identity, _composed)))
        self.code, self.arrow = {f: c for c, f in enumerate(arrow)}, arrow
        self.plus = {(self.code[f], self.code[g]): self.code[concat(f, g)]
                     for f in arrow for g in arrow if f.dst + g.dst <= N}


@lru_cache(maxsize=None)
def coded_injections(N):
    """The one coding of TruncatedI(N), built once per N; codes depend on N alone."""
    return CodedI(N)


def comma_under(n, N):
    """The comma category of objects under n inside the truncation at N, coded.

    Objects are injections a: n -> m with m <= N; a morphism (a, b, g) from a
    to b is an injection g with g o a = b, so each g out of the target of a
    is one, and (b, c, h) after (a, b, g) is (a, c, h o g).  It is built on
    the codes of `coded_injections(N)`, whose order is that of the labels.
    """
    I = coded_injections(N)
    objects = [a for a, m in enumerate(I.src) if m == n]
    morphisms = sorted((a, I.after[g][a], g) for a in objects
                       for g, m in enumerate(I.src) if m == I.dst[a])
    C = coded_category(objects, morphisms, lambda f: f[:2], lambda a: (a, a, I.ident[I.dst[a]]),
                       lambda h, g: (g[0], h[1], I.after[h[2]][g[2]]))
    return replace(C, objects=[I.arrow[a] for a in objects],
                   morphisms=[tuple(I.arrow[c] for c in f) for f in morphisms])
