"""Small shared helpers: records built from closures, and union-find on integer codes."""

from operator import attrgetter

_MISSING = object()
_Field = type("_Field", (tuple,), {})  # (no default, default_factory, compare), from `field`


def field(*, default_factory=None, compare=True):
    """A record field with a `default_factory`, or compare=False (not in `==`)."""
    return _Field((_MISSING, default_factory, compare))


def record(cls):
    """Make `cls` a record of its annotated fields, like `@dataclass` but from closures that
    compile no code: repr shows every field, `==` compares records of one class on the fields
    not marked compare=False, and none hashes.  A class built per operation keeps its own
    `__init__` of plain stores, which a closure could not match for speed."""
    spec = {k: vars(cls).get(k, _MISSING) for k in vars(cls).get("__annotations__", ())}
    for k in [k for k, v in spec.items() if type(v) is _Field]:
        delattr(cls, k)  # a class attribute of a mutable type would slow every read of k
    spec = {k: v if type(v) is _Field else (v, None, True) for k, v in spec.items()}
    names, key = tuple(spec), attrgetter(*[k for k, (_, _, cmp) in spec.items() if cmp])

    def __init__(self, *args, **kw):
        args += tuple(kw.pop(k) if k in kw else f() if f else v
                      for k, (v, f, _) in list(spec.items())[len(args):])
        if kw or len(args) > len(names) or any(v is _MISSING for v in args):
            raise TypeError(f"{cls.__name__}{names}: an argument missing, extra, twice or unknown")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    cls.__init__ = vars(cls).get("__init__", __init__)
    cls.__eq__, cls.__repr__, cls.__hash__ = __eq__, __repr__, None
    return cls


def replace(obj, **changes):
    """A record of obj's class with the fields in `changes` changed."""
    return type(obj)(**{**{k: getattr(obj, k) for k in type(obj).__annotations__}, **changes})


def least_roots(size, pairs):
    """Union-find on the codes 0..size - 1: the list whose entry i is the
    least code of the class of i in the equivalence that `pairs` generate.

    A union keeps the smaller root, so every parent pointer runs downwards
    and one pass upwards resolves each code to its root (path halving;
    Tarjan, J. ACM 22, 1975).
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent
