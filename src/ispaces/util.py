"""Small shared helpers: union-find and deterministic orderings."""


class DisjointSet:
    """Union-find over arbitrary hashable elements.

    Representatives are not canonical until `canonicalize` is called, which
    re-points every class at its smallest member.
    """

    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out

    def canonicalize(self):
        """Return a dict element -> smallest member of its class."""
        rep = {}
        for members in self.classes().values():
            members.sort()
            for m in members:
                rep[m] = members[0]
        return rep
