"""Small shared helpers: union-find on integer codes."""


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
