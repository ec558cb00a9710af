"""Every function in the library is used somewhere, and so is every parameter.

A top-level function or a method defined in `src/ispaces/` must be
referenced in `src/`, `tests/` or `perfbench/` outside its own definition:
by name or import for a function, by attribute for either, or as a string
where a name is looked up by it (the name argument of `getattr` or
`hasattr`, or an entry of the `FUNCTIONS` table in `perfbench/spans.py`,
which wraps functions by name).  Dunder methods and the console entry
point `cli.main` are exempt.  A public one must be referenced from `src/` or
`perfbench/`, not from `tests/` alone, unless `TEST_ONLY_ALLOWED` says why,
and every name that `TEST_ONLY_ALLOWED` lists must still be reached from
tests alone.  A method is matched by its name alone, so a method that
nothing calls passes while another class defines a called method of the same
name; `test_shared_method_names_are_listed` therefore fixes, for each public
method name that two or more classes share, the exact set of classes that
define it.  A class that adds a method of a shared name fails there until
its caller in `src/` is looked at and the class is listed.

Every parameter of every function in `src/ispaces/`, nested ones and lambdas
included, must be read in that function's body, except `self` and the
parameters listed in `UNREAD_ALLOWED` with their reasons.  Every local
that a function binds by a single-name assignment (names bound by tuple
unpacking are exempt), and every name a module imports, must be read in the
scope it binds, where no function, lambda or comprehension around the read
binds the name again (`_scope_walk`).  Every field of a record class in
`src/ispaces/` must be read (see `test_every_dataclass_field_is_read`), and so
must every module-level constant, matched by scope in the same way (see
`test_every_constant_is_read`).  The checks use the standard `ast` module
only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
EXEMPT = {("cli.py", "main")}

# (function name, parameter) -> why the parameter stays although it is unread.
# Lambdas are exempt as a whole: each one is an argument to a call, whose
# callee fixes its signature.
_TABLE_CALLBACK = "normalize_table calls faces_fn as (k, raw) and deg_fn as (k, raw, i)"
_RAW_MAP = "map_from_tables calls raw_fn(k, raw)"
UNREAD_ALLOWED = {
    ("faces_fn", "k"): _TABLE_CALLBACK,
    ("deg_fn", "k"): _TABLE_CALLBACK,
    ("push", "k"): _RAW_MAP,
    ("push", "d"): _RAW_MAP,
    ("to_left", "k"): _RAW_MAP,
    ("mul_point", "n"): "discrete_monoid multiplies points as mul_point(m, n, s, t)",
    ("nondegenerate", "ref_of"):
        "normalize_table calls level.nondegenerate(ref_of) on a top given by position; "
        "a bar top finds its degenerate cells from chain masks, with no ref",
    ("scenario_grothendieck", "cfg"): "run_all calls every registry scenario with its RunConfig",
    ("cmd_scenario", "args"): "main calls every subcommand as fn(args, cfg); --name is in cfg",
    ("__setattr__", "value"): "Python calls __setattr__(self, name, value); SSet is frozen "
                              "and refuses every assignment, whatever the value",
}

# (class name, field) -> why the record field stays although it is unread.
UNREAD_FIELDS_ALLOWED = {
    ("EckmannHiltonReport", "products"):
        "the returned table of row and column products is the evidence behind the verdict",
    ("HomologyReport", "skeleton_dim"):
        "the returned report states the skeleton its groups were computed from",
}


# Public function or method name -> why it stays in src/ although only tests use it.
TEST_ONLY_ALLOWED = {
    "coded": "FinCategory stays in src/ while perfbench/spans.py wraps FinCategory.validate",
}


# Public method name shared by two or more classes in src/ -> (the classes that
# define it, why it is shared and where src/ calls each class's method).
SHARED_METHOD_NAMES = {
    "validate": ({"ISpaceT", "SMap", "FinCategory", "RunConfig"},
                 "each checked structure returns its own list of defects: the CLI, the "
                 "scenarios and validate_monoid call ISpaceT's, ISpaceT.validate calls "
                 "SMap's, FinCategory.coded calls its own, cli.main, run_scenario and run_all "
                 "call RunConfig's"),
    "act": ({"ISpaceT", "GammaSpaceT"},
            "a functor's action on a morphism: of I on an ISpaceT, of based maps on a "
            "GammaSpaceT"),
    "level": ({"ISpaceT", "CIMonoidT"}, "CIMonoidT.level reads the level of its carrier ISpaceT"),
    "to_json": ({"CommMonoidPres", "ScenarioReport"},
                "each serialised result (a presentation, a scenario report) writes its own JSON"),
    "nondegenerate": ({"Chains", "_BarTop"},
                      "a top given by position (a nerve's `Chains`, a bar's `_BarTop`) lists "
                      "its own nondegenerate cells for normalize_table"),
    "degenerate_ref": ({"Chains", "_BarTop"},
                       "a top given by position (a nerve's `Chains`, a bar's `_BarTop`) gives "
                       "the ref of its own degenerate cells to `TopRefs`"),
}


def _definitions():
    for path in sorted((ROOT / "src" / "ispaces").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path, None, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield path, node.name, sub


def _references(tops=("src", "tests", "perfbench")):
    """(path, line, name, is_attribute_or_string) of every possible use in `tops`.

    A string counts as a use only where a name is looked up by it: as the
    name argument of `getattr` or `hasattr`, or in the `FUNCTIONS` table of
    `perfbench/spans.py`, which names the functions it wraps.  Other strings
    there, such as the unit "s", name nothing.
    """
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    yield path, node.lineno, node.id, False
                elif isinstance(node, ast.alias):
                    yield path, node.lineno, node.name, False
                elif isinstance(node, ast.Attribute):
                    yield path, node.lineno, node.attr, True
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                        in ("getattr", "hasattr") and len(node.args) > 1 \
                        and isinstance(node.args[1], ast.Constant):
                    yield path, node.lineno, node.args[1].value, True
                elif path == SPANS and isinstance(node, ast.Assign) \
                        and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]:
                    for c in ast.walk(node.value):
                        if isinstance(c, ast.Constant) and isinstance(c.value, str):
                            yield path, c.lineno, c.value, True


def _loaded(node):
    """Names read anywhere inside an ast node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unreferenced(tops):
    """(name, "file:line name") of each function or method of `src/ispaces/`,
    dunders and EXEMPT aside, that nothing in `tops` references outside it."""
    uses = {}
    for path, line, name, loose in _references(tops):
        uses.setdefault(name, []).append((path, line, loose))
    for path, cls, node in _definitions():
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or (path.name, name) in EXEMPT:
            continue
        outside = [
            (p, line) for p, line, loose in uses.get(name, ())
            if (loose or cls is None)
            and not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            yield name, f"{path.name}:{node.lineno} {cls + '.' if cls else ''}{name}"


def test_every_function_is_referenced():
    unused = [where for _, where in _unreferenced(("src", "tests", "perfbench"))]
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def test_no_public_function_is_test_only():
    """A public function or method that only tests reference belongs in
    `tests/oracles.py`, unless TEST_ONLY_ALLOWED says why it stays; an entry
    of TEST_ONLY_ALLOWED whose name the program now reaches, or that no
    longer exists, is stale."""
    public = {name: where for name, where in _unreferenced(("src", "perfbench"))
              if not name.startswith("_")}
    test_only = [where for name, where in public.items() if name not in TEST_ONLY_ALLOWED]
    assert not test_only, "referenced from tests alone: " + ", ".join(test_only)
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(public))
    assert not stale, "listed as test-only but reached from src/ or perfbench/: " + ", ".join(stale)


def test_shared_method_names_are_listed():
    """The public method names that two or more classes share, and the
    classes that define each, are exactly those in SHARED_METHOD_NAMES:
    `test_every_function_is_referenced` cannot tell their methods apart.  A
    new shared name, or a new class defining a listed one, fails here until
    it is looked at."""
    owners = {}
    for path, cls, node in _definitions():
        if cls is not None and not node.name.startswith("_"):
            owners.setdefault(node.name, set()).add(cls)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert shared == {name: classes for name, (classes, _) in SHARED_METHOD_NAMES.items()}, shared


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "ispaces").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            loaded = _loaded(node)
            for p in params:
                if p.arg != "self" and p.arg not in loaded \
                        and (node.name, p.arg) not in UNREAD_ALLOWED:
                    unread.append(f"{path.name}:{node.lineno} {node.name}({p.arg})")
    assert not unread, "parameters never read: " + ", ".join(unread)


_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
           ast.GeneratorExp)


def _imported(node):
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _bound(scope):
    """Names that a function, lambda or comprehension binds: its parameters or
    comprehension targets, and the names its own body stores or imports (a
    nested scope's body is its own)."""
    if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        a = scope.args
        names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        names, stack = set(), [g.target for g in scope.generators]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(node))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _scope_walk(tree):
    """(imports, assigns, reads): (scope, name, line) of each import and of each
    single-name assignment, and (scope, name) of each name read.  The scope of an
    import or an assignment is the innermost function, lambda or comprehension
    around it, or None for the module; that of a read is the innermost one around
    it that binds the name, or None."""
    imports, assigns, reads = [], [], set()

    def visit(node, chain):
        scope = chain[-1][0] if chain else None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((next((s for s, b in reversed(chain) if node.id in b), None), node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.extend((scope, name, node.lineno) for name in _imported(node))
        elif isinstance(node, ast.Assign):
            assigns.extend((scope, t.id, node.lineno) for t in node.targets
                           if isinstance(t, ast.Name))
        inner = chain + [(node, _bound(node))] if isinstance(node, _SCOPES) else chain
        body = getattr(node, "body", None) if isinstance(node, _SCOPES) else None
        body = body if isinstance(body, list) else [body]
        for child in ast.iter_child_nodes(node):
            # decorators, defaults and annotations are read in the enclosing scope
            outer = isinstance(node, (ast.FunctionDef, ast.Lambda)) and child not in body
            visit(child, chain if outer else inner)

    visit(tree, [])
    return imports, assigns, reads


def _unread_imports(tree):
    """(name, line) of each import that no read in its own scope matches."""
    imports, _, reads = _scope_walk(tree)
    return [(name, line) for scope, name, line in imports if (scope, name) not in reads]


def _unread_locals(tree):
    """(function, name, line) of each single-name assignment in a function that
    no read in that function's scope matches."""
    _, assigns, reads = _scope_walk(tree)
    return [(scope.name, name, line) for scope, name, line in assigns
            if scope is not None and (scope, name) not in reads]


def test_every_local_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "ispaces").glob("*.py")):
        tree = ast.parse(path.read_text())
        unread += [f"{path.name}:{line} import {name}" for name, line in _unread_imports(tree)]
        unread += [f"{path.name}:{line} {fn}: {name}" for fn, name, line in _unread_locals(tree)]
    assert not unread, "bound but never read: " + ", ".join(unread)


def test_an_import_is_matched_by_scope():
    # a function that binds and reads its own local of an imported name reads
    # no import, and a nested function that binds no such name reads it
    shadowed = "from itertools import chain\n\ndef f(xs):\n    chain = list(xs)\n    return chain\n"
    nested = ("from itertools import chain\n\n"
              "def f(xs):\n    def g():\n        return chain(xs)\n    return g\n")
    assert _unread_imports(ast.parse(shadowed)) == [("chain", 1)]
    assert _unread_imports(ast.parse(nested)) == []


def test_a_local_is_matched_by_scope():
    # a nested function's parameter of the same name reads no local of the
    # function around it, and a nested function that binds no such name reads it
    shadowed = ("def f(xs):\n    n = len(xs)\n\n"
                "    def g(n):\n        return n\n    return g\n")
    nested = "def f(xs):\n    n = len(xs)\n    return lambda: n\n"
    assert _unread_locals(ast.parse(shadowed)) == [("f", "n", 2)]
    assert _unread_locals(ast.parse(nested)) == []


def _callee(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls():
    """(callee name, positional count or None, keyword names) of every call.

    A call through a local alias `fn = f` or `fn = f if c else g` counts as a
    call of each function the alias may hold.
    """
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    v = node.value
                    held = [v.body, v.orelse] if isinstance(v, ast.IfExp) else [v]
                    names = [_callee(h) for h in held]
                    if all(names):
                        aliases.setdefault(node.targets[0].id, []).extend(names)
            for node in ast.walk(tree):
                name = _callee(node.func) if isinstance(node, ast.Call) else None
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                kwargs = {k.arg for k in node.keywords}
                for callee in [name] + aliases.get(name, []):
                    yield callee, None if starred else len(node.args), kwargs


def test_every_optional_parameter_is_set():
    """A defaulted parameter of a top-level function or method is set by
    some call of that name, by keyword or by position; otherwise it is a
    constant.  A call with *args sets every positional parameter, one with
    **kwargs every keyword.  Nested functions and `cli.main` are exempt."""
    calls = {}
    for name, npos, kwargs in _calls():
        calls.setdefault(name, []).append((npos, kwargs))
    unset = []
    for path, cls, node in _definitions():
        if (path.name, node.name) in EXEMPT:
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        if cls is not None and positional and positional[0].arg == "self":
            positional = positional[1:]
        defaulted = [(i, p.arg) for i, p in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for i, arg in defaulted:
            if not any(None in kwargs or arg in kwargs or npos is None
                       or (i is not None and npos > i)
                       for npos, kwargs in calls.get(node.name, ())):
                unset.append(f"{path.name}:{node.lineno} {cls + '.' if cls else ''}{node.name}({arg})")
    assert not unset, "optional parameters never set: " + ", ".join(unset)


def _is_record(node):
    """Whether a class is decorated `@record` (`util.record`)."""
    return any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)


RECORD_CLASSES = 22  # cmon 5, gamma 4, icat 2, ispace 4, scenarios 2, simplicial 5


def test_every_dataclass_field_is_read():
    """Every field of a record class (`util.record`) in `src/ispaces/` is read
    somewhere, and there are RECORD_CLASSES of them, so that a renamed
    decorator cannot leave this test checking nothing.

    An attribute read `v.f` in `src/`, `tests/` or `perfbench/` reaches the
    field f of every record class, except that `self.f` inside a class reaches
    that class's f only, and so does `v.f` when every assignment of a call of
    a class to the name v calls the same class (`cfg = RunConfig(...)`).
    `getattr(v, "f")` and `hasattr(v, "f")` reach every field f.  Fields
    listed in `UNREAD_FIELDS_ALLOWED` are exempt.
    """
    fields = {}  # class name -> {field: path:line}
    for path in sorted((ROOT / "src" / "ispaces").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields[node.name] = {
                    sub.target.id: f"{path.name}:{sub.lineno}" for sub in node.body
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)}
    assert len(fields) == RECORD_CLASSES, sorted(fields)
    trees = [ast.parse(path.read_text()) for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    bound = {}  # name -> classes whose calls are assigned to it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and getattr(node.value.func, "id", None) in fields:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        bound.setdefault(t.id, set()).add(node.value.func.id)
    read = set()  # (class or None for every class, field)
    for tree in trees:
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    owner[node] = cls.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                    in ("getattr", "hasattr") and isinstance(node.args[1], ast.Constant):
                read.add((None, node.args[1].value))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                v = node.value.id if isinstance(node.value, ast.Name) else None
                if v == "self" and node in owner:
                    read.add((owner[node], node.attr))
                elif len(bound.get(v, ())) == 1:
                    read.add((next(iter(bound[v])), node.attr))
                else:
                    read.add((None, node.attr))
    unread = [f"{where} {cls}.{f}" for cls, fs in fields.items() for f, where in fs.items()
              if (cls, f) not in read and (None, f) not in read
              and (cls, f) not in UNREAD_FIELDS_ALLOWED]
    assert not unread, "record fields never read: " + ", ".join(unread)


def _constant_reads(tree):
    """Names that a module reads where they may be a module's constant: loads
    that no function, lambda or comprehension around them binds again, imports
    read where they are bound, and attribute loads (`scenarios.REGISTRY`)."""
    imports, _, reads = _scope_walk(tree)
    return ({name for scope, name in reads if scope is None}
            | {name for scope, name, _ in imports if (scope, name) in reads}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def _unread_constants(modules, trees):
    """(module, name, line) of each name that a module of `modules`, pairs of a
    module name and its tree, binds by a top-level assignment, dunders aside,
    that none of `trees` reads (`_constant_reads`)."""
    read = set().union(*map(_constant_reads, trees))
    unread = []
    for module, tree in modules:
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            unread += [(module, t.id, node.lineno) for t in targets
                       if isinstance(t, ast.Name) and not t.id.startswith("__")
                       and t.id not in read]
    return unread


def test_every_constant_is_read():
    """Every name that a module in `src/ispaces/` binds by a top-level
    assignment, dunders aside, is read in `src/`, `tests/` or `perfbench/`:
    loaded as a name where no function, lambda or comprehension binds it
    again, or through an import of it, or as an attribute
    (`scenarios.REGISTRY`).  A retired cap or bound then cannot linger as a
    constant."""
    modules = [(path.name, ast.parse(path.read_text()))
               for path in sorted((ROOT / "src" / "ispaces").glob("*.py"))]
    trees = [ast.parse(path.read_text()) for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    unread = [f"{module}:{line} {name}" for module, name, line in _unread_constants(modules, trees)]
    assert not unread, "constants never read: " + ", ".join(unread)


def test_a_constant_is_matched_by_scope():
    # a function's own local, or a comprehension's target, of a constant's
    # name reads no constant; a function that binds no such name reads it
    for source in ("LIMIT = 3\n\ndef f(xs):\n    LIMIT = len(xs)\n    return LIMIT\n",
                   "LIMIT = 3\nSQUARES = [LIMIT * LIMIT for LIMIT in range(4)]\nprint(SQUARES)\n"):
        tree = ast.parse(source)
        assert _unread_constants([("m", tree)], [tree]) == [("m", "LIMIT", 1)]
    tree = ast.parse("LIMIT = 3\n\ndef f(xs):\n    return xs[:LIMIT]\n")
    assert _unread_constants([("m", tree)], [tree]) == []
