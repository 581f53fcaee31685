"""The package's public names, what in `src/` a command or benchmark reaches, the
config keys the code reads, the payload keys of each record, and imports that
nothing uses."""

import ast
import re
from pathlib import Path

import finsler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finsler"


def test_every_exported_name_resolves():
    # a deleted definition must not leave its name behind in __all__
    assert len(set(finsler.__all__)) == len(finsler.__all__)
    assert [name for name in finsler.__all__ if not hasattr(finsler, name)] == []


def _identifiers(node, modules):
    """The names ``node`` reads, and the attributes it reads but those off a
    name in ``modules``: ``functools.partial`` reads no method ``partial``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) not in modules:
                yield sub.attr


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unreached(bench_roots):
    """Definitions in `src/` that nothing reaches from the roots.

    Roots: the CLI entry point, the names module-level statements use (the
    dispatch tables) and, with ``bench_roots``, every identifier in bench/,
    whose tracer names its targets in strings. Reaching a name follows the
    identifiers in the body of every definition of that name: a top-level
    function, a class (its own statements and dunder methods, which the
    language calls), or a method of a top-level class. Attributes read off an
    imported module that is not ``finsler`` (``np.``, ``math.``) are not uses."""
    defs = {}
    roots = {"main"}
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # src imports finsler modules relatively, so every plain import is another package
    modules = frozenset(alias.asname or alias.name.split(".")[0] for tree in trees.values()
                        for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names)
    for path, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                roots.update(_identifiers(stmt, modules))
            elif path.name != "__init__.py":
                body = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    methods = [sub for sub in stmt.body if isinstance(sub, ast.FunctionDef)
                               and not _is_dunder(sub.name)]
                    for method in methods:
                        defs.setdefault(method.name, []).append(
                            (f"{path.stem}.{stmt.name}", [method]))
                    body = [*stmt.bases, *stmt.decorator_list,
                            *(sub for sub in stmt.body if sub not in methods)]
                defs.setdefault(stmt.name, []).append((path.stem, body))
    if bench_roots:
        for path in sorted((ROOT / "bench").glob("*.py")):
            roots.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))

    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, body in defs[name]:
            todo.extend(n for node in body for n in _identifiers(node, modules) if n in defs)
    return sorted(f"{owner}.{name}" for name, entries in defs.items()
                  if name not in reached for owner, _ in entries)


def test_every_src_definition_is_reached():
    # a definition nothing reaches is code only tests call: an oracle belongs
    # in tests/oracles.py, a repeat of a production route nowhere
    unreached = _unreached(bench_roots=True)
    assert unreached == [], f"definitions no command or benchmark reaches: {unreached}"


def test_the_definitions_only_bench_reaches_are_pinned():
    # code that only bench/ names: routes its workloads time and functions its
    # tracer wraps (Jet.partial, JetSpace.conj_perm and extract_table among
    # them). A change that adds to this list, or frees a name from it, updates
    # it here.
    assert _unreached(bench_roots=False) == [
        "geodesic.HessianRhoResult", "geodesic.IndexFormResult", "geodesic._integrate_jacobi",
        "geodesic.hessian_rho", "geodesic.index_form", "geodesic.jacobi_boundary_field",
        "geodesic.jacobi_field", "geometry.MetricDef.complex_jet", "jets.Jet.partial",
        "jets.JetSpace.conj_perm", "jets.JetSpace.extract_table", "jets.wirtinger",
        "schwarz.curvature_bounds"]


def _private_attributes_set(src):
    """``file:line`` of each store into an underscore attribute of an object
    other than ``self``."""
    written = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and node.attr.startswith("_") and ast.unparse(node.value) != "self"):
                written.append(f"{path.name}:{node.lineno}")
    return written


def test_no_module_sets_another_objects_private_attribute():
    # an object's underscore attributes are its own state: a function that
    # sets one on another object puts that object into a mode its own
    # methods do not show; it passes an argument instead
    assert _private_attributes_set(SRC) == []


def test_one_loop_writes_every_report_and_table():
    # cli._report_each turns an item into its report, its CSV tables, its
    # exit status and its summary line; a command that wrote its own would
    # fork that loop again
    tree = ast.parse((SRC / "cli.py").read_text())
    loop = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_report_each")
    in_loop = {id(sub) for node in ast.walk(loop) if isinstance(node, ast.For)
               for sub in ast.walk(node)}
    for writer in ("_write_report", "_write_csv"):
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == writer]
        assert len(calls) == 1 and id(calls[0]) in in_loop, writer


def _per_point_connections(src):
    """(module, line) of each call in a loop or a comprehension of ``src`` to
    ``cartan`` or to a nested function that calls it, however deep."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested = [sub for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for sub in ast.walk(fn) if sub is not fn and isinstance(sub, ast.FunctionDef)]

        def calls(node, names):
            return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                    and ast.unparse(sub.func).split(".")[-1] in names]

        names, grown = set(), {"cartan"}
        while grown != names:
            names, grown = grown, grown | {fn.name for fn in nested if calls(fn, grown)}
        found |= {(path.name, call.lineno) for loop in ast.walk(tree)
                  if isinstance(loop, loops) for call in calls(loop, names)}
    return sorted(found)


def test_no_loop_takes_the_connection_point_by_point():
    # cartan takes a stack of points in one order-4 replay, each row bit for
    # bit its point's; a loop of single-point calls replays the program once
    # per point
    assert _per_point_connections(SRC) == []


def _point_by_point_reads(src):
    """(module, line) of each read of a path (``state_at``, ``dense_state``,
    ``sol``) in a loop or a comprehension of ``src`` whose time argument
    names a target of that loop."""
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    time_argument = {"sol": 0, "state_at": 1, "dense_state": 1}
    found = set()
    for path in sorted(src.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, loops):
                continue
            targets = [loop.target] if isinstance(loop, ast.For) else [
                gen.target for gen in loop.generators]
            bound = {node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)}
            for call in ast.walk(loop):
                if not isinstance(call, ast.Call):
                    continue
                k = time_argument.get(ast.unparse(call.func).split(".")[-1])
                if k is not None and len(call.args) > k and bound & {
                        node.id for node in ast.walk(call.args[k]) if isinstance(node, ast.Name)}:
                    found.add((path.name, call.lineno))
    return sorted(found)


def test_no_loop_reads_a_path_point_by_point():
    # a dense output reads an array of times in one call, grouped by segment
    # and step, each row bit for bit its time's; a loop that reads one time
    # per pass pays the call's overhead per point
    assert _point_by_point_reads(SRC) == []


def _callers(tree, test):
    """The top-level functions of ``tree`` holding a node that passes ``test``,
    once per node."""
    return sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn) if test(node))


def test_one_table_checks_a_configs_shape():
    # CONFIG_KEYS is walked once, before the defaults are merged; a second
    # validator run after the merge would check a config apart from its table
    tree = ast.parse((SRC / "config.py").read_text())
    raised = _callers(tree, lambda node: isinstance(node, ast.Raise)
                      and "ConfigurationError" in ast.unparse(node))
    assert sorted(set(raised)) == ["_leaf", "_walk", "check_tolerance", "load_config"]
    assert len(raised) == sum(isinstance(node, ast.Raise) for node in ast.walk(tree))


def test_one_resolution_checks_every_pair():
    # cli._pairs checks every pair of a run before the first is certified, so
    # a bad pair stops schwarz before it writes; replay resolves its pair there too
    tree = ast.parse((SRC / "cli.py").read_text())
    pair_errors = ("duplicate map id", "unknown metric id", "unknown map id", "map takes",
                   "duplicate pair")
    raised = _callers(tree, lambda node: isinstance(node, ast.Raise)
                      and any(error in ast.unparse(node) for error in pair_errors))
    assert raised == ["_pairs"] * len(pair_errors)
    certified = _callers(tree, lambda node: isinstance(node, ast.Call)
                         and ast.unparse(node.func) == "certify_schwarz")
    assert certified == ["_pair_item", "cmd_replay"]


def test_one_method_integrates_every_shot():
    # PoleDistance._shoot integrates, counts and carries the step of every
    # shot, tight, loose or variational; a method that integrated its own
    # would count its work and carry its step apart
    tree = ast.parse((SRC / "geodesic.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "PoleDistance")
    calls = sorted((method.name, ast.unparse(node.func)) for method in cls.body
                   if isinstance(method, ast.FunctionDef) for node in ast.walk(method)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "_integrate")
    assert calls == [("_shoot", "_integrate")]


def _definitions(tree):
    """(qualified name, node) of each top-level function of ``tree`` and each
    method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def test_one_rule_fails_a_shot_at_the_edge():
    # a shot either reaches its end or raises: PoleDistance._shoot fails every
    # shooting shot that stops at its exit root, and _integrate_jacobi the
    # arc-length Jacobi route's; elsewhere only the fans read a solution's
    # status, since a fan member ends at its exit root by design
    raised, read = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _definitions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Raise) and "ShootingError" in ast.unparse(node)
                        and "stopped at the domain's edge" in ast.unparse(node)):
                    raised.append(name)
                if (isinstance(node, ast.Attribute) and node.attr == "status"
                        and isinstance(node.ctx, ast.Load)):
                    read.append(name)
    assert sorted(raised) == ["PoleDistance._shoot", "_integrate_jacobi"]
    assert sorted(set(read)) == ["GeodesicFan.of_one", "PoleDistance._shoot",
                                 "_integrate_jacobi", "integrate_geodesic"]


def test_one_driver_calls_the_integrator():
    # geodesic._integrate is the one DOP853 driver, plain or variational; a
    # second call site would keep its own tolerances, events and failures
    def integrates(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "solve_ivp"

    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers = _callers(tree, integrates)
        assert len(callers) == sum(map(integrates, ast.walk(tree))), path.name
        sites += [(path.stem, name) for name in callers]
    assert sites == [("geodesic", "_integrate")]


def test_only_schwarz_names_the_lemmas_hypotheses():
    # MetricAnalysis.hypotheses is the one table of the lemma's hypotheses,
    # and certify_schwarz derives met, the payload's hypotheses and the unmet
    # names from it; a module that named one would fold the table again
    tree = ast.parse((SRC / "schwarz.py").read_text())
    table = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "hypotheses")
    names = {key.value for node in ast.walk(table) if isinstance(node, ast.Dict)
             for key in node.keys}
    assert names == {"domain_valid_metric", "domain_weakly_kahler", "domain_complete",
                     "target_valid_metric"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "schwarz.py":
            text = path.read_text()
            assert [name for name in sorted(names) if name in text] == [], path.name
    cli = ast.parse((SRC / "cli.py").read_text())
    assert not [node for node in ast.walk(cli)
                if isinstance(node, ast.Attribute) and node.attr == "hypotheses"]


def test_only_jets_builds_a_complex_jet_space():
    # the Wirtinger layout is jets.py's: wirtinger_coeffs builds every complex
    # space, and a reader of complex jets takes its space from there
    built = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-2:]
            if called not in (["JetSpace"], ["JetSpace", "get"]):
                continue
            flag = [kw.value for kw in node.keywords if kw.arg == "is_complex"] + node.args[2:3]
            if flag and not (isinstance(flag[0], ast.Constant) and flag[0].value is False):
                built.append(f"{path.name}:{node.lineno}")
    assert built == []


def _halves_paired(src):
    """``file:line`` of each ``a[...] + 1j * a[...]``, the real and imaginary
    halves of one array paired into complex numbers, outside
    ``geometry.real_to_complex_components``."""
    written = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "geometry.py":
            fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "real_to_complex_components")
            allowed = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
                    and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1j):
                continue
            halves = node.left, node.right.right
            if (all(isinstance(half, ast.Subscript) for half in halves)
                    and ast.unparse(halves[0].value) == ast.unparse(halves[1].value)
                    and id(node) not in allowed):
                written.append(f"{path.name}:{node.lineno}")
    return written


def test_only_geometry_pairs_the_real_halves():
    # the realification z^a = x^a + i x^{n+a} is written once, in
    # geometry.real_to_complex_components; re + 1j * im of two arrays, as
    # HoloMap.evaluate combines its programs, is not a realification
    assert _halves_paired(SRC) == []


def _table_keys(shape):
    if isinstance(shape, dict):
        for key, sub in shape.items():
            yield key
            yield from _table_keys(sub)
    elif isinstance(shape, list):
        yield from _table_keys(shape[0])
    elif isinstance(shape, tuple):
        for table in shape[1].values():
            yield from _table_keys(table)


def _receiver(node):
    """The name a key is read from: ``params`` in ``params.get(...)``, ``spec``
    in ``m.spec[...]``, and in a chain such as ``spec.get(...).get(...)`` the first."""
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        node = node.func.value
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_config_table_lists_every_key_the_code_reads():
    # the builders and commands read config keys through .get and [...]; a key
    # they read that the table lacks would be refused before it could be used
    from finsler.config import CONFIG_KEYS
    read = set()
    for name in ("metrics.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args):
                receiver, key = node.func.value, node.args[0]
            elif isinstance(node, ast.Subscript):
                receiver, key = node.value, node.slice
            else:
                continue
            if (_receiver(receiver) in ("params", "spec", "pair", "expectation")
                    and isinstance(key, ast.Constant) and isinstance(key.value, str)):
                read.add(key.value)
    assert {"catalog", "expect", "expect_pass", "profile", "weakly_kahler_pde"} <= read
    assert sorted(read - set(_table_keys(CONFIG_KEYS))) == []


def test_records_write_their_pinned_payload_keys():
    # record() writes every field not omitted, so a field added to a record
    # enters its payload; the check report has no golden that would notice
    disk = finsler.instantiate({"family": "hermitian", "complex_dim": 1,
                                "params": {"catalog": "poincare_disk"}})
    plan = finsler.SamplePlan(seed=1, n_points=2, n_dirs=2)
    analysis = finsler.MetricAnalysis(disk, plan)
    cert = finsler.certify_schwarz(finsler.build_map({"map": "identity"}), analysis, analysis)
    assert sorted(finsler.check_metric(disk, plan).to_dict()) == [
        "errors", "name", "passed", "samples", "stats", "tolerance"]
    assert sorted(finsler.classify(disk, plan).to_dict()) == [
        "classification", "errors", "metric_id", "n_samples", "residual_kahler",
        "residual_strong", "residual_weak", "scale", "tolerance"]
    assert sorted(cert.to_payload()) == [
        "K1", "K2", "argmax", "bound", "domain_id", "hypotheses", "map_id", "max_ratio",
        "passed", "plan", "schema", "target_id", "tolerance"]


def _imports(tree):
    """(line, bound name) of every import in ``tree`` but ``__future__`` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.asname or alias.name.split(".")[0])
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, alias.asname or alias.name) for alias in node.names)


def test_every_import_is_used():
    # a name imported and never read is what a change leaves behind; the
    # names a module exports in __all__ count as read
    unused = []
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant))
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _imports(tree) if name not in used]
    assert unused == []
