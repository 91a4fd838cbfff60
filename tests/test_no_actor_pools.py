"""Every per-batch stage runs as a plain Ray task. A task gives its CPU back
when its batch is done, on success and on failure; an actor pool holds its
CPUs until Ray drops the operator, which a kept exception can delay without
bound. So no ``map_batches`` call in the engine or the driver queries may
build an actor pool: no class as the function, no ``fn_constructor_kwargs``,
no ``num_cpus`` reservation and no ``(min, max)`` pool-size ``concurrency``.
A callable stage is passed as an instance. No ``Dataset.join`` either: its
hash-shuffle aggregators are actors too, and on a one- or two-CPU cluster
they wait for CPUs and memory they never get. The only actors are the
``num_cpus=0`` shards of ``state/dedup_index.py``."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _nodes():
    """(path relative to the repo, node) for every AST node in the engine
    and the driver queries."""
    paths = [os.path.join(REPO, "__ray_entry__.py")]
    for root, _, files in os.walk(os.path.join(REPO, "yomitoku_ray")):
        paths += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
    for path in paths:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            yield os.path.relpath(path, REPO), node


def _is_class_name(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name[:1].isupper() and not name.isupper()


def _pool_arguments(call: ast.Call) -> list[str]:
    found = []
    fn = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "fn":
            fn = kw.value
        elif kw.arg in ("fn_constructor_kwargs", "fn_constructor_args", "num_cpus"):
            found.append(kw.arg)
        elif kw.arg == "concurrency" and isinstance(kw.value, ast.Tuple):
            found.append("concurrency=(min, max)")
    if fn is not None and _is_class_name(fn):
        found.append(f"class {ast.unparse(fn)} as the function")
    return found


def test_no_map_batches_builds_an_actor_pool():
    offenders = [
        f"{path}:{node.lineno}: {arg}"
        for path, node in _nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"
        for arg in _pool_arguments(node)
    ]
    assert not offenders, "actor-pool map_batches:\n" + "\n".join(offenders)


def _is_dataset_join(call: ast.Call) -> bool:
    """A ``.join`` call shaped like ``Dataset.join(ds, join_type, num_partitions,
    ...)``: ``str.join`` takes one argument, and ``os.path.join`` is named."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "join"):
        return False
    if ast.unparse(call.func.value) in ("os.path", "posixpath"):
        return False
    return len(call.args) + len(call.keywords) >= 2


def test_no_dataset_join():
    joins = [
        f"{path}:{node.lineno}: {ast.unparse(node)[:80]}"
        for path, node in _nodes()
        if isinstance(node, ast.Call) and _is_dataset_join(node)
    ]
    assert not joins, "Dataset.join (hash-shuffle aggregator actors):\n" + "\n".join(joins)


def test_the_dedup_shards_are_the_only_actors():
    actors = [
        f"{path}:{node.name}"
        for path, node in _nodes()
        if isinstance(node, ast.ClassDef)
        and any("ray.remote" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert actors == ["yomitoku_ray/state/dedup_index.py:_DedupShard"], actors
