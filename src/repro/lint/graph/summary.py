"""Per-module summaries: the parse-time half of the project graph.

One :class:`ModuleSummary` is extracted per file with :mod:`ast` — the
target module is **never imported**. A summary records everything the
whole-program layer needs to link modules together without re-reading
source: the symbol table (functions, classes, imports, module-level
names), and per function its parameters, call sites (with enough
structure to resolve callees and map arguments) and *direct* side
effects.

Direct-effect inference recognises six kinds (the transitive closure
is computed by :class:`repro.lint.graph.project.ProjectGraph`):

``wall-clock``
    ``time.time``/``time_ns``, ``datetime.now``/``utcnow``, ``today``
    (monotonic ``perf_counter`` is always fine).
``unseeded-rng``
    unseeded/None-seeded ``default_rng``, legacy ``np.random.*`` draws,
    stdlib ``random`` calls.
``env-read``
    ``os.getenv(...)``, ``os.environ.get(...)`` and ``os.environ[...]``
    reads — a determinism taint (the environment varies
    between hosts/runs) without being an ``io`` effect.
``io``
    ``open``/``print``/``input``, ``shutil.*``/``subprocess.*``,
    mutating ``os.*`` calls, ``write_text``/``write_bytes``.
``global-write``
    assignment/mutation of module-level state (including via a
    ``global`` declaration or a mutating method call).
``mutates-param``
    assignment/mutation through a parameter (``p.x = v``,
    ``p.items.append(...)``); at call boundaries the project graph
    re-maps these onto the *caller's* arguments.

Known approximations (documented in ``docs/API.md``): effects behind
unresolvable dynamic dispatch are invisible (the pass under-reports
rather than guessing), conditional effects count unconditionally, and
``Optional[...]``-subscripted annotations are not used for receiver
typing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.base import dotted_name

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "add",
        "discard", "update", "setdefault", "popitem", "write",
        "writelines", "appendleft", "sort", "reverse",
    }
)

#: Legacy ``np.random`` module-level draws (shared global RNG).
_LEGACY_NP_RANDOM = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "bytes",
        "normal", "uniform", "standard_normal", "beta", "binomial",
        "poisson", "exponential", "gamma", "laplace", "lognormal",
        "multinomial", "multivariate_normal", "RandomState",
    }
)

_IO_NAMES = frozenset({"open", "print", "input"})
_IO_PREFIXES = ("shutil.", "subprocess.")
_IO_OS_TAILS = frozenset(
    {
        "remove", "unlink", "rename", "replace", "makedirs", "mkdir",
        "rmdir", "removedirs", "symlink", "chmod", "truncate",
    }
)
_IO_TAILS = frozenset({"write_text", "write_bytes"})


@dataclass(frozen=True)
class Effect:
    """One direct (or re-mapped) side effect with its origin site."""

    kind: str  #: wall-clock | unseeded-rng | io | global-write | mutates-param
    detail: str  #: offending chain, global name or parameter name
    module: str  #: module holding the *direct* effect
    qualname: str  #: function holding the direct effect
    line: int
    description: str

    def sort_key(self) -> Tuple:
        return (self.kind, self.detail, self.module, self.qualname,
                self.line)


@dataclass(frozen=True)
class CallSite:
    """One call with a resolvable callee reference and argument roots.

    ``ref`` is a tuple describing how to find the callee:

    * ``("name", n)`` — plain name (local function, class, or import);
    * ``("dotted", "a.b.c")`` — attribute chain rooted in a name;
    * ``("self", m)`` — ``self.m(...)`` inside a class body;
    * ``("typed", chain, m)`` — method on a receiver whose class is
      known from a local construction or a parameter annotation;
    * ``("ctor-method", chain, m)`` — ``Cls(...).m(...)``.

    ``arg_roots``/``kwarg_roots`` classify each argument as
    ``"param:<name>"``, ``"global:<name>"`` or ``"other"``;
    ``receiver_root`` does the same for a method receiver (``"fresh"``
    for just-constructed objects), which is how parameter-mutation
    effects are re-mapped across call boundaries.
    """

    line: int
    ref: Tuple[str, ...]
    arg_roots: Tuple[str, ...] = ()
    kwarg_roots: Tuple[Tuple[str, str], ...] = ()
    receiver_root: str = "none"


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str  #: ``fn`` or ``Class.method`` (module-relative)
    line: int
    params: List[str] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)
    class_name: Optional[str] = None
    direct_effects: List[Effect] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Summary of one class: its name, line and bases."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)  #: dotted chains


@dataclass
class ModuleSummary:
    """Everything the project graph keeps about one module."""

    module: str
    relpath: str
    #: local name -> (target module, symbol or None for plain imports)
    imports: Dict[str, Tuple[str, Optional[str]]] = field(
        default_factory=dict
    )
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_names: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative POSIX path.

    ``src/repro/core/engine.py`` -> ``repro.core.engine``;
    ``benchmarks/test_x.py`` -> ``benchmarks.test_x``; a package's
    ``__init__.py`` maps to the package itself.
    """
    path = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [part for part in path.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__main__"


def _package_of(module: str, relpath: str) -> str:
    """The package a module's relative imports resolve against."""
    if relpath.endswith("/__init__.py"):
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def extract_summary(
    source_or_tree, relpath: str, module: Optional[str] = None
) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from source text or a parsed tree."""
    module = module or module_name_for(relpath)
    summary = ModuleSummary(module=module, relpath=relpath)
    if isinstance(source_or_tree, ast.AST):
        tree = source_or_tree
    else:
        try:
            tree = ast.parse(source_or_tree)
        except SyntaxError:
            return summary
    package = _package_of(module, relpath)
    _collect_imports(tree, package, summary)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _extract_function(node, None, summary)
        elif isinstance(node, ast.ClassDef):
            _extract_class(node, summary)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    summary.module_names.append(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            summary.module_names.append(element.id)
    summary.module_names = sorted(set(summary.module_names))
    return summary


def _collect_imports(
    tree: ast.AST, package: str, summary: ModuleSummary
) -> None:
    """Record every import binding, including function-level ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name
                summary.imports[local] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = (base, alias.name)


def _extract_class(node: ast.ClassDef, summary: ModuleSummary) -> None:
    info = ClassInfo(
        name=node.name,
        line=node.lineno,
        bases=[dotted_name(base) for base in node.bases],
    )
    summary.classes[node.name] = info
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _extract_function(item, node.name, summary)


def _annotation_chain(annotation) -> str:
    """Dotted chain for a Name / Attribute / string annotation."""
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ""
    return dotted_name(annotation)


def _extract_function(
    node, class_name: Optional[str], summary: ModuleSummary
) -> None:
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    args = node.args
    ordered = (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )
    params = [arg.arg for arg in ordered]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    annotations = {
        arg.arg: chain
        for arg in ordered
        if (chain := _annotation_chain(arg.annotation))
    }
    info = FunctionInfo(
        qualname=qualname,
        line=node.lineno,
        params=params,
        annotations=annotations,
        class_name=class_name,
    )
    summary.functions[qualname] = info
    extractor = _FunctionExtractor(node, info, summary)
    extractor.run()
    # Nested defs become their own (unlinkable) entries so a parent's
    # call to a local helper can still resolve within the module.
    for nested, nested_class in extractor.nested:
        _extract_function(nested, None, summary)
        nested_info = summary.functions.pop(nested.name, None)
        if nested_info is not None:
            nested_info.qualname = f"{qualname}.<locals>.{nested.name}"
            summary.functions[nested_info.qualname] = nested_info
        del nested_class  # nested classes keep no special handling


class _FunctionExtractor(ast.NodeVisitor):
    """Single-function pass: effects and call sites."""

    def __init__(
        self, node, info: FunctionInfo, summary: ModuleSummary
    ) -> None:
        self.node = node
        self.info = info
        self.summary = summary
        self.params = set(info.params)
        self.self_name = info.params[0] if (
            info.class_name and info.params
        ) else None
        self.globals_declared: set = set()
        self.local_types: Dict[str, str] = {}
        self.nested: List[Tuple[ast.AST, Optional[str]]] = []

    def run(self) -> None:
        self._prescan()
        for statement in self.node.body:
            self.visit(statement)

    # -- pre-pass: local constructed types, globals --------------------
    def _prescan(self) -> None:
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = sub.value
                if isinstance(value, ast.Call):
                    chain = dotted_name(value.func)
                    if chain and self._looks_like_class(chain):
                        self.local_types[target.id] = chain

    def _looks_like_class(self, chain: str) -> bool:
        tail = chain.rsplit(".", 1)[-1]
        return bool(tail[:1].isupper())

    # -- nested definitions: summarised separately, not descended ------
    def visit_FunctionDef(self, node) -> None:
        self.nested.append((node, None))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:  # bodies stay opaque
        pass

    # -- argument/target root classification ---------------------------
    def _root_of(self, node) -> str:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            if node.id in self.params:
                return f"param:{node.id}"
            if node.id in self.local_types:
                return "other"
            if node.id in self.summary.imports or node.id in (
                self.summary.module_names
            ):
                return f"global:{node.id}"
            if node.id in self.globals_declared:
                return f"global:{node.id}"
            return "other"
        if isinstance(node, ast.Call):
            return "fresh"
        return "other"

    def _effect(self, kind: str, detail: str, line: int, text: str):
        self.info.direct_effects.append(
            Effect(
                kind=kind,
                detail=detail,
                module=self.summary.module,
                qualname=self.info.qualname,
                line=line,
                description=text,
            )
        )

    # -- mutation targets ----------------------------------------------
    def _inner_attr(self, node) -> str:
        """Attribute name closest to the chain's base (``''`` if none)."""
        inner = ""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                inner = node.attr
            node = node.value
        return inner

    def _is_self_private(self, root: str, inner_attr: str) -> bool:
        """``self._x``-style access: treated as internal memoisation.

        Writes to underscore-private attributes of ``self`` are a
        deliberate blind spot (lazy caches like ``self._patient_ids``
        would otherwise poison every effect closure); documented as a
        known approximation.
        """
        return (
            self.self_name is not None
            and root == f"param:{self.self_name}"
            and inner_attr.startswith("_")
        )

    def _check_store_target(self, target, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element, line)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._effect(
                    "global-write",
                    target.id,
                    line,
                    f"writes module global {target.id!r}",
                )
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = self._root_of(target)
        inner_attr = self._inner_attr(target)
        if self._is_self_private(root, inner_attr):
            return
        if root.startswith("param:"):
            name = root.split(":", 1)[1]
            self._effect(
                "mutates-param",
                name,
                line,
                f"mutates state reachable from parameter {name!r}",
            )
        elif root.startswith("global:"):
            name = root.split(":", 1)[1]
            self._effect(
                "global-write",
                name,
                line,
                f"mutates module-level state {name!r}",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target, node.lineno)
        self.generic_visit(node)

    # -- environment reads ----------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load) and dotted_name(
            node.value
        ) in ("os.environ", "environ"):
            self._effect(
                "env-read", "os.environ", node.lineno,
                "reads the process environment via os.environ[...]",
            )
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._detect_call_effects(node)
        ref, receiver_root = self._callee_ref(node.func)
        if ref is not None:
            self.info.calls.append(
                CallSite(
                    line=node.lineno,
                    ref=ref,
                    arg_roots=tuple(
                        self._root_of(arg)
                        for arg in node.args
                        if not isinstance(arg, ast.Starred)
                    ),
                    kwarg_roots=tuple(
                        (keyword.arg, self._root_of(keyword.value))
                        for keyword in node.keywords
                        if keyword.arg is not None
                    ),
                    receiver_root=receiver_root,
                )
            )
        self.generic_visit(node)

    def _callee_ref(self, func):
        if isinstance(func, ast.Name):
            return ("name", func.id), "none"
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if self.self_name is not None and base.id == (
                    self.self_name
                ):
                    return ("self", method), f"param:{base.id}"
                if base.id in self.local_types:
                    return (
                        ("typed", self.local_types[base.id], method),
                        "other",
                    )
                if base.id in self.params:
                    chain = self.info.annotations.get(base.id, "")
                    if chain:
                        return (
                            ("typed", chain, method),
                            f"param:{base.id}",
                        )
                chain = dotted_name(func)
                if chain:
                    return ("dotted", chain), self._root_of(base)
            elif isinstance(base, ast.Call):
                ctor = dotted_name(base.func)
                if ctor and self._looks_like_class(ctor):
                    return ("ctor-method", ctor, method), "fresh"
            else:
                chain = dotted_name(func)
                if chain:
                    return ("dotted", chain), self._root_of(base)
        return None, "none"

    def _detect_call_effects(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if not chain:
            return
        parts = chain.split(".")
        tail = parts[-1]
        line = node.lineno
        # wall clock (mirrors ADA002)
        if (
            (tail in ("time", "time_ns") and "time" in parts[:-1])
            or (tail in ("now", "utcnow") and "datetime" in parts[:-1])
            or (
                tail == "today"
                and any(p in ("date", "datetime") for p in parts[:-1])
            )
        ):
            self._effect(
                "wall-clock", chain, line, f"reads the wall clock"
                f" via {chain}()"
            )
        # unseeded randomness (mirrors ADA001)
        if tail == "default_rng" and not _rng_seeded(node):
            self._effect(
                "unseeded-rng", chain, line,
                "draws from an unseeded default_rng()",
            )
        elif chain.startswith(("np.random.", "numpy.random.")) and (
            tail in _LEGACY_NP_RANDOM
        ):
            self._effect(
                "unseeded-rng", chain, line,
                f"uses the process-global RNG via {chain}()",
            )
        elif parts[0] == "random" and len(parts) > 1 and (
            self.summary.imports.get("random", ("", None))[0] == "random"
        ):
            # random.Random(seed) is an explicitly seeded instance,
            # not the module-global RNG.
            if not (tail == "Random" and _rng_seeded(node)):
                self._effect(
                    "unseeded-rng", chain, line,
                    f"uses stdlib random global state via {chain}()",
                )
        # environment reads (determinism taint, not I/O)
        if (parts[0] == "os" and tail == "getenv") or chain in (
            "os.environ.get",
            "environ.get",
        ):
            self._effect(
                "env-read", chain, line,
                f"reads the process environment via {chain}()",
            )
        # I/O
        if (
            (len(parts) == 1 and tail in _IO_NAMES)
            or chain.startswith(_IO_PREFIXES)
            or (parts[0] == "os" and tail in _IO_OS_TAILS)
            or tail in _IO_TAILS
            or chain in ("sys.stdout.write", "sys.stderr.write")
        ):
            self._effect("io", chain, line, f"performs I/O via {chain}()")
        # mutating method calls on parameters / module state
        if tail in _MUTATORS and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            root = self._root_of(receiver)
            if self._is_self_private(root, self._inner_attr(node.func)):
                return
            if root.startswith("param:"):
                name = root.split(":", 1)[1]
                self._effect(
                    "mutates-param", name, line,
                    f"calls mutating {tail}() on parameter {name!r}",
                )
            elif root.startswith("global:"):
                name = root.split(":", 1)[1]
                # ``np.sort(x)`` is a pure module function, not a
                # mutation of ``np``: only names *assigned* at module
                # level (or declared ``global``) count as mutable
                # module state here.
                if name not in self.summary.imports:
                    self._effect(
                        "global-write", name, line,
                        f"calls mutating {tail}() on module-level"
                        f" {name!r}",
                    )


def _rng_seeded(call: ast.Call) -> bool:
    candidates = list(call.args) + [
        keyword.value
        for keyword in call.keywords
        if keyword.arg == "seed"
    ]
    if not candidates:
        return False
    first = candidates[0]
    return not (isinstance(first, ast.Constant) and first.value is None)
