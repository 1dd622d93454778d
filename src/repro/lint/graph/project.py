"""Whole-program linking: symbol table, call graph, effect closure.

:class:`ProjectGraph` joins per-module :class:`ModuleSummary` objects
into one project-wide view. It resolves call sites across module
boundaries (through imports, ``self``, annotated parameters and locally
constructed receivers) and runs a fixed-point pass that propagates side
effects up the call graph, so a rule can ask "is this function
*transitively* effect-free?" and receive the originating effect sites
as evidence.

Resolution is deliberately an **under-approximation**: a call the
linker cannot bind (dynamic dispatch, untyped attribute access,
higher-order values) contributes nothing, which keeps inter-procedural
rules free of false positives at the cost of missing effects hidden
behind such calls. The approximations are documented in
``docs/API.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.graph.summary import (
    CallSite,
    Effect,
    FunctionInfo,
    ModuleSummary,
)


#: Builtins that are classes the resolver should not chase.
_BUILTIN_NAMES = frozenset(
    {
        "print", "open", "input", "len", "range", "enumerate", "zip",
        "map", "filter", "sorted", "reversed", "list", "dict", "set",
        "tuple", "frozenset", "str", "int", "float", "bool", "bytes",
        "type", "isinstance", "issubclass", "getattr", "setattr",
        "hasattr", "delattr", "repr", "hash", "id", "iter", "next",
        "min", "max", "sum", "abs", "round", "divmod", "pow", "any",
        "all", "vars", "dir", "callable", "super", "format", "ord",
        "chr", "slice", "object", "property", "staticmethod",
        "classmethod", "Exception", "ValueError", "TypeError",
        "KeyError", "IndexError", "RuntimeError", "AttributeError",
        "NotImplementedError", "StopIteration", "OSError",
    }
)


class ProjectGraph:
    """Linked view over a set of module summaries.

    Functions are addressed by *qualified id* strings
    ``"<module>:<qualname>"``, e.g.
    ``"repro.core.engine:ADAHealth._run_goals"``.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: class name -> [(module, ClassInfo)] for typed-receiver lookup.
        self._classes_by_name: Dict[str, List[Tuple[str, str]]] = {}
        for module, summary in self.modules.items():
            for class_name in summary.classes:
                self._classes_by_name.setdefault(class_name, []).append(
                    (module, class_name)
                )
        self._effects: Dict[str, Tuple[Effect, ...]] = {}
        self._callees: Dict[str, List[Tuple[str, CallSite]]] = {}
        self._resolved = False

    # ------------------------------------------------------------------
    # Lookup primitives
    # ------------------------------------------------------------------
    def function(self, qualid: str) -> Optional[FunctionInfo]:
        module, _, qualname = qualid.partition(":")
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.functions.get(qualname)

    def all_functions(self) -> Iterable[Tuple[str, FunctionInfo]]:
        for module, summary in self.modules.items():
            for qualname, info in summary.functions.items():
                yield f"{module}:{qualname}", info

    def _follow_import(
        self, module: str, name: str
    ) -> Optional[Tuple[str, Optional[str]]]:
        """Resolve a local name through the module's import table.

        Returns ``(target_module, symbol)``: symbol is ``None`` when the
        name binds a whole module (``import x`` / ``from p import mod``).
        """
        summary = self.modules.get(module)
        if summary is None:
            return None
        target = summary.imports.get(name)
        if target is None:
            return None
        target_module, symbol = target
        if symbol is None:
            return (target_module, None)
        # ``from pkg import thing``: thing may itself be a module.
        candidate = (
            f"{target_module}.{symbol}" if target_module else symbol
        )
        if candidate in self.modules:
            return (candidate, None)
        return (target_module, symbol)

    def resolve_symbol(
        self, module: str, chain: str, _seen: Optional[Set] = None
    ) -> Optional[str]:
        """Resolve a dotted chain in ``module`` to a function qualid.

        Handles plain local functions, imported functions, module-dotted
        chains (``mod.fn`` / ``pkg.mod.Class.method``) and re-exports,
        following at most a short alias chain.
        """
        _seen = _seen or set()
        key = (module, chain)
        if key in _seen or len(_seen) > 16:
            return None
        _seen.add(key)
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, rest = chain.partition(".")
        # Local function (or Class.method written out locally).
        if chain in summary.functions:
            return f"{module}:{chain}"
        if not rest:
            if head in summary.classes:
                return None  # bare class reference, not a function
            followed = self._follow_import(module, head)
            if followed is None:
                return None
            target_module, symbol = followed
            if symbol is None:
                return None  # a module object, not callable
            return self.resolve_symbol(
                target_module, symbol, _seen
            ) or self._class_init(target_module, symbol)
        # Dotted: ``head`` is a local class, an imported symbol, or a
        # (possibly aliased) module.
        if head in summary.classes:
            return self._resolve_method(module, head, rest)
        followed = self._follow_import(module, head)
        if followed is not None:
            target_module, symbol = followed
            if symbol is None:
                return self.resolve_symbol(target_module, rest, _seen)
            # ``from m import Cls`` then ``Cls.method(...)``
            resolved_class = self._resolve_class(target_module, symbol)
            if resolved_class is not None:
                class_module, class_name = resolved_class
                return self._resolve_method(
                    class_module, class_name, rest
                )
            return None
        # Fully qualified chain that happens to match a known module:
        # peel dots from the right until the prefix names a module.
        split = chain.rfind(".")
        while split > 0:
            prefix, tail = chain[:split], chain[split + 1:]
            if prefix in self.modules and tail:
                return self.resolve_symbol(prefix, tail, _seen)
            split = chain.rfind(".", 0, split)
        return None

    def _class_init(
        self, module: str, symbol: str
    ) -> Optional[str]:
        """``Cls`` used as a callable resolves to ``Cls.__init__``."""
        resolved = self._resolve_class(module, symbol)
        if resolved is None:
            return None
        class_module, class_name = resolved
        return self._resolve_method(class_module, class_name, "__init__")

    def _resolve_class(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        """Find the module actually defining class ``name``."""
        if _depth > 8:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.classes:
            return (module, name)
        followed = self._follow_import(module, name)
        if followed is not None:
            target_module, symbol = followed
            if symbol is not None:
                return self._resolve_class(
                    target_module, symbol, _depth + 1
                )
        return None

    def _resolve_method(
        self, module: str, class_name: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve ``Class.method`` walking base classes when needed."""
        if _depth > 8:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        class_info = summary.classes.get(class_name)
        if class_info is None:
            return None
        qualname = f"{class_name}.{method}"
        if qualname in summary.functions:
            return f"{module}:{qualname}"
        for base_chain in class_info.bases:
            base_head = base_chain.split(".")[0]
            if base_chain in summary.classes:
                resolved = self._resolve_method(
                    module, base_chain, method, _depth + 1
                )
            elif base_head in summary.classes:
                resolved = self._resolve_method(
                    module, base_head, method, _depth + 1
                )
            else:
                base_class = self._resolve_class(
                    module, base_chain.rsplit(".", 1)[-1]
                )
                resolved = (
                    self._resolve_method(
                        base_class[0], base_class[1], method, _depth + 1
                    )
                    if base_class is not None
                    else None
                )
            if resolved is not None:
                return resolved
        return None

    def _resolve_typed_method(
        self, module: str, chain: str, method: str
    ) -> Optional[str]:
        """Method on a receiver typed by constructor or annotation."""
        class_name = chain.rsplit(".", 1)[-1]
        resolved_class = self._resolve_class(module, class_name)
        if resolved_class is None:
            # Fall back to a unique global class-name match (covers
            # string annotations like ``engine: "ADAHealth"`` without
            # an import in scope).
            candidates = self._classes_by_name.get(class_name, [])
            if len(candidates) != 1:
                return None
            resolved_class = candidates[0]
        class_module, class_name = resolved_class
        return self._resolve_method(class_module, class_name, method)

    def resolve_call(
        self, module: str, qualname: str, site: CallSite
    ) -> Optional[str]:
        """Resolve one recorded call site to a callee qualid."""
        kind = site.ref[0]
        summary = self.modules.get(module)
        if kind == "name":
            name = site.ref[1]
            if name in _BUILTIN_NAMES:
                return None
            # A sibling nested helper of the same parent function.
            if summary is not None:
                parent = qualname.rsplit(".<locals>.", 1)[0]
                nested = f"{parent}.<locals>.{name}"
                if nested in summary.functions:
                    return f"{module}:{nested}"
            return self.resolve_symbol(module, name)
        if kind == "dotted":
            return self.resolve_symbol(module, site.ref[1])
        if kind == "self":
            info = (
                summary.functions.get(qualname) if summary else None
            )
            if info is None or info.class_name is None:
                return None
            return self._resolve_method(
                module, info.class_name, site.ref[1]
            )
        if kind in ("typed", "ctor-method"):
            return self._resolve_typed_method(
                module, site.ref[1], site.ref[2]
            )
        return None

    # ------------------------------------------------------------------
    # Call graph + effect fixed point
    # ------------------------------------------------------------------
    def _link(self) -> None:
        if self._resolved:
            return
        self._resolved = True
        for qualid, info in self.all_functions():
            module = qualid.partition(":")[0]
            edges: List[Tuple[str, CallSite]] = []
            for site in info.calls:
                callee = self.resolve_call(module, info.qualname, site)
                if callee is not None and callee != qualid:
                    edges.append((callee, site))
            self._callees[qualid] = edges

    def effects(self, qualid: str) -> Tuple[Effect, ...]:
        """Transitive effects of ``qualid`` (direct + via callees).

        Parameter-mutation effects are translated at each call
        boundary: a callee mutating its parameter ``p`` becomes a
        caller effect only when the caller passed one of *its own*
        parameters (-> ``mutates-param``) or module state
        (-> ``global-write``) in that slot; fresh/local receivers
        absorb the mutation.
        """
        self._link()
        cached = self._effects.get(qualid)
        if cached is not None:
            return cached
        in_progress: Set[str] = set()

        def compute(target: str) -> Tuple[Effect, ...]:
            done = self._effects.get(target)
            if done is not None:
                return done
            if target in in_progress:  # recursion: break the cycle
                info = self.function(target)
                return tuple(info.direct_effects) if info else ()
            in_progress.add(target)
            info = self.function(target)
            if info is None:
                in_progress.discard(target)
                return ()
            collected: List[Effect] = list(info.direct_effects)
            for callee, site in self._callees.get(target, []):
                callee_info = self.function(callee)
                for effect in compute(callee):
                    mapped = _map_effect(effect, site, callee_info)
                    if mapped is not None:
                        collected.append(mapped)
            in_progress.discard(target)
            result = tuple(
                sorted(set(collected), key=Effect.sort_key)
            )
            self._effects[target] = result
            return result

        return compute(qualid)

    # ------------------------------------------------------------------
    # Call-path evidence
    # ------------------------------------------------------------------
    def call_path(
        self, start: str, condition
    ) -> Optional[List[str]]:
        """Shortest call chain from ``start`` to a node satisfying
        ``condition`` (a predicate over qualids); ``None`` if none."""
        self._link()
        parents: Dict[str, Optional[str]] = {start: None}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            if condition(current):
                path = []
                walk: Optional[str] = current
                while walk is not None:
                    path.append(walk)
                    walk = parents[walk]
                return list(reversed(path))
            for callee, _ in self._callees.get(current, []):
                if callee not in parents:
                    parents[callee] = current
                    frontier.append(callee)
        return None


def _binding_root(
    site: CallSite, callee: FunctionInfo, target: str
) -> Optional[str]:
    """The caller-side root bound to callee parameter ``target``.

    Mirrors Python's binding: for method-style calls (``self``,
    typed-receiver, ctor-method) the receiver binds ``params[0]`` and
    positional arguments bind the rest; a class used as a callable
    (resolved to ``__init__``) binds ``self`` to the fresh instance.
    Unbindable slots (``*args`` spill, defaults) return ``None`` —
    the mutation is treated as absorbed rather than guessed at.
    """
    params = list(callee.params)
    kind = site.ref[0]
    receiver_binds = kind in ("self", "typed", "ctor-method")
    positional = params
    if receiver_binds and params:
        if params[0] == target:
            return site.receiver_root
        positional = params[1:]
    elif (
        callee.class_name is not None
        and params
        and params[0] in ("self", "cls")
    ):
        # Constructor call (``Cls(...)`` resolved to ``__init__``):
        # the instance slot binds the fresh object, never an argument.
        if params[0] == target:
            return None
        positional = params[1:]
    for name, root in site.kwarg_roots:
        if name == target:
            return root
    for index, root in enumerate(site.arg_roots):
        if index < len(positional) and positional[index] == target:
            return root
    return None


def _map_effect(
    effect: Effect, site: CallSite, callee: Optional[FunctionInfo]
) -> Optional[Effect]:
    """Translate a callee effect into the caller's frame.

    Non-mutation effects (clock, RNG, I/O, global writes) are frame
    independent and propagate as-is, keeping their origin site so the
    report can point at the real source. ``mutates-param`` is re-mapped
    through the argument actually bound at ``site``: a caller parameter
    keeps the effect alive, module state turns it into a global write,
    and fresh/local receivers absorb it.
    """
    if effect.kind != "mutates-param":
        return effect
    if callee is None:
        return None
    root = _binding_root(site, callee, effect.detail)
    if root is None:
        return None
    if root.startswith("param:"):
        return Effect(
            kind="mutates-param",
            detail=root.split(":", 1)[1],
            module=effect.module,
            qualname=effect.qualname,
            line=effect.line,
            description=effect.description,
        )
    if root.startswith("global:"):
        return Effect(
            kind="global-write",
            detail=root.split(":", 1)[1],
            module=effect.module,
            qualname=effect.qualname,
            line=effect.line,
            description=effect.description,
        )
    return None
