"""Abstract interpretation of shapes and dtypes over the project index.

NES005 checks that ``@shape_contract`` decorators are *present* and that
declared pipelines compose; nothing checks that a forward body actually
*implements* its contract, and the dtype rules (NES002/NES008/NES010)
are syntactic.  This module closes that gap with a small abstract
interpreter over the numpy surface the repo actually uses:

- **Lowering** — :func:`lower_module` compiles each function body to a
  JSON-serializable mini-IR (nested lists over locals) stored on the
  :class:`~repro.analysis.project.FileIndex` as ``absint``, so it rides
  ``.lint_cache.json`` and the fork-pool fan-out exactly like call
  sites and attribute writes do.
- **Domain** — a local maps to an abstract value: a shape that is a
  tuple of symbolic dims (``int`` literal, ``$N`` universal symbol
  seeded from a contract, or ``"?"`` unknown) or ⊤, plus a dtype
  lattice element (``float64`` is the element the drift rule cares
  about; python scalars are weak and never widen).
- **Transfer functions** — ``@``/``matmul``/``dot``, ``einsum`` with a
  literal spec, ``reshape``/``transpose``/``concatenate``/``stack``,
  broadcasting elementwise ops, ``astype``, indexing/slicing, the
  reductions, and the :mod:`repro.nn.functional` /
  :mod:`repro.nn.scratch` helpers as modeled intrinsics.
- **Interprocedural propagation** — calls dispatch through the
  :class:`~repro.analysis.project.ProjectIndex` typed-receiver edges
  (``self.conv1(x)`` resolves through ``attr_types`` to ``Conv2d`` and
  applies its declared contract); everything else falls back to a
  memoized context-insensitive summary, then ⊤.  Parameter shapes are
  seeded from ``@shape_contract`` specs, ``np.ndarray`` annotations,
  and the declared ``NeSSAConfig.similarity_precision``.

The interpreter is **optimistic**: it only reports what it can *prove*
— two literal dims that differ, or two distinct universally-quantified
contract symbols forced equal.  An unknown dim unifies with anything,
so ⊤ never produces a finding.  Three project rules consume the
resulting event stream: NES012 (provable shape errors), NES013
(contract conformance) and NES014 (float64 drift into the quantized
scoring sinks, with producer → call → sink witness chains).
"""

from __future__ import annotations

import ast

from repro.nn.contracts import ContractError, parse_spec

__all__ = ["lower_module", "Analysis", "analysis_for", "TOP"]

# -- abstract domain ---------------------------------------------------------

#: Unknown dim / dtype marker.
TOP = "?"

_F64 = "float64"
_DTYPE_CANON = {
    "float64": "float64", "double": "float64",
    "float32": "float32", "single": "float32",
    "float16": "float16", "half": "float16",
    "float": "float64", "int": "int64",
    "int8": "int8", "int16": "int16", "int32": "int32", "int64": "int64",
    "uint8": "uint8", "uint16": "uint16", "uint32": "uint32",
    "uint64": "uint64", "bool": "bool", "bool_": "bool", "intp": "int64",
}
_FLOAT_KINDS = {"float16", "float32", "float64", "pyfloat"}
_WEAK = {"pyint", "pyfloat"}
_PROV_CAP = 5
_LOOP_PASSES = 2


class AV:
    """One abstract value.

    ``kind`` is ``arr`` (shape+dtype), ``tup``/``lst`` (items), ``obj``
    (a class instance; ``cls`` is the dotted class or an ``@``-token for
    modeled objects, ``dtype`` carries constructor-argument taint),
    ``num``/``str`` (weak scalars, ``val`` when constant), ``dim`` (one
    symbolic dim in ``val``), or ``top``.  ``prov`` is the float64
    witness chain: ``(path, line, note)`` steps, producer first.
    """

    __slots__ = ("kind", "shape", "dtype", "items", "cls", "val", "prov")

    def __init__(self, kind, shape=None, dtype=TOP, items=None, cls="",
                 val=None, prov=()):
        self.kind = kind
        self.shape = shape
        self.dtype = dtype
        self.items = items
        self.cls = cls
        self.val = val
        self.prov = tuple(prov)[:_PROV_CAP]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"AV({self.kind}, shape={self.shape}, dtype={self.dtype})"


TOP_AV = AV("top")


def _arr(shape, dtype=TOP, prov=()):
    return AV("arr", shape=shape, dtype=dtype, prov=prov)


def _num(val=None, dtype="pyint"):
    return AV("num", val=val, dtype=dtype)


def fmt_shape(shape) -> str:
    """Human-readable shape: ``($N, 64, ?)`` style without the ``$``."""
    if shape is None:
        return "?"
    return "(" + ", ".join(
        str(d)[1:] if isinstance(d, str) and d.startswith("$") else str(d)
        for d in shape
    ) + ")"


def _dtype_join(a: str, b: str) -> str:
    if a == b:
        return a
    if _F64 in (a, b):
        return _F64
    return TOP


def _dtype_promote(a: str, b: str) -> str:
    """Binop result dtype; weak python scalars never widen an array."""
    if _F64 in (a, b):
        return _F64
    if a == b:
        return a
    if a in _WEAK:
        return b
    if b in _WEAK:
        return a
    return TOP


def _dim_join(a, b):
    return a if a == b else TOP


def _provably_different(a, b) -> bool:
    """True only when two dims cannot be equal for *any* input.

    Literal-vs-literal inequality is always provable; two distinct
    universally-quantified contract symbols are provably violable (the
    claim must hold for all extents).  Anything touching ``?`` is not
    provable.
    """
    if isinstance(a, int) and isinstance(b, int):
        return a != b
    if (isinstance(a, str) and a.startswith("$")
            and isinstance(b, str) and b.startswith("$")):
        return a != b
    return False


def join(a: AV, b: AV) -> AV:
    if a is b:
        return a
    dtype = _dtype_join(a.dtype, b.dtype)
    prov = a.prov if a.dtype == _F64 else b.prov
    if a.kind != b.kind:
        return AV("top", dtype=dtype, prov=prov)
    if a.kind == "arr":
        if a.shape is None or b.shape is None or len(a.shape) != len(b.shape):
            shape = None
        else:
            shape = tuple(_dim_join(x, y) for x, y in zip(a.shape, b.shape))
        return _arr(shape, dtype, prov)
    if a.kind in ("tup", "lst"):
        if a.items is None or b.items is None or len(a.items) != len(b.items):
            merged = list(a.items or []) + list(b.items or [])
            if a.kind == "lst":
                elem = _join_all(merged) if merged else TOP_AV
                return AV("lst", items=[elem], dtype=dtype, prov=prov)
            return AV("top", dtype=dtype, prov=prov)
        items = [join(x, y) for x, y in zip(a.items, b.items)]
        exact = a.val if a.val == b.val else None
        return AV(a.kind, items=items, dtype=dtype, prov=prov, val=exact)
    if a.kind == "obj":
        if a.cls == b.cls:
            return AV("obj", cls=a.cls, items=a.items, dtype=dtype, prov=prov)
        return AV("top", dtype=dtype, prov=prov)
    if a.kind in ("num", "str", "dim"):
        if a.val == b.val:
            return AV(a.kind, val=a.val, dtype=dtype, prov=prov)
        return AV(a.kind, dtype=dtype, prov=prov)
    return AV("top", dtype=dtype, prov=prov)


def _join_all(avs):
    out = avs[0]
    for av in avs[1:]:
        out = join(out, av)
    return out


# -- lowering: AST -> JSON mini-IR -------------------------------------------

_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.MatMult: "@",
}


class _Lowerer(ast.NodeVisitor):
    """Compile every function in a module to the absint mini-IR."""

    def __init__(self, module: str, path: str, imports: dict):
        self.module = module
        self.path = path
        self.imports = dict(imports)
        self.module_defs: dict[str, str] = {}
        self.functions: dict[str, dict] = {}
        self.constants: dict[str, str] = {}
        self._class_stack: list[str] = []
        self._fn_stack: list[str] = []

    # scope / name resolution ------------------------------------------

    def _qualname(self, name: str) -> str:
        if self._fn_stack:
            return f"{self._fn_stack[-1]}.<locals>.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1]}.{name}"
        return f"{self.module}.{name}" if self.module else name

    def _resolve_head(self, name: str) -> str:
        if name in self.module_defs:
            return self.module_defs[name]
        if name in self.imports:
            return self.imports[name]
        return ""

    def _func_desc(self, func: ast.AST):
        dotted_parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            dotted_parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            resolved = self._resolve_head(node.id)
            if resolved:
                return ["g", ".".join([resolved] + list(reversed(dotted_parts)))]
            if not dotted_parts:
                return ["l", node.id]
        if isinstance(func, ast.Attribute):
            return ["m", self._expr(func.value), func.attr]
        return ["u"]

    # expressions ------------------------------------------------------

    def _expr(self, e):
        if e is None:
            return ["c", None]
        if isinstance(e, ast.Constant):
            v = e.value
            if isinstance(v, (int, float, str, bool)) or v is None:
                return ["c", v]
            return ["u"]
        if isinstance(e, ast.Name):
            return ["n", e.id]
        if isinstance(e, (ast.Tuple, ast.List)):
            tag = "t" if isinstance(e, ast.Tuple) else "li"
            return [tag, [self._expr(x) for x in e.elts]]
        if isinstance(e, ast.Attribute):
            return ["a", self._expr(e.value), e.attr]
        if isinstance(e, ast.Subscript):
            return ["s", self._expr(e.value), self._index_items(e.slice),
                    e.lineno, e.col_offset + 1]
        if isinstance(e, ast.BinOp):
            op = _BINOPS.get(type(e.op), "?")
            return ["b", op, self._expr(e.left), self._expr(e.right),
                    e.lineno, e.col_offset + 1]
        if isinstance(e, ast.UnaryOp):
            inner = self._expr(e.operand)
            if (isinstance(e.op, ast.USub) and inner[0] == "c"
                    and isinstance(inner[1], (int, float))):
                return ["c", -inner[1]]
            return ["un", inner]
        if isinstance(e, ast.Call):
            args = [self._expr(a) for a in e.args
                    if not isinstance(a, ast.Starred)]
            starred = any(isinstance(a, ast.Starred) for a in e.args)
            kws = [[kw.arg, self._expr(kw.value)] for kw in e.keywords
                   if kw.arg is not None]
            return ["call", self._func_desc(e.func), args, kws,
                    e.lineno, e.col_offset + 1, int(starred)]
        if isinstance(e, ast.Compare):
            return ["cmp", [self._expr(e.left)] +
                    [self._expr(c) for c in e.comparators]]
        if isinstance(e, ast.BoolOp):
            return ["or", [self._expr(v) for v in e.values]]
        if isinstance(e, ast.IfExp):
            return ["or", [self._expr(e.body), self._expr(e.orelse)]]
        if isinstance(e, ast.NamedExpr):
            if isinstance(e.target, ast.Name):
                return ["nx", e.target.id, self._expr(e.value)]
            return self._expr(e.value)
        if isinstance(e, ast.Starred):
            return self._expr(e.value)
        if isinstance(e, ast.JoinedStr):
            return ["c", ""]
        return ["u"]

    def _index_items(self, sl):
        items = sl.elts if isinstance(sl, ast.Tuple) else [sl]
        out = []
        for item in items:
            if isinstance(item, ast.Slice):
                full = item.lower is None and item.upper is None
                out.append(["sl", int(full)])
            elif isinstance(item, ast.Constant) and item.value is None:
                out.append(["nw"])
            elif isinstance(item, ast.Constant) and item.value is Ellipsis:
                out.append(["el"])
            else:
                out.append(["ix", self._expr(item)])
        return out

    # statements -------------------------------------------------------

    def _block(self, stmts) -> list:
        out = []
        for s in stmts:
            out.extend(self._stmt(s))
        return out

    def _pattern_names(self, target):
        """Tuple-unpack pattern: names in order, None for non-names."""
        if isinstance(target, (ast.Tuple, ast.List)):
            return [t.id if isinstance(t, ast.Name) else None
                    for t in target.elts]
        return None

    def _stmt(self, s) -> list:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._lower_function(s)
            return []
        if isinstance(s, ast.ClassDef):
            self.visit_ClassDef(s)
            return []
        if isinstance(s, ast.Assign):
            value = self._expr(s.value)
            out = []
            for target in s.targets:
                if isinstance(target, ast.Name):
                    out.append(["as", target.id, value])
                else:
                    names = self._pattern_names(target)
                    if names is not None:
                        out.append(["ut", names, value])
                    else:
                        out.append(["ex", value])
            return out
        if isinstance(s, ast.AnnAssign):
            if s.value is None:
                return []
            if isinstance(s.target, ast.Name):
                return [["as", s.target.id, self._expr(s.value)]]
            return [["ex", self._expr(s.value)]]
        if isinstance(s, ast.AugAssign):
            value = self._expr(s.value)
            op = _BINOPS.get(type(s.op), "?")
            if isinstance(s.target, ast.Name):
                combined = ["b", op, ["n", s.target.id], value,
                            s.lineno, s.target.col_offset + 1]
                return [["as", s.target.id, combined]]
            return [["ex", value]]
        if isinstance(s, ast.Return):
            return [["ret", self._expr(s.value)]]
        if isinstance(s, ast.Expr):
            return [["ex", self._expr(s.value)]]
        if isinstance(s, ast.If):
            return [["if", self._expr(s.test), self._block(s.body),
                     self._block(s.orelse)]]
        if isinstance(s, (ast.For, ast.AsyncFor)):
            name = s.target.id if isinstance(s.target, ast.Name) else None
            names = self._pattern_names(s.target)
            return [["for", name, names, self._expr(s.iter),
                     self._block(s.body) + self._block(s.orelse)]]
        if isinstance(s, ast.While):
            return [["while", self._expr(s.test),
                     self._block(s.body) + self._block(s.orelse)]]
        if isinstance(s, (ast.With, ast.AsyncWith)):
            binds = []
            for item in s.items:
                var = (item.optional_vars.id
                       if isinstance(item.optional_vars, ast.Name) else None)
                binds.append([var, self._expr(item.context_expr)])
            return [["with", binds, self._block(s.body)]]
        if isinstance(s, ast.Try):
            handlers = [self._block(h.body) for h in s.handlers]
            return [["try", self._block(s.body), handlers,
                     self._block(s.orelse), self._block(s.finalbody)]]
        if isinstance(s, ast.Raise):
            return [["ex", self._expr(s.exc)]] if s.exc is not None else []
        if isinstance(s, ast.Assert):
            return [["ex", self._expr(s.test)]]
        if isinstance(s, ast.Delete):
            return []
        if isinstance(s, ast.Match):
            blocks = [self._block(c.body) for c in s.cases]
            return [["match", self._expr(s.subject), blocks]]
        return []

    # definitions ------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self.module_defs.update({
            stmt.name: (f"{self.module}.{stmt.name}" if self.module
                        else stmt.name)
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        })
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._lower_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.visit_ClassDef(stmt)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        self._class_stack.append(qualname)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._lower_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.visit_ClassDef(stmt)
            elif (
                node.name == "NeSSAConfig"
                and isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                self.constants.update({stmt.target.id: stmt.value.value})
        self._class_stack.pop()

    def _contract_spec(self, node) -> str:
        for dec in node.decorator_list:
            if not (isinstance(dec, ast.Call) and dec.args):
                continue
            name = dec.func
            while isinstance(name, ast.Attribute):
                name = name.value if name.attr != "shape_contract" else name
                break
            last = (dec.func.attr if isinstance(dec.func, ast.Attribute)
                    else dec.func.id if isinstance(dec.func, ast.Name) else "")
            first = dec.args[0]
            if (last == "shape_contract" and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                return first.value
        return ""

    def _lower_function(self, node) -> None:
        qualname = self._qualname(node.name)
        params = []
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args):
            ann = ""
            a = arg.annotation
            if isinstance(a, ast.Attribute):
                ann = a.attr
            elif isinstance(a, ast.Name):
                ann = a.id
            elif isinstance(a, ast.Constant) and isinstance(a.value, str):
                ann = a.value.rsplit(".", 1)[-1]
            params.append([arg.arg, ann])
        fn_ir = {
            "line": node.lineno,
            "col": node.col_offset + 1,
            "cls": self._class_stack[-1] if self._class_stack else "",
            "params": params,
            "contract": self._contract_spec(node),
            "body": None,
        }
        self._fn_stack.append(qualname)
        saved_cls = self._class_stack[:]
        self._class_stack.clear()  # nested defs qualify under the fn
        fn_ir["body"] = self._block(node.body)
        self._class_stack.extend(saved_cls)
        self._fn_stack.pop()
        self.functions.update({qualname: fn_ir})


def lower_module(tree: ast.Module, module: str, path: str,
                 imports: dict) -> dict:
    """Lower every function in ``tree`` to the absint mini-IR."""
    lowerer = _Lowerer(module, path, imports)
    lowerer.visit_Module(tree)
    out: dict = {"functions": lowerer.functions}
    if "similarity_precision" in lowerer.constants:
        out["config_precision"] = lowerer.constants["similarity_precision"]
    return out


# -- intrinsic tables --------------------------------------------------------

_EW_UNARY = {
    "abs", "absolute", "exp", "log", "log2", "log10", "sqrt", "tanh",
    "sign", "floor", "ceil", "round", "negative", "square", "copy",
    "ascontiguousarray", "sort", "cumsum", "clip", "nan_to_num",
}
_EW_BOOL_UNARY = {"isnan", "isfinite", "isinf", "logical_not", "signbit"}
_EW_BINARY = {
    "add", "subtract", "multiply", "divide", "true_divide", "power",
    "maximum", "minimum", "mod", "hypot", "arctan2", "fmax", "fmin",
}
_EW_BOOL_BINARY = {
    "equal", "not_equal", "greater", "greater_equal", "less",
    "less_equal", "logical_and", "logical_or", "logical_xor", "isclose",
}
_REDUCTIONS = {"sum", "mean", "max", "min", "amax", "amin", "prod",
               "std", "var", "median", "norm", "all", "any", "nanmean",
               "nansum"}
_ARG_REDUCTIONS = {"argmax", "argmin"}
_ALLOC = {"zeros": 0, "ones": 0, "empty": 0, "full": 0}
_LIKE_ALLOC = {"zeros_like", "ones_like", "empty_like", "full_like",
               "copy"}
_ARR_METHODS = (
    {"reshape", "astype", "transpose", "dot", "ravel", "flatten",
     "squeeze", "item", "fill", "tobytes", "tolist", "view"}
    | _EW_UNARY | _REDUCTIONS | _ARG_REDUCTIONS
)
_FUNCTIONAL = "repro.nn.functional."
_SCRATCH = "repro.nn.scratch."


def _dtype_token(expr, av=None) -> str:
    """Canonical dtype named by a lowered expression, "" when dynamic."""
    name = ""
    if expr is not None:
        if expr[0] == "a":
            name = expr[2]
        elif expr[0] == "n":
            name = expr[1]
        elif expr[0] == "c" and isinstance(expr[1], str):
            name = expr[1]
        elif expr[0] == "call" and expr[1][0] == "g":
            name = expr[1][1].rsplit(".", 1)[-1]
    if not name and av is not None and av.kind == "str" and av.val:
        name = av.val
    return _DTYPE_CANON.get(name, "")


# -- the interpreter ---------------------------------------------------------

class Analysis:
    """One whole-program abstract-interpretation pass.

    ``run()`` analyzes every lowered function once (sorted order, so
    the event stream is deterministic regardless of worker count) and
    fills ``events``: dicts with ``rule``/``path``/``line``/``col``/
    ``message``/``hint``/``related`` consumed by NES012/NES013/NES014.
    """

    def __init__(self, index):
        self.index = index
        self.ir: dict[str, dict] = {}
        self.paths: dict[str, str] = {}
        self.precision = "float32"
        for path in sorted(index.files):
            fi = index.files[path]
            absint = getattr(fi, "absint", None) or {}
            for q, fn_ir in absint.get("functions", {}).items():
                self.ir.setdefault(q, fn_ir)
                self.paths.setdefault(q, fi.path)
            if absint.get("config_precision"):
                self.precision = absint["config_precision"]
        self._summaries: dict[str, AV] = {}
        self._active: set[str] = set()
        self.events: list[dict] = []
        self._event_keys: set[tuple] = set()
        self._depth = 0

    # -- driving -------------------------------------------------------

    def run(self) -> "Analysis":
        for qualname in sorted(self.ir):
            self._ensure(qualname)
        self.events.sort(key=lambda e: (e["path"], e["line"], e["col"],
                                        e["rule"], e["message"]))
        return self

    def _emit(self, rule, path, line, col, message, hint, related=()):
        key = (rule, path, line, col, message)
        if key in self._event_keys:
            return
        self._event_keys.add(key)
        self.events.append({
            "rule": rule, "path": path, "line": line, "col": col,
            "message": message, "hint": hint, "related": list(related),
        })

    # -- function summaries --------------------------------------------

    def _seed_env(self, qualname: str, ir: dict) -> dict:
        env: dict[str, AV] = {}
        params = ir.get("params", [])
        contract = ir.get("contract", "")
        first_data = None
        for i, (name, ann) in enumerate(params):
            if i == 0 and name == "self" and ir.get("cls"):
                env[name] = AV("obj", cls=ir["cls"])
                continue
            if first_data is None:
                first_data = name
            if ann in ("ndarray", "NDArray", "ArrayLike"):
                env[name] = _arr(None)
            else:
                cls = self._class_for_annotation(qualname, ann)
                env[name] = AV("obj", cls=cls) if cls else TOP_AV
        if contract and first_data is not None:
            try:
                lhs, _ = parse_spec(contract)
            except ContractError:
                lhs = ()
            if lhs and lhs != ("*",) and "..." not in lhs:
                env[first_data] = _arr(tuple(f"${d}" for d in lhs))
            elif lhs:
                env[first_data] = _arr(None)
        return env

    def _class_for_annotation(self, qualname: str, ann: str) -> str:
        """Project class a CamelCase parameter annotation names."""
        if not ann or not ann[:1].isupper():
            return ""
        scope = qualname
        while "." in scope:
            scope = scope.rsplit(".", 1)[0]
            cand = f"{scope}.{ann}"
            if cand in self.index.classes:
                return cand
        matches = [c for c in sorted(self.index.classes)
                   if c.rsplit(".", 1)[-1] == ann]
        return matches[0] if len(matches) == 1 else ""

    def _ensure(self, qualname: str) -> AV:
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        ir = self.ir.get(qualname)
        if ir is None or qualname in self._active or self._depth > 40:
            return TOP_AV
        self._active.add(qualname)
        self._depth += 1
        frame = _Frame(self, qualname, ir)
        try:
            env = self._seed_env(qualname, ir)
            frame.exec_block(ir.get("body") or [], env)
            ret = _join_all(frame.returns) if frame.returns else TOP_AV
        finally:
            self._active.discard(qualname)
            self._depth -= 1
        self._summaries[qualname] = ret
        self._check_contract(qualname, ir, ret)
        return ret

    # -- NES013: contract conformance ----------------------------------

    def _check_contract(self, qualname: str, ir: dict, ret: AV) -> None:
        spec = ir.get("contract", "")
        if not spec:
            return
        try:
            lhs, rhs = parse_spec(spec)
        except ContractError:
            return
        if rhs == ("*",) or ret.kind != "arr" or ret.shape is None:
            return
        shape = ret.shape
        if "..." in rhs:
            cut = rhs.index("...")
            head, tail = rhs[:cut], rhs[cut + 1:]
            if len(shape) < len(head) + len(tail):
                self._conformance_event(qualname, ir, spec, shape)
                return
            pairs = list(zip(head, shape[:len(head)]))
            if tail:
                pairs += list(zip(tail, shape[-len(tail):]))
        else:
            if len(shape) != len(rhs):
                self._conformance_event(qualname, ir, spec, shape)
                return
            pairs = list(zip(rhs, shape))
        bound = {d: f"${d}" for d in lhs if d not in ("*", "...")}
        for token, actual in pairs:
            expected = bound.get(token)
            if expected is None:
                bound[token] = actual  # primes / fresh RHS names rebind
            elif _provably_different(expected, actual):
                self._conformance_event(qualname, ir, spec, shape)
                return

    def _conformance_event(self, qualname, ir, spec, shape):
        self._emit(
            "NES013", self.paths.get(qualname, ""), ir.get("line", 1),
            ir.get("col", 1),
            f"{qualname.rsplit('.', 2)[-2] if '.' in qualname else qualname}"
            f".{qualname.rsplit('.', 1)[-1]} infers output shape "
            f"{fmt_shape(shape)} which cannot unify with declared "
            f"contract {spec!r}",
            "fix the body or the @shape_contract spec; pragma "
            "allow-shape-conformance(reason) if the analysis is wrong",
        )


def analysis_for(index) -> Analysis:
    """The memoized whole-program analysis for one ProjectIndex."""
    analysis = getattr(index, "_absint_analysis", None)
    if analysis is None:
        analysis = Analysis(index).run()
        index._absint_analysis = analysis
    return analysis


# -- per-function frame ------------------------------------------------------

class _Frame:
    """Interprets one function body; events land on the shared Analysis."""

    def __init__(self, analysis: Analysis, qualname: str, ir: dict):
        self.an = analysis
        self.qualname = qualname
        self.path = analysis.paths.get(qualname, "")
        self.returns: list[AV] = []

    # -- statements ----------------------------------------------------

    def exec_block(self, instrs: list, env: dict) -> dict:
        for ins in instrs:
            op = ins[0]
            if op == "as":
                env[ins[1]] = self.eval(ins[2], env)
            elif op == "ut":
                self._unpack(ins[1], self.eval(ins[2], env), env)
            elif op == "ret":
                self.returns.append(self.eval(ins[1], env))
            elif op == "ex":
                self.eval(ins[1], env)
            elif op == "if":
                self.eval(ins[1], env)
                then_env = self.exec_block(ins[2], dict(env))
                else_env = self.exec_block(ins[3], dict(env))
                env = _env_join(then_env, else_env)
            elif op == "for":
                iterable = self.eval(ins[3], env)
                for _ in range(_LOOP_PASSES):
                    body_env = dict(env)
                    elem = _iter_element(iterable)
                    if ins[1] is not None:
                        body_env[ins[1]] = elem
                    elif ins[2] is not None:
                        self._unpack(ins[2], elem, body_env)
                    body_env = self.exec_block(ins[4], body_env)
                    env = _env_join(env, body_env)
            elif op == "while":
                self.eval(ins[1], env)
                for _ in range(_LOOP_PASSES):
                    body_env = self.exec_block(ins[2], dict(env))
                    env = _env_join(env, body_env)
            elif op == "with":
                for var, ctx in ins[1]:
                    value = self.eval(ctx, env)
                    if var is not None:
                        env[var] = value
                env = self.exec_block(ins[2], env)
            elif op == "try":
                body_env = self.exec_block(ins[1], dict(env))
                merged = _env_join(env, body_env)
                for handler in ins[2]:
                    merged = _env_join(merged,
                                       self.exec_block(handler, dict(env)))
                merged = self.exec_block(ins[3], merged)
                env = self.exec_block(ins[4], merged)
            elif op == "match":
                self.eval(ins[1], env)
                merged = env
                for block in ins[2]:
                    merged = _env_join(merged,
                                       self.exec_block(block, dict(env)))
                env = merged
        return env

    def _unpack(self, names: list, value: AV, env: dict) -> None:
        items = None
        if value.kind in ("tup", "lst") and value.items is not None:
            if len(value.items) == len(names):
                items = value.items
        for i, name in enumerate(names):
            if name is None:
                continue
            env[name] = items[i] if items is not None else TOP_AV

    # -- expressions ---------------------------------------------------

    def eval(self, e, env) -> AV:
        op = e[0]
        if op == "c":
            v = e[1]
            if isinstance(v, bool):
                return _num(v, "bool")
            if isinstance(v, int):
                return _num(v, "pyint")
            if isinstance(v, float):
                return _num(v, "pyfloat")
            if isinstance(v, str):
                return AV("str", val=v)
            return _num(None, "none")
        if op == "n":
            return env.get(e[1], TOP_AV)
        if op == "t":
            return AV("tup", items=[self.eval(x, env) for x in e[1]])
        if op == "li":
            # val=1 marks a literal list whose length is exact (join and
            # .append clear it) — np.stack can then emit a literal axis
            return AV("lst", items=[self.eval(x, env) for x in e[1]], val=1)
        if op == "a":
            return self._attr(self.eval(e[1], env), e[2])
        if op == "s":
            return self._subscript(self.eval(e[1], env), e[2], env)
        if op == "b":
            return self._binop(e[1], self.eval(e[2], env),
                               self.eval(e[3], env), e[4], e[5])
        if op == "un":
            return self.eval(e[1], env)
        if op == "call":
            return self._call(e, env)
        if op == "cmp":
            avs = [self.eval(x, env) for x in e[1]]
            arrs = [a for a in avs if a.kind == "arr"]
            if arrs:
                shape = arrs[0].shape
                for other in arrs[1:]:
                    shape, _ = self._broadcast(shape, other.shape, 0, 0,
                                               check=False)
                return _arr(shape, "bool")
            return _num(None, "bool")
        if op == "or":
            return _join_all([self.eval(x, env) for x in e[1]])
        if op == "nx":
            value = self.eval(e[2], env)
            env[e[1]] = value
            return value
        return TOP_AV

    # attribute access -------------------------------------------------

    def _attr(self, base: AV, attr: str) -> AV:
        if base.kind == "arr":
            if attr == "shape":
                if base.shape is None:
                    return TOP_AV
                return AV("tup",
                          items=[AV("dim", val=d) for d in base.shape])
            if attr == "T":
                shape = None if base.shape is None else base.shape[::-1]
                return _arr(shape, base.dtype, base.prov)
            if attr == "dtype":
                return AV("str", val=base.dtype if base.dtype != TOP else None)
            if attr == "ndim" and base.shape is not None:
                return _num(len(base.shape), "pyint")
            if attr in ("size", "nbytes", "itemsize"):
                return _num(None, "pyint")
            if attr == "flat":
                return _arr(None, base.dtype, base.prov)
            return TOP_AV
        if base.kind == "obj":
            if base.cls == "@lease" and attr == "array" and base.items:
                return base.items[0]
            typed = self.an.index.attr_types.get(base.cls, {}).get(attr)
            if typed and typed != "?":
                dotted = typed[2:] if typed.startswith("q:") else typed
                return AV("obj", cls=dotted)
            if base.dtype == _F64:
                # tainted container (e.g. GradientProxy built from f64
                # vectors): any attribute may be the float64 payload
                return _arr(None, _F64, base.prov)
            return TOP_AV
        if attr in _DTYPE_CANON and base.kind == "top":
            return AV("str", val=_DTYPE_CANON[attr])
        if base.kind == "top" and base.dtype == _F64:
            return AV("top", dtype=_F64, prov=base.prov)
        return TOP_AV

    # indexing ---------------------------------------------------------

    def _subscript(self, base: AV, items: list, env) -> AV:
        idx_avs = [self.eval(it[1], env) if it[0] == "ix" else None
                   for it in items]
        if base.kind in ("tup", "lst") and base.items is not None:
            if len(items) == 1 and items[0][0] == "ix":
                iv = idx_avs[0]
                if (iv is not None and iv.kind in ("num", "dim")
                        and isinstance(iv.val, int)
                        and -len(base.items) <= iv.val < len(base.items)):
                    return base.items[iv.val]
                if base.kind == "lst":
                    return _join_all(base.items)
            return TOP_AV
        if base.kind != "arr":
            if base.dtype == _F64:
                return AV("top", dtype=_F64, prov=base.prov)
            return TOP_AV
        if base.shape is None or any(it[0] == "el" for it in items):
            return _arr(None, base.dtype, base.prov)
        dims = list(base.shape)
        out: list = []
        pos = 0
        for it, iv in zip(items, idx_avs):
            kind = it[0]
            if kind == "nw":
                out.append(1)
                continue
            if pos >= len(dims):
                return _arr(None, base.dtype, base.prov)
            if kind == "sl":
                out.append(dims[pos] if it[1] else TOP)
            elif kind == "ix":
                if iv.kind in ("num", "dim") and isinstance(iv.val, int):
                    pass  # integer index drops this axis
                elif iv.kind == "num" or iv.kind == "dim":
                    pass
                else:
                    # array index (gather): axis survives, extent unknown
                    out.append(TOP)
            pos += 1
        out.extend(dims[pos:])
        return _arr(tuple(out), base.dtype, base.prov)

    # elementwise / matmul ---------------------------------------------

    def _binop(self, op: str, left: AV, right: AV, line, col) -> AV:
        if op == "@":
            return self._matmul(left, right, line, col)
        if left.kind in ("num", "dim") and right.kind in ("num", "dim"):
            return self._scalar_binop(op, left, right)
        if left.kind == "str" or right.kind == "str":
            return AV("str")
        if left.kind == "arr" or right.kind == "arr":
            return self._elementwise(op, left, right, line, col)
        dtype = _dtype_promote(left.dtype, right.dtype)
        prov = left.prov if left.dtype == _F64 else right.prov
        return AV("top", dtype=dtype, prov=prov)

    def _scalar_binop(self, op: str, left: AV, right: AV) -> AV:
        lv, rv = left.val, right.val
        if isinstance(lv, (int, float)) and isinstance(rv, (int, float)):
            try:
                folded = {
                    "+": lv + rv, "-": lv - rv, "*": lv * rv,
                    "//": lv // rv if rv else None,
                    "%": lv % rv if rv else None,
                    "/": lv / rv if rv else None, "**": None,
                }.get(op)
            except (ZeroDivisionError, OverflowError, TypeError):
                folded = None
            if isinstance(folded, int):
                return (AV("dim", val=folded)
                        if "dim" in (left.kind, right.kind)
                        else _num(folded, "pyint"))
            if isinstance(folded, float):
                return _num(folded, "pyfloat")
        if "dim" in (left.kind, right.kind):
            return AV("dim", val=TOP)
        return _num(None, "pyfloat" if op == "/" else TOP)

    def _operand_shape(self, av: AV):
        if av.kind == "arr":
            return av.shape
        if av.kind in ("num", "str", "dim"):
            return ()
        return None

    def _broadcast(self, a, b, line, col, check=True):
        """Broadcast two shapes; returns (result, error message or "")."""
        if a is None or b is None:
            known = a if a is not None else b
            return known, ""
        out = []
        err = ""
        for i in range(1, max(len(a), len(b)) + 1):
            da = a[-i] if i <= len(a) else 1
            db = b[-i] if i <= len(b) else 1
            if da == db:
                out.append(da)
            elif da == 1:
                out.append(db)
            elif db == 1:
                out.append(da)
            elif da == TOP:
                out.append(db)
            elif db == TOP:
                out.append(da)
            elif isinstance(da, int) and isinstance(db, int):
                err = (f"cannot broadcast {fmt_shape(a)} with "
                       f"{fmt_shape(b)}: axis -{i} has {da} vs {db}")
                out.append(TOP)
            else:
                out.append(TOP)
        return tuple(reversed(out)), err

    def _elementwise(self, op, left, right, line, col) -> AV:
        sa, sb = self._operand_shape(left), self._operand_shape(right)
        shape, err = self._broadcast(sa, sb, line, col)
        if err:
            self.an._emit(
                "NES012", self.path, line, col, err,
                "reshape/keepdims one operand so the trailing axes "
                "align; pragma allow-shape(reason) if intended",
            )
        dtype = _dtype_promote(left.dtype, right.dtype)
        prov = left.prov if left.dtype == _F64 else right.prov
        return _arr(shape, dtype, prov)

    def _matmul(self, a: AV, b: AV, line, col) -> AV:
        dtype = _dtype_promote(a.dtype, b.dtype)
        prov = a.prov if a.dtype == _F64 else b.prov
        sa = a.shape if a.kind == "arr" else None
        sb = b.shape if b.kind == "arr" else None
        if sa is None or sb is None or not sa or not sb:
            return _arr(None, dtype, prov)
        inner_a = sa[-1]
        inner_b = sb[-2] if len(sb) >= 2 else sb[-1]
        if _provably_different(inner_a, inner_b):
            self.an._emit(
                "NES012", self.path, line, col,
                f"matmul inner dims differ: {fmt_shape(sa)} @ "
                f"{fmt_shape(sb)}",
                "the contraction axes must agree; pragma "
                "allow-shape(reason) if the analysis is wrong",
            )
        batch_a = sa[:-2] if len(sa) >= 2 else ()
        batch_b = sb[:-2] if len(sb) >= 2 else ()
        batch, _ = self._broadcast(batch_a, batch_b, line, col, check=False)
        tail = []
        if len(sa) >= 2:
            tail.append(sa[-2])
        if len(sb) >= 2:
            tail.append(sb[-1])
        shape = tuple(batch or ()) + tuple(tail)
        return _arr(shape, dtype, prov)

    # -- calls ---------------------------------------------------------

    def _call(self, e, env) -> AV:
        _, fd, arg_exprs, kw_pairs, line, col, starred = e
        args = [self.eval(a, env) for a in arg_exprs]
        kwargs = {k: self.eval(v, env) for k, v in kw_pairs}
        kw_exprs = dict(kw_pairs)
        kind = fd[0]
        if kind == "g":
            return self._global_call(fd[1], args, kwargs, arg_exprs,
                                     kw_exprs, line, col)
        if kind == "m":
            return self._method_call(fd[1], fd[2], args, kwargs,
                                     arg_exprs, kw_exprs, line, col, env)
        if kind == "l":
            receiver = env.get(fd[1], TOP_AV)
            if receiver.kind == "obj":
                return self._instance_call(receiver.cls, args, line, col)
            return TOP_AV
        return TOP_AV

    # global (resolved-name) calls --------------------------------------

    def _global_call(self, dotted, args, kwargs, arg_exprs, kw_exprs,
                     line, col) -> AV:
        parts = dotted.split(".")
        if parts[0] == "numpy":
            return self._numpy_call(parts[-1], args, kwargs, arg_exprs,
                                    kw_exprs, line, col)
        if dotted.startswith(_FUNCTIONAL):
            return self._functional_call(parts[-1], args, line, col)
        if dotted == _SCRATCH + "scratch_pool":
            return AV("obj", cls="@pool")
        if dotted.rsplit(".", 1)[-1] in ("float64", "float32", "float16"):
            target = _DTYPE_CANON[parts[-1]]
            shape = args[0].shape if args and args[0].kind == "arr" else ()
            prov = ((self.path, line, f"{parts[-1]} cast"),) \
                if target == _F64 else ()
            return _arr(shape, target, prov)
        self._check_sink(dotted, args, kwargs, line, col)
        index = self.an.index
        if dotted in index.classes:
            return self._construct(dotted, args, kwargs, line, col)
        targets = sorted(index.resolve(f"q:{dotted}"))
        if not targets:
            return TOP_AV
        results = []
        for target in targets[:4]:
            if target.endswith(".__init__"):
                results.append(self._construct(target[: -len(".__init__")],
                                               args, kwargs, line, col))
            else:
                results.append(self._apply_function(target, args, line, col))
        return _join_all(results) if results else TOP_AV

    def _construct(self, cls_dotted, args, kwargs, line, col) -> AV:
        # CamelCase containers carry their argument taint: the
        # GradientProxy(vectors=<f64>) → proxy.vectors case.
        dtype, prov = TOP, ()
        for av in list(args) + list(kwargs.values()):
            if av.dtype == _F64:
                dtype, prov = _F64, av.prov
                break
        return AV("obj", cls=cls_dotted, dtype=dtype, prov=prov)

    def _apply_function(self, qualname, args, line, col) -> AV:
        summary = self.an._ensure(qualname)
        ir = self.an.ir.get(qualname)
        result = summary
        if ir is not None and ir.get("contract"):
            data = args[0] if args else TOP_AV
            result = self._contract_apply(ir["contract"], data, summary)
        if result.dtype == _F64:
            step = (self.path, line, f"via call to {qualname}")
            result = AV(result.kind, shape=result.shape, dtype=result.dtype,
                        items=result.items, cls=result.cls, val=result.val,
                        prov=tuple(result.prov) + (step,))
        return result

    def _contract_apply(self, spec, data: AV, summary: AV) -> AV:
        try:
            lhs, rhs = parse_spec(spec)
        except ContractError:
            return summary
        dtype = summary.dtype if summary.kind in ("arr", "top") else TOP
        prov = summary.prov
        if lhs == ("*",):
            if data.kind == "arr":
                return _arr(data.shape, data.dtype, data.prov)
            return data if data.kind == "top" else summary
        bound: dict = {}
        if data.kind == "arr" and data.shape is not None:
            shape = data.shape
            if "..." in lhs:
                cut = lhs.index("...")
                head, tail = lhs[:cut], lhs[cut + 1:]
                if len(shape) >= len(head) + len(tail):
                    for token, dim in zip(head, shape[:len(head)]):
                        bound[token] = dim
                    if tail:
                        for token, dim in zip(tail, shape[-len(tail):]):
                            bound[token] = dim
                    bound["..."] = shape[len(head):len(shape) - len(tail)]
            elif len(shape) == len(lhs):
                for token, dim in zip(lhs, shape):
                    bound[token] = dim
        out: list = []
        for token in rhs:
            if token == "...":
                ell = bound.get("...")
                if ell is None:
                    return _arr(None, dtype, prov)
                out.extend(ell)
            else:
                out.append(bound.get(token, TOP))
        return _arr(tuple(out), dtype, prov)

    def _instance_call(self, cls_dotted, args, line, col) -> AV:
        """Calling a module instance dispatches to its ``forward``."""
        methods = self.an.index.classes.get(cls_dotted, {})
        target = methods.get("forward") or methods.get("__call__")
        if target:
            return self._apply_function(target, args, line, col)
        return TOP_AV

    # method calls -----------------------------------------------------

    def _method_call(self, base_expr, meth, args, kwargs, arg_exprs,
                     kw_exprs, line, col, env) -> AV:
        base = self.eval(base_expr, env)
        if base.kind == "lst" and base_expr[0] == "n":
            if meth == "append" and args:
                items = list(base.items or [])
                if len(items) >= 8:
                    items = [_join_all(items + args)]
                else:
                    items = items + [args[0]]
                env[base_expr[1]] = AV("lst", items=items)
                return _num(None, "none")
            if meth == "extend":
                env[base_expr[1]] = AV("lst", items=[TOP_AV])
                return _num(None, "none")
        if base.kind == "obj":
            if meth == "lease" and args:
                shape = self._shape_from_av(args[0])
                dtype = _dtype_token(
                    arg_exprs[1] if len(arg_exprs) > 1 else kw_exprs.get("dtype"),
                    args[1] if len(args) > 1 else kwargs.get("dtype"),
                ) or TOP
                return AV("obj", cls="@lease",
                          items=[_arr(shape, dtype)])
            methods = self.an.index.classes.get(base.cls, {})
            target = methods.get(meth)
            if target:
                return self._apply_function(target, args, line, col)
            typed = self.an.index.attr_types.get(base.cls, {}).get(meth)
            if typed and typed != "?":
                dotted = typed[2:] if typed.startswith("q:") else typed
                return self._instance_call(dotted, args, line, col)
            if base.cls.startswith("@"):
                return TOP_AV
            if meth in self.an.index.classes.get(base.cls, {}):
                return TOP_AV
            return TOP_AV
        if base.kind in ("arr", "top") and meth in _ARR_METHODS:
            arr_base = base if base.kind == "arr" else _arr(None, base.dtype,
                                                            base.prov)
            return self._array_method(arr_base, meth, args, kwargs,
                                      arg_exprs, kw_exprs, line, col)
        if base.kind == "str" or meth in ("format", "join", "split"):
            return AV("str")
        return TOP_AV

    def _shape_from_av(self, av: AV):
        if av.kind == "tup" and av.items is not None:
            return tuple(self._dim_from_av(it) for it in av.items)
        if av.kind in ("num", "dim"):
            return (self._dim_from_av(av),)
        return None

    def _dim_from_av(self, av: AV):
        if av.kind in ("num", "dim") and isinstance(av.val, int):
            return av.val if av.val >= 0 else TOP
        if av.kind == "dim" and av.val is not None:
            return av.val
        return TOP

    def _array_method(self, base: AV, meth, args, kwargs, arg_exprs,
                      kw_exprs, line, col) -> AV:
        if meth == "astype":
            token = _dtype_token(arg_exprs[0] if arg_exprs else
                                 kw_exprs.get("dtype"),
                                 args[0] if args else kwargs.get("dtype"))
            if token == _F64:
                return _arr(base.shape, _F64,
                            ((self.path, line, "cast to float64"),))
            if token:
                return _arr(base.shape, token)
            return _arr(base.shape, base.dtype, base.prov)
        if meth == "reshape":
            if len(args) == 1 and args[0].kind in ("tup", "lst"):
                shape = self._shape_from_av(args[0])
            else:
                shape = tuple(self._dim_from_av(a) for a in args) or None
            return _arr(shape, base.dtype, base.prov)
        if meth == "transpose":
            if not args:
                shape = None if base.shape is None else base.shape[::-1]
            elif base.shape is not None:
                axes = [self._dim_from_av(a) for a in args]
                if args and args[0].kind == "tup":
                    axes = [self._dim_from_av(a) for a in args[0].items or []]
                if all(isinstance(x, int) and 0 <= x < len(base.shape)
                       for x in axes) and len(axes) == len(base.shape):
                    shape = tuple(base.shape[x] for x in axes)
                else:
                    shape = None
            else:
                shape = None
            return _arr(shape, base.dtype, base.prov)
        if meth in ("ravel", "flatten"):
            return _arr((TOP,), base.dtype, base.prov)
        if meth == "dot":
            return self._matmul(base, args[0] if args else TOP_AV, line, col)
        if meth in _REDUCTIONS or meth in _ARG_REDUCTIONS:
            return self._reduce(base, meth, args, kwargs, arg_exprs,
                                kw_exprs)
        if meth in _EW_UNARY:
            return _arr(base.shape, base.dtype, base.prov)
        if meth == "item":
            return _num(None, TOP)
        if meth in ("squeeze", "view"):
            return _arr(None, base.dtype, base.prov)
        return _arr(base.shape, base.dtype, base.prov)

    def _reduce(self, base: AV, meth, args, kwargs, arg_exprs,
                kw_exprs) -> AV:
        dtype = base.dtype
        if meth in _ARG_REDUCTIONS:
            dtype = "int64"
        elif meth in ("all", "any"):
            dtype = "bool"
        elif dtype not in _FLOAT_KINDS and dtype != TOP:
            dtype = TOP  # int reductions like mean go float; stay unknown
        prov = base.prov if dtype == _F64 else ()
        axis_av = kwargs.get("axis") if "axis" in kwargs else (
            args[0] if args else None)
        keep = kwargs.get("keepdims")
        keepdims = bool(keep is not None and keep.kind == "num"
                        and keep.val is True)
        if base.shape is None:
            return _arr(None, dtype, prov)
        if axis_av is None:
            return _arr((1,) * len(base.shape) if keepdims else (),
                        dtype, prov) if keepdims else _num(None, dtype)
        axes: list = []
        if axis_av.kind in ("num", "dim") and isinstance(axis_av.val, int):
            axes = [axis_av.val]
        elif axis_av.kind == "tup" and axis_av.items is not None:
            for item in axis_av.items:
                if item.kind in ("num", "dim") and isinstance(item.val, int):
                    axes.append(item.val)
                else:
                    return _arr(None, dtype, prov)
        else:
            return _arr(None, dtype, prov)
        rank = len(base.shape)
        axes = [a % rank for a in axes if -rank <= a < rank]
        shape = []
        for i, d in enumerate(base.shape):
            if i in axes:
                if keepdims:
                    shape.append(1)
            else:
                shape.append(d)
        return _arr(tuple(shape), dtype, prov)

    # numpy intrinsics -------------------------------------------------

    def _numpy_call(self, name, args, kwargs, arg_exprs, kw_exprs,
                    line, col) -> AV:
        a0 = args[0] if args else TOP_AV
        if name in ("matmul", "dot"):
            return self._matmul(a0, args[1] if len(args) > 1 else TOP_AV,
                                line, col)
        if name == "einsum":
            return self._einsum(args, line, col)
        if name in _EW_BINARY or name in _EW_BOOL_BINARY:
            out = self._elementwise("+", a0,
                                    args[1] if len(args) > 1 else TOP_AV,
                                    line, col)
            if name in _EW_BOOL_BINARY:
                return _arr(out.shape, "bool")
            return out
        if name == "where" and len(args) >= 3:
            branch = self._elementwise("+", args[1], args[2], line, col)
            return self._elementwise("+", _arr(self._operand_shape(a0)
                                               if a0.kind == "arr" else None,
                                               branch.dtype),
                                     branch, line, col)
        if name in _EW_UNARY:
            if a0.kind == "arr":
                dtype = a0.dtype
                if name == "sqrt" and dtype not in _FLOAT_KINDS \
                        and dtype != TOP:
                    dtype = TOP
                return _arr(a0.shape, dtype, a0.prov)
            return _num(None, "pyfloat")
        if name in _EW_BOOL_UNARY:
            shape = a0.shape if a0.kind == "arr" else None
            return _arr(shape, "bool")
        if name == "concatenate":
            return self._concat(a0, kwargs, args, line, col)
        if name == "stack":
            return self._stack(a0, kwargs, args, line, col)
        if name == "reshape" and len(args) >= 2:
            shape = self._shape_from_av(args[1])
            base = a0 if a0.kind == "arr" else _arr(None)
            return _arr(shape, base.dtype, base.prov)
        if name == "transpose":
            base = a0 if a0.kind == "arr" else _arr(None)
            return self._array_method(base, "transpose", args[1:], kwargs,
                                      arg_exprs[1:], kw_exprs, line, col)
        if name == "expand_dims" and len(args) >= 2 and a0.kind == "arr":
            axis = args[1]
            if (a0.shape is not None and axis.kind == "num"
                    and isinstance(axis.val, int)
                    and -len(a0.shape) - 1 <= axis.val <= len(a0.shape)):
                dims = list(a0.shape)
                pos = axis.val if axis.val >= 0 else len(dims) + 1 + axis.val
                dims.insert(pos, 1)
                return _arr(tuple(dims), a0.dtype, a0.prov)
            return _arr(None, a0.dtype, a0.prov)
        if name in _ALLOC or name in ("array", "asarray", "frombuffer",
                                      "fromiter", "full"):
            return self._alloc(name, args, kwargs, arg_exprs, kw_exprs,
                               line)
        if name in _LIKE_ALLOC:
            dtype = _dtype_token(kw_exprs.get("dtype"),
                                 kwargs.get("dtype"))
            base = a0 if a0.kind == "arr" else _arr(None)
            if dtype == _F64:
                return _arr(base.shape, _F64,
                            ((self.path, line, "float64 allocation"),))
            return _arr(base.shape, dtype or base.dtype,
                        base.prov if not dtype else ())
        if name in _REDUCTIONS or name in _ARG_REDUCTIONS:
            base = a0 if a0.kind == "arr" else _arr(None)
            return self._reduce(base, name, args[1:], kwargs,
                                arg_exprs[1:], kw_exprs)
        if name in ("arange", "linspace", "flatnonzero", "unique",
                    "bincount", "argsort", "permutation", "searchsorted",
                    "nonzero"):
            return _arr((TOP,), TOP)
        if name in ("float64", "float32", "float16", "int8", "int16",
                    "int32", "int64", "uint8", "bool_"):
            target = _DTYPE_CANON.get(name, TOP)
            shape = a0.shape if a0.kind == "arr" else ()
            prov = ((self.path, line, f"np.{name} cast"),) \
                if target == _F64 else ()
            return _arr(shape, target, prov)
        if name == "default_rng":
            return AV("obj", cls="@rng")
        if name == "dtype":
            token = _dtype_token(arg_exprs[0] if arg_exprs else None,
                                 a0)
            return AV("str", val=token or None)
        if name == "newaxis":
            return TOP_AV
        return TOP_AV

    def _alloc(self, name, args, kwargs, arg_exprs, kw_exprs, line) -> AV:
        dtype = _dtype_token(kw_exprs.get("dtype"), kwargs.get("dtype"))
        pos = {"full": 2}.get(name, 1)
        if not dtype and name in ("zeros", "ones", "empty", "full") \
                and len(args) > pos:
            dtype = _dtype_token(arg_exprs[pos], args[pos])
        shape = None
        if name in ("zeros", "ones", "empty", "full") and args:
            shape = self._shape_from_av(args[0])
        elif name in ("array", "asarray") and args:
            a0 = args[0]
            if a0.kind == "arr":
                shape = a0.shape
                if not dtype:
                    prov = a0.prov
                    return _arr(shape, a0.dtype, prov)
            elif a0.kind in ("tup", "lst") and a0.items is not None:
                if all(it.kind == "num" for it in a0.items):
                    shape = (len(a0.items),)
        if dtype == _F64:
            return _arr(shape, _F64,
                        ((self.path, line, "float64 allocation"),))
        return _arr(shape, dtype or TOP)

    def _concat(self, seq: AV, kwargs, args, line, col) -> AV:
        axis_av = kwargs.get("axis") or (args[1] if len(args) > 1 else None)
        axis = 0
        if axis_av is not None:
            if axis_av.kind == "num" and isinstance(axis_av.val, int):
                axis = axis_av.val
            else:
                axis = None
        items = seq.items if seq.kind in ("tup", "lst") else None
        if not items:
            return _arr(None)
        arrs = [it for it in items if it.kind == "arr"
                and it.shape is not None]
        dtype = TOP
        prov = ()
        dts = {it.dtype for it in items if it.kind == "arr"}
        if len(dts) == 1:
            dtype = dts.pop()
        elif _F64 in dts:
            dtype = _F64
        for it in items:
            if it.kind == "arr" and it.dtype == _F64 and it.prov:
                prov = it.prov
                break
        ranks = {len(a.shape) for a in arrs}
        if len(arrs) != len(items) or len(ranks) != 1 or axis is None:
            return _arr(None, dtype, prov)
        rank = ranks.pop()
        if not -rank <= (axis if axis is not None else 0) < rank:
            return _arr(None, dtype, prov)
        axis %= rank
        out: list = []
        for i in range(rank):
            dims = [a.shape[i] for a in arrs]
            if i == axis:
                if all(isinstance(d, int) for d in dims):
                    out.append(sum(dims))
                else:
                    out.append(TOP)
                continue
            base = dims[0]
            for d in dims[1:]:
                if _provably_different(base, d):
                    self.an._emit(
                        "NES012", self.path, line, col,
                        f"concatenate along axis {axis}: non-axis dim "
                        f"{i} differs ({fmt_shape(arrs[0].shape)} vs "
                        f"{fmt_shape(arrs[dims.index(d)].shape)})",
                        "all non-concatenation axes must match; pragma "
                        "allow-shape(reason) if intended",
                    )
                    base = TOP
                    break
                base = base if base == d else (
                    d if base == TOP else base if d == TOP else TOP)
            out.append(base)
        return _arr(tuple(out), dtype, prov)

    def _stack(self, seq: AV, kwargs, args, line, col) -> AV:
        items = seq.items if seq.kind in ("tup", "lst") else None
        if not items:
            return _arr(None)
        joined = _join_all(items)
        if joined.kind != "arr" or joined.shape is None:
            return _arr(None, joined.dtype, joined.prov)
        n = len(items) if (seq.kind == "tup" or seq.val) else TOP
        return _arr((n,) + tuple(joined.shape), joined.dtype, joined.prov)

    def _einsum(self, args, line, col) -> AV:
        if not args or args[0].kind != "str" or not args[0].val:
            return _arr(None)
        spec = args[0].val.replace(" ", "")
        operands = args[1:]
        dtype = TOP
        dts = {op.dtype for op in operands if op.kind == "arr"}
        if len(dts) == 1:
            dtype = dts.pop()
        elif _F64 in dts:
            dtype = _F64
        if "->" not in spec or "." in spec:
            return _arr(None, dtype)
        lhs, _, out_spec = spec.partition("->")
        op_specs = lhs.split(",")
        if len(op_specs) != len(operands):
            return _arr(None, dtype)
        bound: dict = {}
        for op_spec, operand in zip(op_specs, operands):
            if operand.kind != "arr" or operand.shape is None:
                continue
            if len(op_spec) != len(operand.shape):
                self.an._emit(
                    "NES012", self.path, line, col,
                    f"einsum operand {op_spec!r} expects "
                    f"{len(op_spec)} dims, got "
                    f"{fmt_shape(operand.shape)}",
                    "the spec and operand ranks must agree; pragma "
                    "allow-shape(reason) if intended",
                )
                continue
            for letter, dim in zip(op_spec, operand.shape):
                prior = bound.get(letter)
                if prior is None or prior == TOP:
                    bound[letter] = dim
                elif _provably_different(prior, dim):
                    self.an._emit(
                        "NES012", self.path, line, col,
                        f"einsum index {letter!r} binds {prior} and "
                        f"{dim} in {spec!r}",
                        "the same index letter must have one extent; "
                        "pragma allow-shape(reason) if intended",
                    )
        return _arr(tuple(bound.get(x, TOP) for x in out_spec), dtype)

    # repro.nn.functional intrinsics -----------------------------------

    def _functional_call(self, name, args, line, col) -> AV:
        # 4-D activations are batch-innermost (C, H, W, N); see the
        # repro.nn.functional module docstring.
        x = args[0] if args else TOP_AV
        shape = x.shape if x.kind == "arr" and x.shape else None
        dtype = x.dtype if x.kind == "arr" else TOP
        prov = x.prov if x.kind == "arr" else ()
        if name == "batch_innermost":  # (N, C, H, W) -> (C, H, W, N)
            if shape is not None and len(shape) == 4:
                return _arr(shape[1:] + shape[:1], dtype, prov)
            return _arr((TOP, TOP, TOP, TOP), dtype, prov)
        c = shape[0] if shape is not None else TOP
        n = shape[-1] if shape is not None and len(shape) == 4 else TOP
        if name == "conv2d":
            out = _arr((TOP, TOP, TOP, n), dtype, prov)
            return AV("tup", items=[out, TOP_AV])
        if name == "conv2d_backward":
            return AV("tup", items=[TOP_AV, TOP_AV, TOP_AV])
        if name == "max_pool2d":
            out = _arr((c, TOP, TOP, n), dtype, prov)
            return AV("tup", items=[out, TOP_AV])
        if name == "avg_pool2d":
            return _arr((c, TOP, TOP, n), dtype, prov)
        if name in ("relu", "softmax", "log_softmax"):
            return _arr(x.shape if x.kind == "arr" else None, dtype, prov)
        if name == "relu_backward":
            grad = args[1] if len(args) > 1 else TOP_AV
            return _arr(grad.shape if grad.kind == "arr" else None,
                        grad.dtype if grad.kind == "arr" else TOP)
        if name == "im2col":
            return _arr((TOP, TOP), dtype)
        if name == "col2im":
            return _arr((TOP, TOP, TOP, TOP), dtype)
        return TOP_AV

    # NES014 sink detection --------------------------------------------

    def _check_sink(self, dotted, args, kwargs, line, col) -> None:
        if self.an.precision == _F64:
            return  # the declared precision admits float64 everywhere
        parts = dotted.split(".")
        sink_mod = ""
        if "qscore" in parts[:-1]:
            sink_mod = "qscore"
        elif "pairwise" in parts[:-1]:
            sink_mod = "pairwise"
        elif parts[-1] == "craig_select_class":
            sink_mod = "craig_select_class"
        elif "smartssd" in parts and "kernel" in parts[:-1]:
            sink_mod = "kernel"
        if not sink_mod:
            return
        caller_mod = self.qualname.split(".")[:-1]
        if "qscore" in caller_mod:
            return  # NES008's per-file domain
        if sink_mod == "pairwise" and "pairwise" in caller_mod:
            return
        if sink_mod == "kernel" and "kernel" in caller_mod:
            return
        for av in list(args) + list(kwargs.values()):
            if av.dtype != _F64:
                continue
            related = [
                {"path": p, "line": ln, "message": note}
                for (p, ln, note) in av.prov
            ]
            producer = av.prov[0][2] if av.prov else "an upstream value"
            self.an._emit(
                "NES014", self.path, line, col,
                f"float64 value reaches {sink_mod} sink {dotted} "
                f"(declared precision {self.an.precision}; producer: "
                f"{producer})",
                "cast to the declared precision before the sink, or "
                "pragma allow-dtype-drift(reason) for a documented "
                "fp64 boundary",
                related=related,
            )
            return


def _env_join(a: dict, b: dict) -> dict:
    out = dict(a)
    for name, av in b.items():
        prior = out.get(name)
        out[name] = av if prior is None else join(prior, av)
    return out


def _iter_element(iterable: AV) -> AV:
    if iterable.kind in ("lst", "tup") and iterable.items:
        return _join_all(iterable.items)
    if iterable.kind == "arr":
        if iterable.shape:
            return _arr(tuple(iterable.shape[1:]), iterable.dtype,
                        iterable.prov)
        return _arr(None, iterable.dtype, iterable.prov)
    return TOP_AV
