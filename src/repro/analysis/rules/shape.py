"""NES005 — every public ``forward`` in repro.nn carries a shape contract.

The NN layer's hand-written backward passes make shape bugs easy to
introduce and hard to localize (a transposed conv weight surfaces three
modules downstream).  :mod:`repro.nn.contracts` gives every forward a
declarative ``"C,H,W,N -> K,H',W',N"`` spec; this rule verifies

1. every concrete single-input ``forward(self, x)`` method under
   ``repro/nn/`` is decorated with ``@shape_contract(...)`` whose spec
   string parses (abstract forwards whose body only raises are exempt);
2. for the real ``repro/nn/resnet.py``, the declared contracts *compose*
   along the architecture's pipelines (stem -> blocks -> pool -> head),
   and each composite's declared output arity matches what its chain
   produces — so a contract edit that breaks the network's dataflow
   fails lint, not a training run three layers later.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import dotted_name, in_module

SCOPE = ("repro/nn/",)

# Pipelines whose declared contracts must compose, verified against the
# runtime registry once per lint of the real resnet module.  Each entry:
# (composite qualname or None, chain of contract qualnames).
_CHAINS = [
    (
        "BasicBlock.forward",
        [
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
        ],
    ),
    (
        "Bottleneck.forward",
        [
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
        ],
    ),
    (
        "ResNet.features",
        [
            "Conv2d.forward",
            "BatchNorm2d.forward",
            "ReLU.forward",
            "BasicBlock.forward",
            "Bottleneck.forward",
            "GlobalAvgPool2d.forward",
        ],
    ),
    (
        "ResNet.forward",
        [
            "ResNet.features",
            "Linear.forward",
        ],
    ),
]


def _is_abstract(func: ast.FunctionDef) -> bool:
    body = list(func.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # skip docstring
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _is_single_input_forward(func: ast.FunctionDef) -> bool:
    if func.name != "forward":
        return False
    args = func.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        return False
    return len(args.args) == 2  # (self, x)


def _contract_decorator(func: ast.FunctionDef) -> ast.Call | None:
    for dec in func.decorator_list:
        if isinstance(dec, ast.Call):
            name = dotted_name(dec.func)
            if name is not None and name.split(".")[-1] == "shape_contract":
                return dec
    return None


@register
class ShapeContractChecker(Checker):
    rule = "NES005"
    pragma = "shape-contract"
    description = (
        "public forward(self, x) in repro.nn without a parseable "
        "@shape_contract, or declared resnet contracts that do not compose"
    )

    def check(self, ctx):
        if not in_module(ctx.path, SCOPE):
            return
        from repro.nn.contracts import ContractError, parse_spec

        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                if not _is_single_input_forward(func) or _is_abstract(func):
                    continue
                dec = _contract_decorator(func)
                if dec is None:
                    yield self.finding(
                        ctx,
                        func,
                        f"{cls.name}.forward has no @shape_contract",
                        hint='decorate with @shape_contract("C,H,W,N -> ...") '
                        "from repro.nn.contracts",
                    )
                    continue
                spec_node = dec.args[0] if dec.args else None
                if not (
                    isinstance(spec_node, ast.Constant)
                    and isinstance(spec_node.value, str)
                ):
                    yield self.finding(
                        ctx,
                        dec,
                        f"{cls.name}.forward contract must be a literal "
                        "string (the checker reads it statically)",
                    )
                    continue
                try:
                    parse_spec(spec_node.value)
                except ContractError as exc:
                    yield self.finding(
                        ctx, dec, f"{cls.name}.forward contract invalid: {exc}"
                    )

        if ctx.path.endswith("repro/nn/resnet.py"):
            yield from self._check_composition(ctx)

    def _check_composition(self, ctx):
        """Verify declared contracts compose along the resnet pipelines."""
        try:
            import repro.nn.resnet  # noqa: F401 - populates the registry
            from repro.nn.contracts import CONTRACTS, ContractError, check_chain
        # lint: allow-broad-except(any import failure is converted into a finding below, not swallowed)
        except Exception as exc:
            yield self.finding(
                ctx,
                ctx.tree,
                f"cannot verify contract composition: repro.nn failed to "
                f"import ({exc})",
            )
            return
        for composite, chain in _CHAINS:
            specs = []
            missing = [q for q in chain + [composite] if q not in CONTRACTS]
            if missing:
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"contract chain {composite} cannot be verified: "
                    f"{', '.join(missing)} carry no @shape_contract",
                )
                continue
            specs = [CONTRACTS[q] for q in chain]
            try:
                out = check_chain(specs)
            except ContractError as exc:
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"contracts along {composite} do not compose: {exc}",
                )
                continue
            declared_out = CONTRACTS[composite].split("->")[1].strip()
            declared_arity = len(declared_out.split(","))
            if (
                out is not None
                and "*" not in out
                and "..." not in out
                and "..." not in declared_out
                and declared_out != "*"
                and len(out) != declared_arity
            ):
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"{composite} declares {declared_arity}-dim output but "
                    f"its chain produces {len(out)} dims ({','.join(out)})",
                )
