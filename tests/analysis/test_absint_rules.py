"""NES012/NES013/NES014 through the full lint pipeline.

Fixtures are real files under ``tmp_path`` because all three rules are
whole-program (they run over the assembled ProjectIndex, not per file).
"""

import json
import textwrap

from repro.analysis import build_sarif, lint_paths


def run(tmp_path, files, rule, **kwargs):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    findings, suppressed = lint_paths([str(tmp_path)], select={rule}, **kwargs)
    return (
        [f for f in findings if f.rule == rule],
        [f for f in suppressed if f.rule == rule],
    )


class TestShapeErrors:
    def test_matmul_mismatch_flagged_in_scope(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/selection/mod.py": """
            def f(a):
                return a.reshape(4, 8) @ a.reshape(4, 4)
        """}, "NES012")
        (finding,) = findings
        assert "inner dims differ" in finding.message

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/data/mod.py": """
            def f(a):
                return a.reshape(4, 8) @ a.reshape(4, 4)
        """}, "NES012")
        assert findings == []

    def test_compatible_shapes_clean(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/selection/mod.py": """
            import numpy as np

            def f(a):
                x = a.reshape(4, 8)
                y = x @ x.T
                return np.concatenate([y, y], axis=1)
        """}, "NES012")
        assert findings == []

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings, suppressed = run(tmp_path, {"repro/selection/mod.py": """
            def f(a):
                # lint: allow-shape(ragged tail batch is padded upstream)
                return a.reshape(4, 8) @ a.reshape(4, 4)
        """}, "NES012")
        assert findings == []
        assert len(suppressed) == 1


class TestContractConformance:
    WRONG = """
        from repro.nn.contracts import shape_contract

        class Collapse:
            @shape_contract("N,C,H,W -> N,C")
            def forward(self, x):
                return x.mean(axis=3)
    """

    def test_wrong_contract_flagged(self, tmp_path):
        findings, _ = run(
            tmp_path, {"repro/nn/blocks.py": self.WRONG}, "NES013"
        )
        (finding,) = findings
        assert "cannot unify" in finding.message
        assert finding.line == 6  # anchored at the forward def

    def test_correct_contract_clean(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/nn/blocks.py": """
            from repro.nn.contracts import shape_contract

            class Collapse:
                @shape_contract("N,C,H,W -> N,C")
                def forward(self, x):
                    return x.mean(axis=(2, 3))
        """}, "NES013")
        assert findings == []

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings, suppressed = run(tmp_path, {"repro/nn/blocks.py": """
            from repro.nn.contracts import shape_contract

            class Collapse:
                @shape_contract("N,C,H,W -> N,C")
                # lint: allow-shape-conformance(axis constant comes from config at runtime)
                def forward(self, x):
                    return x.mean(axis=3)
        """}, "NES013")
        assert findings == []
        assert len(suppressed) == 1

    LAYOUT = """
        from repro.nn import functional as F
        from repro.nn.contracts import shape_contract

        class Entry:
            @shape_contract("{entry}")
            def forward(self, x):
                return F.batch_innermost(x)

        class Pool:
            @shape_contract("{pool}")
            def forward(self, x):
                out, _ = F.max_pool2d(x, 2)
                return out
    """

    def test_functional_intrinsics_follow_batch_innermost_layout(self, tmp_path):
        source = self.LAYOUT.format(entry="N,C,H,W -> C,H,W,N", pool="C,H,W,N -> C,H',W',N")
        findings, _ = run(tmp_path, {"repro/nn/layout.py": source}, "NES013")
        assert findings == []

    def test_batch_first_contracts_on_functional_calls_flagged(self, tmp_path):
        source = self.LAYOUT.format(entry="N,C,H,W -> N,C,H,W", pool="C,H,W,N -> N,C,H',W'")
        findings, _ = run(tmp_path, {"repro/nn/layout.py": source}, "NES013")
        assert sorted(f.message.split(".")[0] for f in findings) == ["Entry", "Pool"]

    def test_real_nn_chain_passes(self):
        """The committed repro.nn modules honour their own contracts."""
        findings, _ = lint_paths(["src/repro/nn"], select={"NES013"})
        assert [f for f in findings if f.rule == "NES013"] == []


class TestDtypeDrift:
    DRIFT = """
        import numpy as np

        def craig_select_class(v):
            return v

        def go(a):
            v = a.astype(np.float64)
            return craig_select_class(v)
    """

    def test_f64_into_sink_flagged_with_witness_chain(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/driver.py": self.DRIFT}, "NES014")
        (finding,) = findings
        assert "float64" in finding.message
        assert finding.related  # producer -> sink chain for SARIF
        assert finding.related[0]["line"] == 8

    def test_witness_chain_lands_in_sarif(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/driver.py": self.DRIFT}, "NES014")
        sarif = build_sarif(findings)
        result = sarif["runs"][0]["results"][0]
        assert result["relatedLocations"]
        region = result["relatedLocations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 8

    def test_float32_clean(self, tmp_path):
        findings, _ = run(tmp_path, {"repro/driver.py": """
            import numpy as np

            def craig_select_class(v):
                return v

            def go(a):
                return craig_select_class(a.astype(np.float32))
        """}, "NES014")
        assert findings == []

    def test_cross_module_flow_flagged(self, tmp_path):
        findings, _ = run(tmp_path, {
            "repro/gradients.py": """
                import numpy as np

                def make_proxies(a):
                    return a.astype(np.float64)
            """,
            "repro/driver.py": """
                from repro.gradients import make_proxies

                def craig_select_class(v):
                    return v

                def go(a):
                    return craig_select_class(make_proxies(a))
            """,
        }, "NES014")
        (finding,) = findings
        assert finding.path.endswith("repro/driver.py")
        # the chain walks producer cast -> interprocedural call -> sink
        assert any("via call" in step["message"] for step in finding.related)

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings, suppressed = run(tmp_path, {"repro/driver.py": """
            import numpy as np

            def craig_select_class(v):
                return v

            def go(a):
                v = a.astype(np.float64)
                # lint: allow-dtype-drift(reference arm runs at full precision)
                return craig_select_class(v)
        """}, "NES014")
        assert findings == []
        assert len(suppressed) == 1


FIXTURE_TREE = {
    "repro/selection/mod.py": """
        import numpy as np

        def craig_select_class(v):
            return v

        def pick(a):
            bad = a.reshape(4, 8) @ a.reshape(4, 4)
            return craig_select_class(a.astype(np.float64))
    """,
    "repro/nn/blocks.py": """
        from repro.nn.contracts import shape_contract

        class Collapse:
            @shape_contract("N,C,H,W -> N,C")
            def forward(self, x):
                return x.mean(axis=3)
    """,
}


class TestDeterminism:
    def _scan(self, tmp_path, jobs):
        findings, _ = lint_paths(
            [str(tmp_path)],
            select={"NES012", "NES013", "NES014"},
            jobs=jobs,
            cache_path=str(tmp_path / ".lint_cache.json"),
        )
        return json.dumps(build_sarif(findings), indent=2)

    def test_warm_cache_byte_identical_across_jobs(self, tmp_path):
        for name, source in FIXTURE_TREE.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        cold = self._scan(tmp_path, jobs=1)
        warm_serial = self._scan(tmp_path, jobs=1)
        warm_parallel = self._scan(tmp_path, jobs=4)
        assert cold == warm_serial == warm_parallel
        payload = json.loads(cold)
        rules = sorted(r["ruleId"] for r in payload["runs"][0]["results"])
        assert rules == ["NES012", "NES013", "NES014"]
