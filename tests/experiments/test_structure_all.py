"""Structural contract every registered experiment must honour."""


class TestEveryExperiment:
    def test_name_matches_registry_key(self, all_results):
        for name, result in all_results.items():
            assert result.name == name

    def test_has_description_and_tables(self, all_results):
        for name, result in all_results.items():
            assert result.description, name
            assert result.tables, name

    def test_tables_render_and_export(self, all_results):
        for name, result in all_results.items():
            rendered = result.render()
            assert rendered.startswith(f"### {name}:")
            for table in result.tables:
                assert table.rows, f"{name}: empty table {table.title!r}"
                csv_text = table.to_csv()
                assert csv_text.count("\n") == len(table.rows) + 1

    def test_data_is_populated(self, all_results):
        for name, result in all_results.items():
            assert result.data, name

    def test_analytical_experiments_carry_checks(self, all_results):
        """Every figure/ablation with quantitative claims exposes a
        machine-checkable ``checks`` block (the config tables are the
        only exceptions)."""
        exempt = {
            "table1_system", "table2_configs", "table3_cxl",
            "table4_ratios", "fig7_placement", "fig10_helm_dist",
            "fig9_helm_weights", "ablation_helm_sweep",
        }
        for name, result in all_results.items():
            if name in exempt:
                continue
            assert "checks" in result.data, name

    def test_json_round_trip(self, all_results):
        import json

        from repro.experiments.cli import _jsonable

        for name, result in all_results.items():
            payload = json.dumps(_jsonable(result.data))
            assert json.loads(payload) is not None, name
