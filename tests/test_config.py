import re
from pathlib import Path

import pytest

from polygrad.config import (
    Config,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)
from polygrad.errors import ConfigError
from polygrad.harness import KEYS, ROSTER, plan_from_config, train_config_from_file


def cfg_of(*lines):
    return parse_config("\n".join(("format_version = 1",) + lines))


class TestGrammar:
    def test_basic_parse(self):
        cfg = parse_config("# comment\nformat_version = 1\n\na.b = hello world\nc=1\n")
        assert cfg.values["a.b"] == "hello world"
        assert cfg.values["c"] == "1"

    def test_value_may_contain_equals(self):
        cfg = cfg_of("note = a=b")
        assert cfg.values["note"] == "a=b"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("format_version = 1\njust a sentence\n")

    def test_malformed_key_rejected(self):
        with pytest.raises(ConfigError, match="Bad"):
            parse_config("format_version = 1\nBad.Key = 1\n")
        with pytest.raises(ConfigError):
            parse_config("format_version = 1\n.leading = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("format_version = 1\na = 1\na = 2\n")

    def test_format_version_required_and_checked(self):
        with pytest.raises(ConfigError, match="format_version"):
            parse_config("a = 1\n")
        with pytest.raises(ConfigError, match="unsupported"):
            parse_config("format_version = 2\n")

    def test_load_config_reports_path(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("format_version = 1\nepochz = 3\n")
        cfg = load_config(p)
        assert cfg.source == str(p)
        assert cfg.values["epochz"] == "3"


class TestTypedGetters:
    def test_int_float(self):
        cfg = cfg_of("a = 3", "b = 2.5")
        assert cfg.get_int("a") == 3
        assert cfg.get_float("b") == 2.5

    def test_lists(self):
        cfg = cfg_of("xs = 1, 2,3", "fs = 0.5, 1.0", "names = a , b")
        assert cfg.get_int_list("xs") == [1, 2, 3]
        assert cfg.get_float_list("fs") == [0.5, 1.0]
        assert cfg.get_list("names") == ["a", "b"]

    def test_defaults_when_absent(self):
        cfg = cfg_of()
        assert cfg.get_int("missing", 7) == 7
        assert cfg.get_float("missing", 1.5) == 1.5
        assert cfg.get_list("missing", ["x"]) == ["x"]
        assert cfg.get_str("missing") is None

    def test_parse_failures_name_the_key(self):
        cfg = cfg_of("a = notanint", "b = nan-ish", "xs = 1, two")
        with pytest.raises(ConfigError, match="'a'"):
            cfg.get_int("a")
        with pytest.raises(ConfigError, match="'b'"):
            cfg.get_float("b")
        with pytest.raises(ConfigError, match="'xs'"):
            cfg.get_int_list("xs")

    def test_non_finite_floats_name_the_key(self):
        cfg = cfg_of("a = nan", "b = inf", "c = -Infinity", "fs = 0.5, nan")
        for key in ("a", "b", "c"):
            with pytest.raises(ConfigError, match=f"'{key}'.*finite") as exc:
                cfg.get_float(key)
            assert exc.value.key == key
        with pytest.raises(ConfigError, match="'fs'.*finite") as exc:
            cfg.get_float_list("fs")
        assert exc.value.key == "fs"

    def test_required_missing_names_the_key(self):
        with pytest.raises(ConfigError, match="missing required key 'format_version'") as exc:
            parse_config("a = 1\n")
        assert exc.value.key == "format_version"


class TestCanonicalHash:
    def test_canonical_text_sorted(self):
        cfg = cfg_of("zebra = 1", "apple = 2")
        assert canonical_text(cfg) == "apple = 2\nformat_version = 1\nzebra = 1\n"

    def test_hash_ignores_order_and_comments(self):
        a = parse_config("format_version = 1\nx = 1\ny = 2\n")
        b = parse_config("# prelude\ny = 2\n\nx = 1\nformat_version = 1\n")
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_values(self):
        a = cfg_of("x = 1")
        b = cfg_of("x = 2")
        assert config_hash(a) != config_hash(b)

    def test_hash_is_hex_string(self):
        h = config_hash(cfg_of())
        assert len(h) == 32
        int(h, 16)


class TestPlanFromConfig:
    def test_defaults(self):
        plan = plan_from_config(cfg_of())
        assert plan.models == list(ROSTER)
        assert plan.fractions == [0.05, 0.1, 0.25, 0.5, 1.0]
        assert plan.seeds == [0, 1, 2, 3, 4, 5]
        assert plan.data_source == "pima_like"
        assert plan.data_seed == 7
        assert plan.eval_fraction == 0.2
        # default comparisons: cr against each of the other four, both metrics
        assert len(plan.comparisons) == 8
        assert ("cr", "vanilla", "tau") in plan.comparisons
        assert ("cr", "relu_dreg", "accuracy") in plan.comparisons
        assert len(plan.cells) == 5 * 5 * 6

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.2"])
    def test_eval_fraction_out_of_range_rejected(self, value):
        with pytest.raises(ConfigError, match="data.eval_fraction") as exc:
            plan_from_config(cfg_of(f"data.eval_fraction = {value}"))
        assert exc.value.key == "data.eval_fraction"

    def test_regularizer_defaults_per_model(self):
        plan = plan_from_config(cfg_of())
        assert plan.specs["cr"].train.lambda_dreg == 0.1
        assert plan.specs["relu_dreg"].train.lambda_dreg == 0.1
        assert plan.specs["vanilla"].train.lambda_dreg == 0.0
        assert plan.specs["dropout"].dropout_rate == 0.2
        assert plan.specs["weight_decay"].train.weight_decay == 1e-4
        assert plan.specs["cr"].kind == "poly"
        assert all(plan.specs[m].kind == "relu" for m in ROSTER if m != "cr")

    def test_regularizer_knobs_do_not_leak_to_other_models(self):
        plan = plan_from_config(cfg_of("train.lambda_dreg = 0.7", "train.dropout_rate = 0.4",
                                       "train.weight_decay = 0.01"))
        assert plan.specs["cr"].train.lambda_dreg == 0.7
        assert plan.specs["vanilla"].train.lambda_dreg == 0.0
        assert plan.specs["vanilla"].dropout_rate == 0.0
        assert plan.specs["vanilla"].train.weight_decay == 0.0
        assert plan.specs["dropout"].dropout_rate == 0.4
        assert plan.specs["weight_decay"].train.weight_decay == 0.01

    @pytest.mark.parametrize("knob, model_id", [("lambda_dreg", "vanilla"), ("weight_decay", "dropout"),
                                                ("dropout_rate", "cr")])
    def test_knob_outside_model_row_is_zero(self, knob, model_id):
        spec = plan_from_config(cfg_of(f"train.{knob} = 0.5")).specs[model_id]
        assert (spec.dropout_rate if knob == "dropout_rate" else getattr(spec.train, knob)) == 0.0

    def test_knob_in_model_row_accepted(self):
        plan = plan_from_config(cfg_of("train.lambda_dreg = 0.5", "train.dropout_rate = 0.3",
                                       "train.weight_decay = 0.01"))
        assert plan.specs["relu_dreg"].train.lambda_dreg == 0.5
        assert plan.specs["cr"].train.lambda_dreg == 0.5
        assert plan.specs["dropout"].dropout_rate == 0.3
        assert plan.specs["weight_decay"].train.weight_decay == 0.01

    def test_dropout_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="dropout_rate") as exc:
            plan_from_config(cfg_of("train.dropout_rate = 1.0"))
        assert exc.value.key == "train.dropout_rate"

    def test_loop_keys_shared_by_every_model(self):
        plan = plan_from_config(cfg_of("train.epochs = 7", "train.batch_size = 16", "train.learning_rate = 0.02"))
        assert {(s.train.epochs, s.train.batch_size, s.train.learning_rate) for s in plan.specs.values()} == {
            (7, 16, 0.02)
        }

    def test_fractions_sorted(self):
        plan = plan_from_config(cfg_of("plan.fractions = 1.0, 0.1, 0.5"))
        assert plan.fractions == [0.1, 0.5, 1.0]

    def test_cells_in_canonical_order(self):
        plan = plan_from_config(cfg_of("plan.models = cr, vanilla",
                                       "plan.fractions = 0.5, 1.0", "plan.seeds = 0, 1"))
        assert plan.cells == [
            ("cr", 0.5, 0), ("cr", 0.5, 1), ("cr", 1.0, 0), ("cr", 1.0, 1),
            ("vanilla", 0.5, 0), ("vanilla", 0.5, 1), ("vanilla", 1.0, 0), ("vanilla", 1.0, 1),
        ]

    def test_poly_widths_flow_from_train_key(self):
        plan = plan_from_config(cfg_of("train.widths = 8, 8"))
        assert plan.specs["cr"].widths == [8, 8]
        assert plan.specs["vanilla"].widths is None  # derived by capacity match

    def test_empty_baseline_widths_mean_capacity_match(self):
        # No key sets a ReLU model's widths, so every baseline is sized by
        # capacity matching against the polynomial widths.
        plan = plan_from_config(cfg_of("train.widths = 12, 12"))
        for model_id in ("vanilla", "dropout", "weight_decay", "relu_dreg"):
            assert plan.specs[model_id].widths is None

    @pytest.mark.parametrize("line, key", [
        ("train.widths =", "train.widths"),
        ("train.widths = 4, -2", "train.widths"),
        ("train.widths = 0", "train.widths"),
        ("train.widths = 8, 0", "train.widths"),
        ("train.widths = -3", "train.widths"),
    ])
    def test_bad_widths_rejected(self, line, key):
        with pytest.raises(ConfigError, match=key) as exc:
            plan_from_config(cfg_of(line))
        assert exc.value.key == key

    def test_unknown_roster_model_rejected(self):
        with pytest.raises(ConfigError, match="resnet") as exc:
            plan_from_config(cfg_of("plan.models = cr, resnet"))
        assert exc.value.key == "plan.models"
        assert str(exc.value) == (
            "<memory>: key 'plan.models' must be a nonempty list of cr, vanilla, dropout, "
            "weight_decay, relu_dreg, got 'cr, resnet'"
        )

    @pytest.mark.parametrize("models, line, key, message", [
        ("cr", "train.dropout_rate = 1.0", "train.dropout_rate", "must be in [0, 1), got '1.0'"),
        ("vanilla", "train.lambda_dreg = -1", "train.lambda_dreg", "must be >= 0, got '-1'"),
        ("cr", "train.weight_decay = -0.5", "train.weight_decay", "must be >= 0, got '-0.5'"),
    ])
    def test_knob_checked_when_no_plan_model_reads_it(self, models, line, key, message):
        with pytest.raises(ConfigError) as exc:
            plan_from_config(cfg_of(f"plan.models = {models}", line))
        assert exc.value.key == key
        assert str(exc.value) == f"<memory>: key {key!r} {message}"

    @pytest.mark.parametrize("line, key", [
        ("plan.models =", "plan.models"),
        ("plan.fractions =", "plan.fractions"),
        ("plan.seeds =", "plan.seeds"),
    ])
    def test_empty_plan_list_names_its_key(self, line, key):
        with pytest.raises(ConfigError, match="nonempty") as exc:
            plan_from_config(cfg_of(line))
        assert exc.value.key == key

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            plan_from_config(cfg_of("plan.fractions = 0.5, 1.5"))

    def test_comparison_parse_errors(self):
        with pytest.raises(ConfigError, match="model_a:model_b:metric"):
            plan_from_config(cfg_of("plan.comparisons = cr:vanilla"))
        with pytest.raises(ConfigError, match="outside the plan"):
            plan_from_config(cfg_of("plan.models = cr, vanilla",
                                    "plan.comparisons = cr:dropout:tau"))
        with pytest.raises(ConfigError, match="loss"):
            plan_from_config(cfg_of("plan.comparisons = cr:vanilla:loss"))

    def test_unknown_key_named(self):
        for key in ("train.epochz", "train.include_head_in_penalty",
                    "model.cr.include_head_in_penalty", "data.impute",
                    "train.optimizer", "model.cr.learning_rate", "model.vanilla.widths"):
            with pytest.raises(ConfigError, match=re.escape(repr(key))) as exc:
                plan_from_config(cfg_of(f"{key} = 3"))
            assert exc.value.key == key

    def test_csv_source_requires_path(self):
        with pytest.raises(ConfigError, match="data.path"):
            plan_from_config(cfg_of("data.source = csv"))

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError, match="parquet"):
            plan_from_config(cfg_of("data.source = parquet"))

    def test_plan_hash_matches_config_hash(self):
        cfg = cfg_of("plan.models = cr, vanilla")
        assert plan_from_config(cfg).plan_hash == config_hash(cfg)


class TestTrainConfigFromFile:
    def test_defaults_to_cr_full_fraction(self):
        plan, model_id, fraction, seed = train_config_from_file(cfg_of())
        assert (model_id, fraction, seed) == ("cr", 1.0, 0)
        assert plan.models == ["cr"]
        assert plan.fractions == [1.0]
        assert plan.comparisons == []

    def test_explicit_cell(self):
        plan, model_id, fraction, seed = train_config_from_file(
            cfg_of("model.id = dropout", "data.fraction = 0.25", "run.seed = 4"))
        assert (model_id, fraction, seed) == ("dropout", 0.25, 4)
        assert plan.models == ["dropout"]

    def test_full_plan_file_keeps_fraction_context(self):
        # Reproducing one sweep cell needs the plan's full fraction list:
        # the smallest fraction uses ceil rounding, the rest round.
        plan, model_id, fraction, _ = train_config_from_file(
            cfg_of("plan.models = cr, vanilla", "plan.fractions = 0.05, 0.1, 1.0",
                   "model.id = cr", "data.fraction = 0.1"))
        assert fraction == 0.1
        assert plan.fractions == [0.05, 0.1, 1.0]

    def test_model_outside_plan_rejected(self):
        with pytest.raises(ConfigError, match="model.id"):
            train_config_from_file(cfg_of("plan.models = cr, vanilla", "model.id = dropout"))

    def test_unknown_model_id_names_its_key(self):
        with pytest.raises(ConfigError, match="'foo'") as exc:
            train_config_from_file(cfg_of("model.id = foo"))
        assert exc.value.key == "model.id"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_key_table() -> dict:
    """The README's key vocabulary, key -> default cell, one key per row."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\nKey vocabulary"):]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[-1].strip("`")
    return rows


class TestKeyTable:
    def test_readme_lists_every_key_with_its_default(self):
        # A default cell is read with the key's own getter; a dash means unset.
        rows = readme_key_table()
        assert list(rows) == list(KEYS)
        for key, cell in rows.items():
            get, default, _ = KEYS[key]
            assert (None if cell == "—" else get(Config({key: cell}), key)) == default, key


class TestConfigObject:
    def test_source_label_in_errors(self):
        cfg = Config({"format_version": "1", "a": "x"}, source="myfile.txt")
        with pytest.raises(ConfigError, match="myfile.txt"):
            cfg.get_int("a")
