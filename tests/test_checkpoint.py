import hashlib
import json

import numpy as np
import pytest

from oracle import forward_values
from polygrad.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from polygrad.data import PreprocessStats
from polygrad.errors import ConfigError, ShapeError
from polygrad.linalg import Rng, derive_seed
from polygrad.polynet import Net
from polygrad.train import predict_logits


def poly_net():
    return Net.build(Rng(derive_seed("ckpt-poly")), 4, [6, 5], 3)


def relu_net(dropout=0.35):
    return Net.build(Rng(derive_seed("ckpt-relu")), 4, [6, 5], 3, activation="relu", dropout_rate=dropout)


def preprocess_stats():
    return PreprocessStats(
        feature_names=["a", "b"],
        impute_values={"b": 3.5},
        means=np.array([1.0, 2.0]),
        stds=np.array([0.5, 1.5]),
    )


class TestRoundTrip:
    def test_poly_save_load_save_byte_identical(self, tmp_path):
        net = poly_net()
        p1 = tmp_path / "a.json"
        save_checkpoint(p1, net, provenance={"model_id": "cr", "seed": 3})
        bundle = load_checkpoint(p1)
        p2 = tmp_path / "b.json"
        save_checkpoint(p2, bundle.net, provenance=bundle.provenance)
        assert p1.read_bytes() == p2.read_bytes()
        assert bundle.provenance == {"model_id": "cr", "seed": 3}

    def test_relu_save_load_save_byte_identical(self, tmp_path):
        net = relu_net()
        p1 = tmp_path / "a.json"
        save_checkpoint(p1, net, preprocess=preprocess_stats())
        bundle = load_checkpoint(p1)
        assert bundle.net.dropout_rate == 0.35
        p2 = tmp_path / "b.json"
        save_checkpoint(p2, bundle.net, preprocess=bundle.preprocess)
        assert p1.read_bytes() == p2.read_bytes()

    def test_poly_forward_bitwise_after_reload(self, tmp_path):
        net = poly_net()
        x = Rng(derive_seed("ckpt-x")).standard_normal(7, 4)
        path = tmp_path / "c.json"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path).net
        np.testing.assert_array_equal(predict_logits(net, x), predict_logits(loaded, x))
        ours, _ = forward_values(net, x)
        theirs, _ = forward_values(loaded, x)
        np.testing.assert_array_equal(ours, theirs)

    def test_relu_forward_bitwise_after_reload(self, tmp_path):
        net = relu_net()
        x = Rng(derive_seed("ckpt-rx")).standard_normal(7, 4)
        path = tmp_path / "c.json"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path).net
        a, _ = forward_values(net, x)
        b, _ = forward_values(loaded, x)
        np.testing.assert_array_equal(a, b)

    def test_preprocess_stats_restored_exactly(self, tmp_path):
        path = tmp_path / "p.json"
        save_checkpoint(path, poly_net(), preprocess=preprocess_stats())
        pp = load_checkpoint(path).preprocess
        assert pp.feature_names == ["a", "b"]
        assert pp.impute_values == {"b": 3.5}
        np.testing.assert_array_equal(pp.means, [1.0, 2.0])
        np.testing.assert_array_equal(pp.stds, [0.5, 1.5])

    def test_extreme_floats_survive(self, tmp_path):
        net = poly_net()
        params = net.parameters()
        params["layer0.W"][0, 0] = 1.0 / 3.0
        params["layer0.b"][0] = 1e-300
        params["head.W"][0, 0] = -1.7976931348623157e308
        path = tmp_path / "x.json"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path).net.parameters()
        assert loaded["layer0.W"][0, 0] == 1.0 / 3.0
        assert loaded["layer0.b"][0] == 1e-300
        assert loaded["head.W"][0, 0] == -1.7976931348623157e308


class TestFileFormat:
    def test_floats_stored_as_text(self, tmp_path):
        path = tmp_path / "f.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        sample = obj["params"]["layer0.W"]["data"][0]
        assert isinstance(sample, str)
        float(sample)  # parseable back to a double

    def test_structure_fields(self, tmp_path):
        path = tmp_path / "f.json"
        save_checkpoint(path, relu_net())
        obj = json.loads(path.read_text())
        assert obj["format_version"] == 1
        assert obj["kind"] == "relu"
        assert obj["input_dim"] == 4
        assert obj["num_classes"] == 3
        assert obj["widths"] == [6, 5]
        assert isinstance(obj["dropout_rate"], str)

    def test_bytes_pinned_across_commits(self):
        # sha256 of the bytes an earlier network layout wrote for these nets:
        # the parameter storage may change, the file format may not.
        pinned = {
            "poly": "088f489bd95743615a48a8052d10a29f5e313631653684cf3b82630b6f9c7518",
            "relu": "854f936b9ee857e21a12bed216b0c618cb8d6766711ae9c547943f17de6736dd",
        }
        for kind, net in (("poly", poly_net()), ("relu", relu_net())):
            digest = hashlib.sha256(checkpoint_bytes(net, provenance={"model_id": "x"})).hexdigest()
            assert digest == pinned[kind], kind

    def test_bytes_equal_file_contents(self, tmp_path):
        net = poly_net()
        path = tmp_path / "f.json"
        save_checkpoint(path, net)
        assert path.read_bytes() == checkpoint_bytes(net)


MISSING = object()


def _case(*field, value=MISSING):
    """A checkpoint field to delete or, with ``value``, to overwrite with a wrong type."""
    name = ".".join(field)
    return pytest.param(field, value, id=name if value is MISSING else f"{name}={json.dumps(value)}")


class TestValidation:
    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "v.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match="format_version"):
            load_checkpoint(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "k.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        obj["kind"] = "transformer"
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match="transformer"):
            load_checkpoint(path)

    def test_kind_must_match_parameters(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        obj["kind"] = "relu"
        path.write_text(json.dumps(obj))
        with pytest.raises(ShapeError, match="poly net"):
            load_checkpoint(path)

    def test_tampered_widths(self, tmp_path):
        path = tmp_path / "w.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        obj["widths"] = [6, 4]
        path.write_text(json.dumps(obj))
        with pytest.raises((ShapeError, ConfigError)):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        _case("kind"),
        _case("widths"),
        _case("params"),
        _case("input_dim"),
        _case("params", "layer1.W"),
        _case("params", "layer0.c2"),
        _case("params", "head.b"),
        _case("params", "layer0.b", "data"),
        _case("preprocess", "means"),
        _case("widths", value=5),
        _case("params", value=[]),
        _case("params", "layer0.W", value=5),
        _case("params", "head.b", "data", value="1.0"),
        _case("params", "head.b", "data", value=["x"]),
        _case("params", "head.b", "shape", value=[2, 2]),
        _case("dropout_rate", value="abc"),
        _case("provenance", value=[]),
        _case("preprocess", "impute_values", value=[]),
    ])
    def test_missing_field_is_named(self, tmp_path, field, value):
        path = tmp_path / "f.json"
        save_checkpoint(path, poly_net(), preprocess=preprocess_stats())
        obj = json.loads(path.read_text())
        parent = obj
        for key in field[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[field[-1]]
        else:
            parent[field[-1]] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match=f"{path}.*{field[-1]}") as err:
            load_checkpoint(path)
        assert err.value.key == field[-1]

    def _tampered(self, tmp_path, edit):
        path = tmp_path / "t.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return path

    def test_extra_parameter_is_named(self, tmp_path):
        extra = {"shape": [5], "data": ["0"] * 5}
        path = self._tampered(tmp_path, lambda obj: obj["params"].update({"layer2.b": extra}))
        with pytest.raises(ConfigError, match="layer2.b") as err:
            load_checkpoint(path)
        assert err.value.key == "layer2.b"

    def test_wrong_shape_is_named(self, tmp_path):
        path = self._tampered(tmp_path, lambda obj: obj["params"]["layer0.W"].update(shape=[4, 6]))
        with pytest.raises(ShapeError, match=r"layer0.W.*\(4, 6\).*\(6, 4\)"):
            load_checkpoint(path)

    def test_num_classes_must_match_head(self, tmp_path):
        path = self._tampered(tmp_path, lambda obj: obj.update(num_classes=2))
        with pytest.raises(ShapeError, match="head.W"):
            load_checkpoint(path)
        path = self._tampered(tmp_path, lambda obj: obj.pop("num_classes"))
        with pytest.raises(ConfigError, match="num_classes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 0), ("input_dim", "4"), ("widths", [6, 5.0]), ("widths", []), ("widths", [True, 5]),
    ])
    def test_dimensions_must_be_positive_integers(self, tmp_path, field, value):
        path = self._tampered(tmp_path, lambda obj: obj.update({field: value}))
        with pytest.raises(ConfigError, match=field) as err:
            load_checkpoint(path)
        assert err.value.key == field

    def test_tampered_input_dim(self, tmp_path):
        path = tmp_path / "d.json"
        save_checkpoint(path, poly_net())
        obj = json.loads(path.read_text())
        obj["input_dim"] = 9
        path.write_text(json.dumps(obj))
        with pytest.raises(ShapeError, match="disagree"):
            load_checkpoint(path)
