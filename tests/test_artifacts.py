"""Damaged artifacts: every load of a cut, padded or bit-flipped file either
raises FormatError or returns finite tensors of a valid layout."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uen.embedding import EMB_MAGIC, EmbeddingTable, FormatError, read_artifact
from uen.gnn import GnnConfig, init_params, load_model, param_shapes, save_model


def save_small_gat(path):
    cfg = GnnConfig(arch="gat", layers=2, hidden=2, lam=0.5)
    save_model(init_params(cfg, 3, np.random.Generator(np.random.PCG64(0))), path)


def save_small_table(path):
    rng = np.random.Generator(np.random.PCG64(1))
    EmbeddingTable.from_rows(["ana", "zoë", "u7"], rng.normal(size=(3, 4))).save(path)


def check_model(path):
    params = load_model(path)
    cfg = GnnConfig(arch=params.arch, layers=params.layers, hidden=params.hidden,
                    lam=params.lam)
    layout = {k: v.shape for k, v in params.tensors.items()}
    assert layout == param_shapes(cfg, params.in_dim)
    assert all(np.isfinite(v).all() for v in params.tensors.values())


def check_table(path):
    table = EmbeddingTable.load(path)
    assert table.matrix.shape == (len(table.ids), table.dim)
    assert all(isinstance(s, str) for s in table.ids)
    assert np.isfinite(table.matrix).all()


FORMATS = {"model": (save_small_gat, check_model), "table": (save_small_table, check_table)}


@st.composite
def mutations(draw, raw):
    kind = draw(st.sampled_from(["cut", "pad", "flip"]))
    if kind == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "pad":
        return raw + draw(st.binary(min_size=1, max_size=8))
    out = bytearray(raw)
    out[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


@pytest.mark.parametrize("with_sidecar", [False, True])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_artifact_is_format_error_or_valid(fmt, with_sidecar, tmp_path, data):
    save, check = FORMATS[fmt]
    path = tmp_path / "artifact"
    save(path)
    if not with_sidecar:
        (tmp_path / "artifact.json").unlink()
    raw = path.read_bytes()
    check(path)  # the undamaged file loads
    path.write_bytes(data.draw(mutations(raw)))
    if with_sidecar:
        with pytest.raises(FormatError, match=str(path)):
            check(path)
    else:
        try:
            check(path)
        except FormatError as exc:
            assert str(path) in str(exc)


@pytest.mark.parametrize("header", [
    pytest.param(b'{"tensors": [["m", [-1, 2]]]}', id="negative-dim"),
    pytest.param(b'{"tensors": [["m", [2.0, 2]]]}', id="float-dim"),
    pytest.param(b'{"tensors": [["m", [1]], ["m", [1]]]}', id="name-twice"),
    pytest.param(b'{"tensors": [[7, [1]]]}', id="int-name"),
    pytest.param(b'{"tensors": [["m", 4]]}', id="int-shape"),
    pytest.param(b'{"tensors": 3}', id="int-tensors"),
    pytest.param(b'{"tensors": [["m"]]}', id="entry-without-shape"),
    pytest.param(b'{"ids": []}', id="no-tensors"),
    pytest.param(b'[["m", [1]]]', id="not-an-object"),
    pytest.param(b'{"tensors": []', id="invalid-json"),
    pytest.param(b'{"ids": ["\xff"], "tensors": []}', id="invalid-utf8"),
])
def test_corrupt_header_is_format_error(header, tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(EMB_MAGIC + len(header).to_bytes(4, "little") + header + bytes(16))
    with pytest.raises(FormatError, match="corrupt header"):
        read_artifact(path, EMB_MAGIC)
