"""JSON round trips for states and channels."""

import json

import numpy as np
import pytest

from entmon.channels import random_channel
from entmon.sampling import random_mixed, random_pure
from entmon.serialize import (
    StateFormatError,
    channel_from_json,
    channel_to_json,
    load_channel,
    load_state,
    save_channel,
    save_state,
    state_from_json,
    state_to_json,
)
from entmon.states import DensityMatrix, Dims, PureState


def test_pure_state_round_trip_is_bit_exact(tmp_path):
    psi = random_pure(Dims(2, 3), np.random.default_rng(0))
    path = tmp_path / "psi.json"
    save_state(path, psi)
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    assert loaded.dims.factors == (2, 3)
    assert np.array_equal(loaded.amplitudes, psi.amplitudes)


def test_density_matrix_round_trip_is_bit_exact(tmp_path):
    rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(1))
    path = tmp_path / "rho.json"
    save_state(path, rho)
    loaded = load_state(path)
    assert isinstance(loaded, DensityMatrix)
    assert np.array_equal(loaded.matrix, rho.matrix)


def test_document_shape():
    psi = random_pure(Dims(2, 2), np.random.default_rng(2))
    doc = state_to_json(psi)
    assert set(doc) == {"dims", "vector"}
    assert doc["dims"] == [2, 2]
    assert len(doc["vector"]) == 4
    assert all(len(pair) == 2 for pair in doc["vector"])
    rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(3))
    doc = state_to_json(rho)
    assert set(doc) == {"dims", "matrix"}
    assert len(doc["matrix"]) == 16  # row-major flattened


def test_row_major_order():
    rho = random_mixed(Dims(2, 2), None, np.random.default_rng(7))
    doc = state_to_json(rho)
    assert doc["matrix"][1] == [rho.matrix[0, 1].real, rho.matrix[0, 1].imag]
    assert doc["matrix"][4] == [rho.matrix[1, 0].real, rho.matrix[1, 0].imag]


def test_bad_documents_rejected():
    with pytest.raises(StateFormatError):
        state_from_json({"dims": [2, 2]})
    with pytest.raises(StateFormatError):
        state_from_json({"dims": [2, 2], "vector": [[1.0, 0.0]]})  # wrong length
    with pytest.raises(StateFormatError):
        state_from_json({"dims": "2x2", "vector": [[1.0, 0.0]]})
    with pytest.raises(StateFormatError):
        state_from_json({"dims": [2, 2], "matrix": [1.0] * 16})
    with pytest.raises(StateFormatError):
        state_from_json([1, 2, 3])


def test_invalid_json_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(path)


def test_channel_round_trip(tmp_path):
    channel = random_channel(3, 2, np.random.default_rng(4))
    path = tmp_path / "channel.json"
    save_channel(path, channel)
    loaded = load_channel(path)
    assert loaded.side == channel.side
    assert len(loaded.kraus) == 2
    for a, b in zip(loaded.kraus, channel.kraus):
        assert np.array_equal(a, b)


def test_channel_document_shape():
    channel = random_channel(2, 2, np.random.default_rng(5))
    doc = channel_to_json(channel)
    assert set(doc) == {"side", "kraus"}
    assert doc["side"] == "B"
    assert len(doc["kraus"][0]) == 4  # 2x2 flattened
    text = json.dumps(doc)
    again = channel_from_json(json.loads(text))
    assert np.array_equal(again.kraus[0], channel.kraus[0])


def test_channel_bad_documents():
    with pytest.raises(StateFormatError):
        channel_from_json({"side": "B"})
    with pytest.raises(StateFormatError):
        channel_from_json({"side": "B", "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]})


def test_channel_file_with_nan_entries_rejected(tmp_path):
    from entmon.channels import ChannelValidationError

    path = tmp_path / "nan.json"
    path.write_text('{"side": "B", "kraus": [[[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [NaN, 0.0]]]}')
    with pytest.raises(ChannelValidationError, match="non-finite"):
        load_channel(path)
