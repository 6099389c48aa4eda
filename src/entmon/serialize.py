"""JSON file formats for states and channels.

States:
    density matrix  {"dims": [dA, dB(, dC)], "matrix": [[re, im], ...]}
    pure state      {"dims": [dA, dB(, dC)], "vector": [[re, im], ...]}

Matrices are flattened row-major; every complex entry is a [re, im] pair.
Channels:
    {"side": "A"|"B", "kraus": [[[re, im], ...], ...]}

with each Kraus matrix encoded like a state matrix.  Floats are written
with Python's shortest round-trip repr, so a load after a save is
bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import LocalKrausChannel
from .states import DensityMatrix, Dims, PureState


class StateFormatError(ValueError):
    """File contents do not match the documented JSON schema."""


def _encode_complex(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _decode_complex(pairs, name: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"{name} must be a list of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise StateFormatError(f"{name} must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _decode_dims(obj) -> Dims:
    dims = obj.get("dims")
    if not isinstance(dims, list):
        raise StateFormatError("dims must be a list of 1 to 3 positive integers")
    return Dims(*dims)  # which checks each entry


def state_to_json(state: PureState | DensityMatrix) -> dict:
    if isinstance(state, PureState):
        return {"dims": list(state.dims.factors), "vector": _encode_complex(state.amplitudes)}
    if isinstance(state, DensityMatrix):
        return {"dims": list(state.dims.factors), "matrix": _encode_complex(state.matrix)}
    raise TypeError(f"cannot serialize {type(state).__name__}")


def state_from_json(obj) -> PureState | DensityMatrix:
    if not isinstance(obj, dict):
        raise StateFormatError("state document must be a JSON object")
    dims = _decode_dims(obj)
    n = dims.total
    if "vector" in obj:
        amps = _decode_complex(obj["vector"], "vector")
        if amps.size != n:
            raise StateFormatError(f"vector length {amps.size} does not match dims {dims.factors}")
        return PureState(amps, dims)
    if "matrix" in obj:
        flat = _decode_complex(obj["matrix"], "matrix")
        if flat.size != n * n:
            raise StateFormatError(f"matrix length {flat.size} does not match dims {dims.factors}")
        return DensityMatrix(flat.reshape(n, n), dims)
    raise StateFormatError("state document needs a 'vector' or 'matrix' field")


def save_state(path: str | Path, state: PureState | DensityMatrix) -> None:
    Path(path).write_text(json.dumps(state_to_json(state)) + "\n")


def load_state(path: str | Path) -> PureState | DensityMatrix:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON in {path}: {exc}") from exc
    return state_from_json(obj)


def channel_to_json(channel: LocalKrausChannel) -> dict:
    return {"side": channel.side, "kraus": [_encode_complex(m) for m in channel.kraus]}


def channel_from_json(obj) -> LocalKrausChannel:
    if not isinstance(obj, dict) or "side" not in obj or "kraus" not in obj:
        raise StateFormatError("channel document needs 'side' and 'kraus' fields")
    mats = []
    for i, entry in enumerate(obj["kraus"]):
        flat = _decode_complex(entry, f"kraus[{i}]")
        d = round(flat.size**0.5)
        if d * d != flat.size:
            raise StateFormatError(f"kraus[{i}] length {flat.size} is not a square")
        mats.append(flat.reshape(d, d))
    return LocalKrausChannel(obj["side"], tuple(mats))


def save_channel(path: str | Path, channel: LocalKrausChannel) -> None:
    Path(path).write_text(json.dumps(channel_to_json(channel)) + "\n")


def load_channel(path: str | Path) -> LocalKrausChannel:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON in {path}: {exc}") from exc
    return channel_from_json(obj)
