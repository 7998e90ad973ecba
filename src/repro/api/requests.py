"""Typed request/response objects of the service layer.

These dataclasses are the wire format of :class:`repro.api.ImputationService`:
every request validates itself before execution (bad input fails at the API
boundary, not deep inside a worker), and every object round-trips through
``to_dict`` / ``from_dict`` so it can cross a JSON transport unchanged —
tensors included.  A tensor's values travel as raw little-endian float64
bytes and its mask as packed bits, both base64 inside the JSON, so NaN
payloads, ±inf and -0.0 survive bit for bit; the number-list form older
peers and stores wrote still decodes.  A result can carry only the values
of the cells its request left missing (:meth:`ImputeResult.to_dict`).
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

# model-id validation moved to repro.api.refs with the ModelRef redesign;
# re-exported here because callers historically imported it from this module
from repro.api.refs import (  # noqa: F401
    _MODEL_ID_PATTERN,
    ModelRef,
    check_model_id,
)
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ValidationError
from repro.obs.trace import TraceContext

__all__ = ["FitRequest", "ImputeRequest", "ImputeResult", "check_model_id",
           "tensor_to_dict", "tensor_from_dict"]


# ---------------------------------------------------------------------- #
# tensor wire encoding
# ---------------------------------------------------------------------- #
def _array_to_wire(array: np.ndarray) -> Dict[str, object]:
    """A float array as raw little-endian float64 bytes, base64-encoded.

    Every value survives bit for bit: NaN payloads, ±inf and -0.0 too.
    """
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"shape": list(array.shape),
            "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def _mask_to_wire(mask: np.ndarray) -> Dict[str, object]:
    """A 0/1 mask as packed bits (C order, first cell in the high bit)."""
    mask = np.asarray(mask)
    return {"shape": list(mask.shape),
            "bits": base64.b64encode(
                np.packbits(mask.ravel() == 1).tobytes()).decode("ascii")}


def _wire_shape(payload) -> Tuple[int, ...]:
    shape = payload.get("shape") if isinstance(payload, dict) else None
    if not isinstance(shape, list) \
            or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ValidationError(
            f"a wire array needs a shape of non-negative ints, got {shape!r}")
    return tuple(shape)


def _wire_bytes(text, expected: int, label: str) -> bytes:
    """Decode base64 ``text``, which must hold exactly ``expected`` bytes.

    The wire is input from outside the process: a payload that does not
    match its shape is refused, never reshaped.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as error:  # binascii.Error: ValueError
        raise ValidationError(
            f"wire {label} is not valid base64 ({error})") from None
    if len(raw) != expected:
        raise ValidationError(f"wire {label} holds {len(raw)} bytes; its "
                              f"shape needs {expected}")
    return raw


def _array_from_wire(payload) -> np.ndarray:
    shape = _wire_shape(payload)
    count = math.prod(shape)
    if "data" in payload:                 # the older number-list form
        flat = np.array([np.nan if value is None else value
                         for value in payload["data"]], dtype=np.float64)
        if flat.size != count:
            raise ValidationError(f"wire array holds {flat.size} numbers; "
                                  f"its shape needs {count}")
        return flat.reshape(shape)
    raw = _wire_bytes(payload.get("f8"), 8 * count, "values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _mask_from_wire(payload) -> np.ndarray:
    if isinstance(payload, dict) and "bits" not in payload:
        return _array_from_wire(payload)  # older forms carry a float list
    shape = _wire_shape(payload)
    count = math.prod(shape)
    raw = _wire_bytes(payload["bits"], (count + 7) // 8, "mask")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)
    return bits.astype(np.float64).reshape(shape)


def tensor_to_dict(tensor: TimeSeriesTensor) -> Dict[str, object]:
    """Encode a :class:`TimeSeriesTensor` as plain JSON-able values."""
    dimensions: List[Dict[str, object]] = []
    for dimension in tensor.dimensions:
        if dimension.is_vector_valued:
            members = [np.asarray(m, dtype=np.float64).tolist()
                       for m in dimension.members]
            kind = "vector"
        else:
            members = list(dimension.members)
            kind = "categorical"
        dimensions.append({"name": dimension.name, "kind": kind,
                           "members": members})
    return {
        "name": tensor.name,
        "values": _array_to_wire(tensor.values),
        "mask": _mask_to_wire(tensor.mask),
        "dimensions": dimensions,
    }


def tensor_from_dict(payload: Dict[str, object]) -> TimeSeriesTensor:
    """Inverse of :func:`tensor_to_dict`; also reads the number-list form.

    Raises :class:`ValidationError` when an array's bytes do not match
    its shape.
    """
    dimensions = []
    for spec in payload["dimensions"]:
        if spec["kind"] == "vector":
            members = [np.asarray(m, dtype=np.float64) for m in spec["members"]]
        else:
            members = list(spec["members"])
        dimensions.append(Dimension(name=spec["name"], members=members))
    return TimeSeriesTensor(
        values=_array_from_wire(payload["values"]),
        dimensions=dimensions,
        mask=_mask_from_wire(payload["mask"]),
        name=payload.get("name", "dataset"),
    )


def _require_tensor(value, label: str) -> None:
    if not isinstance(value, TimeSeriesTensor):
        raise ValidationError(
            f"{label} must be a TimeSeriesTensor, got {type(value).__name__} "
            "(wrap raw arrays with repro.api.as_tensor)")


# ---------------------------------------------------------------------- #
# method_kwargs wire encoding (JSON values + config dataclasses)
# ---------------------------------------------------------------------- #
def _kwargs_to_wire(value):
    """JSON-safe rendering of method kwargs.

    Config dataclasses (``config=DeepMVIConfig(...)``) are the standard way
    to parameterise the deep methods, so they are encoded structurally and
    rebuilt by :func:`_kwargs_from_wire`; anything else must already be a
    JSON value.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_kwargs_to_wire(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _kwargs_to_wire(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__config__":
                f"{type(value).__module__}:{type(value).__qualname__}",
                "fields": {f.name: _kwargs_to_wire(getattr(value, f.name))
                           for f in dataclasses.fields(value)}}
    raise ValidationError(
        f"method_kwargs value of type {type(value).__name__!r} is not "
        "wire-serialisable; pass JSON values or config dataclasses")


def _kwargs_from_wire(value):
    if isinstance(value, list):
        return [_kwargs_from_wire(item) for item in value]
    if isinstance(value, dict):
        if "__config__" in value:
            return _config_from_wire(value)
        return {key: _kwargs_from_wire(item) for key, item in value.items()}
    return value


def _config_from_wire(value: Dict[str, object]):
    """Rebuild a config dataclass named by a wire payload.

    The wire is untrusted, so the named target must be a dataclass *type*
    inside the ``repro`` package — anything else (``subprocess:run``,
    arbitrary callables) is rejected before it is ever called.
    """
    reference = str(value["__config__"])
    module_name, _, qualname = reference.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise ValidationError(
            f"wire config {reference!r} is outside the repro package")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not (isinstance(target, type) and dataclasses.is_dataclass(target)):
        raise ValidationError(
            f"wire config {reference!r} is not a config dataclass")
    return target(**{key: _kwargs_from_wire(item)
                     for key, item in value["fields"].items()})


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
@dataclass
class FitRequest:
    """Train a method once so many impute requests can reuse the model.

    Parameters
    ----------
    data:
        The (incomplete) tensor to train on.
    method:
        Registry name of the imputation method.
    method_kwargs:
        Constructor overrides for the method factory.
    model_id:
        Optional explicit id for the fitted model; the service assigns
        ``"<method>-<counter>"`` when omitted.
    """

    data: TimeSeriesTensor
    method: str = "deepmvi"
    method_kwargs: Dict[str, object] = field(default_factory=dict)
    model_id: Optional[str] = None

    def validate(self, registry=None) -> "FitRequest":
        """Check the request; raises :class:`ValidationError` when invalid."""
        _require_tensor(self.data, "FitRequest.data")
        if not isinstance(self.method, str) or not self.method:
            raise ValidationError("FitRequest.method must be a non-empty string")
        if registry is not None:
            registry.info(self.method)  # unknown names raise "did you mean"
        if self.model_id is not None:
            check_model_id(self.model_id, "FitRequest.model_id")
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "data": tensor_to_dict(self.data),
            "method": self.method,
            "method_kwargs": {key: _kwargs_to_wire(value)
                              for key, value in self.method_kwargs.items()},
            "model_id": self.model_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FitRequest":
        return cls(
            data=tensor_from_dict(payload["data"]),
            method=payload.get("method", "deepmvi"),
            method_kwargs={key: _kwargs_from_wire(value)
                           for key, value in
                           dict(payload.get("method_kwargs", {})).items()},
            model_id=payload.get("model_id"),
        )


@dataclass
class ImputeRequest:
    """Complete the missing cells of one tensor with an already-fitted model.

    Parameters
    ----------
    model_id:
        Which model to serve with: a :class:`repro.api.ModelRef`
        (``ModelRef("climate", 2)``, ``ModelRef.latest("climate")``) or a
        reference string (``"climate"``, ``"climate@2"``,
        ``"climate@latest"``).  A bare id means ``@latest`` — the exact
        meaning the legacy ``model_id: str`` convention always had.  The
        serving façades resolve the ref to a concrete store id before
        execution.
    data:
        Tensor to complete; ``None`` means "the tensor the model was fitted
        on" (the classic fit/impute flow).
    request_id:
        Correlation id; assigned by the service at :meth:`submit` time when
        omitted.
    enqueued_at:
        ``time.perf_counter()`` stamp set when the request is admitted to a
        queue (service ``submit`` or the gateway).  Used to report true
        end-to-end ``latency_seconds`` (queue wait + compute) on the
        result.  Process-local timing state: it is deliberately **not**
        part of the wire encoding.
    trace:
        Optional :class:`repro.obs.TraceContext` stamped at submit when
        tracing is armed (``REPRO_TRACE=1``) and the request was head
        sampled.  ``None`` — the default, and the only value untraced
        deployments ever see — costs nothing downstream.  Unlike
        ``enqueued_at`` it *is* wire-encoded (as an optional ``"trace"``
        key) so shard processes can parent their spans correctly; payloads
        without a trace are byte-identical to the pre-tracing format, and
        old peers ignore the key.
    """

    model_id: Union[str, ModelRef]
    data: Optional[TimeSeriesTensor] = None
    request_id: Optional[str] = None
    enqueued_at: Optional[float] = None
    trace: Optional[TraceContext] = None

    @property
    def model_ref(self) -> ModelRef:
        """The request's model reference as a :class:`ModelRef`."""
        return ModelRef.parse(self.model_id)

    def validate(self) -> "ImputeRequest":
        """Check the request; raises :class:`ValidationError` when invalid."""
        if isinstance(self.model_id, ModelRef):
            pass  # validated at construction
        elif not isinstance(self.model_id, str) or not self.model_id.strip():
            raise ValidationError(
                "ImputeRequest.model_id must be a ModelRef or a non-empty "
                "string (the id returned by ImputationService.fit)")
        else:
            ModelRef.parse(self.model_id)  # raises on malformed references
        if self.data is not None:
            _require_tensor(self.data, "ImputeRequest.data")
        return self

    def to_dict(self) -> Dict[str, object]:
        model_id = self.model_id.wire_id() \
            if isinstance(self.model_id, ModelRef) else self.model_id
        payload: Dict[str, object] = {
            "model_id": model_id,
            "data": tensor_to_dict(self.data) if self.data is not None else None,
            "request_id": self.request_id,
        }
        if self.trace is not None:
            payload["trace"] = self.trace.to_wire()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ImputeRequest":
        data = payload.get("data")
        return cls(
            model_id=payload["model_id"],
            data=tensor_from_dict(data) if data is not None else None,
            request_id=payload.get("request_id"),
            trace=TraceContext.from_wire(payload.get("trace")),
        )


@dataclass
class ImputeResult:
    """Outcome of one :class:`ImputeRequest`."""

    request_id: str
    model_id: str
    method: str
    completed: TimeSeriesTensor
    runtime_seconds: float = 0.0
    #: end-to-end latency: queue wait + compute.  Equals
    #: ``runtime_seconds`` for synchronous ``impute()`` calls; for queued
    #: requests (service ``submit``/``gather``, the gateway) it is measured
    #: from the admission stamp (``ImputeRequest.enqueued_at``) to result
    #: completion.
    latency_seconds: float = 0.0
    #: True when the result came out of a micro-batched ``gather()`` sweep
    from_batch: bool = False
    #: True when the batch was served by one fused forward call
    #: (``impute_many``) rather than per-request impute calls; the
    #: per-request ``runtime_seconds`` is then the request's share of the
    #: fused wall-clock.
    fused: bool = False
    #: True when every missing cell of this request was answered from the
    #: precomputed lookup tables (:mod:`repro.core.fast_path`) — no
    #: transformer forward pass ran for it.
    fast_path: bool = False

    def to_dict(self, data: Optional[TimeSeriesTensor] = None
                ) -> Dict[str, object]:
        """The result's wire form.

        Given ``data``, the tensor the request carried, only the values
        the result holds at the cells ``data`` left missing are encoded
        (``"filled"``), and :meth:`from_dict` rebuilds the completed
        tensor from the same ``data``.  That is exact whenever
        ``completed`` is ``data.fill(...)``, as every built-in imputer's
        answer is; any other answer (a plugin's may be one), and a result
        without ``data``, is encoded whole (``"completed"``).
        """
        filled = None if data is None else _filled_cells(data, self.completed)
        payload: Dict[str, object] = {
            "request_id": self.request_id,
            "model_id": self.model_id,
            "method": self.method,
            "runtime_seconds": float(self.runtime_seconds),
            "latency_seconds": float(self.latency_seconds),
            "from_batch": bool(self.from_batch),
            "fused": bool(self.fused),
            "fast_path": bool(self.fast_path),
        }
        if filled is None:
            payload["completed"] = tensor_to_dict(self.completed)
        else:
            payload["filled"] = _array_to_wire(filled)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  data: Optional[TimeSeriesTensor] = None) -> "ImputeResult":
        """Inverse of :meth:`to_dict`; ``"filled"`` payloads need ``data``."""
        if "completed" in payload:
            completed = tensor_from_dict(payload["completed"])
        elif data is None:
            raise ValidationError(
                f"result {payload.get('request_id')!r} carries only its "
                "filled cells; rebuilding it needs its request's data")
        else:
            completed = _fill_from_wire(data, payload["filled"])
        return cls(
            request_id=payload["request_id"],
            model_id=payload["model_id"],
            method=payload["method"],
            completed=completed,
            runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
            latency_seconds=float(payload.get("latency_seconds", 0.0)),
            from_batch=bool(payload.get("from_batch", False)),
            fused=bool(payload.get("fused", False)),
            fast_path=bool(payload.get("fast_path", False)),
        )


def _filled_cells(data: TimeSeriesTensor,
                  completed: TimeSeriesTensor) -> Optional[np.ndarray]:
    """``completed``'s values at ``data``'s missing cells, in C order.

    ``None`` unless ``completed`` is exactly ``data.fill(...)``: same
    shape and name, every cell observed, and every cell ``data`` observed
    unchanged bit for bit.
    """
    if completed.values.shape != data.values.shape \
            or completed.name != data.name or not (completed.mask == 1).all():
        return None
    observed = data.mask == 1
    if not np.array_equal(completed.values[observed].view(np.uint64),
                          data.values[observed].view(np.uint64)):
        return None
    return completed.values[~observed]


def _fill_from_wire(data: TimeSeriesTensor, payload) -> TimeSeriesTensor:
    filled = _array_from_wire(payload)
    missing = data.mask != 1
    count = int(missing.sum())
    if filled.shape != (count,):
        raise ValidationError(
            f"a result fills {filled.size} cells but its request leaves "
            f"{count} missing (was its id resent with other data?)")
    imputed = data.values.copy()
    imputed[missing] = filled
    return data.fill(imputed)
