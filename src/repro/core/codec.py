"""Versioned, JSON-native wire codec for everything that crosses a boundary.

Until now every rich payload leaving a process — artifacts on disk, job
payloads over HTTP, results coming back — crossed the boundary as a pickle.
Pickle couples both ends to one codebase revision and executes arbitrary
code on load, which rules out untrusted clients, non-Python producers and
long-lived stores.  Large acquisition fleets survive heterogeneous
producers by doing the opposite: the wire format is a *versioned,
self-describing schema*, and every reader validates the version before
touching the payload.  This module is that layer for the repository.

Concepts
--------

**Schema registry.**  :func:`register_schema` binds ``(name, version)`` to an
``encode``/``decode`` pair (and optionally the Python type it serializes, so
:func:`encode` can dispatch on ``type(obj)``).  Versions are explicit:
decoding an envelope whose name or version is not registered raises
:class:`UnknownSchemaError` with the known alternatives in the message —
never a silent misparse.  :func:`register_dataclass` derives the field-wise
codec for plain dataclasses, which covers most of the repository's types.

**Envelopes.**  An encoded object is a JSON object tagged with a reserved
``"$schema"`` key::

    {"$schema": "accelerator_config@1", "name": "sqdm", "num_dpe": 1, ...}

Envelopes nest: a ``simulation_report@1`` contains ``step_result@1``
objects, which contain ``energy_breakdown@1`` objects, and so on — every
level is independently self-describing.

**Values.**  Inside an envelope, plain JSON values pass through unchanged.
Three reserved markers cover the rest:

* ``{"$ndarray": {"dtype": ..., "shape": ..., "data": <base64>}}`` — a NumPy
  array (decoders also accept a plain JSON list wherever an array is
  expected, so hand-written payloads — e.g. a curl request — need no
  base64).
* ``{"$bytes": <base64>}`` — a bytes value.
* ``{"$dict": [[key, value], ...]}`` — a mapping whose keys are not plain
  JSON-safe strings (non-string keys, or keys starting with ``"$"``).

**Binary sidecars.**  Base64 inflates arrays by a third, which matters for
artifacts holding megabytes of sparsity data and for sweep results holding
hundreds of kilobytes of columns.  :func:`encode` therefore accepts an
``arrays`` list: when given, array/bytes payloads are appended to it as raw
buffers and the JSON carries ``{"$ndarray": {..., "buffer": i}}``
references instead.  :func:`decode` takes the same buffers back.

**Frames.**  :func:`pack_frame` joins one JSON document and its sidecar
buffers into one binary frame: an 8-byte little-endian header length, the
UTF-8 JSON header ``{"doc": <doc>, "buffers": [len, ...]}``, then the raw
buffers back to back.  :func:`unpack_frame` is its only reader.  Artifact
files carry one frame each, and the HTTP server answers a result long-poll
with one (media type :data:`FRAME_MEDIA_TYPE`) when the client's
``Accept`` names it.  Every other HTTP body stays plain JSON with arrays
inline as base64, so curl and any other JSON client read every endpoint.

Round-trip equality is part of the contract: for every registered schema,
``encode(decode(encode(x))) == encode(x)`` (see :func:`roundtrip_equal` and
``tests/test_codec.py``, which enforces it for each registered name).
"""

from __future__ import annotations

import base64
import json
import threading
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

#: Reserved envelope/value markers.  No schema field may start with ``"$"``.
SCHEMA_KEY = "$schema"
NDARRAY_KEY = "$ndarray"
BYTES_KEY = "$bytes"
DICT_KEY = "$dict"

#: Version of the wire protocol as a whole (envelope + value markers), used
#: by the HTTP layer for content negotiation.  Individual schemas carry
#: their own versions on top of this.
WIRE_VERSION = 1

#: Media type of a :func:`pack_frame` body on the HTTP wire.
FRAME_MEDIA_TYPE = "application/vnd.repro.frame"

#: Bytes of a frame's leading header-length field (little-endian).
_FRAME_LENGTH_BYTES = 8

#: Schema name used for bare JSON-native payloads (dicts, lists, scalars,
#: bytes and arrays) that have no dataclass of their own.
VALUE_SCHEMA = "value"


class SchemaError(ValueError):
    """A payload cannot be encoded or decoded under the registered schemas."""


class UnknownSchemaError(SchemaError):
    """An envelope names a schema name or version this process does not know."""


@dataclass(frozen=True)
class Schema:
    """One registered (name, version) codec."""

    name: str
    version: int
    encode: Callable[[Any, "Encoder"], dict]
    decode: Callable[[Mapping[str, Any], "Decoder"], Any]
    type: type | None = None

    @property
    def tag(self) -> str:
        return f"{self.name}@{self.version}"


_REGISTRY: dict[tuple[str, int], Schema] = {}
_LATEST: dict[str, Schema] = {}
_BY_TYPE: dict[type, Schema] = {}
_REGISTRY_LOCK = threading.Lock()
_BUILTINS_LOCK = threading.RLock()
_BUILTINS_LOADED = False


def _ensure_builtin_schemas() -> None:
    """Import the module that registers the core schemas (once).

    Only :mod:`repro.core.schemas` loads here — core never imports the serve
    package.  The job-spec schemas live with the service layer and register
    when :mod:`repro.serve.specs` is imported, which every serve entry point
    (service, HTTP server, client, CLI) does on its own.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED:
            return
        import repro.core.schemas  # noqa: F401  (registers core/accelerator/diffusion)

        _BUILTINS_LOADED = True


def register_schema(
    name: str,
    version: int,
    encode: Callable[[Any, "Encoder"], dict],
    decode: Callable[[Mapping[str, Any], "Decoder"], Any],
    type: type | None = None,  # noqa: A002 - mirrors the envelope's semantics
) -> Schema:
    """Register one ``(name, version)`` codec pair.

    ``encode(obj, ctx) -> dict`` produces the envelope's fields;
    ``decode(fields, ctx) -> obj`` inverts it.  When ``type`` is given,
    :func:`encode` dispatches instances of that type to this schema (the
    highest registered version wins).  Re-registering an existing
    ``(name, version)`` is an error — bump the version instead.
    """
    if not name or "@" in name or name.startswith("$"):
        raise ValueError(f"invalid schema name {name!r}")
    if version < 1:
        raise ValueError(f"schema version must be >= 1, got {version}")
    schema = Schema(name=name, version=version, encode=encode, decode=decode, type=type)
    with _REGISTRY_LOCK:
        if (name, version) in _REGISTRY:
            raise ValueError(f"schema {schema.tag} is already registered; bump the version")
        _REGISTRY[(name, version)] = schema
        latest = _LATEST.get(name)
        if latest is None or version > latest.version:
            _LATEST[name] = schema
            if type is not None:
                _BY_TYPE[type] = schema
    return schema


def schema_for(name: str, version: int | None = None) -> Schema:
    """Look a schema up by name (latest version) or (name, version) exactly.

    Raises :class:`UnknownSchemaError` naming the known schemas/versions, so
    a client speaking a newer (or misspelled) schema gets an actionable
    rejection instead of a misparse.
    """
    _ensure_builtin_schemas()
    with _REGISTRY_LOCK:
        if version is None:
            schema = _LATEST.get(name)
            if schema is None:
                known = sorted(_LATEST)
                raise UnknownSchemaError(f"unknown schema {name!r}; known schemas: {known}")
            return schema
        schema = _REGISTRY.get((name, version))
        if schema is not None:
            return schema
        versions = sorted(v for (n, v) in _REGISTRY if n == name)
    if versions:
        raise UnknownSchemaError(
            f"unknown version {version} of schema {name!r}; "
            f"this process knows version(s) {versions}"
        )
    known = sorted({n for (n, _) in _REGISTRY})
    raise UnknownSchemaError(f"unknown schema {name!r}; known schemas: {known}")


def registered_schemas() -> dict[str, list[int]]:
    """Every registered schema name with its known versions (for ``GET /schemas``)."""
    _ensure_builtin_schemas()
    with _REGISTRY_LOCK:
        out: dict[str, list[int]] = {}
        for name, version in sorted(_REGISTRY):
            out.setdefault(name, []).append(version)
        return out


def _parse_tag(tag: Any) -> tuple[str, int]:
    if not isinstance(tag, str) or "@" not in tag:
        raise SchemaError(f"malformed {SCHEMA_KEY} tag {tag!r}; expected '<name>@<version>'")
    name, _, version_text = tag.rpartition("@")
    try:
        version = int(version_text)
    except ValueError:
        raise SchemaError(f"malformed schema version in tag {tag!r}") from None
    return name, version


# -- encoding ---------------------------------------------------------------------


class Encoder:
    """Encoding context: value recursion plus the optional binary sidecar sink."""

    def __init__(self, arrays: list[bytes] | None = None) -> None:
        self.arrays = arrays

    # -- leaves ---------------------------------------------------------------

    def _pack_buffer(self, raw: bytes) -> dict[str, Any] | str:
        if self.arrays is None:
            return base64.b64encode(raw).decode("ascii")
        self.arrays.append(raw)
        return {"buffer": len(self.arrays) - 1}

    def ndarray(self, array: np.ndarray) -> dict[str, Any]:
        array = np.asarray(array)
        if array.dtype == object:
            raise SchemaError("object-dtype arrays are not wire-encodable")
        raw = np.ascontiguousarray(array).tobytes()
        ref: dict[str, Any] = {"dtype": array.dtype.str, "shape": list(array.shape)}
        packed = self._pack_buffer(raw)
        if isinstance(packed, str):
            ref["data"] = packed
        else:
            ref.update(packed)
        return {NDARRAY_KEY: ref}

    def bytes(self, raw: bytes) -> dict[str, Any]:
        return {BYTES_KEY: self._pack_buffer(bytes(raw))}

    # -- recursion ------------------------------------------------------------

    def encode(self, obj: Any, name: str | None = None, version: int | None = None) -> dict:
        """Encode one object as a tagged envelope (dispatching on type)."""
        _ensure_builtin_schemas()
        if name is None:
            schema = _BY_TYPE.get(type(obj))
            if schema is None:
                if _is_plain_value(obj):
                    schema = schema_for(VALUE_SCHEMA)
                else:
                    raise SchemaError(
                        f"no schema registered for {type(obj).__name__}; "
                        "register one with repro.core.codec.register_schema "
                        "(or register_dataclass)"
                    )
        else:
            schema = schema_for(name, version)
        fields = schema.encode(obj, self)
        bad = [key for key in fields if key.startswith("$")]
        if bad:
            raise SchemaError(f"schema {schema.tag} produced reserved field names {bad}")
        return {SCHEMA_KEY: schema.tag, **fields}

    def value(self, value: Any) -> Any:
        """Encode one value (scalar, container, array or registered object)."""
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, (bytes, bytearray)):
            return self.bytes(bytes(value))
        if isinstance(value, np.ndarray):
            return self.ndarray(value)
        if isinstance(value, (list, tuple)):
            return [self.value(item) for item in value]
        if isinstance(value, Mapping):
            plain = all(
                isinstance(key, str) and not key.startswith("$") for key in value
            )
            if plain:
                return {key: self.value(item) for key, item in value.items()}
            return {
                DICT_KEY: [[self.value(key), self.value(item)] for key, item in value.items()]
            }
        _ensure_builtin_schemas()
        if type(value) in _BY_TYPE:
            return self.encode(value)
        if isinstance(value, Sequence):  # e.g. a report's lazily built step list
            return [self.value(item) for item in value]
        raise SchemaError(
            f"value of type {type(value).__name__} is not wire-encodable; "
            "register a schema for it or pass plain data"
        )


def _is_plain_value(obj: Any) -> bool:
    return isinstance(
        obj,
        (type(None), bool, int, float, str, bytes, bytearray, list, tuple, dict, np.ndarray,
         np.generic),
    )


# -- decoding ---------------------------------------------------------------------


class Decoder:
    """Decoding context: value recursion plus the optional sidecar buffers."""

    def __init__(self, buffers: Sequence[bytes] | None = None) -> None:
        self.buffers = buffers

    def _unpack_buffer(self, payload: Any) -> bytes:
        """Resolve a binary payload: inline base64, or a sidecar buffer index."""
        if isinstance(payload, str):
            try:
                return base64.b64decode(payload.encode("ascii"), validate=True)
            except Exception as exc:
                raise SchemaError(f"invalid base64 payload: {exc}") from None
        index = payload.get("buffer") if isinstance(payload, Mapping) else None
        if not isinstance(index, int) or isinstance(index, bool):
            raise SchemaError(
                f"binary payload needs base64 data or a 'buffer' index, got {payload!r}"
            )
        if self.buffers is None or not 0 <= index < len(self.buffers):
            have = 0 if self.buffers is None else len(self.buffers)
            raise SchemaError(f"binary buffer {index} out of range ({have} sidecar buffer(s))")
        return self.buffers[index]

    def ndarray(self, doc: Any, dtype: Any = None) -> np.ndarray:
        """Decode an array reference; plain JSON lists are accepted as arrays."""
        if isinstance(doc, (list, tuple)):
            return np.asarray(doc, dtype=dtype)
        if not (isinstance(doc, Mapping) and NDARRAY_KEY in doc):
            raise SchemaError(
                f"expected an array ({NDARRAY_KEY} or list), got {type(doc).__name__}"
            )
        ref = doc[NDARRAY_KEY]
        if not isinstance(ref, Mapping):
            raise SchemaError(f"malformed {NDARRAY_KEY} reference: {ref!r}")
        try:
            declared = np.dtype(ref["dtype"])
            shape = tuple(int(dim) for dim in ref["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed {NDARRAY_KEY} reference: {exc!r}") from None
        raw = self._unpack_buffer(ref["data"] if "data" in ref else ref)
        try:
            array = np.frombuffer(raw, dtype=declared).reshape(shape).copy()
        except ValueError as exc:
            raise SchemaError(f"array payload does not match dtype/shape: {exc}") from None
        return array.astype(dtype) if dtype is not None else array

    def decode(self, doc: Any) -> Any:
        """Decode one tagged envelope back into its object."""
        if not (isinstance(doc, Mapping) and SCHEMA_KEY in doc):
            raise SchemaError(
                f"expected a schema envelope with a {SCHEMA_KEY!r} tag, "
                f"got {type(doc).__name__}"
            )
        name, version = _parse_tag(doc[SCHEMA_KEY])
        schema = schema_for(name, version)
        fields = {key: item for key, item in doc.items() if key != SCHEMA_KEY}
        try:
            return schema.decode(fields, self)
        except SchemaError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise SchemaError(f"invalid {schema.tag} payload: {exc!r}") from exc

    def value(self, doc: Any) -> Any:
        """Decode one value produced by :meth:`Encoder.value`."""
        if isinstance(doc, Mapping):
            if SCHEMA_KEY in doc:
                return self.decode(doc)
            if NDARRAY_KEY in doc:
                return self.ndarray(doc)
            if BYTES_KEY in doc:
                return self._unpack_buffer(doc[BYTES_KEY])
            if DICT_KEY in doc:
                pairs = doc[DICT_KEY]
                if not isinstance(pairs, list):
                    raise SchemaError(f"malformed {DICT_KEY} payload: {pairs!r}")
                out = {}
                for pair in pairs:
                    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                        raise SchemaError(f"malformed {DICT_KEY} entry: {pair!r}")
                    key = self.value(pair[0])
                    if isinstance(key, list):
                        key = tuple(key)
                    out[key] = self.value(pair[1])
                return out
            return {key: self.value(item) for key, item in doc.items()}
        if isinstance(doc, list):
            return [self.value(item) for item in doc]
        return doc


# -- dataclass helper --------------------------------------------------------------


def register_dataclass(
    cls: type,
    name: str,
    version: int = 1,
    exclude: Iterable[str] = (),
    decode_hook: Callable[[dict], dict] | None = None,
) -> Schema:
    """Derive and register the field-wise schema of a plain dataclass.

    Every public field is encoded with the generic value rules (nested
    registered dataclasses become nested envelopes, arrays become
    ``$ndarray`` references).  Decoding follows the skew contract large
    heterogeneous fleets need: field names this revision does not define are
    *tolerated and ignored* — a newer writer of the same schema version may
    add minor fields without breaking older readers — while an unknown
    ``$schema`` *version* is still rejected up front (with the known
    alternatives) by :func:`schema_for`, because a version bump signals an
    incompatible layout, not an addition.  ``decode_hook`` may normalize the
    decoded kwargs (e.g. coerce key types) before construction.
    """
    excluded = set(exclude)
    names = [
        f.name
        for f in dataclass_fields(cls)
        if f.name not in excluded and not f.name.startswith("_")
    ]
    known = set(names)

    def enc(obj: Any, ctx: Encoder) -> dict:
        return {field: ctx.value(getattr(obj, field)) for field in names}

    def dec(doc: Mapping[str, Any], ctx: Decoder) -> Any:
        # Unknown minor fields (a newer same-version writer) are dropped, not
        # fatal; decoding only what this revision defines keeps old readers
        # working across rolling upgrades.
        kwargs = {key: ctx.value(item) for key, item in doc.items() if key in known}
        if decode_hook is not None:
            kwargs = decode_hook(kwargs)
        return cls(**kwargs)

    return register_schema(name, version, enc, dec, type=cls)


# -- module-level convenience ------------------------------------------------------


def encode(
    obj: Any,
    name: str | None = None,
    version: int | None = None,
    arrays: list[bytes] | None = None,
) -> dict:
    """Encode ``obj`` as a schema envelope.

    Dispatches on ``type(obj)`` unless ``name`` pins a schema explicitly
    (needed for alias types like ``workload_trace``, which is a plain list).
    When ``arrays`` is a list, binary payloads land there as sidecar buffers
    instead of inline base64.
    """
    return Encoder(arrays=arrays).encode(obj, name=name, version=version)


def decode(doc: Mapping[str, Any], buffers: Sequence[bytes] | None = None) -> Any:
    """Decode a schema envelope (with its sidecar ``buffers``, if any)."""
    return Decoder(buffers=buffers).decode(doc)


def encode_value(value: Any, arrays: list[bytes] | None = None) -> Any:
    """Encode one bare value (for args/kwargs and other non-envelope slots)."""
    return Encoder(arrays=arrays).value(value)


def decode_value(doc: Any, buffers: Sequence[bytes] | None = None) -> Any:
    """Inverse of :func:`encode_value`."""
    return Decoder(buffers=buffers).value(doc)


def pack_frame(doc: Any, buffers: Sequence[bytes]) -> bytes:
    """One JSON document and its sidecar ``buffers`` as one binary frame.

    Layout: an 8-byte little-endian header length, the UTF-8 JSON header
    ``{"doc": doc, "buffers": [len, ...]}`` (keys sorted), then the buffers
    back to back.  ``doc`` is typically an envelope from :func:`encode`
    called with ``arrays=buffers``, or a plain document holding one.
    """
    header = json.dumps(
        {"doc": doc, "buffers": [len(buffer) for buffer in buffers]}, sort_keys=True
    ).encode("utf-8")
    return b"".join([len(header).to_bytes(_FRAME_LENGTH_BYTES, "little"), header, *buffers])


def unpack_frame(frame: bytes) -> tuple[Any, list[bytes]]:
    """Inverse of :func:`pack_frame`: the document and its buffers.

    A frame shorter than its length field, whose header length overruns it,
    whose header is not the JSON object :func:`pack_frame` writes, or whose
    buffers do not span the rest of it exactly raises :class:`SchemaError`
    naming the fault.
    """
    size = len(frame)
    if size < _FRAME_LENGTH_BYTES:
        raise SchemaError(
            f"frame of {size} bytes is shorter than its {_FRAME_LENGTH_BYTES}-byte length field"
        )
    header_len = int.from_bytes(frame[:_FRAME_LENGTH_BYTES], "little")
    header_end = _FRAME_LENGTH_BYTES + header_len
    if header_end > size:
        raise SchemaError(f"frame header length {header_len} overruns the {size}-byte frame")
    try:
        header = json.loads(frame[_FRAME_LENGTH_BYTES:header_end].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise SchemaError(f"frame header is not UTF-8 JSON: {exc}") from None
    lengths = header.get("buffers") if isinstance(header, dict) else None
    if not (
        isinstance(lengths, list)
        and "doc" in header
        and all(type(length) is int and length >= 0 for length in lengths)
    ):
        raise SchemaError(
            'frame header must be {"doc": ..., "buffers": [non-negative byte lengths]}'
        )
    if header_end + sum(lengths) != size:
        raise SchemaError(
            f"frame buffers declare {sum(lengths)} bytes but {size - header_end} follow the header"
        )
    buffers: list[bytes] = []
    offset = header_end
    for length in lengths:
        buffers.append(frame[offset : offset + length])
        offset += length
    return header["doc"], buffers


def dumps(obj: Any, name: str | None = None) -> str:
    """Encode to a JSON string (arrays inline, fit for the HTTP wire)."""
    return json.dumps(encode(obj, name=name), sort_keys=True)


def loads(text: str | bytes) -> Any:
    """Decode an object from its :func:`dumps` JSON string."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"payload is not valid JSON: {exc}") from None
    return decode(doc)


def roundtrip_equal(obj: Any, name: str | None = None) -> bool:
    """True when ``obj`` survives the wire: re-encoding its decode is identical.

    JSON-level comparison sidesteps ambiguous ``__eq__`` on array-bearing
    dataclasses; byte-for-byte equal envelopes imply equal objects.
    """
    first = dumps(obj, name=name)
    return dumps(loads(first), name=name) == first


# The generic passthrough schema for payloads that are already plain data
# (dicts, lists, scalars, bytes, arrays).  Registered here, not in
# repro.core.schemas, because the codec itself needs it for dispatch.
register_schema(
    VALUE_SCHEMA,
    1,
    lambda obj, ctx: {"value": ctx.value(obj)},
    lambda doc, ctx: ctx.value(doc["value"]),
)
