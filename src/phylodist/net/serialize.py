"""Versioned binary weight files with a side-car human-readable manifest.

Layout: magic "PDNET\\0", u32 version, u32 header length, JSON header
(configuration plus the ordered parameter name/shape table), then each
parameter as raw little-endian float64 in C order.
"""

import json
import math
import os
import struct

import numpy as np

from ..errors import ConfigError, DataError
from ..files import atomic_open, write_text

MAGIC = b"PDNET\x00"
VERSION = 1


def save_network(spec, path):
    """Write weights + header to path and a manifest to path.manifest.txt,
    each atomically."""
    named = spec.named_params()
    header = {
        "config": spec.config,
        "params": [{"name": n, "shape": list(p.data.shape)} for n, p in named],
        "param_count": spec.param_count(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for _, p in named:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    manifest = [
        f"architecture: {spec.architecture}",
        f"head: {spec.config['head']}",
        f"channels: {spec.config.get('channels')}",
        f"attention heads: {spec.config.get('heads')}",
        f"embedding dim: {spec.config.get('embed_dim')}",
        f"trainable parameters: {header['param_count']}",
    ]
    for key in ("ref_length", "fit_sup_error", "fitted_range", "seed"):
        if spec.config.get(key) is not None:
            manifest.append(f"{key}: {spec.config[key]}")
    manifest.append("parameters:")
    manifest += [f"  {n}  {tuple(p.data.shape)}" for n, p in named]
    write_text(f"{path}.manifest.txt", "\n".join(manifest) + "\n")
    return str(path)


def _field(path, table, key, *types):
    """table[key] when table is a JSON object and the value's JSON type is one
    of types (NoneType: the key may be absent)."""
    value = table.get(key) if type(table) is dict else None
    if type(value) not in types:
        raise DataError(f"{path}: weights file header field {key!r} is missing or malformed")
    return value


def _sizes(path, table, key, *types):
    """A header field holding an int, or a list or absence of them; building
    the network checks that each is >= 1."""
    value = _field(path, table, key, *types)
    items = value if type(value) is list else [value] if value is not None else []
    if any(type(v) is not int for v in items):
        raise DataError(f"{path}: weights file header field {key!r} is malformed")
    return value


def load_network(path):
    """Rebuild a NetworkSpec from a weights file.

    Raises DataError when a header field is missing or of the wrong type, when
    the parameter table does not promise exactly the bytes after the header,
    or when a stored parameter's name or shape differs from the architecture's.
    """
    from .architectures import ARCHITECTURES, build_architecture
    from .reference import build_reference_net

    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a network weights file")
        try:
            version, blob_len = struct.unpack("<II", fh.read(8))
        except struct.error:
            raise DataError(f"{path}: truncated weights file header") from None
        if version != VERSION:
            raise DataError(f"{path}: unsupported weights version {version}")
        try:
            header = json.loads(fh.read(blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise DataError(f"{path}: malformed weights file header: {err}") from None
        cfg = _field(path, header, "config", dict)
        table = _field(path, header, "params", list)
        name = _field(path, cfg, "architecture", str)
        shapes = [_sizes(path, meta, "shape", list) for meta in table]
        total = sum(math.prod(shape) for shape in shapes)
        if total * 8 != os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: parameter table does not match the weights file size")
        try:
            if name in ARCHITECTURES:
                kw = dict(
                    head=_field(path, cfg, "head", str),
                    channels=_sizes(path, cfg, "channels", int),
                    heads=_sizes(path, cfg, "heads", int),
                    embed_dim=_sizes(path, cfg, "embed_dim", int),
                    g_hidden=tuple(_sizes(path, cfg, "g_hidden", list, type(None)) or ()),
                    seed=_field(path, cfg, "seed", int, type(None)) or 0,
                )
                # every template has a channels x channels weight, then a head through
                # these widths; refuse sizes the table cannot hold before they are drawn
                widths = kw["g_hidden"] if kw["head"] == "pair_scalar" else (kw["embed_dim"],)
                dims = (kw["channels"],) * 2 + widths
                if any(a * b > total for a, b in zip(dims, dims[1:])):
                    raise DataError(f"{path}: header sizes exceed the parameter table")
                spec = build_architecture(name, **kw)
            elif name.startswith("Reference"):
                length = _sizes(path, cfg, "ref_length", int)
                spec = build_reference_net(name[len("Reference") :], length)
            else:
                raise DataError(f"{path}: unknown architecture {name!r}")
        except ConfigError as err:
            raise DataError(f"{path}: {err}") from None
        named = spec.named_params()
        if [n for n, _ in named] != [_field(path, meta, "name", str) for meta in table]:
            raise DataError(f"{path}: parameter table does not match architecture")
        for (n, p), shape in zip(named, shapes):
            if shape != list(p.data.shape):
                raise DataError(
                    f"{path}: parameter {n} has shape {shape}, "
                    f"the architecture's is {list(p.data.shape)}"
                )
            raw = fh.read(p.data.size * 8)
            p.data = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape).astype(float)
        spec.config = cfg
    return spec
