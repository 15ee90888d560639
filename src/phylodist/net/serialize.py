"""Versioned binary weight files with a side-car human-readable manifest.

Layout: magic "PDNET\\0", u32 version, u32 header length, JSON header
(configuration plus the ordered parameter name/shape table), then each
parameter as raw little-endian float64 in C order.
"""

import json
import struct

import numpy as np

from ..errors import DataError

MAGIC = b"PDNET\x00"
VERSION = 1


def save_network(spec, path):
    """Write weights + header to path and a manifest to path.manifest.txt."""
    named = spec.named_params()
    header = {
        "config": spec.config,
        "params": [{"name": n, "shape": list(p.data.shape)} for n, p in named],
        "param_count": spec.param_count(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
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
    with open(str(path) + ".manifest.txt", "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    return str(path)


def load_network(path):
    """Rebuild a NetworkSpec from a weights file."""
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
        cfg = header["config"]
        name = cfg["architecture"]
        if name in ARCHITECTURES:
            spec = build_architecture(
                name,
                head=cfg["head"],
                channels=cfg["channels"],
                heads=cfg["heads"],
                embed_dim=cfg["embed_dim"],
                g_hidden=tuple(cfg.get("g_hidden") or ()),
                seed=cfg.get("seed") or 0,
            )
        elif name.startswith("Reference"):
            spec = build_reference_net(name[len("Reference") :], cfg["ref_length"])
        else:
            raise DataError(f"{path}: unknown architecture {name!r}")
        named = spec.named_params()
        if [n for n, _ in named] != [p["name"] for p in header["params"]]:
            raise DataError(f"{path}: parameter table does not match architecture")
        for (_, p), meta in zip(named, header["params"]):
            shape = tuple(meta["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise DataError(f"{path}: truncated weights file")
            p.data = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)
        spec.config = cfg
    return spec
