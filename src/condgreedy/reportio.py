"""Deterministic report emission: CSV tables, JSON documents, minimal SVG
line plots, and output bundles with a manifest.

Numbers are formatted with %.12g so identical inputs give identical bytes;
wall-clock timestamps appear only in the manifest and can be left out.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone

__all__ = [
    "format_cell",
    "csv_bytes",
    "json_bytes",
    "svg_polyline",
    "write_bundle",
]


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, int):
        return str(v)
    s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_bytes(rows) -> bytes:
    lines = [",".join(format_cell(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def json_bytes(doc) -> bytes:
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def svg_polyline(points, title: str = "", xlabel: str = "", ylabel: str = "") -> bytes:
    """Single-series line plot: axes, the polyline, and corner value labels."""
    width, height, margin = 640, 400, 50
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x0) / xspan * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    labels = [
        (margin, height - margin + 16, "start", f"{x0:g}"),
        (width - margin, height - margin + 16, "end", f"{x1:g}"),
        (margin - 6, height - margin, "end", f"{y0:g}"),
        (margin - 6, margin + 4, "end", f"{y1:g}"),
    ]
    for x, y, anchor, text in labels:
        parts.append(
            f'<text x="{x:.0f}" y="{y:.0f}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="11">{text}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def write_bundle(outdir: str, files: dict, meta: dict, timestamp: bool = True) -> str:
    """Write ``files`` (name -> bytes) plus a manifest; returns manifest path."""
    os.makedirs(outdir, exist_ok=True)
    entries = {}
    for name, data in sorted(files.items()):
        path = os.path.join(outdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        entries[name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest = {"meta": meta, "files": entries}
    if timestamp:
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    path = os.path.join(outdir, "manifest.json")
    with open(path, "wb") as fh:
        fh.write(json_bytes(manifest))
    return path
