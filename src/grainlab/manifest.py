"""Run manifests and CSV emission.

Every CSV artifact carries a trailing '#'-prefixed manifest block with
the command, its fully resolved parameters and the library version, so
that re-running the same invocation reproduces the file byte for byte.
The wall-clock timestamp is deliberately kept out of the CSV (it would
break reproducibility) and written to a sidecar .manifest.json instead
when the CSV goes to a file.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import __version__


def fmt(value) -> str:
    """Canonical cell/parameter formatting: floats at 12 significant
    digits, None as the empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class RunManifest:
    command: str
    params: dict = field(default_factory=dict)
    created: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    def comment_lines(self) -> list[str]:
        lines = [
            "# manifest",
            f"# command: {self.command}",
            f"# version: {__version__}",
        ]
        for key in sorted(self.params):
            lines.append(f"# {key}: {fmt(self.params[key])}")
        return lines

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": {k: fmt(v) for k, v in self.params.items()},
            "version": __version__,
            "created": self.created,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(header: Sequence[str], rows: Sequence[Sequence], manifest: RunManifest) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    lines.extend(manifest.comment_lines())
    return "\n".join(lines) + "\n"


def emit_csv(
    path: str | None,
    header: Sequence[str],
    rows: Sequence[Sequence],
    manifest: RunManifest,
) -> None:
    """Write the CSV to path (plus a .manifest.json sidecar) or to
    stdout when path is None."""
    text = render_csv(header, rows, manifest)
    if path is None:
        sys.stdout.write(text)
    else:
        target = Path(path)
        target.write_text(text)
        target.with_suffix(target.suffix + ".manifest.json").write_text(
            manifest.to_json()
        )


def render_svg(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Bare-bones 640x480 polyline rendering of a CSV table: column 0 is
    x, every other numeric column becomes one polyline.  Convenience
    only; the CSV is the contract."""
    xs = [float(r[0]) for r in rows]
    if not xs:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>\n"
    series = []
    for col in range(1, len(header)):
        pts = [
            (x, float(r[col]))
            for x, r in zip(xs, rows)
            if r[col] is not None
        ]
        if pts:
            series.append((header[col], pts))
    all_y = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y + [0.0]), max(all_y + [1.0])
    width, height, pad = 640, 480, 40

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo or 1.0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo or 1.0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
    ]
    for idx, (name, pts) in enumerate(series):
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        color = colors[idx % len(colors)]
        parts.append(
            f"<polyline fill='none' stroke='{color}' stroke-width='1.5' points='{path}'/>"
        )
        parts.append(
            f"<text x='{width - pad + 2}' y='{pad + 14 * idx}' font-size='11' "
            f"fill='{color}' text-anchor='end'>{name}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
