"""Plain-text, CSV and HTML reporting helpers.

The CLI's ``tables`` and ``figure`` views print registry payloads
through :func:`format_table`: fixed-width ASCII with aligned columns and
an optional title rule.

The CSV and HTML writers back the ``repro-all`` artifact
(:mod:`repro.experiments.artifact`) and are **deterministic by
construction**: cell formatting is type-driven (``repr``-exact floats,
plain ints, verbatim strings), iteration orders are the caller's
explicit row order or sorted keys, and nothing here reads the clock or
the environment.  ``tests/test_repro_report.py`` locks this down.
"""

from __future__ import annotations

import html as _html
from typing import Iterable, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [
        [
            float_fmt.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_percent(x: float, digits: int = 1) -> str:
    """Render a fraction as a percent string (0.25 -> ``"25.0%"``)."""
    return f"{100 * x:.{digits}f}%"


def format_distribution(dist: dict[int, float]) -> str:
    """Render a mode distribution as ``M3:xx% ... M7:xx%``."""
    return " ".join(f"M{m}:{format_percent(v, 0)}" for m, v in sorted(dist.items()))


# ---------------------------------------------------------------------- #
# Deterministic CSV / HTML (the repro-all artifact renderers)
# ---------------------------------------------------------------------- #


def format_cell(value: object) -> str:
    """One CSV/HTML cell: repr-exact floats, plain ints, verbatim text.

    ``repr(float)`` is Python's shortest round-trip serialization — the
    same bits always produce the same text, and the text re-reads to the
    same bits, so there is no formatting tolerance for drift to hide in.
    Booleans render before ints (``bool`` subclasses ``int``).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in (",", '"', "\n", "\r")):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_text(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render RFC-4180-style CSV with deterministic cell formatting.

    ``\\n`` line endings, a trailing newline, and no padding — the byte
    stream is a pure function of the cell values.
    """
    lines = [",".join(_csv_escape(str(h)) for h in headers)]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but CSV has {len(headers)} columns"
            )
        lines.append(",".join(_csv_escape(format_cell(c)) for c in row))
    return "\n".join(lines) + "\n"


_REPORT_CSS = """\
body { font-family: sans-serif; margin: 2em auto; max-width: 70em;
       color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: 0.2em; }
h2 { margin-top: 2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em;
         font-size: 0.9em; text-align: left; }
th { background: #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #0a6b28; font-weight: bold; }
.fail { color: #a11212; font-weight: bold; }
.muted { color: #777; }
code { background: #f3f3f3; padding: 0 0.2em; }
"""


def _html_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    out = ["<table>", "<tr>"]
    out += [f"<th>{_html.escape(str(h))}</th>" for h in headers]
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for cell in row:
            cls = ' class="num"' if isinstance(cell, (int, float)) \
                and not isinstance(cell, bool) else ""
            out.append(f"<td{cls}>{_html.escape(format_cell(cell))}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def claim_outcome(holds: bool | str) -> str:
    """A claim's ``holds`` value as the word reports print for it."""
    return {True: "holds", False: "FAILS"}.get(holds, str(holds))


def _claims_html(claims: Sequence[Mapping]) -> str:
    out = ["<table>", "<tr><th>claim</th><th>outcome</th></tr>"]
    for claim in claims:
        cls = {True: "ok", False: "fail"}.get(claim["holds"], "muted")
        out.append(
            f"<tr><td>{_html.escape(str(claim['text']))}</td>"
            f'<td class="{cls}">{claim_outcome(claim["holds"])}</td></tr>'
        )
    out.append("</table>")
    return "".join(out)


def render_html_report(
    manifest: Mapping,
    tables: Mapping[str, tuple[Sequence[str], Sequence[Sequence[object]]]],
) -> str:
    """One static HTML page over a repro-all manifest.

    ``tables`` maps experiment id to the same ``(headers, rows)`` pair
    the CSV writer received.  The page is a pure function of its inputs:
    no timestamps, durations, hostnames or tool versions — rendering the
    same manifest twice yields identical bytes.
    """
    exp = manifest["expectations"]
    status = exp.get("status", "skipped")
    status_cls = "ok" if status == "clean" else (
        "muted" if status == "skipped" else "fail"
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>DozzNoC reproduction report</title>",
        f"<style>{_REPORT_CSS}</style></head><body>",
        "<h1>DozzNoC reproduction report</h1>",
        "<p>",
        f"scale <code>{_html.escape(str(manifest['scale']))}</code>, ",
        f"backend <code>{_html.escape(str(manifest['backend']))}</code>, ",
        f"seed <code>{_html.escape(str(manifest['seed']))}</code>, ",
        f"artifact schema <code>{manifest['schema']}</code>",
        "</p>",
        "<h2>Headline expectations</h2>",
        f'<p>status: <span class="{status_cls}">'
        f"{_html.escape(str(status).upper())}</span> "
        f'<span class="muted">({exp.get("checked", 0)} headline(s) checked, '
        f'{len(exp.get("unchecked", []))} experiment(s) unchecked)</span></p>',
    ]
    failures = exp.get("failures", [])
    if failures:
        parts.append(_html_table(
            ("experiment", "headline", "problem"),
            [(f["experiment"], f.get("headline", "-"), f["problem"])
             for f in failures],
        ))
    outcomes = [
        claim_outcome(c["holds"])
        for entry in manifest["experiments"].values()
        for c in entry.get("claims", ())
    ]
    parts.append(
        "<h2>Claims</h2>"
        f"<p>{outcomes.count('holds')} held, "
        f'<span class="{"fail" if "FAILS" in outcomes else "muted"}">'
        f"{outcomes.count('FAILS')} failed</span>, "
        f"{outcomes.count('skipped')} skipped</p>"
    )
    for exp_id in sorted(manifest["experiments"]):
        entry = manifest["experiments"][exp_id]
        parts.append(
            f"<h2>{_html.escape(exp_id)} &mdash; "
            f"{_html.escape(str(entry['title']))}</h2>"
        )
        parts.append(
            f'<p class="muted">kind: {_html.escape(str(entry["kind"]))}; '
            f'raw: <code>{_html.escape(entry["files"]["raw"])}</code>; '
            f'csv: <code>{_html.escape(entry["files"]["csv"])}</code></p>'
        )
        headlines = entry["headlines"]
        if headlines:
            parts.append(_html_table(
                ("headline", "value"),
                [(k, headlines[k]) for k in sorted(headlines)],
            ))
        if entry.get("claims"):
            parts.append(_claims_html(entry["claims"]))
        table = tables.get(exp_id)
        if table is not None:
            headers, rows = table
            parts.append(_html_table(headers, rows))
    bench = manifest.get("bench", {})
    if bench:
        parts.append("<h2>Bench datapoints</h2>")
        parts.append(_html_table(
            ("artifact", "sha256"),
            [(rel, bench[rel]) for rel in sorted(bench)],
        ))
    parts.append("<h2>Files</h2>")
    files = manifest["files"]
    parts.append(_html_table(
        ("file", "sha256"), [(rel, files[rel]) for rel in sorted(files)]
    ))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
