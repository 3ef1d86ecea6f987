#!/usr/bin/env python3
"""Static checks for the repo's documentation.

Two gates, run from the repo root (CI's docs job):

1. Intra-repo markdown links. Every relative link target in a tracked
   markdown file must exist on disk. External schemes (http, https,
   mailto) and pure in-page anchors are skipped; anchors on relative
   links are stripped before the existence check.

2. Metric-name catalog. docs/OBSERVABILITY.md is the catalog of every
   metric the code registers. Each `fnproxy_*` token mentioned in the
   docs (after stripping the Prometheus histogram-expansion suffixes
   _bucket/_sum/_count) must be a name registered somewhere in src/, and
   every name registered in src/ must be documented in the catalog — so
   the doc can neither drift ahead of the code nor fall behind it.

3. Encoding catalog. docs/STORAGE.md documents every frozen-segment
   column encoding by its wire name (the ColumnEncodingName strings in
   src/storage/segment.cc). Adding an encoder without a byte-layout doc,
   or documenting one that no longer exists, fails the check.

4. Measured paper tables. EXPERIMENTS.md's measured cells of Table 1 (the
   AC and PC rows), Figure 5 (NC, PC, ACNR and ACR at cache 1/6 -> 1) and
   Figure 6 (ms and efficiency per scheme) must equal the committed
   table1/*, fig5/* and fig6/* records in BENCH_results.json (the last
   record of each name), rounded as the tables print them. A record or a
   cell that changes without the other fails the check.

Usage:
  check_docs.py [--root DIR]
"""

import argparse
import json
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
METRIC_RE = re.compile(r"fnproxy_[a-z0-9_]+")
# Quoted literals only: metric names are always registered as strings, and
# this keeps CMake target names like fnproxy_core out of the catalog.
SRC_METRIC_RE = re.compile(r'"(fnproxy_[a-z0-9_]+)"')
SKIP_SCHEMES = ("http://", "https://", "mailto:")
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


# Research-material digests dropped in by the paper pipeline, not
# hand-maintained docs; their links point at assets that were never vendored.
SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def markdown_files(root):
    skip_dirs = {"build", ".git", "third_party"}
    for path in sorted(root.rglob("*.md")):
        if any(part in skip_dirs for part in path.parts):
            continue
        if path.name in SKIP_FILES:
            continue
        yield path


def check_links(root):
    errors = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (md.parent / target).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(root)}: broken link -> {match.group(1)}"
                )
    return errors


def strip_histogram_suffix(name, families):
    """_bucket/_sum/_count are render-time expansions, not family names."""
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return name


def check_metric_catalog(root):
    errors = []
    catalog_path = root / "docs" / "OBSERVABILITY.md"
    if not catalog_path.exists():
        return [f"missing metric catalog: {catalog_path.relative_to(root)}"]

    registered = set()
    for src in sorted((root / "src").rglob("*")):
        if src.suffix not in (".cc", ".h"):
            continue
        registered.update(SRC_METRIC_RE.findall(src.read_text(encoding="utf-8")))

    # CMake library names (fnproxy_obs, fnproxy_core, ...) and tool binaries
    # (fnproxy_lint) share the prefix; they are not metrics.
    non_metrics = {
        f"fnproxy_{d.name}" for d in (root / "src").iterdir() if d.is_dir()
    }
    non_metrics.update(
        f"fnproxy_{t.stem.removeprefix('fnproxy_')}"
        for t in (root / "tools").glob("fnproxy_*")
    )

    documented_raw = set(
        METRIC_RE.findall(catalog_path.read_text(encoding="utf-8"))
    )
    documented = {
        strip_histogram_suffix(name, registered)
        for name in documented_raw
        if name not in non_metrics
    }

    for name in sorted(documented - registered):
        errors.append(
            f"docs/OBSERVABILITY.md documents '{name}' but no src/ file "
            "registers it"
        )
    for name in sorted(registered - documented):
        errors.append(
            f"src/ registers '{name}' but docs/OBSERVABILITY.md does not "
            "document it"
        )
    return errors


ENCODING_NAME_RE = re.compile(r'return "([a-z0-9_]+)";')


def check_encoding_catalog(root):
    errors = []
    doc_path = root / "docs" / "STORAGE.md"
    if not doc_path.exists():
        return [f"missing storage doc: {doc_path.relative_to(root)}"]
    segment_cc = root / "src" / "storage" / "segment.cc"
    text = segment_cc.read_text(encoding="utf-8")
    # The wire names live in ColumnEncodingName's switch, before the next
    # function body.
    switch = text.split("ColumnEncodingName", 1)[1].split("\n}\n", 1)[0]
    implemented = set(ENCODING_NAME_RE.findall(switch))
    if not implemented:
        return [f"could not extract encoding names from {segment_cc}"]

    doc_text = doc_path.read_text(encoding="utf-8")
    documented = {
        name
        for name in re.findall(r"`([a-z0-9_]+)`", doc_text)
        if name in implemented or name.endswith(("_int", "_double",
                                                 "_string", "_bool",
                                                 "_mixed", "_null"))
    }
    for name in sorted(documented - implemented):
        errors.append(
            f"docs/STORAGE.md documents encoding '{name}' that "
            "src/storage/segment.cc does not implement"
        )
    for name in sorted(implemented - documented):
        errors.append(
            f"src/storage/segment.cc implements encoding '{name}' but "
            "docs/STORAGE.md does not document it"
        )
    return errors


def bench_records(root):
    """The last committed record of each name in BENCH_results.json."""
    values = {}
    path = root / "BENCH_results.json"
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            values[record["name"]] = record["value"]
    return values


def table_rows(section):
    """Label -> measured cells of every markdown table row in `section`."""
    rows = {}
    for line in section.splitlines():
        if line.startswith("|") and not line.startswith("|---"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


def check_experiment_tables(root):
    errors = []
    doc = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    # "## Figure 5 — average ..." is section "Figure 5".
    sections = {
        " ".join(chunk.split(" ", 2)[:2]): chunk
        for chunk in doc.split("\n## ")[1:]
    }
    values = bench_records(root)

    def cell(name, decimals):
        if name not in values:
            return None
        return f"{values[name]:.{decimals}f}"

    def span(first, last):
        """Figure 5's "1/6 -> 1" cell: one number when both ends agree."""
        a, b = cell(first, 0), cell(last, 0)
        if a is None or b is None:
            return None
        return a if a == b else f"{a} \u2192 {b}"

    # (section, row label, column, record name(s), rendering)
    expected = []
    for scheme in ("AC", "PC"):
        for i, size in enumerate(("1_6", "1_3", "1_2", "1")):
            name = f"table1/{scheme.lower()}_{size}"
            expected.append(("Table 1", f"{scheme} (measured)", i,
                             name, cell(name, 3)))
    for scheme in ("NC", "PC", "ACNR", "ACR"):
        first = f"fig5/{scheme.lower()}_1_6"
        last = f"fig5/{scheme.lower()}_1"
        expected.append(("Figure 5", scheme, 1, f"{first} -> {last}",
                         span(first, last)))
    for label in ("First (full semantic)", "Second (region containment)",
                  "Third (containment only)"):
        scheme = label.split(" ", 1)[0].lower()
        for column, metric, decimals in ((1, "ms", 0), (3, "efficiency", 3)):
            name = f"fig6/{scheme}_{metric}"
            expected.append(("Figure 6", label, column, name,
                             cell(name, decimals)))

    for section, label, column, name, want in expected:
        if want is None:
            errors.append(f"BENCH_results.json has no record for {name} "
                          f"(EXPERIMENTS.md {section}, {label})")
            continue
        row = table_rows(sections.get(section, "")).get(label)
        if row is None or column >= len(row):
            errors.append(f"EXPERIMENTS.md {section} has no complete "
                          f"'{label}' row")
            continue
        got = row[column]
        if got != want:
            errors.append(f"EXPERIMENTS.md {section} '{label}' reads "
                          f"'{got}' but {name} in BENCH_results.json "
                          f"prints as '{want}'")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()

    errors = (
        check_links(root)
        + check_metric_catalog(root)
        + check_encoding_catalog(root)
        + check_experiment_tables(root)
    )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        sys.exit(f"{len(errors)} documentation problem(s)")
    print(
        "docs ok: links resolve, metric catalog matches src/, "
        "encoding catalog matches segment.cc, EXPERIMENTS.md tables match "
        "BENCH_results.json"
    )


if __name__ == "__main__":
    main()
