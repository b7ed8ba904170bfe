"""Command-line surface: extract, lint, validate, annotate, history, group, related.

Exit codes: 0 clean, 1 findings/violations/broken chain, 2 operational
error.  Output is byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from typing import Optional

# Only what every command may need is imported here; the extractors,
# lint, the metabase and validation load inside the handlers that use
# them, so a command pays start-up time only for the modules it runs.
from . import timestamps
from .association import CRITERIA, build_index, group_by, related
from .errors import UmsError
from .model import CARRIER_HTML, CARRIER_PDF, CARRIER_SIDECAR, EVENT_KINDS, is_complete
from .provenance import apply_event, verify_history
from .sidecar import (
    LENIENT,
    SIDECAR_EXTENSION,
    STRICT,
    canonical_serialize,
    parse_record,
    parse_record_with_warnings,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


class _Operational(Exception):
    """Raised for exit-2 conditions with a user-facing message."""


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _Operational(f"cannot read {path}: {exc.strerror}") from None


def _detect_carrier(path: str, data: bytes, flag: str) -> str:
    if flag != "auto":
        return flag
    lowered = path.lower()
    if lowered.endswith(".pdf") or data.startswith(b"%PDF-"):
        return CARRIER_PDF
    if lowered.endswith((".html", ".htm")):
        return CARRIER_HTML
    if lowered.endswith(SIDECAR_EXTENSION):
        return CARRIER_SIDECAR
    if data.lstrip()[:1] == b"<":
        return CARRIER_HTML
    raise _Operational(f"cannot determine carrier of {path}; use --carrier")


def _extract_raw(path: str, data: bytes, carrier: str):
    # looked up on the package, so only the extractor that runs is loaded
    from . import extractors

    if carrier == CARRIER_PDF:
        return extractors.extract_pdf_info(data)
    if carrier == CARRIER_HTML:
        return extractors.extract_html_meta(data)
    raise _Operational(f"extraction does not support carrier {carrier!r}")


def _load_metabase(args):
    from .metabase import load_metabase

    directory = args.metabase or os.environ.get("UMS_METABASE")
    if not directory:
        return None
    if not os.path.isdir(directory):
        raise _Operational(f"metabase directory not found: {directory}")
    return load_metabase(directory)


def _mapping_table(args):
    from .extractors import DEFAULT_MAPPING, load_mapping

    if args.mapping:
        return load_mapping(_read(args.mapping))
    return DEFAULT_MAPPING


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates 0600; a rewrite keeps the target's mode
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar_paths(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        raise _Operational(f"not a directory: {directory}")
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(SIDECAR_EXTENSION)
    )


def _load_corpus(directory: str):
    records = []
    for path in _sidecar_paths(directory):
        try:
            records.append(parse_record(_read(path), STRICT))
        except UmsError as exc:
            raise _Operational(f"{path}: {exc}") from None
    return records


def cmd_extract(args) -> int:
    from .extractors import map_raw_to_ums

    data = _read(args.path)
    carrier = _detect_carrier(args.path, data, args.carrier)
    raw = _extract_raw(args.path, data, carrier)
    if args.raw:
        for key, value in raw.pairs:
            print(f"{key} = {value}")
        return EXIT_CLEAN
    record, _unmapped = map_raw_to_ums(raw, _mapping_table(args))
    if not is_complete(record):
        message = (
            "mapped record is incomplete (needs name, format and date);"
            " use --raw to inspect the carrier pairs"
        )
        if raw.errors:
            message += "; extraction errors: " + "; ".join(raw.errors)
        raise _Operational(message)
    sys.stdout.write(canonical_serialize(record).decode("utf-8"))
    return EXIT_CLEAN


def cmd_lint(args) -> int:
    from .lint import INFO, LintFinding, at_least_warning, lint_raw, lint_record

    data = _read(args.path)
    carrier = _detect_carrier(args.path, data, args.carrier)
    if carrier == CARRIER_SIDECAR:
        record, warnings = parse_record_with_warnings(data, LENIENT)
        findings = lint_record(record, _load_metabase(args))
        # what the lenient parse let through, so a non-canonical sidecar is seen
        findings += [LintFinding("PARSE_WARNING", INFO, warning) for warning in warnings]
    else:
        raw = _extract_raw(args.path, data, carrier)
        findings = lint_raw(raw)
    if args.json:
        import json

        payload = [
            {
                "code": f.code,
                "severity": f.severity,
                "message": f.message,
                "evidence": [list(pair) for pair in f.evidence],
            }
            for f in findings
        ]
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for finding in findings:
            print(finding.line())
    return EXIT_FINDINGS if at_least_warning(findings) else EXIT_CLEAN


def cmd_validate(args) -> int:
    from .metabase import empty_metabase
    from .validation import validate_record

    record = parse_record(_read(args.path), LENIENT)
    metabase = _load_metabase(args) or empty_metabase()
    report = validate_record(record, metabase, STRICT if args.strict else LENIENT)
    for violation in report.violations:
        print(str(violation))
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def cmd_annotate(args) -> int:
    record = parse_record(_read(args.path), STRICT)
    result = verify_history(record)
    if not result.ok:
        raise _Operational(
            f"history broken at seq {result.broken_at}: {result.detail}"
        )
    timestamp = args.timestamp or timestamps.now()
    updated = apply_event(record, args.event, args.payload, timestamp)
    _write_atomic(args.path, canonical_serialize(updated))
    print(f"{args.event} recorded as event {updated.history[-1].seq}")
    return EXIT_CLEAN


def cmd_history(args) -> int:
    record = parse_record(_read(args.path), STRICT)
    if args.verify:
        result = verify_history(record)
        if result.ok:
            print(f"ok {result.chain_length}")
            return EXIT_CLEAN
        print(f"broken at seq {result.broken_at}: {result.detail}")
        return EXIT_FINDINGS
    for event in record.history:
        print(f"{event.seq}\t{event.timestamp}\t{event.kind}\t{event.payload}")
    return EXIT_CLEAN


def cmd_group(args) -> int:
    records = _load_corpus(args.directory)
    for key, members in group_by(records, args.by):
        print(f"== {key}")
        for member in members:
            print(f"  {member.name}")
    return EXIT_CLEAN


def cmd_related(args) -> int:
    records = _load_corpus(args.directory)
    index = build_index(records)
    matches = [r for r in records if r.name == args.name]
    if not matches:
        raise _Operational(f"no record named {args.name!r} in {args.directory}")
    for name, score in related(index, matches[0]):
        print(f"{name}\t{score:.6f}")
    return EXIT_CLEAN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ums", description="Universal metadata sidecar toolkit"
    )
    parser.add_argument("--metabase", help="catalog directory (default: $UMS_METABASE)")
    parser.add_argument("--mapping", help="mapping table file")
    parser.add_argument("--strict", action="store_true", help="strict validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract carrier metadata")
    p.add_argument("path")
    p.add_argument("--carrier", choices=("auto", CARRIER_PDF, CARRIER_HTML), default="auto")
    p.add_argument("--raw", action="store_true", help="print raw key = value pairs")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("lint", help="diagnose metadata defects")
    p.add_argument("path")
    p.add_argument(
        "--carrier",
        choices=("auto", CARRIER_PDF, CARRIER_HTML, CARRIER_SIDECAR),
        default="auto",
    )
    p.add_argument("--json", action="store_true", help="machine-readable findings")
    p.set_defaults(handler=cmd_lint)

    p = sub.add_parser("validate", help="validate a sidecar against the metabase")
    p.add_argument("path")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("annotate", help="append a modification event")
    p.add_argument("path")
    p.add_argument("--event", choices=[k for k in EVENT_KINDS if k != "create"], required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--timestamp", help="event time (default: now, UTC)")
    p.set_defaults(handler=cmd_annotate)

    p = sub.add_parser("history", help="show or verify the event history")
    p.add_argument("path")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=cmd_history)

    p = sub.add_parser("group", help="group a sidecar corpus")
    p.add_argument("directory")
    p.add_argument("--by", choices=CRITERIA, required=True)
    p.set_defaults(handler=cmd_group)

    p = sub.add_parser("related", help="rank records related by tags")
    p.add_argument("directory")
    p.add_argument("name")
    p.set_defaults(handler=cmd_related)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (_Operational, UmsError, OSError) as exc:
        print(f"ums: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
