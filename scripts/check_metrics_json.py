#!/usr/bin/env python3
"""CI metrics gate over a BENCH_pipeline.json (or any report embedding
`center_stage_ns` + `metrics`):

* smoke — the report parses and carries a non-zero span for every stage
  of both detection pipelines, plus the epoch total and counter;
* perf budgets (``--budgets budgets.json``) — every stage's share of the
  ten-stage span sum stays within its checked-in ceiling, so a change
  that silently shifts work into one stage trips CI on any runner
  (shares are machine-independent where absolute times are not);
* sketch bench (reports carrying a ``sketch_bytes_ratio`` field, i.e.
  BENCH_sketch.json) — sidecar artifacts actually flowed (merge counters
  non-zero, a non-empty fused top-k reported), and recall /
  wire-overhead stay within the ``sketch`` ceilings of the budgets
  file. Like socket reports, sketch reports are gated on these
  ceilings IN PLACE OF the stage-share budgets: the
  replay-heavy sketch workload has a legitimately different stage
  profile from the pipeline bench the shares were calibrated against;
* socket soak (reports carrying a ``socket`` metrics object, i.e.
  BENCH_socket.json) — frames actually moved in both roles, the
  impairment shim provably bit, the reassembly backlog drained to zero,
  and the resend amplification / centre stall ratios stay within the
  ``socket`` ceilings of the budgets file (ratios, so machine-speed
  independent like the stage shares). Socket reports are gated on these
  ceilings IN PLACE OF the stage-share budgets: the share ceilings are
  calibrated against the pipeline bench's workload, and the soak's
  paper-scale bitmaps have a legitimately different stage profile.

Every malformed input (missing file, unparseable JSON, absent
`center_stage_ns`/`metrics` sections, zero stage totals, budget files
without ceilings) is a one-line diagnostic and exit code 1 — never a
Python traceback, which CI logs render as an infrastructure failure
rather than the regression it actually is.

Usage: check_metrics_json.py [path-to-json] [--budgets budgets.json]
       check_metrics_json.py --selftest
"""

import json
import os
import sys

STAGES = {
    "aligned": ["fuse", "sketch_fuse", "screen", "core_find", "sweep", "terminate"],
    "unaligned": ["stack_rows", "graph_build", "er_test", "peel"],
}

# A sketch bench (reports carrying a ``sketch_bytes_ratio`` field, i.e.
# BENCH_sketch.json) where these stayed at zero never actually shipped a
# sidecar artifact through the centre — the run was vacuous.
SKETCH_REQUIRED_COUNTERS = [
    "sketch_artifacts_total",
    "sketch_merged_total",
]

# A socket soak where any of these stayed at zero did not actually push
# digests through an impaired socket — the run was vacuous.
SOCKET_REQUIRED_COUNTERS = [
    "socket_frames_sent_total{role=monitor}",
    "socket_frames_sent_total{role=center}",
    "socket_frames_received_total{role=center}",
    "socket_frames_received_total{role=monitor}",
    "socket_impaired_total{kind=drop}",
]

FIXTURES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class GateError(Exception):
    """A malformed report or budgets file: report and exit 1, no traceback."""


def load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise GateError(f"{path}: {what} not found")
    except json.JSONDecodeError as e:
        raise GateError(f"{path}: {what} is not valid JSON ({e})")


def report_section(path: str, report: dict, key: str) -> dict:
    section = report.get(key)
    if not isinstance(section, dict):
        raise GateError(
            f"{path}: report has no `{key}` object — is this a bench report "
            f"with an embedded metrics snapshot?"
        )
    return section


def check_smoke(path: str, report: dict) -> int:
    breakdown = report_section(path, report, "center_stage_ns")
    flat_keys = [f"{s}_ns" for stages in STAGES.values() for s in stages]
    bad = [k for k in flat_keys if breakdown.get(k, 0) <= 0]
    if bad:
        print(f"{path}: zero or missing stage spans in center_stage_ns: {bad}")
        return 1

    metrics = report_section(path, report, "metrics")
    gauges = {g["key"]: g["value"] for g in metrics.get("gauges", [])}
    missing = []
    for pipeline, stages in STAGES.items():
        for stage in stages:
            key = f"epoch_stage_ns{{pipeline={pipeline},stage={stage}}}"
            if gauges.get(key, 0) <= 0:
                missing.append(key)
    if missing:
        print(f"{path}: zero or missing stage gauges in metrics snapshot: {missing}")
        return 1
    if gauges.get("epoch_total_ns", 0) <= 0:
        print(f"{path}: epoch_total_ns gauge missing or zero")
        return 1

    counters = {c["key"]: c["value"] for c in metrics.get("counters", [])}
    if counters.get("epochs_analyzed_total", 0) <= 0:
        print(f"{path}: epochs_analyzed_total counter missing or zero")
        return 1

    print(
        f"{path}: all {len(flat_keys)} stage spans non-zero, "
        f"{counters['epochs_analyzed_total']} epoch(s) analysed"
    )
    return 0


def check_socket(path: str, report: dict) -> int:
    socket = report_section(path, report, "socket")
    counters = {c["key"]: c["value"] for c in socket.get("counters", [])}
    dead = [k for k in SOCKET_REQUIRED_COUNTERS if counters.get(k, 0) <= 0]
    if dead:
        print(f"{path}: socket soak counters missing or zero: {dead}")
        return 1

    gauges = {g["key"]: g["value"] for g in socket.get("gauges", [])}
    backlog = gauges.get("socket_reassembly_backlog")
    if backlog is None:
        print(f"{path}: socket_reassembly_backlog gauge missing")
        return 1
    if backlog != 0:
        print(
            f"{path}: socket_reassembly_backlog settled at {backlog}, not 0 — "
            f"the collector finished an epoch with partial bundles in flight"
        )
        return 1

    for field in ("send_amplification", "stall_ratio"):
        if not isinstance(report.get(field), (int, float)):
            print(f"{path}: report has no numeric `{field}` field")
            return 1
    print(
        f"{path}: socket soak moved "
        f"{counters['socket_frames_sent_total{role=monitor}']} monitor frames "
        f"under impairment, backlog drained"
    )
    return 0


def check_socket_budgets(path: str, report: dict, budgets_path: str) -> int:
    ceilings = load_json(budgets_path, "budgets file").get("socket")
    if not isinstance(ceilings, dict):
        raise GateError(f"{budgets_path}: budgets file has no `socket` object")
    checks = [
        ("send_amplification", "max_send_amplification"),
        ("stall_ratio", "max_stall_ratio"),
    ]
    failures = []
    for field, budget_key in checks:
        ceiling = ceilings.get(budget_key)
        if not isinstance(ceiling, (int, float)):
            raise GateError(f"{budgets_path}: socket object has no `{budget_key}`")
        value = report[field]
        status = "over budget" if value > ceiling else "ok"
        print(f"  socket/{field:<20} {value:>8.3f}  budget {ceiling:.3f}  {status}")
        if value > ceiling:
            failures.append(field)
    if failures:
        print(
            f"{path}: socket ratios over budget for {failures} — resend or "
            f"backpressure behaviour regressed; fix the transport or update "
            f"{budgets_path} with a justification in the same change"
        )
        return 1
    print(f"{path}: socket ratios within {budgets_path} ceilings")
    return 0


def check_sketch(path: str, report: dict) -> int:
    metrics = report_section(path, report, "metrics")
    counters = {c["key"]: c["value"] for c in metrics.get("counters", [])}
    dead = [k for k in SKETCH_REQUIRED_COUNTERS if counters.get(k, 0) <= 0]
    if dead:
        print(f"{path}: sketch bench counters missing or zero: {dead}")
        return 1

    gauges = {g["key"]: g["value"] for g in metrics.get("gauges", [])}
    if gauges.get("sketch_top_columns", 0) <= 0:
        print(
            f"{path}: sketch_top_columns gauge missing or zero — the fused "
            f"sketch reported an empty top-k"
        )
        return 1

    for field in ("recall_mean", "sketch_bytes_ratio"):
        if not isinstance(report.get(field), (int, float)):
            print(f"{path}: report has no numeric `{field}` field")
            return 1
    print(
        f"{path}: sketch bench merged {counters['sketch_merged_total']} "
        f"sidecar artifacts, top-k reported"
    )
    return 0


def check_sketch_budgets(path: str, report: dict, budgets_path: str) -> int:
    ceilings = load_json(budgets_path, "budgets file").get("sketch")
    if not isinstance(ceilings, dict):
        raise GateError(f"{budgets_path}: budgets file has no `sketch` object")
    checks = [
        # (report field, budget key, True when the value must stay >= the
        # floor rather than <= the ceiling)
        ("recall_mean", "min_recall_mean", True),
        ("sketch_bytes_ratio", "max_bytes_ratio", False),
    ]
    failures = []
    for field, budget_key, is_floor in checks:
        bound = ceilings.get(budget_key)
        if not isinstance(bound, (int, float)):
            raise GateError(f"{budgets_path}: sketch object has no `{budget_key}`")
        value = report[field]
        bad = value < bound if is_floor else value > bound
        status = "out of budget" if bad else "ok"
        kind = "floor" if is_floor else "ceiling"
        print(f"  sketch/{field:<20} {value:>8.4f}  {kind} {bound:.4f}  {status}")
        if bad:
            failures.append(field)
    if failures:
        print(
            f"{path}: sketch quality out of budget for {failures} — the "
            f"sidecar lost recall or outgrew its wire allowance; fix the "
            f"sketch or update {budgets_path} with a justification in the "
            f"same change"
        )
        return 1
    print(f"{path}: sketch recall/overhead within {budgets_path} bounds")
    return 0


def check_budgets(path: str, report: dict, budgets_path: str) -> int:
    budgets = load_json(budgets_path, "budgets file").get("max_share_of_stage_sum")
    if not isinstance(budgets, dict):
        raise GateError(
            f"{budgets_path}: budgets file has no `max_share_of_stage_sum` object"
        )

    breakdown = report_section(path, report, "center_stage_ns")
    spans = {
        f"{pipeline}/{stage}": breakdown.get(f"{stage}_ns", 0)
        for pipeline, stages in STAGES.items()
        for stage in stages
    }
    total = sum(spans.values())
    if total <= 0:
        print(
            f"{path}: stage span sum is zero, cannot evaluate budgets — the "
            f"report covers no analysed epoch (or every stage span is missing)"
        )
        return 1

    unbudgeted = sorted(set(spans) - set(budgets))
    if unbudgeted:
        print(f"{budgets_path}: stages missing a budget: {unbudgeted}")
        return 1

    failures = []
    for key, span in sorted(spans.items()):
        share = span / total
        ceiling = budgets[key]
        status = "over budget" if share > ceiling else "ok"
        print(f"  {key:<22} {span / 1e6:>10.2f} ms  share {share:.3f}  budget {ceiling:.3f}  {status}")
        if share > ceiling:
            failures.append(key)
    if failures:
        print(
            f"{path}: stage share over budget for {failures} — a change shifted "
            f"work into these stages; rebalance or update {budgets_path} with "
            f"a justification in the same change"
        )
        return 1
    print(f"{path}: all {len(spans)} stage shares within {budgets_path} ceilings")
    return 0


def run_gate(path: str, budgets_path) -> int:
    report = load_json(path, "metrics report")
    rc = check_smoke(path, report)
    if rc != 0:
        return rc
    if "socket" in report:
        # A socket soak is gated on its transport ratios, not the
        # stage-share budgets (those are calibrated for the pipeline
        # bench's workload; the soak's stage profile differs by design).
        rc = check_socket(path, report)
        if rc == 0 and budgets_path is not None:
            rc = check_socket_budgets(path, report, budgets_path)
        return rc
    if "sketch_bytes_ratio" in report:
        # A sketch bench is gated on its recall/overhead bounds, not the
        # stage-share budgets (the replay-heavy workload's stage profile
        # differs from the pipeline bench's by design).
        rc = check_sketch(path, report)
        if rc == 0 and budgets_path is not None:
            rc = check_sketch_budgets(path, report, budgets_path)
        return rc
    if budgets_path is not None:
        rc = check_budgets(path, report, budgets_path)
    return rc


def selftest() -> int:
    """Regression fixtures: every malformed input must produce a clean
    one-line diagnostic (exit 1), never an uncaught exception."""
    budgets = os.path.join(os.path.dirname(FIXTURES_DIR), "stage_budgets.json")
    cases = [
        ("zero_stage_total.json", None),
        ("zero_stage_total.json", budgets),
        ("over_budget_graph_build.json", budgets),
        ("missing_metrics.json", None),
        ("missing_center_stage_ns.json", None),
        ("no_such_file.json", None),
        ("zero_stage_total.json", os.path.join(FIXTURES_DIR, "no_such_budgets.json")),
        ("zero_stage_total.json", os.path.join(FIXTURES_DIR, "missing_metrics.json")),
        ("socket_missing_counters.json", None),
        ("socket_missing_counters.json", budgets),
        ("socket_over_amplification.json", budgets),
        ("sketch_missing_counters.json", None),
        ("sketch_missing_counters.json", budgets),
        ("sketch_empty_top_k.json", None),
        ("over_budget_sketch_fuse.json", budgets),
    ]
    failures = []
    for fixture, budgets_path in cases:
        path = os.path.join(FIXTURES_DIR, fixture)
        label = f"{fixture} budgets={os.path.basename(budgets_path) if budgets_path else None}"
        try:
            rc = run_gate(path, budgets_path)
        except GateError as e:
            print(e)
            rc = 1
        except Exception as e:  # noqa: BLE001 — the regression being pinned
            failures.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        if rc != 1:
            failures.append(f"{label}: expected exit 1, got {rc}")

    # The budgets divider itself (smoke normally runs first and masks it):
    # an all-zero stage breakdown must be the clean "sum is zero" line, not
    # a ZeroDivisionError.
    zero = load_json(os.path.join(FIXTURES_DIR, "zero_stage_total.json"), "fixture")
    try:
        rc = check_budgets("zero_stage_total.json", zero, budgets)
        if rc != 1:
            failures.append(f"check_budgets zero-total: expected exit 1, got {rc}")
    except Exception as e:  # noqa: BLE001
        failures.append(f"check_budgets zero-total: raised {type(e).__name__}: {e}")
    if failures:
        print("selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"selftest: {len(cases)} malformed-input fixtures all fail cleanly")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if "--selftest" in argv:
        return selftest()
    budgets_path = None
    if "--budgets" in argv:
        i = argv.index("--budgets")
        if i + 1 >= len(argv):
            print("--budgets requires a path argument")
            return 2
        budgets_path = argv[i + 1]
        del argv[i : i + 2]
    path = argv[0] if argv else "BENCH_pipeline.json"

    try:
        return run_gate(path, budgets_path)
    except GateError as e:
        print(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
