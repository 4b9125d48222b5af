"""Command-line interface.

Usage examples::

    soap-analyze analyze kernel.py                 # Python loop nests
    soap-analyze analyze kernel.c --language c     # C loop nests
    soap-analyze kernel cholesky                   # a Table 2 kernel
    soap-analyze table2 --category polybench       # regenerate Table 2
    soap-analyze table2 --jobs 4 --json            # parallel, machine-readable
    soap-analyze validate gemm --params N=4 --S 8  # pebbling sandwich check
    soap-analyze bounds cholesky                   # per-engine lower bounds
    soap-analyze bounds gemm --engines kkt,visit   # engine subset
    soap-analyze tightness gemm atax --s 8,18      # schedule-replay gap audit
    soap-analyze tightness --markdown TIGHTNESS.md # full corpus, written out
    soap-analyze tightness --bounds-engines kkt    # KKT-only gap denominator

    soap-analyze tightness gemm --trace t.jsonl    # record a span trace
    soap-analyze trace convert t.jsonl             # -> Perfetto-loadable JSON
    soap-analyze trace validate t.jsonl            # schema/stitching check

    soap-analyze serve --port 8731 --workers 4     # long-lived analysis daemon
    soap-analyze submit gemm                       # analyze via the daemon
    soap-analyze submit --source kernel.py         # source file via the daemon
    soap-analyze status                            # daemon health
    soap-analyze status --metrics                  # queue/coalescing/cache stats
    soap-analyze status JOB_ID                     # poll one job

``--jobs N`` (``table2`` and ``tightness`` only) runs one task per kernel
over a pool of at most N worker processes, capped at the CPU count;
``--cache-dir DIR`` persists the fused-problem memoization cache across
invocations in ``DIR/solves.sqlite``, the store ``serve --cache-dir DIR``
shares too; ``--json`` emits a machine-readable report including
per-stage engine diagnostics.

Expected failures (unknown kernel names, unparsable sources, unreachable
daemon) exit with status 2 and a one-line ``error:`` message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    from repro import __version__
    from repro.sdg.subgraphs import DEFAULT_MAX_SIZE

    parser = argparse.ArgumentParser(
        prog="soap-analyze",
        description="I/O lower bounds for statically analyzable programs "
        "(SPAA'21 SOAP analysis)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs_flag(p) -> None:
        p.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="kernels in parallel on up to N worker processes, capped at "
            "the CPU count (default: 1, serial)",
        )

    def add_engine_flags(p) -> None:
        p.add_argument(
            "--cache-dir", type=Path, default=None, metavar="DIR",
            help="persist the fused-problem solve cache in DIR",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit a machine-readable JSON report",
        )
        p.add_argument(
            "--trace", type=Path, default=None, metavar="FILE",
            help="write a JSONL span trace of the run to FILE "
            "(convert with `trace convert`)",
        )

    def add_service_flags(p) -> None:
        p.add_argument("--host", default="127.0.0.1", help="daemon address")
        p.add_argument(
            "--port", type=int, default=8731, help="daemon port (default: 8731)"
        )

    p_analyze = sub.add_parser("analyze", help="analyze a source file")
    p_analyze.add_argument("path", type=Path)
    p_analyze.add_argument("--language", choices=("python", "c"), default=None)
    p_analyze.add_argument("--policy", choices=("sum", "max"), default="sum")
    p_analyze.add_argument(
        "--max-subgraph-size", type=int, default=DEFAULT_MAX_SIZE, metavar="K",
        help=f"cap on enumerated SDG subgraph size (default: {DEFAULT_MAX_SIZE})",
    )
    p_analyze.add_argument(
        "--allow-pinning", action="store_true",
        help="accept boundary (streaming-update) optima of problem (8)",
    )
    add_engine_flags(p_analyze)

    p_kernel = sub.add_parser("kernel", help="analyze a registered Table 2 kernel")
    p_kernel.add_argument("name")
    add_engine_flags(p_kernel)

    p_table = sub.add_parser("table2", help="regenerate the Table 2 comparison")
    p_table.add_argument("--category", choices=("polybench", "nn", "various"), default=None)
    p_table.add_argument(
        "--bounds", action="store_true",
        help="also run the concrete-CDAG bound engines per kernel and report "
        "winning_engine / bound_disagreement diagnostics",
    )
    add_jobs_flag(p_table)
    add_engine_flags(p_table)

    p_val = sub.add_parser("validate", help="pebbling sandwich check on a concrete instance")
    p_val.add_argument("name")
    p_val.add_argument("--params", nargs="+", default=[], metavar="NAME=VALUE")
    p_val.add_argument("--S", dest="s", type=int, default=8)

    p_bounds = sub.add_parser(
        "bounds",
        help="evaluate every lower-bound engine on a kernel's concrete CDAG",
    )
    p_bounds.add_argument("name", help="registered kernel name")
    p_bounds.add_argument(
        "--params", nargs="+", default=[], metavar="NAME=VALUE",
        help="parameter overrides (default: the tightness audit sizes)",
    )
    p_bounds.add_argument(
        "--s", dest="s_values", default=None, metavar="S1,S2,...",
        help="fast-memory sizes to evaluate at (default: 8,18)",
    )
    p_bounds.add_argument(
        "--engines", default=None, metavar="E1,E2,...",
        help="bound engines to run (default: all registered)",
    )
    p_bounds.add_argument(
        "--max-vertices", type=int, default=None, metavar="N",
        help="refuse instances whose CDAG exceeds N vertices",
    )
    add_engine_flags(p_bounds)

    p_tight = sub.add_parser(
        "tightness",
        help="schedule-replay tightness audit (simulated I/O vs lower bound)",
    )
    p_tight.add_argument(
        "kernels", nargs="*", metavar="KERNEL",
        help="kernels to audit (default: the full corpus)",
    )
    p_tight.add_argument(
        "--s", dest="s_values", default=None, metavar="S1,S2,...",
        help="fast-memory sizes to sweep (default: 8,18)",
    )
    p_tight.add_argument(
        "--params", nargs="+", default=[], metavar="NAME=VALUE",
        help="parameter overrides applied to every audited kernel",
    )
    p_tight.add_argument(
        "--max-vertices", type=int, default=None, metavar="N",
        help="skip instances whose CDAG exceeds N vertices",
    )
    p_tight.add_argument(
        "--markdown", type=Path, default=None, metavar="FILE",
        help="also write the TIGHTNESS.md rendering to FILE",
    )
    p_tight.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="replay/stream-build chunk: bound peak memory to O(N) positions "
        "per worker (default: automatic, whole-stream below ~8M accesses)",
    )
    p_tight.add_argument(
        "--bounds-engines", default=None, metavar="E1,E2,...",
        help="lower-bound engines behind the certified gap denominator "
        "(default: all registered; `kkt` reproduces the KKT-only audit)",
    )
    add_jobs_flag(p_tight)
    add_engine_flags(p_tight)

    p_list = sub.add_parser("list", help="list registered kernels")

    p_trace = sub.add_parser("trace", help="inspect/convert JSONL span traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tconv = trace_sub.add_parser(
        "convert", help="convert a JSONL trace to Chrome/Perfetto JSON"
    )
    p_tconv.add_argument("input", type=Path, help="JSONL trace (from --trace)")
    p_tconv.add_argument(
        "-o", "--output", type=Path, default=None, metavar="FILE",
        help="output path (default: INPUT with a .perfetto.json suffix)",
    )
    p_tval = trace_sub.add_parser(
        "validate", help="check a JSONL trace for schema/stitching errors"
    )
    p_tval.add_argument("input", type=Path, help="JSONL trace (from --trace)")

    p_serve = sub.add_parser("serve", help="run the analysis daemon")
    add_service_flags(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent analysis workers (default: 2)",
    )
    p_serve.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persist the daemon's solve cache in DIR",
    )
    p_serve.add_argument(
        "--max-cache-entries", type=int, default=None, metavar="N",
        help="LRU cap on the in-memory solve cache (default: unbounded)",
    )
    p_serve.add_argument(
        "--no-coalesce", action="store_true",
        help="disable request coalescing (for benchmarking)",
    )
    p_serve.add_argument(
        "--warm", action="store_true",
        help="pre-solve the registered kernel corpus at boot "
        "(low priority; requests served while warming)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="activate a deterministic fault-injection plan (built-in name, "
        "file path, or inline JSON); forked workers inherit it",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos suite: run kernels under seeded fault plans and verify "
        "every answer is byte-identical to fault-free or explicitly degraded",
    )
    p_chaos.add_argument(
        "--plans", default=None, metavar="P1,P2,...",
        help="fault plans to run (built-in names or file paths; default: "
        "worker-kill,store-corrupt,engine-fail)",
    )
    p_chaos.add_argument(
        "--kernels", default=None, metavar="K1,K2,...",
        help="kernels to drive under each plan (default: gemm,atax,mvt)",
    )
    p_chaos.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="daemon worker processes per chaos run (default: 2)",
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable chaos report",
    )
    p_chaos.add_argument(
        "-o", "--output", type=Path, default=None, metavar="FILE",
        help="also write the chaos report JSON to FILE",
    )

    p_submit = sub.add_parser("submit", help="submit an analysis to a running daemon")
    p_submit.add_argument(
        "name", nargs="?", default=None, help="registered kernel name"
    )
    p_submit.add_argument(
        "--source", type=Path, default=None, metavar="FILE",
        help="analyze a source file instead of a registered kernel",
    )
    p_submit.add_argument("--language", choices=("python", "c"), default=None)
    p_submit.add_argument(
        "--priority", choices=("high", "normal", "low"), default="normal"
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return the queued job id instead of blocking for the result",
    )
    p_submit.add_argument("--json", action="store_true")
    add_service_flags(p_submit)

    p_status = sub.add_parser("status", help="daemon health, metrics, or one job")
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.add_argument(
        "--metrics", action="store_true", help="full /metrics payload"
    )
    add_service_flags(p_status)

    args = parser.parse_args(argv)
    command = {
        "analyze": _cmd_analyze,
        "kernel": _cmd_kernel,
        "table2": _cmd_table2,
        "validate": _cmd_validate,
        "bounds": _cmd_bounds,
        "tightness": _cmd_tightness,
        "list": _cmd_list,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "chaos": _cmd_chaos,
    }[args.command]
    try:
        return command(args)
    except BrokenPipeError:  # e.g. piped into head
        return 0
    except _expected_errors() as err:
        print(f"error: {_one_line(err)}", file=sys.stderr)
        return 2


def _positive_int(text: str) -> int:
    """argparse type for worker counts: rejects 0 and negatives at parse
    time (usage error, exit 2) instead of deep inside the sweep."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _expected_errors() -> tuple:
    """Failure modes that are the user's input, not analyzer bugs."""
    from repro.service.client import ServiceError
    from repro.util.errors import SoapError

    return (SoapError, ServiceError, KeyError, OSError, ValueError, TimeoutError)


def _one_line(err: Exception) -> str:
    text = str(err) or type(err).__name__
    if isinstance(err, KeyError):
        text = text.strip("'\"")
    if isinstance(err, ConnectionRefusedError):
        text = f"cannot reach the analysis daemon ({text}); is `serve` running?"
    return " ".join(text.split())


def _cache_dir(args) -> str | None:
    return str(args.cache_dir) if args.cache_dir is not None else None


@contextmanager
def _traced(args, name: str, **attrs):
    """Run the block under a ``--trace FILE`` tracer (no-op without it)."""
    path = getattr(args, "trace", None)
    if path is None:
        yield
        return
    from repro.obs import Tracer, span

    with Tracer(str(path)), span(name, **attrs):
        yield
    print(f"trace written to {path}", file=sys.stderr)


def _cmd_analyze(args) -> int:
    from repro.analysis import analyze_source
    from repro.reporting.serialize import program_bound_report
    from repro.symbolic.printing import bound_str

    language = args.language
    if language is None:
        language = "c" if args.path.suffix in (".c", ".h") else "python"
    source = args.path.read_text()
    with _traced(args, "cli.analyze", program=args.path.stem):
        result = analyze_source(
            source,
            name=args.path.stem,
            language=language,
            policy=args.policy,
            max_subgraph_size=args.max_subgraph_size,
            allow_pinning=args.allow_pinning,
            cache_dir=_cache_dir(args),
        )
    if args.json:
        print(json.dumps(
            program_bound_report(result, name=args.path.stem, language=language),
            indent=2,
        ))
        return 0
    print(f"program: {args.path.stem} ({language})")
    print(f"I/O lower bound (Theorem 1): Q >= {bound_str(result.bound)}")
    if result.io_floor != 0:
        print(f"cold input/output floor:     Q >= {bound_str(result.io_floor)}")
    for array, analysis in sorted(result.per_array.items()):
        print(
            f"  array {array}: intensity rho = {analysis.rho} "
            f"via subgraph {analysis.arrays}"
        )
    return 0


def _cmd_kernel(args) -> int:
    from repro.analysis import analyze_kernel
    from repro.opt.tiling import tiles_at_x0
    from repro.reporting.serialize import kernel_report
    from repro.symbolic.printing import bound_str

    with _traced(args, "cli.kernel", kernel=args.name):
        result = analyze_kernel(args.name, cache_dir=_cache_dir(args))
    if args.json:
        print(json.dumps(kernel_report(result), indent=2))
        return 0
    print(f"kernel: {args.name}")
    print(f"  ours : Q >= {bound_str(result.bound)}")
    print(f"  paper: Q >= {bound_str(result.paper_bound)}")
    print(f"  ratio: {result.ratio}  shape match: {result.shape_matches}")
    for array, analysis in sorted(result.program_bound.per_array.items()):
        tiles = tiles_at_x0(analysis.intensity)
        tile_txt = ", ".join(f"{v}={e}" for v, e in sorted(tiles.items())) or "-"
        print(
            f"  array {array}: rho = {analysis.rho} "
            f"(X0 = {analysis.intensity.x0}; tiles: {tile_txt})"
        )
    return 0


def _cmd_table2(args) -> int:
    from repro.reporting.table import render_table2, table2_json, table2_rows

    started = time.perf_counter()
    with _traced(args, "cli.table2", category=args.category or "all"):
        rows = table2_rows(
            args.category, jobs=args.jobs, cache_dir=_cache_dir(args),
            bounds=args.bounds,
        )
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps(table2_json(rows, jobs=args.jobs, elapsed=elapsed), indent=2))
        return 0
    sys.stdout.write(render_table2(rows))
    if args.bounds:
        for r in rows:
            if r.winning_engine is not None:
                print(
                    f"  {r.kernel}: certified by {r.winning_engine} "
                    f"(engine disagreement {r.bound_disagreement:.0%})"
                )
    exact = sum(1 for r in rows if r.ratio == "1")
    shaped = sum(1 for r in rows if r.shape_matches)
    print(f"\n{exact}/{len(rows)} exact, {shaped}/{len(rows)} shape matches")
    return 0


def _parse_params(items) -> dict[str, int]:
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not value.lstrip("-").isdigit():
            raise ValueError(f"bad --params entry {item!r}; expected NAME=INTEGER")
        params[key] = int(value)
    return params


def _parse_s_values(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        s_values = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise ValueError(f"bad --s value {text!r}; expected e.g. 8,18") from None
    if not s_values:
        raise ValueError("--s needs at least one fast-memory size")
    return s_values


def _parse_engines(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    engines = tuple(name.strip() for name in text.split(",") if name.strip())
    if not engines:
        raise ValueError("engine selection needs at least one engine name")
    return engines


def _cmd_bounds(args) -> int:
    from repro.bounds import kernel_bounds
    from repro.reporting.serialize import bounds_report

    with _traced(args, "cli.bounds", kernel=args.name):
        result = kernel_bounds(
            args.name,
            params=_parse_params(args.params) or None,
            s_values=_parse_s_values(args.s_values),
            engines=_parse_engines(args.engines),
            cache_dir=_cache_dir(args),
            max_vertices=args.max_vertices,
        )
    if args.json:
        print(json.dumps(bounds_report(result), indent=2))
        return 0
    params_txt = ",".join(f"{k}={v}" for k, v in sorted(result.params.items()))
    print(
        f"kernel {result.kernel} [{result.category}] params={params_txt} "
        f"({result.n_vertices} vertices)"
    )
    header = f"{'S':>6s} {'engine':10s} {'value':>12s} {'model':10s}  notes"
    print(header)
    print("-" * len(header))
    for point in result.points:
        for engine in point.results:
            marker = "*" if engine.engine == point.winning_engine else " "
            value = (
                f"{engine.value:.1f}" if engine.value == engine.value else "-"
            )
            detail = engine.error or "; ".join(engine.notes)
            print(
                f"{point.s:>6d} {engine.engine:10s} {value:>11s}{marker} "
                f"{engine.model:10s}  {detail}"
            )
        certified = (
            f"{point.certified:.1f}" if point.certified == point.certified
            else "-"
        )
        print(
            f"{'':>6s} {'certified':10s} {certified:>12s} "
            f"(winner: {point.winning_engine or 'none'}, "
            f"disagreement {point.disagreement:.0%})"
        )
    return 0


def _cmd_validate(args) -> int:
    from repro.kernels import get_kernel
    from repro.pebbling.validate import validate_bound

    params = _parse_params(args.params)
    spec = get_kernel(args.name)
    report = validate_bound(spec.build(), params, args.s)
    print(f"kernel {args.name} params={params} S={args.s}")
    print(f"  CDAG vertices : {report.n_vertices}")
    print(f"  lower bound   : {report.lower_bound:.2f}")
    print(f"  optimal Q     : {report.optimal_cost}")
    print(f"  greedy upper  : {report.greedy_cost}")
    print(f"  stream replay : {report.replay_cost}   consistent: {report.consistent}")
    if report.schedule_cost is not None:
        print(f"  derived sched : {report.schedule_cost}")
    print(f"  sound         : {report.sound}   gap: {report.gap:.2f}x")
    return 0 if report.sound and report.consistent else 1


def _cmd_tightness(args) -> int:
    from repro.reporting.serialize import tightness_report
    from repro.reporting.tightness import tightness_markdown
    from repro.schedule.tightness import (
        DEFAULT_MAX_VERTICES,
        DEFAULT_S_VALUES,
        audit_corpus,
    )

    s_values = _parse_s_values(args.s_values) or DEFAULT_S_VALUES
    names = args.kernels or None
    if names:
        from repro.kernels import get_kernel

        for name in names:
            get_kernel(name)  # unknown kernels are an input error, not a row
    with _traced(args, "cli.tightness", kernels=len(names) if names else "all"):
        report = audit_corpus(
            names,
            s_values=s_values,
            params=_parse_params(args.params) or None,
            jobs=args.jobs,
            cache_dir=_cache_dir(args),
            max_vertices=(
                args.max_vertices
                if args.max_vertices is not None
                else DEFAULT_MAX_VERTICES
            ),
            chunk_size=args.chunk_size,
            bounds_engines=_parse_engines(args.bounds_engines),
        )
    if args.markdown is not None:
        args.markdown.write_text(tightness_markdown(report))
    if args.json:
        print(json.dumps(tightness_report(report), indent=2))
    else:
        header = (
            f"{'kernel':20s} {'S':>4s} {'|V|':>7s} {'bound':>10s} "
            f"{'best':>9s} {'schedule':>9s} {'prog-order':>10s} {'gap':>7s}  class"
        )
        print(header)
        print("-" * len(header))
        for r in report.rows:
            if not r.ok:
                print(f"{r.kernel:20s} {r.s:>4d} skipped: {r.error}")
                continue
            print(
                f"{r.kernel:20s} {r.s:>4d} {r.n_vertices:>7d} "
                f"{r.bound_value:>10.1f} {r.winning_engine or '-':>9s} "
                f"{r.schedule_cost:>9d} "
                f"{r.program_order_cost:>10d} {r.gap:>6.2f}x  {r.classification}"
            )
        summary = report.summary()
        print(
            f"\n{summary['audited']}/{summary['kernels']} audited: "
            f"{summary['attained']} attained, {summary['near']} near, "
            f"{summary['loose']} loose"
            + (f"; failed: {', '.join(summary['failed'])}" if summary["failed"] else "")
        )
    summary = report.summary()
    ok = summary["finite_gaps"] and not summary["failed"] and summary["audited"] > 0
    return 0 if ok else 1


def _cmd_list(args) -> int:
    from repro.kernels import all_kernels

    for spec in all_kernels():
        print(f"{spec.name:24s} [{spec.category}] {spec.description}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import read_trace, span_tree, to_chrome_trace, validate_trace

    records = read_trace(str(args.input))
    errors = validate_trace(records)
    if args.trace_command == "validate":
        for message in errors:
            print(f"  {message}", file=sys.stderr)
        if errors:
            print(f"{args.input}: {len(records)} spans -- INVALID")
            return 1
        roots = span_tree(records)
        print(
            f"{args.input}: {len(records)} spans, {len(roots)} roots, "
            f"{len({r['pid'] for r in records})} processes -- ok"
        )
        return 0
    if errors:
        raise ValueError(
            f"{args.input} is not a valid trace ({len(errors)} errors; "
            "run `trace validate` for details)"
        )
    output = args.output
    if output is None:
        output = args.input.with_suffix(".perfetto.json")
    output.write_text(json.dumps(to_chrome_trace(records)))
    print(f"wrote {output} ({len(records)} spans); open at https://ui.perfetto.dev")
    return 0


# ---------------------------------------------------------------------------
# service verbs
# ---------------------------------------------------------------------------


def _cmd_serve(args) -> int:
    from repro import __version__, faults
    from repro.service import ServiceConfig, run_server

    if args.fault_plan:
        faults.activate(faults.FaultPlan.load(args.fault_plan))
        print(f"fault plan active: {args.fault_plan}", flush=True)
    config = ServiceConfig(
        workers=args.workers,
        cache_dir=_cache_dir(args),
        max_cache_entries=args.max_cache_entries,
        coalesce=not args.no_coalesce,
        warm=args.warm,
    )
    print(
        f"soap-analyze {__version__} serving on http://{args.host}:{args.port} "
        f"({config.workers} workers, solver {config.solver}, coalescing "
        f"{'on' if config.coalesce else 'off'})",
        flush=True,
    )
    run_server(host=args.host, port=args.port, config=config)
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import DEFAULT_KERNELS, DEFAULT_PLANS, run_chaos

    plans = args.plans.split(",") if args.plans else list(DEFAULT_PLANS)
    kernels = args.kernels.split(",") if args.kernels else list(DEFAULT_KERNELS)
    report = run_chaos(
        kernels, plans, workers=args.workers, out=args.output
    )
    if args.json:
        print(json.dumps(report, indent=1, default=str))
    else:
        for label, entry in report["plans"].items():
            verdicts = ", ".join(
                f"{kernel}={row['verdict']}"
                for kernel, row in entry["results"].items()
            )
            print(f"{label} [{entry['job_kind']}]: {verdicts}")
        print(f"chaos suite: {'OK' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port)


def _print_job(record, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record.raw, indent=2))
        return
    print(f"job {record.id}: {record.state} (priority {record.priority})")
    if record.coalesced:
        print(f"  coalesced: shared by {record.attached} requests")
    if record.error:
        print(f"  error: {record.error}")
    result = record.result or {}
    for field in ("kernel", "program", "bound", "ours", "paper", "ratio"):
        if field in result:
            print(f"  {field}: {result[field]}")


def _cmd_submit(args) -> int:
    if (args.name is None) == (args.source is None):
        raise ValueError("pass exactly one of: a kernel name, or --source FILE")
    client = _client(args)
    if args.source is not None:
        language = args.language
        if language is None:
            language = "c" if args.source.suffix in (".c", ".h") else "python"
        record = client.analyze(
            args.source.read_text(),
            name=args.source.stem,
            language=language,
            priority=args.priority,
            wait=not args.no_wait,
        )
    else:
        record = client.kernel(
            args.name, priority=args.priority, wait=not args.no_wait
        )
    _print_job(record, args.json)
    return 0 if record.state != "failed" else 1


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job_id is not None:
        _print_job(client.job(args.job_id), as_json=True)
        return 0
    if args.metrics:
        print(json.dumps(client.metrics(), indent=2))
        return 0
    health = client.healthz()
    print(
        f"daemon at {args.host}:{args.port}: {health.status} "
        f"(v{health.version}, {health.workers} workers, "
        f"solver {health.solver}, queue depth {health.queue_depth}, "
        f"active {health.active_jobs}, up {health.uptime_seconds:.0f}s)"
    )
    if health.draining:
        print("  draining: yes (new submissions refused with 503)")
    for proc in health.worker_processes:
        state = "alive" if proc.get("alive") else "DEAD"
        busy = "busy" if proc.get("busy") else "idle"
        print(
            f"  worker[{proc.get('index')}]: {state} pid {proc.get('pid')} "
            f"({busy}, {proc.get('jobs', 0)} jobs, "
            f"{proc.get('restarts', 0)} restarts)"
        )
    store = health.store
    if store:
        totals = {
            key: value for key, value in store.items()
            if key not in ("path", "entries", "reports")
        }
        print(
            f"  store: {store.get('entries', 0)} solves, "
            f"{store.get('reports', 0)} reports "
            f"({totals.get('hits', 0)} hits, {totals.get('stores', 0)} stores, "
            f"{totals.get('coalesced', 0)} coalesced, "
            f"{totals.get('reclaims', 0)} reclaimed)"
        )
    warm = health.warm
    if warm:
        phase = "warming" if warm.get("active") else "warm"
        print(
            f"  corpus: {phase} "
            f"({warm.get('completed', 0)}/{warm.get('kernels', 0)} kernels"
            + (
                f", {warm['seconds']:.1f}s"
                if isinstance(warm.get("seconds"), (int, float))
                else ""
            )
            + ")"
        )
    for backend, counts in sorted(health.solver_stats.items()):
        line = ", ".join(
            f"{bucket} {count}" for bucket, count in sorted(counts.items()) if count
        )
        print(f"  solves[{backend}]: {line or 'none yet'}")
    bounds = health.bounds
    if bounds.get("evals"):
        evals_txt = ", ".join(
            f"{engine} x{count}" for engine, count in sorted(bounds["evals"].items())
        )
        print(f"  bound engines: {evals_txt}")
        for kernel, record in sorted(bounds.get("kernels", {}).items()):
            spread = record.get("disagreement")
            spread_txt = (
                f", disagreement {spread:.0%}"
                if isinstance(spread, (int, float))
                else ""
            )
            print(
                f"    {kernel}: certified by "
                f"{record.get('winning_engine') or '-'}{spread_txt}"
            )
    metrics = client.metrics()
    cache = metrics.get("cache", {})
    if cache:
        hit_rate = cache.get("hit_rate")
        rate_txt = f"{hit_rate:.0%}" if isinstance(hit_rate, float) else "n/a"
        print(
            f"  cache: hit rate {rate_txt} "
            f"({cache.get('hits', 0)} hits, {cache.get('stores', 0)} stores)"
        )
    spans = metrics.get("spans", {})
    counts = spans.get("counts", {})
    if counts:
        total = sum(counts.values())
        top = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:4]
        top_txt = ", ".join(f"{name} x{count}" for name, count in top)
        print(f"  spans: {total} finished ({top_txt})")
    for item in spans.get("slowest", [])[:3]:
        print(f"    slow: {item['name']} {item['wall_seconds']:.3f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
