"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points so the reproduction is
usable without writing Python:

========================  ==============================================
``report``                every table and figure, printed
``table1`` / ``table2``   one accuracy table
``table3``                simulation performance
``figure6``               the energy-sampling profile
``casestudy``             the §4.3 Java Card exploration
``coprocessor``           the §1 crypto HW/SW interface study
``characterize``          run the characterisation flow; optionally save
                          the table as JSON
``sweep``                 fetch-path (burst x line-buffer) sweep
``robustness``            accuracy errors across workload classes
``faults``                fault-injection campaign: completion rate and
                          recovery cost (cycles, energy) per bus layer
``tear``                  tear campaign: anti-tearing consistency and
                          recovery cost under whole-card power loss
``dpm``                   dynamic power management campaign: adaptive
                          policies vs always-on on starved supplies,
                          plus the emergency-checkpoint study
``link``                  T=1 link campaign: framed APDU sessions over
                          a noisy UART channel — bounded retransmission
                          and energy-attributed recovery per bus layer
``fabric``                routable-fabric campaign: flat vs bridged
                          topology with exact per-link energy books
``chaos``                 chaos campaign: seeded fabric-fault scenarios
                          under a cross-layer differential oracle, with
                          self-shrinking repros (``--replay`` re-runs one)
``trace``                 run the §4.1 test program and dump its bus
                          trace
``vcd``                   dump the test program's bus waveform as VCD
``bench``                 tracked performance benchmarks; writes
                          ``BENCH_PR10.json`` and enforces the
                          fast-lane kernel and end-to-end layer-1
                          speedup floors
========================  ==============================================

The six campaign commands (``faults`` to ``chaos``) have no
hand-written parser or handler: each campaign module declares one
:class:`~repro.experiments.supervisor.Campaign` (command name,
``run_*_campaign`` runner, options as plain data), and one adapter
turns every declaration into a subcommand with the shared
``--seed``/``--cell-wall-seconds``/``--journal``/``--resume``/
``--workers`` options.  Option defaults are the runner's own keyword
defaults.  One handler runs them all: ``--resume`` without
``--journal`` and a ``ValueError`` from the runner exit 2; otherwise
the report is printed and the exit code is 0 when the campaign's
verdict passed, 1 when it did not.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import typing


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import full_report
    print(full_report(transactions=args.transactions,
                      include_gate_level=not args.no_gate_level,
                      extended=args.extended))
    if args.csv:
        from repro.experiments.export import write_csv_reports
        paths = write_csv_reports(args.csv,
                                  transactions=args.transactions)
        print(f"\nCSV results written: "
              f"{', '.join(str(p) for p in paths)}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import run_table1
    print(run_table1().format())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments import run_table2
    print(run_table2().format())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments import run_table3
    print(run_table3(transactions=args.transactions,
                     include_gate_level=not args.no_gate_level).format())
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.experiments import run_figure6
    print(run_figure6(workers=args.workers).format())
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.experiments import run_casestudy
    print(run_casestudy().format())
    return 0


def _cmd_coprocessor(args: argparse.Namespace) -> int:
    from repro.experiments import run_coprocessor_study
    print(run_coprocessor_study(blocks=args.blocks).format())
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.power.characterize import (coefficient_report,
                                          default_characterization)
    result = default_characterization(seed=args.seed)
    print(result.report.format_summary())
    print()
    print(coefficient_report(result.table))
    if args.output:
        result.table.save(args.output)
        print(f"\ntable written to {args.output}")
    return 0


def _check_resume(args: argparse.Namespace, command: str) -> bool:
    if args.resume and not args.journal:
        print(f"repro {command}: error: --resume requires --journal",
              file=sys.stderr)
        return False
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_bus_sweep
    if not _check_resume(args, "sweep"):
        return 2
    print(run_bus_sweep(journal_path=args.journal,
                        resume=args.resume,
                        workers=args.workers).format())
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import run_robustness
    if not _check_resume(args, "robustness"):
        return 2
    print(run_robustness(journal_path=args.journal,
                         resume=args.resume).format())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """The one handler of the six campaign commands."""
    campaign = args.campaign
    if getattr(args, "replay", None):  # chaos --replay
        return _chaos_replay(args.replay)
    if not _check_resume(args, campaign.name):
        return 2
    options = {}
    for option in campaign.options:
        if option.keyword is not None:
            value = getattr(args, option.keyword)
            options[option.keyword] = (
                not value if option.negated
                else tuple(value) if option.nargs else value)
    try:
        result = campaign.run(
            seed=args.seed, journal_path=args.journal,
            resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers, **options)
    except ValueError as error:
        print(f"repro {campaign.name}: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    if getattr(args, "repro_out", None):  # chaos --repro-out
        _write_repro(result, args.repro_out)
    return 0 if result.passed else 1


def _write_repro(result, path: str) -> None:
    """Write the chaos self-test's minimal repro as replayable JSON."""
    if result.selftest is None or result.selftest.status != "ok":
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"signature": result.selftest.signature,
                   "original": result.selftest.original,
                   "minimal": result.selftest.minimal},
                  handle, indent=2)
        handle.write("\n")
    print(f"minimal repro written to {path}")


def _chaos_replay(path: str) -> int:
    """Replay a shrunken repro file; exit 0 when the failure still
    reproduces (that is the replay's *purpose*), 1 when it passes."""
    from repro.chaos import ChaosScenario, run_scenario
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    for key in ("minimal", "scenario"):
        if isinstance(data, dict) and key in data:
            data = data[key]
            break
    scenario = ChaosScenario.from_dict(data)
    result = run_scenario(scenario)
    print(f"replay {scenario.name}: signature "
          f"{result.failure_signature!r}")
    for divergence in result.divergences:
        print(f"  {divergence['kind']}: {divergence['detail']}")
    return 0 if not result.passed else 1


def _cmd_vcd(args: argparse.Namespace) -> int:
    from repro.kernel import Clock, Simulator
    from repro.power import (Layer1PowerModel, SignalStateRecorder,
                             save_vcd)
    from repro.experiments.common import (CLOCK_PERIOD, characterization,
                                          fresh_memory_map,
                                          test_program_trace)
    from repro.tlm import EcBusLayer1, PipelinedMaster, run_script
    simulator = Simulator("vcd")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = fresh_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(characterization().table, recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus,
                             test_program_trace().to_script())
    run_script(simulator, master, 1_000_000, clock)
    save_vcd(recorder, args.output, clock_period_ps=CLOCK_PERIOD)
    print(f"{len(recorder)} cycles of bus waveform + energy written "
          f"to {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (E2E_FLOOR, FASTLANE_FLOOR,
                                         fastlane_speedup, format_rows,
                                         layer1_e2e_speedup, run_bench,
                                         write_bench)
    rows = run_bench(quick=args.quick, workers=args.workers)
    write_bench(rows, args.output)
    print(format_rows(rows))
    print(f"\nbenchmark rows written to {args.output}")
    status = 0
    kernel = fastlane_speedup(rows)
    if kernel < FASTLANE_FLOOR:
        print(f"repro bench: FAIL: fast-lane kernel speedup "
              f"{kernel:.2f}x is below the {FASTLANE_FLOOR:.1f}x floor",
              file=sys.stderr)
        status = 1
    else:
        print(f"fast-lane kernel speedup {kernel:.2f}x "
              f"(floor {FASTLANE_FLOOR:.1f}x)")
    e2e = layer1_e2e_speedup(rows)
    if e2e < E2E_FLOOR:
        print(f"repro bench: FAIL: end-to-end layer-1 speedup "
              f"{e2e:.2f}x (fast lane + packed engine vs generic lane "
              f"+ per-cycle reference engine) is below the "
              f"{E2E_FLOOR:.1f}x floor", file=sys.stderr)
        status = 1
    else:
        print(f"end-to-end layer-1 speedup {e2e:.2f}x "
              f"(floor {E2E_FLOOR:.1f}x)")
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.common import test_program_trace
    trace = test_program_trace()
    text = trace.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(trace)} transactions written to {args.output}")
    else:
        print(text, end="")
    return 0


def _add_workers(command: argparse.ArgumentParser,
                 what: str = "sweep cells") -> None:
    command.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=f"shard {what} over N worker processes; results are "
             f"byte-identical to a serial run")


def _add_supervision(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--journal", metavar="PATH",
        help="checkpoint finished sweep cells to a JSONL journal")
    command.add_argument(
        "--resume", action="store_true",
        help="replay cells already in --journal instead of re-running "
             "them")


def _add_campaign(sub, campaign) -> None:
    """Register *campaign*'s subcommand: its declared options, with the
    runner's keyword defaults, plus the shared supervision options."""
    command = sub.add_parser(campaign.name, help=campaign.help)
    defaults = inspect.signature(campaign.run).parameters
    for option in campaign.options:
        if option.negated:
            command.add_argument(option.flag, action="store_true",
                                 dest=option.keyword, help=option.help)
            continue
        default = (None if option.keyword is None
                   else defaults[option.keyword].default)
        command.add_argument(
            option.flag, dest=option.keyword, type=option.type,
            nargs=option.nargs, choices=option.choices,
            default=list(default) if option.nargs else default,
            metavar=option.metavar, help=option.help)
    command.add_argument("--seed", default=defaults["seed"].default,
                         help="campaign seed (any int or string)")
    command.add_argument(
        "--cell-wall-seconds", type=float, default=None,
        help="wall-clock budget per campaign cell; a cell exceeding it "
             "degrades instead of hanging the campaign")
    _add_supervision(command)
    _add_workers(command, what="campaign cells")
    command.set_defaults(func=_cmd_campaign, campaign=campaign)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Energy Estimation Based on "
                    "Hierarchical Bus Models for Power-Aware Smart "
                    "Cards' (DATE 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="all tables and figures")
    report.add_argument("--transactions", type=int, default=2_000,
                        help="Table-3 workload size")
    report.add_argument("--no-gate-level", action="store_true",
                        help="skip the slow gate-level speed row")
    report.add_argument("--csv", metavar="DIR",
                        help="also write one CSV per artefact to DIR")
    report.add_argument("--extended", action="store_true",
                        help="append the beyond-the-paper studies")
    report.set_defaults(func=_cmd_report)

    sub.add_parser("table1", help="timing accuracy"
                   ).set_defaults(func=_cmd_table1)
    sub.add_parser("table2", help="energy estimation accuracy"
                   ).set_defaults(func=_cmd_table2)

    table3 = sub.add_parser("table3", help="simulation performance")
    table3.add_argument("--transactions", type=int, default=2_000)
    table3.add_argument("--no-gate-level", action="store_true")
    table3.set_defaults(func=_cmd_table3)

    figure6 = sub.add_parser("figure6", help="energy sampling profile")
    _add_workers(figure6, what="the two layer runs")
    figure6.set_defaults(func=_cmd_figure6)
    sub.add_parser("casestudy", help="java card HW/SW exploration"
                   ).set_defaults(func=_cmd_casestudy)

    coproc = sub.add_parser("coprocessor",
                            help="crypto HW/SW interface study")
    coproc.add_argument("--blocks", type=int, default=4)
    coproc.set_defaults(func=_cmd_coprocessor)

    characterize = sub.add_parser(
        "characterize", help="run the power characterisation flow")
    characterize.add_argument("--seed", type=int, default=2004)
    characterize.add_argument("-o", "--output",
                              help="write the table as JSON")
    characterize.set_defaults(func=_cmd_characterize)

    trace = sub.add_parser("trace",
                           help="dump the test program's bus trace")
    trace.add_argument("-o", "--output", help="write to a file")
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser(
        "sweep", help="fetch-path (burst x line-buffer) sweep")
    _add_supervision(sweep)
    _add_workers(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    robustness = sub.add_parser(
        "robustness",
        help="accuracy errors across workload classes")
    _add_supervision(robustness)
    robustness.set_defaults(func=_cmd_robustness)

    from repro.experiments import CAMPAIGNS
    for campaign in CAMPAIGNS:
        _add_campaign(sub, campaign)

    bench = sub.add_parser(
        "bench", help="tracked performance benchmarks "
                      "(kernel/layer/campaign throughput)")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads for CI smoke runs")
    bench.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker count for the campaign benchmark")
    bench.add_argument("-o", "--output", default="BENCH_PR10.json",
                       help="where to write the benchmark rows (JSON)")
    bench.set_defaults(func=_cmd_bench)

    vcd = sub.add_parser(
        "vcd", help="dump the test program's bus waveform as VCD")
    vcd.add_argument("-o", "--output", default="bus.vcd")
    vcd.set_defaults(func=_cmd_vcd)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
