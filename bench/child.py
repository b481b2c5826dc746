"""One pipeline process: the moneygas CLI on one config, timed from the outside.

    python3 bench/child.py T_SPAWN TIMING_JSON TRACE VERB CONFIG OUT_DIR

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by every process on the machine, so the
child's own readings can be subtracted from it. The child imports the
package from the checkout's ``src/``, calls ``moneygas.cli.main`` exactly as
the console script does, and writes ``TIMING_JSON`` with the time
``import moneygas`` finished, its spans and its peak RSS.

Spans: ``load_config`` and ``run_experiment`` are always wrapped, because
their ends mark "config validated" and "manifest written". With TRACE=1 the
public functions the runner calls are wrapped too. Each span records its
name, start, end, the index of its parent span and counts taken from the
call's arguments or result. Spans stay in memory until the process ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span["start"] = time.monotonic()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._open.pop()
            if count is not None:
                span.update(count(args, result))
            return result

        setattr(owner, attr, traced)


def _values(args, result) -> dict:
    return {"values": int(getattr(args[0], "size", len(args[0])))}


def _chain(args, result) -> dict:
    meta = result.meta
    return {"events": meta.events_run, "rejected": meta.rejected_events,
            "records": result.n_records}


def _income_chain(args, result) -> dict:
    # run_income_chain applies whole sweeps of n//2 events until `steps`.
    pairs = result.spec.n_agents // 2
    return {"events": -(-result.steps // pairs) * pairs}


def _bytes(args, result) -> dict:
    return {"bytes": len(result)}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the layer entry points under the names the runner looks them up by."""
    from moneygas import dynamics, pareto, runner

    tracer.wrap(runner, "run_chain", "dynamics.run_chain", _chain)
    tracer.wrap(dynamics.SampleSet, "csv_bytes", "dynamics.samples_csv", _bytes)
    tracer.wrap(runner, "fit_shifted_exponential", "estimation.fit", _values)
    tracer.wrap(runner, "ks_statistic_exponential", "estimation.ks", _values)
    tracer.wrap(runner, "histogram", "estimation.hist", _values)
    tracer.wrap(runner, "hill_tail_index", "estimation.hill", _values)
    tracer.wrap(runner, "run_income_chain", "pareto.income_chain", _income_chain)
    tracer.wrap(runner, "pareto_direct_sample", "pareto.direct_sample")
    tracer.wrap(runner, "transition_scan", "pareto.scan")
    tracer.wrap(pareto.IncomeSampleSet, "csv_bytes", "pareto.samples_csv", _bytes)


def main(argv: list[str]) -> int:
    t_spawn = float(argv[0])
    timing_path, traced, verb, config, out_dir = argv[1], argv[2] == "1", argv[3], argv[4], argv[5]
    sys.path.insert(0, str(SRC))
    import moneygas.cli as cli

    t_imported = time.monotonic()
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"moneygas imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = Tracer()
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "run_experiment", "runner.run_experiment")
    if traced:
        install_tracing(tracer)
    code = cli.main([verb, "-c", config, "-o", out_dir])
    Path(timing_path).write_text(json.dumps({
        "t_spawn": t_spawn,
        "t_imported": t_imported,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
