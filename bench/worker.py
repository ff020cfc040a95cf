"""One benchmark process: set a workload up, then measure it.

``run.py`` starts this script with the BLAS thread count pinned and
``src`` on ``PYTHONPATH``; it prints one JSON line with its raw samples.
Set-up covers the imports, input generation, the builder cross-checks
and an untimed warm-up, so one-time costs (OpenBLAS start-up, first
allocations, bytecode compilation) land in set-up, not in the samples.

A cycle runs every input of the workload once through the closed loop
``analyze -> verify_recovery -> analysis_document + json.dumps ->
connection`` (each where it applies), then its ``ncpqec`` commands.
Cycles repeat until ``--seconds`` have passed; a cycle is never cut, so
every run attempts whole cycles and the failed share is exact.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import helpers  # noqa: E402
import ncpqec  # noqa: E402
from ncpqec import cli, documents  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from speed import Speed  # noqa: E402
from metrics import per_input  # noqa: E402

# Sizes of the full workloads and of the smoke mode.
SIZES = {
    "full": {"rep_n": 6, "per_stratum": 4, "cli_n": 4, "cli_reps": 5},
    "smoke": {"rep_n": 3, "per_stratum": 1, "cli_n": 3, "cli_reps": 1},
}


class Runner:
    """Closed-loop caller: times each op, checks its output, counts failures.

    An op fails when it raises or when the oracle rejects its output; a
    rejected output also marks the run incorrect.  Wall times are kept
    for successful ops only, with when each call started, and the speed
    is read before and after each call; :meth:`scaled` turns them into
    the timing samples (see ``speed.py``).
    """

    def __init__(self, rng: np.random.Generator, in_process_cli: bool, tracer=None) -> None:
        self.rng = rng
        self.in_process_cli = in_process_cli
        self.tracer = tracer
        self.speed = Speed()
        self.wall: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.starts: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.doc_bytes: dict[str, int] = {}
        self.channel_doc_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: Counter = Counter()
        self.verdicts: dict[str, str] = {}

    def op(self, kind: str, label: str, fn, check):
        self.attempted += 1
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.op += 1
            span = self.tracer.span(f"bench.{kind}")
        self.speed.read()
        try:
            with span:
                start = time.perf_counter()
                out = fn()
                elapsed = time.perf_counter() - start
        except (ncpqec.NumericalFailure, ValueError) as exc:
            self.failed += 1
            self.failures[f"{label}: {type(exc).__name__}"] += 1
            self.verdicts.setdefault(f"{kind}:{label}", type(exc).__name__)
            return None
        self.speed.read()
        problem = check(out)
        if problem is not None:
            self.failed += 1
            self.wrong.append(f"{kind} {label}: {problem}")
            return None
        self.wall[kind][label].append(elapsed)
        self.starts[kind][label].append(start)
        return out

    def scaled(self) -> dict[str, dict[str, list[float]]]:
        return {
            kind: {
                label: [w * self.speed.scale(s, w) for s, w in zip(self.starts[kind][label], walls)]
                for label, walls in by_input.items()
            }
            for kind, by_input in self.wall.items()
        }

    def dumps(self, doc: dict) -> str:
        with self.tracer.span("documents.json_dumps") if self.tracer else contextlib.nullcontext():
            return json.dumps(doc, separators=(",", ":"))

    def run_item(self, item: inputs.Item) -> None:
        report = self.op(
            "verdict",
            item.name,
            lambda: ncpqec.analyze(item.ops, item.code),
            lambda r: oracle.check_report(item, r, self.rng),
        )
        if report is None:
            return
        self.verdicts.setdefault(f"verdict:{item.name}", report.verdict.value)
        if item.verify:
            self.op(
                "verified",
                item.name,
                lambda: ncpqec.verify_recovery(item.ops, report.recovery, item.code),
                lambda dev: None if dev <= oracle.RECOVERY_TOL else f"verify_recovery deviation {dev:.3e}",
            )

        def report_text():
            doc = documents.analysis_document(report, item.ops.signature)
            return doc, self.dumps(doc)

        def check_doc(out):
            doc, _ = out
            if doc["verdict"] != item.expected:
                return f"document verdict {doc['verdict']}, expected {item.expected}"
            if report.witness is not None and doc["witness"]["probability"] != report.witness.probability:
                return "document witness probability differs from the report"
            return None

        out = self.op("report", item.name, report_text, check_doc)
        if out is not None:
            self.doc_bytes[item.name] = len(out[1])
        if item.base is not None:
            self.op(
                "connect",
                item.name,
                lambda: (ncpqec.maps_equal(item.base, item.ops), ncpqec.connecting_pseudounitary(item.base, item.ops)),
                lambda out: "maps_equal says the boosted map differs"
                if not out[0]
                else oracle.check_connection(item.base, item.ops, out[1]),
            )

    def run_cli(self, argv: list[str], check, doc_bytes: int = 0) -> None:
        def in_process():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def subprocess_run():
            proc = subprocess.run([sys.executable, "-m", "ncpqec", *argv], capture_output=True, text=True)
            return proc.returncode, proc.stdout

        out = self.op(
            "cli",
            argv[0],
            in_process if self.in_process_cli else subprocess_run,
            lambda out: f"exit code {out[0]}" if out[0] != 0 else check(out[1]),
        )
        if out is not None:
            self.verdicts.setdefault(f"cli:{' '.join(argv)}", json.loads(out[1])["verdict"])
            if doc_bytes:
                self.channel_doc_bytes.append(doc_bytes)


class Workload:
    """Inputs of one workload and the ``ncpqec`` commands of one cycle."""

    def __init__(self, items, commands, reps: int = 1) -> None:
        self.items = items
        self.commands = commands  # (argv, check, channel document bytes)
        self.reps = reps

    def cycle(self, runner: Runner) -> None:
        for _ in range(self.reps):
            for item in self.items:
                runner.run_item(item)
        for argv, check, doc_bytes in self.commands:
            runner.run_cli(argv, check, doc_bytes)


REPRODUCE = (["reproduce-paper", "--json"], lambda text: oracle.check_reproduce_text(text, inputs.BITFLIP_C0), 0)


def bitflip_items(n: int) -> list[inputs.Item]:
    basis = inputs.repetition_basis(n)
    return [
        inputs.Item(
            f"inverted-n{n}",
            inputs.bitflip_map(n, inputs.BITFLIP_C0),
            basis,
            inputs.OUTSIDE,
            witness_probability=inputs.BITFLIP_C0,
        ),
        inputs.Item(f"cp-n{n}", inputs.bitflip_map(n, inputs.BITFLIP_CP_C0), basis, inputs.REVERSIBLE, verify=True),
    ]


def write_qec_command(workdir: Path, name: str, channel, item: inputs.Item):
    """Channel and code documents for ``ncpqec qec``, and the command that reads them."""
    channel_path = workdir / f"{name}-channel.json"
    code_path = workdir / f"{name}-code.json"
    text = inputs.channel_doc_text(channel)
    channel_path.write_text(text)
    code_path.write_text(inputs.code_doc_text(item.basis))
    argv = ["qec", str(channel_path), "--code", str(code_path), "--json"]
    return argv, lambda out: oracle.check_analysis_text(out, item.expected, item.witness_probability), len(text)


def build(name: str, size: dict, rng: np.random.Generator, workdir: Path) -> tuple[Workload, Workload]:
    """The measured workload and one cycle's worth of the same code for warm-up."""
    if name == "rep-d64":
        workload = Workload(bitflip_items(size["rep_n"]), [REPRODUCE])
        return workload, workload
    if name == "corpus-small":
        items = inputs.corpus(rng, size["per_stratum"])
        command = write_qec_command(workdir, "corpus", items[0].ops, items[0])
        return Workload(items, [command]), Workload(items, [command])
    if name == "cli-bmatrix-d16":
        items = bitflip_items(size["cli_n"])
        command = write_qec_command(workdir, "bmatrix", ncpqec.b_from_operator_sum(items[0].ops), items[0])
        return Workload(items, [command], size["cli_reps"]), Workload(items, [])
    raise ValueError(f"unknown workload {name!r}")


def check_builders() -> list[str]:
    """The shared builders reproduce the n = 3 example of ``reproduce-paper``."""
    problems = []
    ops = inputs.bitflip_map(3, inputs.BITFLIP_C0)
    if not ncpqec.maps_equal(ops, helpers.bitflip_ops(inputs.BITFLIP_C0)):
        problems.append("bitflip_map(3) differs from tests/helpers.bitflip_ops")
    b_doc = documents.parse_channel_document(json.loads(inputs.channel_doc_text(ncpqec.b_from_operator_sum(ops))))
    if np.abs(b_doc.matrix - ncpqec.b_from_operator_sum(helpers.bitflip_ops(inputs.BITFLIP_C0)).matrix).max() > 1e-12:
        problems.append("b_matrix document of bitflip_map(3) does not round-trip")
    code = documents.parse_code_document(json.loads(inputs.code_doc_text(inputs.repetition_basis(3))), 1e-9)
    if np.abs(code.projector - helpers.repetition_code().projector).max() > 1e-12:
        problems.append("code document of repetition_basis(3) differs from tests/helpers.repetition_code")
    report = ncpqec.analyze(ops, code)
    proc = subprocess.run([sys.executable, "-m", "ncpqec", "reproduce-paper", "--json"], capture_output=True, text=True)
    doc = json.loads(proc.stdout)
    if doc["verdict"] != report.verdict.value or doc["witness_probability"] != report.witness.probability:
        problems.append(
            f"reproduce-paper gives {doc['verdict']} / {doc['witness_probability']}, "
            f"the builder gives {report.verdict.value} / {report.witness.probability}"
        )
    return problems


def measure(workload: Workload, runner: Runner, seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        workload.cycle(runner)
        cycles += 1
    return cycles


def import_time(repeats: int) -> float:
    """Median seconds of ``import ncpqec`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ncpqec; print(time.perf_counter() - t)"
    runs = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(runs)


def runner_result(runner: Runner, cycles: int) -> dict:
    return {
        "cycles": cycles,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "failures": dict(runner.failures),
        "samples": runner.scaled(),
        "wall": {kind: dict(by_input) for kind, by_input in runner.wall.items()},
        "speed": runner.speed.readings,
        "doc_bytes": runner.doc_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(ncpqec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ncpqec was imported from {ncpqec.__file__}, not from this checkout", file=sys.stderr)
        return 2
    setup_speed = Speed()
    setup_speed.read()
    size = SIZES["smoke" if args.smoke else "full"]
    workdir = Path(args.workdir)
    rng = np.random.default_rng(args.seed)
    workload, warm = build(args.workload, size, rng, workdir)
    problems = check_builders()
    warm.cycle(Runner(np.random.default_rng(args.seed), in_process_cli=False))
    if args.trace:
        warm.cycle(Runner(np.random.default_rng(args.seed), in_process_cli=True))
    wall = time.perf_counter() - T0
    setup_speed.read()
    setup_s = wall * setup_speed.scale(T0, wall)  # scaled like every timed call
    result = {"setup_s": setup_s, "setup_wall_s": wall, "problems": problems}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        runner = Runner(rng, in_process_cli=False)
        result["run"] = runner_result(runner, measure(workload, runner, args.seconds))
        print(json.dumps(result))
        return 0

    # Traced run: an untraced half, then a traced half, both running the
    # CLI in process so the two halves differ only by the spans.
    plain = Runner(rng, in_process_cli=True)
    result["run"] = runner_result(plain, measure(workload, plain, args.seconds / 2))
    tracer = tracing.Tracer()
    traced = Runner(rng, in_process_cli=True, tracer=tracer)
    tracer.install()
    try:
        cycles = measure(workload, traced, args.seconds / 2)
    finally:
        tracer.restore()
    result["traced"] = runner_result(traced, cycles)
    if plain.verdicts != traced.verdicts:
        differ = sorted(k for k in plain.verdicts.keys() | traced.verdicts.keys() if plain.verdicts.get(k) != traced.verdicts.get(k))
        problems.append(f"traced and untraced verdicts differ on {differ[:5]}")
    layers = tracing.layer_metrics(
        tracer.spans, cycles, list(traced.doc_bytes.values()), traced.channel_doc_bytes, import_time(3)
    )
    for kind in ("verdict", "verified", "report", "cli"):
        untraced, with_spans = result["run"]["samples"].get(kind), result["traced"]["samples"].get(kind)
        layers[f"trace.overhead.{kind}_s"] = per_input(with_spans) - per_input(untraced) if untraced and with_spans else 0.0
    result["layers"] = layers
    spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps([[s.name, s.start, s.end, s.parent, s.op, s.raised] for s in tracer.spans])
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
