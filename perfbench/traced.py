"""Traced replay of one dualsim CLI command, in process.

    python3 perfbench/traced.py SPANS_FILE WORKLOAD_ID -- <dualsim CLI arguments>

Times the calls into each dualsim module's public functions from outside the
package: every name in LAYER_FUNCTIONS is rebound, in each dualsim module
that defines or imported it, to a wrapper that records a span.
``DualityGate`` is traced through its ``__init__``, so the class itself,
``isinstance`` and dataclass behaviour stay as they are.  A name that no
longer exists is skipped and listed as missing, so the replay keeps working
when a later version removes a function.

Spans (name, start, end, parent) stay in memory and are written once, after
``dualsim.cli.main`` returns: one JSON header line (workload id, name
table, counters, missing names, column layout), then the columns as raw
native arrays.  The process exits with ``main``'s return code.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps
from pathlib import Path

from workloads import dilation_bytes

#: (module, public name) pairs timed by the replay; the module is the layer.
LAYER_FUNCTIONS = (
    ("statevec", "is_normalized"),
    ("statevec", "is_unitary"),
    ("statevec", "apply_operator"),
    ("statevec", "parse_matrix_text"),
    ("statevec", "format_matrix_text"),
    ("duality", "DualityGate"),
    ("duality", "build_dilation"),
    ("duality", "run_dilation"),
    ("duality", "conditional_measure"),
    ("rand", "trial_rng"),
    ("recycling", "run_recycling"),
    ("search", "search_gate"),
    ("search", "grover_iterate"),
    ("search", "hybrid_search"),
    ("search", "duality_search_step"),
    ("search", "run_search_experiment"),
    ("opalg", "lcu_decompose"),
    ("circuit", "parse_circuit"),
    ("circuit", "duality_gate_of"),
    ("circuit", "run_circuit"),
    ("cli", "main"),
)


def _apply_operator_bytes(args, kwargs, result) -> int:
    """Operator matrix plus input and output state, in bytes (computed)."""
    state, op = args[0], args[1]
    return 16 * (len(op) ** 2 + 2 * len(state.amplitudes))


def _run_dilation_bytes(args, kwargs, result) -> int:
    circuit = args[1] if len(args) > 1 else kwargs["circuit"]
    return dilation_bytes(1 << circuit.num_aux_qubits, 1 << circuit.num_work_qubits)


#: Counters summed over the calls of one traced name, read from each call's
#: arguments or result: counter -> (traced name, unit, count).
COUNTERS = {
    "statevec.apply_operator.bytes":
        ("statevec.apply_operator", "bytes_computed", _apply_operator_bytes),
    "duality.run_dilation.bytes": ("duality.run_dilation", "bytes_computed", _run_dilation_bytes),
    "duality.conditional_measure.hits":
        ("duality.conditional_measure", "ratio", lambda a, k, r: int(type(r).__name__ == "Hit")),
    "recycling.cycles": ("recycling.run_recycling", "count", lambda a, k, r: r.cycles_used),
}


class Tracer:
    """Span columns in memory plus counters; ``wrap`` makes the recording wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self.broken: set[str] = set()
        self._stack = [-1]

    def wrap(self, name: str, fn, counters):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = (self.name_ids, self.parents, self.starts,
                                             self.ends, self._stack)
        clock = time.perf_counter
        totals = self.counters
        for key, _ in counters:
            totals[key] = 0

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            for key, count in counters:
                try:
                    totals[key] += count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken.add(key)  # the signature moved: drop the counter
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every LAYER_FUNCTIONS name that exists; return the missing ones."""
        import dualsim.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sys.modules.items() if k == "dualsim" or k.startswith("dualsim.")]
        missing = []
        for layer, attr in LAYER_FUNCTIONS:
            name = f"{layer}.{attr}"
            home = sys.modules.get(f"dualsim.{layer}")
            original = getattr(home, attr, None)
            if original is None:
                missing.append(name)
                continue
            counters = [(key, count) for key, (traced, _, count) in COUNTERS.items()
                        if traced == name]
            if isinstance(original, type):
                original.__init__ = self.wrap(name, original.__init__, counters)
                continue
            wrapper = self.wrap(name, original, counters)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
        return missing

    def write(self, path: Path, header: dict) -> None:
        columns = (("name", self.name_ids), ("parent", self.parents),
                   ("start", self.starts), ("end", self.ends))
        header = dict(header, names=self.names, count=len(self.starts),
                      counters={k: v for k, v in self.counters.items() if k not in self.broken},
                      columns=[(label, col.typecode) for label, col in columns])
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(f)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Header and columns of a spans file written by ``Tracer.write``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = {}
        for label, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(f, header["count"])
            columns[label] = col
    return header, columns


def main(argv: list[str]) -> int:
    spans_path, workload_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_FILE WORKLOAD_ID -- <dualsim CLI arguments>")
    tracer = Tracer()
    missing = tracer.install()
    import dualsim.cli

    code = dualsim.cli.main(cli_args)
    sys.stdout.flush()
    tracer.write(Path(spans_path), {"workload": workload_id, "argv": cli_args,
                                    "missing": missing + sorted(tracer.broken)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
