"""One traced op of a benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/trace_op.py WORKLOAD OP_SEED

The op is the workload's CLI command: it parses the same arguments with
the CLI's own parser and calls ``cmd_verify`` (one trial) or
``cmd_involution`` itself, which print the op's stdout.  For ``verify``,
each library function that ``cmd_verify`` calls is wrapped in a span;
``cmd_involution`` runs in one span.  After the op, outside its time, the process makes isolating calls on
the op's own inputs to time single layers.  Its last stdout line is one
JSON object: the monotonic time at which the op ended, the summed time of
the op's top-level spans, the layer metrics and the spans themselves.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from math import comb, factorial

import workloads as wl


class CheckFailed(Exception):
    """A route, an output or a count disagrees with what it must be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Tracer:
    """Spans in memory: name, op id, parent span index, start and end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = "op"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "op": self.op, "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def seconds(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)


def _terms(value) -> int:
    terms = getattr(value, "terms", None)
    return len(terms) if terms is not None else int(value != 0)


# The names ``cmd_verify`` looks up in the cli module, with their span names.
VERIFY_CALLS = {
    "composition_tilings": "combinat.composition_tilings",
    "random_skew_spec": "randgen.random_skew_spec",
    "skew_function_from_spec": "hpf.skew_function_from_spec",
    "skew_function_from_spec_at": "hpf.skew_function_from_spec_at",
    "pf_definition": "hpf.pf_definition",
    "pf_exterior": "hpf.pf_exterior",
    "pf_closed_form": "hpf.pf_closed_form",
    "theorem_coefficient": "hpf.theorem_coefficient",
    "random_point": "randgen.random_point",
    "vandermonde_at": "poly.vandermonde_at",
}


def verify_op(tracer: Tracer, args, cli):
    """``cmd_verify`` itself, one trial, with each call it makes into the
    library in a span; returns the op's spec, skew function and definition."""
    require(args.trials == 1 and (args.mode == "symbolic" or args.points == 1),
            "traced verify covers one trial of one point")
    returned = {}

    def traced(name: str, fn):
        def call(*call_args):
            returned[name] = tracer.call(VERIFY_CALLS[name], fn, *call_args)
            return returned[name]
        return call

    for name in VERIFY_CALLS:
        setattr(cli, name, traced(name, getattr(cli, name)))
    status = cli.cmd_verify(args)
    require(status == 0, f"cmd_verify returned {status}")
    if args.mode == "symbolic":
        f = returned["skew_function_from_spec"]
        closed = returned["pf_closed_form"]
    else:
        f = returned["skew_function_from_spec_at"]
        closed = returned["theorem_coefficient"] * returned["vandermonde_at"]
    definition = returned["pf_definition"]
    require(definition == returned["pf_exterior"] == closed,
            f"routes disagree at n={args.n}, k={args.k}, seed={args.seed}")
    return returned["random_skew_spec"], f, definition


def involution_op(tracer: Tracer, args, cli) -> None:
    # One span for the whole suite: a span per element would add a visible
    # share to a 0.4 s op.  The isolating calls split it into layers.
    with tracer.span("cli.cmd_involution"):
        status = cli.cmd_involution(args)
    require(status == 0, f"cmd_involution returned {status}")


def isolate_combinat(tracer: Tracer, n: int, k: int):
    from hyperpfaffian import combinat

    with tracer.span("combinat.partitions"):
        partitions = list(combinat.signed_equal_block_partitions(n, k))
    with tracer.span("combinat.tilings"):
        tilings = list(combinat.composition_tilings(n, k))
    require(len(partitions) == wl.partition_count(n, k),
            f"{len(partitions)} partitions of ({n},{k}), closed form {wl.partition_count(n, k)}")
    return partitions, tilings


def isolate_routes(tracer: Tracer, spec, f, result, symbolic: bool) -> dict:
    """Time the routes' layers alone on the op's own skew function."""
    from hyperpfaffian import exterior, hpf, poly

    n, k = f.n, f.k
    values = f.values
    partitions, tilings = isolate_combinat(tracer, n, k)
    # Block values at a point are integers: their products are not the poly
    # layer's, so poly.* reads 0 there.
    products = 0
    if symbolic:
        with tracer.span("poly.block_products"):
            for _, blocks in partitions:
                term = values[blocks[0]]
                for block in blocks[1:]:
                    value = values[block]
                    products += len(term.terms) * len(value.terms)
                    term = term * value
        poly.vandermonde.cache_clear()
        tracer.call("poly.vandermonde", poly.vandermonde, n)
    with tracer.span("exterior.wedge_power"):
        exterior.ExteriorElement.from_subset_values(n, values).wedge_power(n // k)

    block_terms = {_terms(v) for v in values.values()}
    require(len(values) == comb(n, k), f"{len(values)} subset values, C({n},{k}) = {comb(n, k)}")
    if symbolic:
        expected = wl.block_value_terms(n, k)
        require(block_terms == {expected}, f"block values have {block_terms} terms, not {expected}")
        expected = factorial(n) if hpf.theorem_coefficient(spec) else 0
        require(_terms(result) == expected, f"{_terms(result)} result terms, not {expected}")
    block_seconds = tracer.seconds("poly.block_products")
    return {
        "hpf.result_terms": _terms(result),
        "hpf.block_value_terms": max(block_terms),
        "poly.block_products_s": block_seconds,
        "poly.monomial_products": products,
        "poly.monomial_products_per_s": products / block_seconds if symbolic else 0.0,
        "exterior.subsets": len(values),
        "combinat.partitions": len(partitions),
        "combinat.tilings": len(tilings),
    }


def isolate_involution(tracer: Tracer, n: int, k: int) -> dict:
    """Time enumeration, pairing and factorization of W(n, k) apart."""
    from hyperpfaffian import involution as inv

    partitions, tilings = isolate_combinat(tracer, n, k)
    with tracer.span("involution.enumerate"):
        elements = list(inv.weighted_oriented_partitions(n, k))
    repeated, distinct = [], []
    for wop in elements:
        (distinct if inv.has_distinct_weights(wop) else repeated).append(wop)
    with tracer.span("involution.pairing"):
        for wop in repeated:
            require(inv.pairing_involution(inv.pairing_involution(wop)) == wop,
                    f"pairing is not an involution on {wop}")
    with tracer.span("involution.factorization"):
        for wop in distinct:
            require(inv.compose_distinct(*inv.decompose_distinct(wop)) == wop,
                    f"factorization does not round-trip on {wop}")

    require(len(elements) == wl.weighted_partition_count(n, k),
            f"|W| = {len(elements)}, closed form {wl.weighted_partition_count(n, k)}")
    require(len(distinct) == factorial(n) * len(tilings),
            f"{len(distinct)} distinct, n! * tilings = {factorial(n) * len(tilings)}")
    return {
        "combinat.partitions": len(partitions),
        "combinat.tilings": len(tilings),
        "involution.elements": len(elements),
        "involution.repeated": len(repeated),
        "involution.distinct": len(distinct),
    }


# Layer metrics read off span times; a layer the op does not reach reads 0.
SPAN_METRICS = {
    "hpf.pf_definition_s": ("hpf.pf_definition",),
    "hpf.pf_exterior_s": ("hpf.pf_exterior",),
    "hpf.pf_closed_form_s": ("hpf.pf_closed_form", "hpf.theorem_coefficient", "poly.vandermonde_at"),
    "hpf.spec_eval_s": ("hpf.skew_function_from_spec", "hpf.skew_function_from_spec_at"),
    "poly.vandermonde_s": ("poly.vandermonde",),
    "exterior.wedge_power_s": ("exterior.wedge_power",),
    "combinat.partitions_s": ("combinat.partitions",),
    "combinat.tilings_s": ("combinat.tilings",),
    "involution.enumerate_s": ("involution.enumerate",),
    "involution.pairing_s": ("involution.pairing",),
    "involution.factorization_s": ("involution.factorization",),
}

# Layer metrics the isolating calls return; 0 where the op has no such layer.
MEASURED_METRICS = (
    "hpf.result_terms", "hpf.block_value_terms", "poly.block_products_s",
    "poly.monomial_products", "poly.monomial_products_per_s", "exterior.subsets",
    "combinat.partitions", "combinat.tilings", "involution.elements",
    "involution.repeated", "involution.distinct",
)


def layer_metrics(tracer: Tracer, measured: dict) -> dict:
    metrics = {name: tracer.seconds(*spans) for name, spans in SPAN_METRICS.items()}
    metrics.update({name: measured.get(name, 0) for name in MEASURED_METRICS})
    definition = metrics["hpf.pf_definition_s"]
    metrics["hpf.pf_definition_self_s"] = (
        definition - metrics["poly.block_products_s"] - metrics["combinat.partitions_s"]
        if definition else 0.0
    )
    return metrics


def main(argv: list[str]) -> int:
    workload = wl.WORKLOADS[argv[0]]
    tracer = Tracer()
    from hyperpfaffian import cli  # imported inside the op, as the CLI imports it

    args = cli.build_parser().parse_args(wl.op_argv(workload, int(argv[1])))
    try:
        if args.command == "verify":
            inputs = verify_op(tracer, args, cli)
        else:
            involution_op(tracer, args, cli)
        sys.stdout.flush()
        op_end = time.monotonic()
        top_level_s = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
        tracer.op = "isolate"
        if args.command == "verify":
            measured = isolate_routes(tracer, *inputs, symbolic=args.mode == "symbolic")
        else:
            measured = isolate_involution(tracer, args.n, args.k)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "op_end": op_end,
        "top_level_s": top_level_s,
        "metrics": layer_metrics(tracer, measured),
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
