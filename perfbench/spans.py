"""Spans around calls into appellseq's modules, for the traced run.

The program is not instrumented: `Tracer.install` replaces public
functions on the imported modules with wrappers from this file and
`uninstall` puts the originals back.  A span records its name, start,
end, parent span and request id; spans stay in memory until the run
writes them out.  A layer's self time is the duration of its spans minus
the time covered by their child spans.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

# span name -> per-layer metric that receives its self time
LAYER_OF_SPAN = {
    "families.family_coefficients": "families.coeff_s",
    "series.TruncatedSeries.__pow__": "series.power_s",
    "engine.related_numbers_inversion": "series.inverse_s",
    "engine.recurrence_values": "engine.recurrence_s",
    "engine.related_numbers_composition": "engine.composition_s",
    "determinants.hessenberg_leading_minors": "determinants.hessenberg_s",
    "determinants.bareiss_det": "determinants.bareiss_s",
    "engine.cross_verify": "engine.verify_s",
    "engine.appell_polynomial": "engine.poly_s",
    "engine.polynomial_eval": "engine.poly_s",
    "cli.build_parser": "cli.parse_s",
    "cli.parse_args": "cli.parse_s",
    "cli.config_from_args": "cli.parse_s",
    "cli.emit_table": "cli.emit_s",
    # `poly` formats its output inline, so what cmd_poly does outside its
    # child spans (parsing --z, formatting, printing) counts as output.
    "cli.cmd_poly": "cli.emit_s",
}

# span name -> metric that counts its calls per request
CALLS_OF_SPAN = {
    "families.family_coefficients": "families.coeff_calls_per_req",
    "series.TruncatedSeries.__pow__": "series.power_calls_per_req",
}

# span name -> metric that keeps the largest "max_num_bits" of its stats hook
PEAK_BITS_OF_SPAN = {
    "engine.recurrence_values": "engine.recurrence_peak_bits",
    "determinants.hessenberg_leading_minors": "determinants.hessenberg_peak_bits",
    "determinants.bareiss_det": "determinants.bareiss_peak_bits",
}

PER_LAYER = {
    **{name: "s/req" for name in LAYER_OF_SPAN.values()},
    **{name: "count/req" for name in CALLS_OF_SPAN.values()},
    **{name: "bits" for name in PEAK_BITS_OF_SPAN.values()},
    "engine.composition_tuples": "count/req",
    "cli.out_bytes": "B/req",
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.peak_bits: Counter = Counter()
        self.tuples: Counter = Counter()  # request id -> compositions enumerated
        self.request_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, stats_hook: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if stats_hook and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            index = len(self.spans)
            record = [name, self.clock(), None, self._stack[-1] if self._stack else None,
                      self.request_id]
            self.spans.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
                if stats_hook:
                    bits = kwargs["stats"].get("max_num_bits", 0)
                    if bits > self.peak_bits[(name, self.request_id)]:
                        self.peak_bits[(name, self.request_id)] = bits

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, cli) -> None:
        """Wrap the public functions the CLI reaches, on the given modules."""
        engine, series = cli.engine, cli.engine.TruncatedSeries
        self._patch(cli, "family_coefficients",
                    self.span("families.family_coefficients", cli.family_coefficients))
        self._patch(series, "__pow__", self.span("series.TruncatedSeries.__pow__", series.__pow__))
        for name in ("related_numbers_inversion", "related_numbers_composition"):
            self._patch(engine, name, self.span(f"engine.{name}", getattr(engine, name)))
        self._patch(engine, "recurrence_values",
                    self.span("engine.recurrence_values", engine.recurrence_values, True))
        for name in ("hessenberg_leading_minors", "bareiss_det"):
            self._patch(engine, name, self.span(f"determinants.{name}", getattr(engine, name), True))
        for name in ("cross_verify", "appell_polynomial", "polynomial_eval"):
            self._patch(cli, name, self.span(f"engine.{name}", getattr(cli, name)))
        for name in ("config_from_args", "emit_table", "cmd_poly"):
            self._patch(cli, name, self.span(f"cli.{name}", getattr(cli, name)))

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.span("cli.parse_args", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", self.span("cli.build_parser", traced_build_parser))

        compositions = engine.compositions

        def counted_compositions(*args, **kwargs):
            for parts in compositions(*args, **kwargs):
                self.tuples[self.request_id] += 1
                yield parts

        self._patch(engine, "compositions", counted_compositions)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, request_ids, scale: dict[str, float], out_bytes: int) -> dict[str, float]:
        """Per-layer metrics over the requests in `request_ids`.

        Times are in reference seconds (`scale` maps each request id to
        reference seconds per second), summed over every span of the run
        and divided by the number of those requests; counts and peaks
        cover those requests only.
        """
        n_req = len(request_ids)
        wanted = set(request_ids)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for index, (name, start, end, _, req) in enumerate(self.spans):
            if name in LAYER_OF_SPAN:
                self_time = end - start - child_time[index]
                metrics[LAYER_OF_SPAN[name]] += self_time * scale[req]
            if name in CALLS_OF_SPAN and req in wanted:
                metrics[CALLS_OF_SPAN[name]] += 1
        for name in {*LAYER_OF_SPAN.values(), *CALLS_OF_SPAN.values()}:
            metrics[name] /= n_req
        for (name, req), bits in self.peak_bits.items():
            if req in wanted:
                key = PEAK_BITS_OF_SPAN[name]
                metrics[key] = max(metrics[key], bits)
        metrics["engine.composition_tuples"] = sum(self.tuples[r] for r in wanted) / n_req
        metrics["cli.out_bytes"] = out_bytes / n_req
        return metrics
