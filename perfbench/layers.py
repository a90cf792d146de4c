"""Per-layer metrics of the traced run and the end-to-end metric each should move.

Each entry is (name, unit, better, moves).  `moves` names the end-to-end
metric and workload a change to that layer should show up in, so a later
performance change can cite both by name.  BENCHMARK.json lists the same
names, units and directions.
"""

from workloads import CHECK_NAMES

LAYER_METRICS = (
    ("fock.displaced_parity.busy_s", "s", "lower", "op_p50_ms on verify"),
    ("fock.operator_json.busy_s", "s", "lower", "op_p50_ms on cli_files"),
    ("fock.operator_json.bytes", "bytes", "lower", "op_p50_ms on cli_files"),
    ("fock.distance.busy_s", "s", "lower", "op_p50_ms on verify, certify"),
    ("channels.apply.calls", "count", "lower", "op_p50_ms on verify, cli_files"),
    ("channels.apply.busy_s", "s", "lower", "op_p50_ms on verify, cli_files"),
    ("channels.apply.dim_out_over_in", "ratio", "lower",
     "op_p50_ms on verify, cli_files"),
    ("channels.coherent_projection.compose.busy_s", "s", "lower",
     "op_p50_ms on verify"),
    ("channels.coherent_projection.reversed.busy_s", "s", "lower",
     "op_p50_ms on verify"),
    ("channels.coherent_projection.projection.busy_s", "s", "lower",
     "op_p50_ms on verify"),
    ("channels.superoperator.busy_s", "s", "lower",
     "op_tail_ms, peak_rss_mb on certify"),
    ("channels.superoperator.bytes_computed", "bytes", "lower",
     "op_tail_ms, peak_rss_mb on certify"),
    ("channels.inverse.cold.busy_s", "s", "lower", "ops_per_s on certify"),
    ("channels.inverse.cold.calls", "count", "lower", "ops_per_s on certify"),
    ("channels.inverse.warm.busy_s", "s", "lower", "ops_per_s on certify"),
    ("channels.dilation.amplifier.busy_s", "s", "lower", "ops_per_s on certify"),
    ("channels.dilation.attenuator.busy_s", "s", "lower", "ops_per_s on certify"),
    ("channels.kraus.busy_s", "s", "lower", "ops_per_s on certify"),
    ("phasespace.sample_W.calls", "count", "lower",
     "op_p50_ms on verify, cli_files"),
    ("phasespace.sample_W.busy_s", "s", "lower", "op_p50_ms on verify, cli_files"),
    ("phasespace.sample_W.steps_computed", "count", "lower",
     "op_p50_ms on verify, cli_files"),
    ("phasespace.sample_Q.busy_s", "s", "lower", "op_p50_ms on verify"),
    ("phasespace.weierstrass.busy_s", "s", "lower", "op_p50_ms on verify"),
    ("phasespace.w_char_at.busy_s", "s", "lower", "ops_per_s on certify"),
    ("phasespace.csv.busy_s", "s", "lower", "op_p50_ms on cli_files"),
    ("phasespace.csv.bytes", "bytes", "lower", "op_p50_ms on cli_files"),
    *((f"analysis.check.{name}.s", "s", "lower", "op_p50_ms on verify")
      for name in CHECK_NAMES),
    *((f"analysis.check.{name}.dev", "1", "lower",
       "accuracy_margin_decades on verify") for name in CHECK_NAMES),
    ("analysis.battery.busy_s", "s", "lower", "setup_s on certify"),
    ("analysis.classicality.busy_s", "s", "lower", "ops_per_s on certify"),
    ("analysis.profile.busy_s", "s", "lower", "ops_per_s on certify"),
    # Criterion 9 is red by design: recorded here, never gated.
    *((f"analysis.inverse.roundtrip_td.fock{n}", "1", "lower",
       "none; criterion 9 figure, recorded on certify") for n in range(4)),
    ("analysis.classicality.certified", "count", "higher",
     "none; criterion 9 figure, recorded on certify"),
    ("cli.state.p50_ms", "ms", "lower", "op_p50_ms on cli_files"),
    ("cli.channel.p50_ms", "ms", "lower", "op_p50_ms on cli_files"),
    ("cli.dist.p50_ms", "ms", "lower", "op_p50_ms on cli_files"),
    ("cli.bytes_written", "bytes", "lower", "op_p50_ms on cli_files"),
    # An exception escaping cli.main refuses a malformed request as surely as
    # a typed error does, so it is not a failed op; these count the typed share.
    ("cli.error_path.typed", "count", "higher",
     "none; typed-error share of malformed requests on cli_files"),
    ("cli.error_path.attempted", "count", "higher",
     "none; malformed requests sent on cli_files"),
    ("trace.overhead_ratio", "ratio", "lower", "none; the cost of tracing"),
)
