(** Observability layer: monotonic {!Clock}, typed metrics {!Registry}
    over mergeable log2 {!Hist} histograms, {!Trace} spans, and a
    {!Slowlog}.  See docs/observability.md.

    [set_enabled false] turns every instrumentation point into a no-op
    (bench A/Bs this to gate overhead at <= 2%); reads and exports keep
    working either way. *)

module Clock = Clock
module Hist = Hist
module Registry = Registry
module Trace = Trace
module Slowlog = Slowlog

let set_enabled = Control.set_enabled
let enabled = Control.is_enabled
