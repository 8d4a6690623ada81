(** Streaming measurement accumulators.

    Collects per-packet latencies and rates during simulation runs and
    reports the summary statistics the paper plots (mean and tail
    latency, processing rate). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], nearest-rank on sorted samples.
    @raise Invalid_argument when empty or [p] out of range (NaN
    included). *)
