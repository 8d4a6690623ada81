(** Token-bucket rate limiter.

    Substrate of the traffic-shaper NF (paper Table 2 lists "Traffic
    Shaper — Linux tc"). Time is caller-supplied in nanoseconds so the
    bucket composes with the discrete-event simulator clock. *)

type t

val create : rate_bps:float -> burst_bytes:int -> t
(** [create ~rate_bps ~burst_bytes] makes a bucket refilled at
    [rate_bps] bits per second with capacity [burst_bytes] bytes; the
    bucket starts full. @raise Invalid_argument on non-positive args. *)

val admit : t -> now_ns:int64 -> size:int -> bool
(** [admit t ~now_ns ~size] refills the bucket up to [now_ns] and, if at
    least [size] bytes of tokens are available, consumes them and
    returns [true]; otherwise leaves the bucket unchanged and returns
    [false]. [now_ns] must be monotonically non-decreasing. *)

val snapshot : t -> float * int64
(** Current [(tokens, last_refill_ns)] pair — the bucket's whole mutable
    state, for checkpointing (the rate and burst are immutable). *)

val restore : t -> float * int64 -> unit
(** Install a pair captured by {!snapshot}. *)
