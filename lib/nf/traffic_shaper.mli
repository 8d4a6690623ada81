(** Traffic policer (paper Table 2: Linux tc).

    Token-bucket policing: packets above the configured rate are
    dropped. The bucket is driven by an externally supplied clock so the
    simulator controls time; [set_now_ns] is called by the runtime
    before each packet. *)

type stats = { conformed : unit -> int; policed : unit -> int }

val create :
  ?name:string -> ?rate_bps:float -> ?burst_bytes:int -> unit -> Nf.t * stats * (int64 -> unit)
(** Returns the NF, its stats, and the clock-advance function. Defaults:
    1 Gbit/s, 64 KiB burst. Kept for tests: [burst_bytes], which the
    policing tests shrink to a few packets. *)
