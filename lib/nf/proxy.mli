(** Forward proxy (paper Table 2: Squid — R/W on DIP and payload).

    Redirects matching destinations to an origin server and stamps a
    Via token into the payload, the observable payload rewrite the
    dependency analysis must account for. *)

type stats = { redirected : unit -> int }

val create : ?name:string -> ?origin:int32 -> ?via:string -> unit -> Nf.t * stats
(** Kept for tests: [origin] and [via], which the tests pin the
    redirect and the stamped token to. *)
