(** ECMP load balancer (paper §6.1: "the commonly used ECMP mechanism in
    data centers that hashed the 5-tuple of the packet").

    Rewrites DIP to the chosen backend and SIP to the virtual IP
    (paper Table 2: R/W on SIP and DIP, R on ports). The hash is on the
    original 5-tuple, so the same flow always picks the same backend. *)

type stats = { per_backend : unit -> int array }

val create :
  ?name:string -> ?vip:int32 -> ?backends:int32 array -> unit -> Nf.t * stats
(** Defaults: vip 192.168.0.1 and 8 synthetic backends. Kept for
    tests: [vip] and [backends], which the tests pin the rewrite to. *)
