(** Deterministic pseudo-random number generator (SplitMix64).

    The simulator must be reproducible run-to-run, so all randomness
    (arrival processes, service jitter, workload synthesis) flows
    through explicitly seeded instances of this generator. *)

type t

val create : seed:int64 -> t

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val split : t -> t
(** An independent generator derived from this one's stream. *)
