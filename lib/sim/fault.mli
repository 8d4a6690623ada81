(** Deterministic, seeded fault injection for the simulated dataplane.

    A plan maps core names to timed perturbations; {!Server.create}
    wires a core's share of a plan into its poll loop, and
    [Nfp_infra.System] resolves plans to cores by name. All randomness
    (drop decisions, storm crash times) derives from the plan seed
    folded with the core name — never from the simulation's jitter
    streams — so two runs of one plan are identical and an {!empty}
    plan leaves the simulation byte-identical to one without any fault
    machinery (enforced differentially in test/test_fastpath.ml). *)

type event =
  | Crash of { at_ns : float }
      (** the core stops; only an external revive restores it *)
  | Hang of { at_ns : float; duration_ns : float }
      (** wedged for a window, then resumes *)
  | Slowdown of { at_ns : float; factor : float }
      (** service times scale by [factor] from T on *)
  | Drop of { probability : float }  (** each job vanishes with probability p *)

type spec = { core : string; events : event list }
(** [core] is an exact name or a trailing-['*'] prefix pattern
    (["mid1:*"] perturbs every NF core of graph 1). *)

type plan = { seed : int64; specs : spec list }

val empty : plan

val is_empty : plan -> bool

val plan : ?seed:int64 -> spec list -> plan

val crash : at_ns:float -> string -> spec
(** @raise Invalid_argument when [at_ns] is negative, NaN or infinite. *)

val hang : at_ns:float -> duration_ns:float -> string -> spec
(** @raise Invalid_argument when [at_ns] or [duration_ns] is negative,
    NaN or infinite. Kept for tests, like {!slowdown}, {!drop}, {!jumble},
    {!burst} and {!flapping}: the robustness suites write their fault
    plans with these constructors. *)

val slowdown : at_ns:float -> factor:float -> string -> spec
(** @raise Invalid_argument when [at_ns] is negative, NaN or infinite,
    or [factor] is not positive (a NaN is rejected too). Kept for tests:
    see {!hang}. *)

val drop : probability:float -> string -> spec
(** @raise Invalid_argument unless [probability] is in [[0, 1]] (a NaN
    is rejected too). Kept for tests: see {!hang}. *)

type core = { events : event list; prng : Nfp_algo.Prng.t }
(** A core's share of a plan: its matching events plus a private PRNG
    stream for drop decisions. *)

val for_core : plan -> string -> core option
(** [None] when no spec matches the name — the server is then built
    with no fault machinery at all. *)

val storm :
  ?seed:int64 -> cores:string list -> mtbf_ns:float -> horizon_ns:float -> unit -> plan
(** Each listed core crashes at exponentially-distributed intervals
    (mean [mtbf_ns]) within [horizon_ns]; draw order is per-core, so
    the storm is stable under reordering of [cores].
    @raise Invalid_argument unless [mtbf_ns > 0] and [horizon_ns] is
    finite. Kept for tests: [seed], which the tests vary to check that
    the storm depends on it. *)

(** {2 Link fault domain}

    Where specs perturb cores, link specs perturb the {e fabric
    between} cores: every inter-core edge is a named link (the
    [Nfp_infra.System] convention is ["link:<destination core>"] — the
    ingress port the edge lands on — plus ["link:migrate:<core>"] for
    migration transfer channels), and a link plan assigns each a set of
    fault processes: i.i.d. loss, duplication, bounded reordering,
    Gilbert–Elliott two-state burst loss, and hard partition windows.
    All randomness derives from the plan seed folded with the link
    name; {!no_links} leaves the simulation byte-identical to one
    without any link machinery. *)

type link_fault =
  | Loss of { probability : float }
      (** each transit vanishes with probability p *)
  | Duplicate of { probability : float; gap_ns : float }
      (** each transit is doubled with probability p; the copy lands
          [gap_ns] later *)
  | Jumble of { probability : float; span_ns : float }
      (** each transit is delayed by a uniform draw in (0, span_ns]
          with probability p — it arrives behind its successors *)
  | Burst of { p_enter : float; p_exit : float; drop : float }
      (** Gilbert–Elliott two-state burst loss: good/bad transitions
          drawn per transit ([p_enter], [p_exit]); the bad state drops
          each transit with probability [drop] *)
  | Partition of { at_ns : float; duration_ns : float }
      (** hard outage: every transit inside the window is lost *)

type link_spec = { link : string; faults : link_fault list }
(** [link] is an exact name or a trailing-['*'] prefix pattern
    (["link:mid1:*"] perturbs every edge into graph 1's NF cores). *)

type link_plan = { link_seed : int64; link_specs : link_spec list }

val no_links : link_plan

val links_empty : link_plan -> bool

val link_plan : ?seed:int64 -> link_spec list -> link_plan

(** The link-spec constructors check their inputs when the plan is
    built: each raises [Invalid_argument] for a probability outside
    [[0, 1]] or a time ([gap_ns], [span_ns], [at_ns], [duration_ns],
    [down_ns], [up_ns]) below 0, a NaN included, an infinite [gap_ns],
    [span_ns], [down_ns] or [up_ns], and {!flapping} for [cycles < 1].
    A {!partition} may have an infinite [at_ns] (it never starts) or
    [duration_ns] (a permanent outage). *)

val loss : probability:float -> string -> link_spec

val duplicate : ?gap_ns:float -> probability:float -> string -> link_spec
(** Kept for tests: [gap_ns], which the tests use to space the
    duplicate out. *)

val jumble : probability:float -> span_ns:float -> string -> link_spec
(** Kept for tests: see {!hang}. *)

val burst : p_enter:float -> p_exit:float -> drop:float -> string -> link_spec
(** Kept for tests: see {!hang}. *)

val partition : at_ns:float -> duration_ns:float -> string -> link_spec

val flapping :
  at_ns:float -> down_ns:float -> up_ns:float -> cycles:int -> string -> link_spec
(** [cycles] partition windows of [down_ns] each, separated by [up_ns]
    of health, starting at [at_ns]. Kept for tests: see {!hang}. *)

type link_state = {
  l_name : string;
  l_faults : link_fault list;
  l_prng : Nfp_algo.Prng.t;
  mutable l_bad : bool;  (** Gilbert–Elliott: currently in the bad state *)
  l_windows : float array;
      (** the [Partition] windows of [l_faults] as flat
          [start; start + duration] pairs *)
}
(** One link's share of a plan: its matching faults, a private seeded
    PRNG stream, the mutable burst-loss state, and the partition
    windows in a form the per-transit check reads without allocating. *)

val link_for : link_plan -> string -> link_state option
(** [None] when no spec matches the name — the channel then carries a
    perfect fabric. *)

val link_partitioned : link_state -> now_ns:float -> bool
(** Whether any partition window covers [now_ns]. Pure in time — no
    PRNG draw — so health probes never perturb the loss streams. *)

type transit =
  | T_pass
  | T_pass_dup of float  (** deliver now, and again [gap_ns] later *)
  | T_drop
  | T_delay of float  (** deliver this many ns late, behind successors *)

val transit : link_state -> now_ns:float -> transit
(** Draw what the fabric does to one transit of the link. A partition
    short-circuits to {!T_drop} without a draw; otherwise every fault
    process draws (the Gilbert–Elliott chain advances on every
    transit), loss wins over duplication wins over reordering. *)

(** {2 Surge plans}

    Where fault specs perturb cores, surge shapes perturb the {e offered
    load}: a surge evaluates to a rate multiplier over simulated time
    and [Harness.run ~arrivals:(Surge s)] re-samples it at every
    arrival. Multipliers of overlapping shapes compose by product;
    a surge with no shapes is exactly [Uniform base_mpps]. *)

type surge_shape =
  | Step of { at_ns : float; factor : float }
      (** load multiplies by [factor] from [at_ns] on *)
  | Spike of { at_ns : float; duration_ns : float; factor : float }
      (** [factor] inside the window, 1.0 outside *)
  | Ramp of { from_ns : float; to_ns : float; factor : float }
      (** linear 1.0 -> [factor] across the window, [factor] after *)

type surge = { base_mpps : float; shapes : surge_shape list }

val surge : base_mpps:float -> surge_shape list -> surge
(** @raise Invalid_argument unless [base_mpps] and every factor are
    positive and finite, every time and duration is [>= 0], and each
    ramp's [to_ns >= from_ns] (a NaN is rejected too). *)

val surge_rate : surge -> now_ns:float -> float
(** The offered load (Mpps) the plan prescribes at [now_ns]. *)
