(* Deterministic, seeded fault injection for the simulated dataplane.

   A fault plan describes, per core (by name, or by a trailing-'*'
   prefix pattern), a set of timed perturbations: a crash at time T, a
   hang over a window, a service-time slowdown from time T on, or a
   per-job transient drop probability. [Server.create ?fault] wires the
   events into a core without the NF code knowing; [Nfp_infra.System]
   resolves plans to cores by name, so any NF, merger, agent or
   classifier core can be perturbed from configuration alone.

   Determinism: every random draw a plan induces — drop decisions on a
   core, crash times of a [storm] — comes from a PRNG seeded by the
   plan seed (mixed with the core name for per-core streams), never
   from the simulation's own jitter streams. Two runs of the same plan
   are identical, and a run with [empty] is byte-identical to a run
   without any fault machinery at all (enforced by the differential
   test in test/test_fastpath.ml). *)

type event =
  | Crash of { at_ns : float }  (* the core stops; only an external revive restores it *)
  | Hang of { at_ns : float; duration_ns : float }  (* wedged for a window, then resumes *)
  | Slowdown of { at_ns : float; factor : float }  (* service times scale by [factor] from T on *)
  | Drop of { probability : float }  (* each job vanishes with probability p *)

type spec = { core : string; events : event list }

type plan = { seed : int64; specs : spec list }

let empty = { seed = 1L; specs = [] }

let is_empty p = p.specs = []

let plan ?(seed = 1L) specs = { seed; specs }

(* Input checks of the constructors, run when a plan is built: each
   test is [not (...)], so a NaN fails too. *)
let probability_in_range ~who name p =
  if not (0.0 <= p && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.%s: %s must be in [0, 1]" who name)

let non_negative ~who name x =
  if not (x >= 0.0) then invalid_arg (Printf.sprintf "Fault.%s: %s must be >= 0" who name)

let finite_time ~who name x =
  non_negative ~who name x;
  if x = Float.infinity then invalid_arg (Printf.sprintf "Fault.%s: %s must be finite" who name)

(* A negative or NaN time would raise mid-run from the engine, a
   negative window would silently lose the packets it wedges, and an
   infinite time or window would park an event at +inf that the run
   waits for forever (or ends at, with an infinite duration). *)
let crash ~at_ns core =
  finite_time ~who:"crash" "at_ns" at_ns;
  { core; events = [ Crash { at_ns } ] }

let hang ~at_ns ~duration_ns core =
  finite_time ~who:"hang" "at_ns" at_ns;
  finite_time ~who:"hang" "duration_ns" duration_ns;
  { core; events = [ Hang { at_ns; duration_ns } ] }

let slowdown ~at_ns ~factor core =
  finite_time ~who:"slowdown" "at_ns" at_ns;
  if not (factor > 0.0) then invalid_arg "Fault.slowdown: factor must be positive";
  { core; events = [ Slowdown { at_ns; factor } ] }

let drop ~probability core =
  probability_in_range ~who:"drop" "probability" probability;
  { core; events = [ Drop { probability } ] }

(* Exact name, or prefix followed by '*' ("mid1:*" perturbs every NF
   core of graph 1). *)
let matches ~pattern ~name =
  pattern = name
  || String.length pattern > 0
     && pattern.[String.length pattern - 1] = '*'
     &&
     let n = String.length pattern - 1 in
     String.length name >= n && String.sub name 0 n = String.sub pattern 0 n

(* Per-core PRNG stream: the plan seed folded with the core name, so
   adding a fault on one core never shifts the draws of another. *)
let seed_for p name =
  let h = ref (Nfp_algo.Hashing.mix64 p.seed) in
  String.iter
    (fun c ->
      h := Nfp_algo.Hashing.mix64 (Int64.add (Int64.mul !h 131L) (Int64.of_int (Char.code c))))
    name;
  !h

(* Everything a server needs to perturb itself: the matching events and
   a private PRNG for drop decisions. *)
type core = { events : event list; prng : Nfp_algo.Prng.t }

let for_core p name =
  if p.specs = [] then None
  else
    match
      List.concat_map
        (fun s -> if matches ~pattern:s.core ~name then s.events else [])
        p.specs
    with
    | [] -> None
    | events -> Some { events; prng = Nfp_algo.Prng.create ~seed:(seed_for p name) }

(* Crash storm: each listed core crashes at exponentially-distributed
   intervals (mean [mtbf_ns]) within [horizon_ns]. Paired with the
   system's Restart recovery this models a fleet of unreliable cores;
   the bench sweeps [mtbf_ns] to trace availability under increasing
   crash rates. Draw order is per-core, so the storm is stable under
   reordering of [cores]. *)
let storm ?(seed = 1L) ~cores ~mtbf_ns ~horizon_ns () =
  if not (mtbf_ns > 0.0) then invalid_arg "Fault.storm: mtbf_ns must be positive";
  if not (Float.is_finite horizon_ns) then invalid_arg "Fault.storm: horizon_ns must be finite";
  let specs =
    List.map
      (fun core ->
        let prng =
          Nfp_algo.Prng.create ~seed:(seed_for { seed; specs = [] } ("storm:" ^ core))
        in
        let rec go t acc =
          let t = t +. Nfp_algo.Prng.exponential prng ~mean:mtbf_ns in
          if t >= horizon_ns then List.rev acc else go t (Crash { at_ns = t } :: acc)
        in
        { core; events = go 0.0 [] })
      cores
  in
  { seed; specs }

(* ------------------------------------------------------------------ *)
(* Surge plans: offered-load shapes                                    *)
(* ------------------------------------------------------------------ *)

(* Where fault specs perturb cores, surge shapes perturb the *offered
   load*: a plan evaluates to a rate multiplier over simulated time,
   and [Harness.run ~arrivals:(Surge s)] re-samples it at every
   arrival. Multipliers of overlapping shapes compose by product. *)
type surge_shape =
  | Step of { at_ns : float; factor : float }
      (* load multiplies by [factor] from [at_ns] on *)
  | Spike of { at_ns : float; duration_ns : float; factor : float }
      (* [factor] inside the window, 1.0 outside *)
  | Ramp of { from_ns : float; to_ns : float; factor : float }
      (* linear 1.0 -> [factor] across the window, [factor] after *)

type surge = { base_mpps : float; shapes : surge_shape list }

let surge ~base_mpps shapes =
  let fail what = invalid_arg ("Fault.surge: " ^ what) in
  if not (base_mpps > 0.0) then fail "base_mpps must be positive";
  if base_mpps = Float.infinity then fail "base_mpps must be finite";
  let factor f =
    if not (f > 0.0) then fail "factor must be positive";
    if f = Float.infinity then fail "factor must be finite"
  in
  let time name t = if not (t >= 0.0) then fail (name ^ " must be >= 0") in
  List.iter
    (function
      | Step { at_ns; factor = f } ->
          factor f;
          time "at_ns" at_ns
      | Spike { at_ns; duration_ns; factor = f } ->
          factor f;
          time "at_ns" at_ns;
          time "duration_ns" duration_ns
      | Ramp { from_ns; to_ns; factor = f } ->
          factor f;
          time "from_ns" from_ns;
          if not (to_ns >= from_ns) then fail "to_ns must be >= from_ns")
    shapes;
  { base_mpps; shapes }

let shape_factor ~now_ns = function
  | Step { at_ns; factor } -> if now_ns >= at_ns then factor else 1.0
  | Spike { at_ns; duration_ns; factor } ->
      if now_ns >= at_ns && now_ns < at_ns +. duration_ns then factor else 1.0
  | Ramp { from_ns; to_ns; factor } ->
      if now_ns <= from_ns then 1.0
      else if now_ns >= to_ns then factor
      else 1.0 +. ((factor -. 1.0) *. (now_ns -. from_ns) /. (to_ns -. from_ns))

let surge_rate s ~now_ns =
  List.fold_left (fun r sh -> r *. shape_factor ~now_ns sh) s.base_mpps s.shapes

(* ------------------------------------------------------------------ *)
(* Link fault domain: lossy interconnect edges                          *)
(* ------------------------------------------------------------------ *)

(* Where [spec]s perturb cores, link specs perturb the *fabric between*
   cores: every inter-core edge of the deployment is a named link (the
   convention in [Nfp_infra.System] is "link:<destination core>" — the
   ingress port of the ring the edge lands on — plus
   "link:migrate:<core>" for migration transfer channels), and a link
   plan assigns each a set of fault processes. Determinism mirrors the
   core plans: every draw comes from a PRNG seeded by the plan seed
   folded with the link name, so adding a fault on one link never
   shifts the draws of another, and a [no_links] plan leaves the
   simulation byte-identical to one without any link machinery. *)
type link_fault =
  | Loss of { probability : float }  (* each transit vanishes with probability p *)
  | Duplicate of { probability : float; gap_ns : float }
      (* each transit is doubled with probability p; the copy lands
         [gap_ns] later *)
  | Jumble of { probability : float; span_ns : float }
      (* each transit is delayed by a uniform draw in (0, span_ns] with
         probability p — out-of-order arrival behind its successors *)
  | Burst of { p_enter : float; p_exit : float; drop : float }
      (* Gilbert–Elliott two-state loss: a good state with no loss and a
         bad state dropping each transit with probability [drop];
         transitions good->bad with [p_enter] and bad->good with
         [p_exit] are drawn per transit *)
  | Partition of { at_ns : float; duration_ns : float }
      (* hard outage: every transit inside the window is lost *)

type link_spec = { link : string; faults : link_fault list }

type link_plan = { link_seed : int64; link_specs : link_spec list }

let no_links = { link_seed = 1L; link_specs = [] }

let links_empty p = p.link_specs = []

let link_plan ?(seed = 1L) specs = { link_seed = seed; link_specs = specs }

let loss ~probability link =
  probability_in_range ~who:"loss" "probability" probability;
  { link; faults = [ Loss { probability } ] }

let duplicate ?(gap_ns = 200.0) ~probability link =
  probability_in_range ~who:"duplicate" "probability" probability;
  finite_time ~who:"duplicate" "gap_ns" gap_ns;
  { link; faults = [ Duplicate { probability; gap_ns } ] }

let jumble ~probability ~span_ns link =
  probability_in_range ~who:"jumble" "probability" probability;
  finite_time ~who:"jumble" "span_ns" span_ns;
  { link; faults = [ Jumble { probability; span_ns } ] }

let burst ~p_enter ~p_exit ~drop link =
  probability_in_range ~who:"burst" "p_enter" p_enter;
  probability_in_range ~who:"burst" "p_exit" p_exit;
  probability_in_range ~who:"burst" "drop" drop;
  { link; faults = [ Burst { p_enter; p_exit; drop } ] }

let partition ~at_ns ~duration_ns link =
  non_negative ~who:"partition" "at_ns" at_ns;
  non_negative ~who:"partition" "duration_ns" duration_ns;
  { link; faults = [ Partition { at_ns; duration_ns } ] }

(* A flapping link: [cycles] partition windows of [down_ns] each,
   separated by [up_ns] of health, starting at [at_ns]. *)
let flapping ~at_ns ~down_ns ~up_ns ~cycles link =
  non_negative ~who:"flapping" "at_ns" at_ns;
  (* An infinite window length would make the first window start at
     [0 * inf = nan], and the link would never be partitioned. *)
  List.iter
    (fun (name, x) -> finite_time ~who:"flapping" name x)
    [ ("down_ns", down_ns); ("up_ns", up_ns) ];
  if cycles < 1 then invalid_arg "Fault.flapping: cycles must be >= 1";
  {
    link;
    faults =
      List.init cycles (fun i ->
          Partition
            {
              at_ns = at_ns +. (float_of_int i *. (down_ns +. up_ns));
              duration_ns = down_ns;
            });
  }

(* Runtime state of one link: its matching faults, a private PRNG for
   the probabilistic draws, the mutable Gilbert–Elliott state, and the
   partition windows flattened to [start; end] pairs. *)
type link_state = {
  l_name : string;
  l_faults : link_fault list;
  l_prng : Nfp_algo.Prng.t;
  mutable l_bad : bool;  (* Gilbert–Elliott: currently in the bad state *)
  l_windows : float array;
}

let link_for p name =
  if p.link_specs = [] then None
  else
    match
      List.concat_map
        (fun s -> if matches ~pattern:s.link ~name then s.faults else [])
        p.link_specs
    with
    | [] -> None
    | faults ->
        Some
          {
            l_name = name;
            l_faults = faults;
            l_prng =
              Nfp_algo.Prng.create
                ~seed:
                  (seed_for { seed = p.link_seed; specs = [] } ("link:" ^ name));
            l_bad = false;
            l_windows =
              Array.of_list
                (List.concat_map
                   (function
                     | Partition { at_ns; duration_ns } -> [ at_ns; at_ns +. duration_ns ]
                     | Loss _ | Duplicate _ | Jumble _ | Burst _ -> [])
                   faults);
          }

(* Partition windows are pure functions of time — no PRNG draw — so
   checking one (health probes do, every interval) never perturbs the
   loss/duplication streams. A loop over the flat windows rather than a
   walk of [l_faults]: small enough for the caller to inline, so
   [now_ns] is never boxed to make the call. *)
let link_partitioned st ~now_ns =
  let w = st.l_windows in
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < Array.length w do
    if now_ns >= w.(!i) && now_ns < w.(!i + 1) then hit := true;
    i := !i + 2
  done;
  !hit

(* What the fabric does to one transit of the link, drawn at send time.
   Fault processes are evaluated in declaration order; the first loss
   wins (a dropped transit cannot also be duplicated), duplication wins
   over reordering, and a partition short-circuits everything without a
   draw. The Gilbert–Elliott state machine advances on every
   non-partitioned transit, whatever the other faults decide. *)
type transit =
  | T_pass
  | T_pass_dup of float  (* deliver now, and again [gap_ns] later *)
  | T_drop
  | T_delay of float  (* deliver [delay_ns] late, behind its successors *)

(* One step per fault process, the verdict so far carried in the
   arguments ([nan] = not duplicated / not delayed): no refs and no
   closure, so a pass or a drop allocates nothing. Every draw is taken
   before it is OR-ed into [dropped], so an earlier loss never skips a
   later draw and the PRNG stream is consumed identically whatever the
   verdict. *)
let rec draw st faults dropped dup delay =
  match faults with
  | [] ->
      if dropped then T_drop
      else if not (Float.is_nan dup) then T_pass_dup dup
      else if not (Float.is_nan delay) then T_delay delay
      else T_pass
  | Partition _ :: rest -> draw st rest dropped dup delay
  | Burst { p_enter; p_exit; drop } :: rest ->
      (* One transition draw per transit, then a loss draw while bad:
         the classic per-slot Gilbert–Elliott walk. *)
      let t = Nfp_algo.Prng.float st.l_prng in
      if st.l_bad then begin
        if t < p_exit then st.l_bad <- false
      end
      else if t < p_enter then st.l_bad <- true;
      let lost = st.l_bad && Nfp_algo.Prng.float st.l_prng < drop in
      draw st rest (lost || dropped) dup delay
  | Loss { probability } :: rest ->
      let lost = Nfp_algo.Prng.float st.l_prng < probability in
      draw st rest (lost || dropped) dup delay
  | Duplicate { probability; gap_ns } :: rest ->
      let hit = Nfp_algo.Prng.float st.l_prng < probability in
      draw st rest dropped (if hit then gap_ns else dup) delay
  | Jumble { probability; span_ns } :: rest ->
      if Nfp_algo.Prng.float st.l_prng < probability then
        draw st rest dropped dup (Float.max 1.0 (Nfp_algo.Prng.float st.l_prng *. span_ns))
      else draw st rest dropped dup delay

let transit st ~now_ns =
  if link_partitioned st ~now_ns then T_drop else draw st st.l_faults false nan nan
