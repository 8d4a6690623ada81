(* Overload control plane of a deployment: the ring watermarks every
   compiled core arms, the priority-aware admission controller at the
   classifier front end, and the per-replica pressure-degrade switch.

   Opt-in: without a config no watermark is armed, [shed] admits
   everything and every switch runs its NF at full fidelity, so the
   deployment is bit-for-bit the pre-overload system. *)

type config = { high_watermark : int; low_watermark : int; degrade_enabled : bool }

(* 3/4 and 3/8 of the default ring capacity. *)
let default = { high_watermark = 96; low_watermark = 48; degrade_enabled = true }

(* Of every [trickle] consecutive arrivals of a class being shed, one is
   admitted anyway, so no class starves outright. *)
let trickle = 16

(* Minimum time between shed-level re-evaluations: the ladder moves at
   most one class per poll. *)
let poll_ns = 2_000.0

type t = {
  engine : Nfp_sim.Engine.t;
  config : config option;
  watermarks : (int * int) option;
  classes : int array;  (* admission class of each MID, at [mid - 1] *)
  max_class : int;
  mutable pressured : unit -> bool;
  mutable level : int;  (* classes below this are shed *)
  mutable last_poll : float;
  seen : int array;  (* per class: arrivals while shed, for the trickle *)
  shed_class : int array;
  health : Nfp_sim.Harness.health;
}

(* The ladder never climbs past the highest class any chain declares,
   so the top class is never shed. *)
let create ~engine ?config ~priorities ~health () =
  let max_class = Array.fold_left (fun acc p -> max acc (max 0 p)) 0 priorities in
  {
    engine;
    config;
    watermarks = Option.map (fun c -> (c.high_watermark, c.low_watermark)) config;
    classes = Array.map (max 0) priorities;
    max_class;
    pressured = (fun () -> false);
    level = 0;
    last_poll = neg_infinity;
    seen = Array.make (max_class + 1) 0;
    shed_class = Array.make (max_class + 1) 0;
    health;
  }

let watermarks t = t.watermarks

let watch t ~pressured = t.pressured <- pressured

(* An escalating shed level with per-poll hysteresis: while any core's
   watermark latch is raised the level climbs one class per poll; when
   pressure clears it relaxes one class per poll. *)
let shed t mid =
  match t.config with
  | None -> false
  | Some _ ->
      let now = Nfp_sim.Engine.now t.engine in
      if now -. t.last_poll >= poll_ns then begin
        t.last_poll <- now;
        if t.pressured () then begin
          if t.level < t.max_class then t.level <- t.level + 1
        end
        else if t.level > 0 then t.level <- t.level - 1
      end;
      let cls = t.classes.(mid - 1) in
      if cls >= t.level then false
      else begin
        t.seen.(cls) <- t.seen.(cls) + 1;
        if t.seen.(cls) mod trickle = 0 then false
        else begin
          t.health.drops.shed <- t.health.drops.shed + 1;
          t.shed_class.(cls) <- t.shed_class.(cls) + 1;
          true
        end
      end

let shed_by_class t =
  match t.config with
  | None -> []
  | Some _ -> Array.to_list (Array.mapi (fun c n -> (c, n)) t.shed_class)

(* ------------------------------------------------------------------ *)
(* Pressure-degrade switch                                             *)
(* ------------------------------------------------------------------ *)

(* [mode] is [None] without a config, with [degrade_enabled = false] or
   for an NF that declares no degrade mode: the switch then always runs
   the NF at full fidelity. [pressured] reads the replica's own ring;
   within one breath its occupancy is constant, so pricing and execution
   agree per breath. *)
type switch = {
  ov : t;
  nf : Nfp_nf.Nf.t;
  mode : Nfp_nf.Nf.degrade option;
  mutable self_pressured : unit -> bool;
  mutable active : bool;
}

let switch t (nf : Nfp_nf.Nf.t) =
  let mode =
    match t.config with Some c when c.degrade_enabled -> nf.degrade | _ -> None
  in
  { ov = t; nf; mode; self_pressured = (fun () -> false); active = false }

let bind sw ~pressured = sw.self_pressured <- pressured

let cost_cycles sw pkt =
  match sw.mode with
  | Some d when sw.self_pressured () -> d.Nfp_nf.Nf.d_cost_cycles pkt
  | _ -> sw.nf.cost_cycles pkt

let process sw pkt =
  match sw.mode with
  | None -> sw.nf.process pkt
  | Some d ->
      let p = sw.self_pressured () in
      if p <> sw.active then begin
        sw.active <- p;
        if p then sw.ov.health.degrade_switches <- sw.ov.health.degrade_switches + 1
      end;
      if p then begin
        sw.ov.health.drops.degraded <- sw.ov.health.drops.degraded + 1;
        d.Nfp_nf.Nf.d_process pkt
      end
      else sw.nf.process pkt
