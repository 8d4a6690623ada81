(* The mergers (paper §5.3): instances shared across service graphs,
   each with a private accumulating table, and the agent that steers a
   delivery to one when there are several. *)

open Runtime
open Program

type cat_entry = {
  mutable c_received : int;
  mutable c_nil_mask : int;
  mutable c_arrived_mask : int;  (* branches seen, for merger-timeout completion *)
}

(* Merge completion, shared by the full-arrival path and the timeout
   path. [nil_mask] decides the drop policy; [skip_mask] marks branches
   whose versions must not feed the merge ops — nil branches
   (half-processed) and, on a timeout, branches that never arrived.
   With [skip_mask = nil_mask] this is exactly the pre-timeout
   completion. *)
let complete rt m ctx ~nil_mask ~skip_mask =
  let dropped =
    if m.m_drop_any then nil_mask <> 0 else nil_mask land (1 lsl m.m_winner) <> 0
  in
  if dropped then begin
    if Array.length m.m_nil_sends = 0 then
      rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
    m.m_nil_sends
  end
  else begin
    (* Versions from branches that dropped under a priority policy are
       half-processed: an op that reads or writes one is skipped. *)
    let hidden = ref 0 in
    for b = 0 to Array.length m.m_versions - 1 do
      if skip_mask land (1 lsl b) <> 0 then hidden := !hidden lor (1 lsl m.m_versions.(b))
    done;
    let hidden = !hidden land lnot (1 lsl m.m_result_version) in
    for i = 0 to Array.length m.m_ops - 1 do
      let op = m.m_ops.(i) in
      if Nfp_core.Merge_op.version_mask op land hidden = 0 then
        Nfp_core.Merge_op.apply op ~get:Context.slot ctx
    done;
    exec_prog m.m_next ctx
  end

(* Merger instance [index]: shared across service graphs (paper §5.3),
   with a private accumulating table keyed by PID and (MID, merge
   point). *)
let make_merger rt index =
  let cost = rt.config.cost in
  let at : cat_entry Nfp_algo.Pair_table.t = Nfp_algo.Pair_table.create () in
  (* Completed-merge memory (armed runs only): a branch arriving after
     its merge already completed — a straggler emitted by a salvaged
     core after a merge timeout force-completed the accumulation, or a
     late retransmission of a branch a timeout already nil-substituted —
     is consumed silently instead of opening a fresh accumulation that
     would deliver a duplicate. Mergers never see the same (MID, merge,
     PID) complete twice within the bounded dedup window. *)
  let done_tbl = Dedup.filter rt.dedup in
  let service_ns (d : cdelivery) (cell : Nfp_sim.Server.cell) =
    let m = d.d_merge in
    cell.ns <-
      Nfp_sim.Cost.ns_of_cycles cost
        (cost.ring_dequeue + cost.merge_delivery
        + ((m.m_completion_static + dyn_cycles ~cost m.m_next d.d_ctx) / max 1 m.m_expected))
  in
  let execute (d : cdelivery) =
    let m = d.d_merge in
    let a = Int64.to_int (Context.pid d.d_ctx)
    and b = Dedup.merge_limb ~mid:m.m_mid ~merge_id:m.m_id in
    if Dedup.seen done_tbl ~a ~b then begin
      rt.health.deduped <- rt.health.deduped + 1;
      [||]
    end
    else begin
      let entry =
        match Nfp_algo.Pair_table.find at ~a ~b with
        | -1 ->
            let e = { c_received = 0; c_nil_mask = 0; c_arrived_mask = 0 } in
            Nfp_algo.Pair_table.replace at ~a ~b e;
            (* Arm the straggler timeout when this accumulation opens: if
               a failed branch never shows up, merge what did arrive
               rather than wedge the packet (the drop policy still
               applies to arrived nils). *)
            if rt.merge_timeout_ns > 0.0 then
              Nfp_sim.Engine.schedule rt.engine ~delay:rt.merge_timeout_ns (fun () ->
                  let s = Nfp_algo.Pair_table.find at ~a ~b in
                  if s >= 0 && Nfp_algo.Pair_table.value at s == e then begin
                    Nfp_algo.Pair_table.remove at ~a ~b;
                    Dedup.remember done_tbl ~a ~b;
                    rt.health.drops.merge_timed_out <- rt.health.drops.merge_timed_out + 1;
                    let missing = ((1 lsl m.m_expected) - 1) land lnot e.c_arrived_mask in
                    off_emit rt d.d_ctx
                      (complete rt m d.d_ctx ~nil_mask:e.c_nil_mask
                         ~skip_mask:(e.c_nil_mask lor missing))
                  end);
            e
        | s -> Nfp_algo.Pair_table.value at s
      in
      entry.c_received <- entry.c_received + 1;
      if d.d_branch >= 0 then entry.c_arrived_mask <- entry.c_arrived_mask lor (1 lsl d.d_branch);
      if d.d_nil && d.d_branch >= 0 then
        entry.c_nil_mask <- entry.c_nil_mask lor (1 lsl d.d_branch);
      if entry.c_received < m.m_expected then [||]
      else begin
        Nfp_algo.Pair_table.remove at ~a ~b;
        Dedup.remember done_tbl ~a ~b;
        complete rt m d.d_ctx ~nil_mask:entry.c_nil_mask ~skip_mask:entry.c_nil_mask
      end
    end
  in
  core rt
    ~name:(Printf.sprintf "merger#%d" index)
    ~prng:rt.prng ~service_ns ~execute
    ~emit:(fun (d : cdelivery) send -> rt.emit d.d_ctx send)
    ()

let build rt ~instances =
  let cores = Array.init instances (make_merger rt) in
  let ports = Array.map (server_port rt) cores in
  let to_merger (d : cdelivery) =
    ports.(Nfp_algo.Hashing.slot_of_pid (Context.pid d.d_ctx) (Array.length ports)) d
  in
  if instances = 1 then (cores, None, to_merger)
  else begin
    (* The merger agent hashes the immutable PID and steers to an
       instance; its one send per job is that hop. *)
    let cost = rt.config.cost in
    let agent_ns =
      Nfp_sim.Cost.ns_of_cycles cost (cost.ring_dequeue + cost.merger_agent + cost.ring_enqueue)
    in
    let hop = [| () |] in
    let agent =
      core rt ~name:"merger-agent" ~prng:rt.prng
        ~service_ns:(fun _ (cell : Nfp_sim.Server.cell) -> cell.ns <- agent_ns)
        ~execute:(fun _ -> hop)
        ~emit:(fun (d : cdelivery) () -> to_merger d)
        ()
    in
    (cores, Some agent, server_port rt agent)
  end
