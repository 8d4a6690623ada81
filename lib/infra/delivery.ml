open Nfp_packet
open Runtime

(* The output side of every path. The packet's own metadata names it:
   contexts stamp and copies tag each version, and the twin chains stamp
   version 1. On armed runs a replayed or timeout-completed branch must
   never deliver the same (PID, version) twice. *)
let deliver_out rt pkt =
  let pid = Packet.pid pkt in
  let a = Int64.to_int pid and b = Packet.version pkt in
  if Dedup.seen rt.delivered ~a ~b then rt.health.deduped <- rt.health.deduped + 1
  else begin
    Dedup.remember rt.delivered ~a ~b;
    Nfp_sim.Engine.send rt.egress pid pkt 0
  end

(* The egress edge (merger/NF -> delivery port). The reroute of a Down
   delivery link is delivery itself — the detour models the alternate
   path to the egress NIC, and the exactly-once filter keeps it safe. *)
let delivery_port rt =
  let deliver pkt =
    deliver_out rt pkt;
    true
  in
  offer_via (channel_for rt ~name:"delivery" ~deliver ~reroute:(deliver_out rt)) deliver
