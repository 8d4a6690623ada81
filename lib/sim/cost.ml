type t = {
  ghz : float;
  ring_enqueue : int;
  ring_dequeue : int;
  classifier : int;
  classify_hit : int;
  classify_group : int;
  classify_rule : int;
  switch_forward : int;
  switch_per_hop : int;
  header_copy : int;
  copy_base : int;
  copy_per_byte : float;
  merge_delivery : int;
  merge_op : int;
  merger_agent : int;
  nf_runtime : int;
  rtc_call : int;
  wire_ns : float;
  batch : int;
  burst_saving : int;  (* per-job dispatch cycles a breath's followers skip *)
  restart_ns : float;  (* bringing a crashed NF container back (§7 fault model) *)
  log_append : int;  (* appending one packet reference to the input log *)
  checkpoint_cycles : int;  (* snapshotting an NF's state tables *)
  replay_cycles : int;  (* per-packet dispatch overhead of log replay *)
  ack_cycles : int;  (* assembling + processing one cumulative ack of a reliable channel *)
  retransmit_cycles : int;  (* re-emitting one buffered packet onto the fabric *)
}

let default =
  {
    ghz = 3.0;
    ring_enqueue = 24;
    ring_dequeue = 24;
    classifier = 170;
    classify_hit = 0;
    classify_group = 0;
    classify_rule = 0;
    switch_forward = 300;
    switch_per_hop = 12;
    header_copy = 90;
    copy_base = 40;
    copy_per_byte = 0.15;
    merge_delivery = 107;
    merge_op = 45;
    merger_agent = 12;
    nf_runtime = 30;
    rtc_call = 30;
    wire_ns = 4000.0;
    batch = 32;
    (* Batch cost model: jobs after the first of one poll-loop breath
       skip the ring-dequeue synchronization (the burst is one
       synchronized drain) and the per-packet run-to-completion
       dispatch — ring_dequeue + rtc_call. Charged by Server as a
       deduction from follower service times, so a batch of 1 is
       bit-identical to per-packet charging. *)
    burst_saving = 54;
    (* Container respawn plus ring re-attachment: ~400us, the order of a
       process fork+exec; VM restore would be milliseconds. *)
    restart_ns = 400_000.0;
    (* Lossless-recovery terms, charged only on deployments that arm
       checkpointing: one ring-slot write per logged packet, a
       copy-on-write table snapshot per checkpoint (~4us at 3 GHz), and
       a dequeue+dispatch per replayed packet on top of the NF's own
       processing cost. *)
    log_append = 40;
    checkpoint_cycles = 12_000;
    replay_cycles = 60;
    (* Reliable-channel terms, charged only when link channels are
       armed: a cumulative ack is one counter exchange piggybacked on a
       breath completion; a retransmission re-reads the tx buffer slot
       and re-enqueues — both modeled as added transit delay on the
       channel, never as core time (the fabric port does the work). *)
    ack_cycles = 60;
    retransmit_cycles = 120;
  }

(* VM rings (virtio/vhost) pay vmexit-amortized synchronization that
   container shared-memory rings avoid; the paper's §7 argues the same
   design carries over with NetVM-style VM delivery at higher per-hop
   cost. *)
let vm =
  {
    default with
    ring_enqueue = 90;
    ring_dequeue = 90;
    classifier = 260;
    header_copy = 140;
    copy_base = 80;
    copy_per_byte = 0.25;
    wire_ns = 6000.0;
    (* vm ring ops cost more, so a burst amortizes more: ring_dequeue
       (90) + rtc_call (30). *)
    burst_saving = 120;
  }

(* CT-lookup structure made visible in simulated time: a cache hit is
   one hash probe, a miss one probe per tuple-space group (or, for the
   reference scan, one compare per rule examined). The §6 reproduction
   experiments keep these at zero — the seed calibration charges
   classification as the flat [classifier] constant on the classifier
   core, and their results must not move — so the classify bench opts
   in with this profile. *)
let classified = { default with classify_hit = 35; classify_group = 95; classify_rule = 30 }

let ns_of_cycles t c = float_of_int c /. t.ghz
